"""Bitset graphs, a symbolic graph-expression language, and graph6 I/O.

Vertices are 0..order-1 and adjacency is one int bitmask per vertex.  The
64-vertex cap keeps every adjacency row in a single machine word, which is
all the headroom the search code ever needs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

MAX_ORDER = 64


class SpecError(ValueError):
    """Malformed or unrealizable graph expression."""


class Graph6Error(ValueError):
    """Malformed graph6 text."""


def _check_order(order: int) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise SpecError(f"graph order must be in 1..{MAX_ORDER}, got {order}")


class Graph:
    """Immutable simple undirected graph with bitmask adjacency rows."""

    __slots__ = ("order", "adj", "_edge_list", "_edge_index", "_edge_bits")

    def __init__(self, order: int, adj):
        adj = tuple(adj)
        _check_order(order)
        if len(adj) != order:
            raise SpecError("adjacency row count does not match order")
        full = (1 << order) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise SpecError("adjacency bits outside vertex range")
            if row >> v & 1:
                raise SpecError(f"self-loop at vertex {v}")
        for v in range(order):
            for u in range(v + 1, order):
                if (adj[v] >> u & 1) != (adj[u] >> v & 1):
                    raise SpecError(f"asymmetric adjacency between {u} and {v}")
        self.order = order
        self.adj = adj
        self._edge_list = None
        self._edge_index = None
        self._edge_bits = None

    @classmethod
    def _raw(cls, order: int, adj: tuple[int, ...]) -> "Graph":
        # Internal fast path: caller guarantees a valid symmetric loop-free adjacency.
        g = object.__new__(cls)
        g.order = order
        g.adj = adj
        g._edge_list = None
        g._edge_index = None
        g._edge_bits = None
        return g

    @classmethod
    def from_edges(cls, order: int, edges) -> "Graph":
        _check_order(order)
        rows = [0] * order
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise SpecError(f"edge ({u},{v}) outside vertex range")
            if u == v:
                raise SpecError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._raw(order, tuple(rows))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges in canonical order: lexicographic on (min endpoint, max endpoint)."""
        if self._edge_list is None:
            out = []
            for u in range(self.order):
                row = self.adj[u] >> (u + 1) << (u + 1)
                while row:
                    low = row & -row
                    out.append((u, low.bit_length() - 1))
                    row ^= low
            self._edge_list = tuple(out)
        return self._edge_list

    @property
    def edge_index(self) -> dict[tuple[int, int], int]:
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.edges)}
        return self._edge_index

    @property
    def edge_bits(self) -> tuple[tuple[int, ...], ...]:
        """edge_bits[u][v] is 1 << i for the edge uv of canonical index i, and 0 for a non-edge."""
        if self._edge_bits is None:
            n = self.order
            bits = [[0] * n for _ in range(n)]
            for i, (u, v) in enumerate(self.edges):
                bits[u][v] = bits[v][u] = 1 << i
            self._edge_bits = tuple(map(tuple, bits))
        return self._edge_bits

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int):
        row = self.adj[v]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise SpecError("cannot add a self-loop")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._raw(self.order, tuple(rows))

    def induced(self, vertices) -> "Graph":
        """Subgraph induced by the given vertices, relabeled 0..k-1 in sorted order."""
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for v in vs:
            row = self.adj[v]
            for u in vs:
                if row >> u & 1:
                    rows[pos[v]] |= 1 << pos[u]
        return Graph._raw(len(vs), tuple(rows))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.order == other.order and self.adj == other.adj

    def __hash__(self):
        return hash((self.order, self.adj))

    def __repr__(self):
        return f"Graph(order={self.order}, edges={self.edge_count})"


# ---------------------------------------------------------------------------
# Symbolic graph expressions


def _require_positive(value: int, what: str) -> None:
    if not isinstance(value, int) or value < 1:
        raise SpecError(f"{what} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Complete:
    n: int

    def __post_init__(self):
        _require_positive(self.n, "complete-graph parameter")


@dataclass(frozen=True)
class Path:
    n: int

    def __post_init__(self):
        _require_positive(self.n, "path parameter")


@dataclass(frozen=True)
class Star:
    """K_{1,n}: one center joined to n leaves."""

    n: int

    def __post_init__(self):
        _require_positive(self.n, "star parameter")


@dataclass(frozen=True)
class Book:
    """B_m = K_2 + mK_1: m triangles sharing an edge."""

    m: int

    def __post_init__(self):
        _require_positive(self.m, "book parameter")


@dataclass(frozen=True)
class Fan:
    """F_n = K_1 + nK_2: n triangles sharing a vertex."""

    n: int

    def __post_init__(self):
        _require_positive(self.n, "fan parameter")


@dataclass(frozen=True)
class Matching:
    """mK_2: m disjoint edges."""

    m: int

    def __post_init__(self):
        _require_positive(self.m, "matching parameter")


@dataclass(frozen=True)
class Empty:
    """nK_1: n isolated vertices."""

    n: int

    def __post_init__(self):
        _require_positive(self.n, "empty-graph parameter")


@dataclass(frozen=True)
class Join:
    """Disjoint union plus all edges between the two vertex sets."""

    left: "GraphSpec"
    right: "GraphSpec"


@dataclass(frozen=True)
class Union:
    left: "GraphSpec"
    right: "GraphSpec"


@dataclass(frozen=True)
class Copies:
    count: int
    inner: "GraphSpec"

    def __post_init__(self):
        _require_positive(self.count, "copy count")


@dataclass(frozen=True)
class Minus:
    """Host with the edges of the deleted graph removed.

    The deleted graph sits on vertices 0..|V(deleted)|-1 of the host; in
    particular Path(n) is deleted as 0-1-...-(n-1).
    """

    host: "GraphSpec"
    deleted: "GraphSpec"

    def __post_init__(self):
        if spec_order(self.deleted) > spec_order(self.host):
            raise SpecError(
                f"deleted graph has {spec_order(self.deleted)} vertices but the "
                f"host only {spec_order(self.host)}"
            )


GraphSpec = (
    Complete | Path | Star | Book | Fan | Matching | Empty | Join | Union | Copies | Minus
)


def spec_order(spec: GraphSpec) -> int:
    """Number of vertices the expression realizes to."""
    if isinstance(spec, Complete):
        return spec.n
    if isinstance(spec, Path):
        return spec.n
    if isinstance(spec, Star):
        return spec.n + 1
    if isinstance(spec, Book):
        return spec.m + 2
    if isinstance(spec, Fan):
        return 2 * spec.n + 1
    if isinstance(spec, Matching):
        return 2 * spec.m
    if isinstance(spec, Empty):
        return spec.n
    if isinstance(spec, (Join, Union)):
        return spec_order(spec.left) + spec_order(spec.right)
    if isinstance(spec, Copies):
        return spec.count * spec_order(spec.inner)
    if isinstance(spec, Minus):
        return spec_order(spec.host)
    raise SpecError(f"not a graph expression: {spec!r}")


def _leaf_edges(spec: GraphSpec) -> list[tuple[int, int]] | None:
    if isinstance(spec, Complete):
        return [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
    if isinstance(spec, Path):
        return [(i, i + 1) for i in range(spec.n - 1)]
    if isinstance(spec, Star):
        return [(0, i) for i in range(1, spec.n + 1)]
    if isinstance(spec, Book):
        return [(0, 1)] + [(u, 2 + i) for i in range(spec.m) for u in (0, 1)]
    if isinstance(spec, Fan):
        out = [(0, i) for i in range(1, 2 * spec.n + 1)]
        out += [(2 * i + 1, 2 * i + 2) for i in range(spec.n)]
        return out
    if isinstance(spec, Matching):
        return [(2 * i, 2 * i + 1) for i in range(spec.m)]
    if isinstance(spec, Empty):
        return []
    return None


def _realize_edges(spec: GraphSpec) -> tuple[int, list[tuple[int, int]]]:
    leaf = _leaf_edges(spec)
    if leaf is not None:
        return spec_order(spec), leaf
    if isinstance(spec, (Join, Union)):
        ln, le = _realize_edges(spec.left)
        rn, re = _realize_edges(spec.right)
        edges = le + [(u + ln, v + ln) for u, v in re]
        if isinstance(spec, Join):
            edges += [(u, v) for u in range(ln) for v in range(ln, ln + rn)]
        return ln + rn, edges
    if isinstance(spec, Copies):
        inn, ine = _realize_edges(spec.inner)
        edges = []
        for k in range(spec.count):
            off = k * inn
            edges += [(u + off, v + off) for u, v in ine]
        return spec.count * inn, edges
    if isinstance(spec, Minus):
        hn, he = _realize_edges(spec.host)
        _, de = _realize_edges(spec.deleted)
        drop = {(min(u, v), max(u, v)) for u, v in de}
        edges = [e for e in he if (min(e), max(e)) not in drop]
        return hn, edges
    raise SpecError(f"not a graph expression: {spec!r}")


def realize(spec: GraphSpec) -> Graph:
    """Deterministic labeled realization of a graph expression.

    Left subexpressions take the lower vertex indices; Minus deletes on
    the lowest-indexed vertices.
    """
    order = spec_order(spec)
    if order > MAX_ORDER:
        raise SpecError(f"realized order {order} exceeds the {MAX_ORDER}-vertex cap")
    n, edges = _realize_edges(spec)
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Parser and printer for the ASCII spec grammar.
#
# Grammar:  atoms K/P/S/B/F/M/E<int>; operators 'u' (union), '+' (join),
# '\' (minus), '<int>*' (copies); parentheses.  Precedence, loosest first:
# union < join < minus < copies; binary operators associate left.

_LEAVES = {"K": Complete, "P": Path, "S": Star, "B": Book, "F": Fan, "M": Matching, "E": Empty}
# The binary operators, loosest first: (class, symbol, separator when printed).
_BINARY = ((Union, "u", " u "), (Join, "+", " + "), (Minus, "\\", "\\"))
# Each operator or parenthesis can nest an expression one level deeper, and
# parsing, checking and realizing a spec take Python frames per level, so a
# spec may hold at most _MAX_NESTING of them: more than the 63 unions or
# joins a spec within the vertex cap can use, and few enough to stay well
# inside the interpreter's recursion limit.
_MAX_NESTING = 150


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise SpecError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        value = int(self.text[start : self.pos])
        if value < 1:
            self.pos = start
            self.error("parameter must be at least 1")
        return value

    def parse(self) -> GraphSpec:
        nesting = [i for i, ch in enumerate(self.text) if ch in "(*u+\\"]
        if len(nesting) > _MAX_NESTING:
            self.pos = nesting[_MAX_NESTING]
            self.error(f"more than {_MAX_NESTING} operators and parentheses")
        self.skip_ws()
        spec = self.parse_binary(0)
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return spec

    def parse_binary(self, level: int) -> GraphSpec:
        """A left-associative chain of _BINARY[level] operators over tighter operands."""
        cls, symbol, _ = _BINARY[level]
        spec = None
        while True:
            right = self.parse_binary(level + 1) if level + 1 < len(_BINARY) else self.parse_copies()
            try:
                spec = right if spec is None else cls(spec, right)
            except SpecError as exc:
                self.error(str(exc))
            self.skip_ws()
            if self.peek() != symbol:
                return spec
            self.pos += 1

    def parse_copies(self) -> GraphSpec:
        self.skip_ws()
        if self.peek().isdigit():
            count = self.take_int()
            self.skip_ws()
            if self.peek() != "*":
                self.error("expected '*' after copy count")
            self.pos += 1
            return Copies(count, self.parse_copies())
        return self.parse_atom()

    def parse_atom(self) -> GraphSpec:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            spec = self.parse_binary(0)
            self.skip_ws()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return spec
        if ch in _LEAVES:
            self.pos += 1
            return _LEAVES[ch](self.take_int())
        self.error("expected a graph atom")


def parse_spec(text: str) -> GraphSpec:
    """Parse a graph expression such as "K5\\P5" or "K3 u 2*K2"."""
    return _Parser(text).parse()


_LEAF_LETTER = {cls: letter for letter, cls in _LEAVES.items()}
_LEVEL = {cls: (level, sep) for level, (cls, _, sep) in enumerate(_BINARY)}


def spec_to_text(spec: GraphSpec) -> str:
    """Print an expression so that parse_spec(spec_to_text(s)) == s."""

    def fmt(node, parent_level, right_side):
        cls = type(node)
        if cls in _LEAF_LETTER:
            param = node.n if hasattr(node, "n") else node.m
            return f"{_LEAF_LETTER[cls]}{param}"
        if cls is Copies:
            level = len(_BINARY)
            text = f"{node.count}*{fmt(node.inner, level, False)}"
        else:
            level, sep = _LEVEL[cls]
            left, right = (getattr(node, f.name) for f in fields(node))
            text = fmt(left, level, False) + sep + fmt(right, level, True)
        if level < parent_level or (level == parent_level and right_side):
            return f"({text})"
        return text

    return fmt(spec, 0, False)


# ---------------------------------------------------------------------------
# graph6 interchange (the standard format: column-major upper triangle,
# 6-bit chunks offset by 63).


def graph6_encode(g: Graph) -> str:
    n = g.order
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(g.adj[row] >> col & 1)
    while len(bits) % 6:
        bits.append(0)
    chunks = []
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = value << 1 | b
        chunks.append(chr(value + 63))
    return head + "".join(chunks)


def graph6_decode(text: str) -> Graph:
    if not text:
        raise Graph6Error("empty graph6 text")
    if text[0] == "~":
        if len(text) < 4 or text[1] == "~":
            raise Graph6Error("unsupported or truncated graph6 order header")
        parts = [ord(c) - 63 for c in text[1:4]]
        if any(p < 0 or p > 63 for p in parts):
            raise Graph6Error("malformed graph6 order header")
        n = parts[0] << 12 | parts[1] << 6 | parts[2]
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    if not 1 <= n <= MAX_ORDER:
        raise Graph6Error(f"graph6 order {n} outside supported range 1..{MAX_ORDER}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"graph6 body has {len(body)} chars, expected {need}")
    bits = []
    for c in body:
        value = ord(c) - 63
        if value < 0 or value > 63:
            raise Graph6Error(f"invalid graph6 byte {c!r}")
        bits.extend(value >> shift & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero trailing bits in graph6 body")
    rows = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            i += 1
    return Graph._raw(n, tuple(rows))


# ---------------------------------------------------------------------------
# Structural statistics


@dataclass(frozen=True)
class GraphStats:
    min_degree: int
    max_degree: int
    is_connected: bool
    edge_count: int


def stats(g: Graph) -> GraphStats:
    degrees = [row.bit_count() for row in g.adj]
    reached = 1
    while True:
        frontier = reached
        grown = reached
        while frontier:
            low = frontier & -frontier
            grown |= g.adj[low.bit_length() - 1]
            frontier ^= low
        if grown == reached:
            break
        reached = grown
    return GraphStats(
        min_degree=min(degrees),
        max_degree=max(degrees),
        is_connected=reached == (1 << g.order) - 1,
        edge_count=sum(degrees) // 2,
    )


def longest_path_order(g: Graph) -> int:
    """Exact maximum number of vertices on a simple path.

    Subset dynamic program: dp[mask] holds the possible endpoints of simple
    paths visiting exactly the vertices in mask.  Capped at 20 vertices.
    It shares no code with containment's path searches on purpose: the
    longest path of a counterexample's color class, checked with this DP,
    is then a check independent of the path detector the search used.
    """
    n = g.order
    if n > 20:
        raise ValueError(f"longest_path_order supports at most 20 vertices, got {n}")
    adj = g.adj
    dp = [0] * (1 << n)
    for v in range(n):
        dp[1 << v] = 1 << v
    best = 1
    for mask in range(1, 1 << n):
        ends = dp[mask]
        if not ends:
            continue
        size = mask.bit_count()
        if size > best:
            best = size
            if best == n:
                return best
        while ends:
            low = ends & -ends
            ends ^= low
            ext = adj[low.bit_length() - 1] & ~mask
            while ext:
                ulow = ext & -ext
                ext ^= ulow
                dp[mask | ulow] |= ulow
    return best
