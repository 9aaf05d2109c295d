"""Bitset graphs, a symbolic graph-expression language, and graph6 I/O.

Vertices are 0..order-1 and adjacency is one int bitmask per vertex.  The
64-vertex cap keeps every adjacency row in a single machine word, which is
all the headroom the search code ever needs.

Each leaf family is one row of the _FAMILIES table: its grammar letter,
its parameter's name in errors, and its order and edges as functions of
the parameter.  The parser, printer, spec_order and realize all read it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields

MAX_ORDER = 64


class SpecError(ValueError):
    """Malformed or unrealizable graph expression."""


class Graph6Error(ValueError):
    """Malformed graph6 text."""


def _check_order(order: int) -> None:
    if type(order) is not int or not 1 <= order <= MAX_ORDER:
        raise SpecError(f"graph order must be in 1..{MAX_ORDER}, got {order!r}")


class Graph:
    """Immutable simple undirected graph with bitmask adjacency rows."""

    __slots__ = ("order", "adj", "_edge_list", "_edge_bits")

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
        self._edge_bits = None

    @classmethod
    def _raw(cls, order: int, adj: tuple[int, ...]) -> "Graph":
        # Internal fast path: caller guarantees a valid symmetric loop-free adjacency.
        g = object.__new__(cls)
        g.order = order
        g.adj = adj
        g._edge_list = None
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
        """Index of each edge (u, v), u < v, rebuilt on each access; loops read edge_bits."""
        return {e: i for i, e in enumerate(self.edges)}

    @property
    def edge_bits(self) -> tuple[tuple[int, ...], ...]:
        """The edge lookup: edge_bits[u][v] = edge_bits[v][u] = 1 << (index of uv), 0 if no edge."""
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
    if type(value) is not int or value < 1:
        raise SpecError(f"{what} must be a positive integer, got {value!r}")


class _Leaf:
    """A member of a graph family, named by its one positive parameter."""

    def __post_init__(self):
        _require_positive(self.param, _FAMILIES[type(self)].parameter)

    @property
    def param(self) -> int:
        """The family parameter, whether its field is n or m."""
        return getattr(self, self.__match_args__[0])


@dataclass(frozen=True)
class Complete(_Leaf):
    n: int


@dataclass(frozen=True)
class Path(_Leaf):
    n: int


@dataclass(frozen=True)
class Star(_Leaf):
    """K_{1,n}: one center joined to n leaves."""

    n: int


@dataclass(frozen=True)
class Book(_Leaf):
    """B_m = K_2 + mK_1: m triangles sharing an edge."""

    m: int


@dataclass(frozen=True)
class Fan(_Leaf):
    """F_n = K_1 + nK_2: n triangles sharing a vertex."""

    n: int


@dataclass(frozen=True)
class Matching(_Leaf):
    """mK_2: m disjoint edges."""

    m: int


@dataclass(frozen=True)
class Empty(_Leaf):
    """nK_1: n isolated vertices."""

    n: int


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


GraphSpec = Complete | Path | Star | Book | Fan | Matching | Empty | Join | Union | Copies | Minus


_Family = namedtuple("_Family", "letter parameter order edges")
_FAMILIES = {
    Complete: _Family("K", "complete-graph parameter", lambda k: k,
                      lambda k: [(u, v) for u in range(k) for v in range(u + 1, k)]),
    Path: _Family("P", "path parameter", lambda k: k, lambda k: [(i, i + 1) for i in range(k - 1)]),
    Star: _Family("S", "star parameter", lambda k: k + 1,
                  lambda k: [(0, i) for i in range(1, k + 1)]),
    Book: _Family("B", "book parameter", lambda k: k + 2,
                  lambda k: [(0, 1)] + [(u, 2 + i) for i in range(k) for u in (0, 1)]),
    Fan: _Family("F", "fan parameter", lambda k: 2 * k + 1,
                 lambda k: [(0, i) for i in range(1, 2 * k + 1)]
                 + [(2 * i + 1, 2 * i + 2) for i in range(k)]),
    Matching: _Family("M", "matching parameter", lambda k: 2 * k,
                      lambda k: [(2 * i, 2 * i + 1) for i in range(k)]),
    Empty: _Family("E", "empty-graph parameter", lambda k: k, lambda k: []),
}


def spec_order(spec: GraphSpec) -> int:
    """Number of vertices the expression realizes to."""
    family = _FAMILIES.get(type(spec))
    if family is not None:
        return family.order(spec.param)
    if isinstance(spec, (Join, Union)):
        return spec_order(spec.left) + spec_order(spec.right)
    if isinstance(spec, Copies):
        return spec.count * spec_order(spec.inner)
    if isinstance(spec, Minus):
        return spec_order(spec.host)
    raise SpecError(f"not a graph expression: {spec!r}")


def _rows(spec: GraphSpec) -> list[int]:
    """The adjacency rows of the expression's realization, built straight from it."""
    family = _FAMILIES.get(type(spec))
    if family is not None:
        return list(Graph.from_edges(family.order(spec.param), family.edges(spec.param)).adj)
    if isinstance(spec, (Join, Union)):
        left, right = _rows(spec.left), _rows(spec.right)
        shift = len(left)
        right = [row << shift for row in right]
        if isinstance(spec, Join):
            low, high = (1 << shift) - 1, ((1 << len(right)) - 1) << shift
            left, right = [row | high for row in left], [row | low for row in right]
        return left + right
    if isinstance(spec, Copies):
        inner = _rows(spec.inner)
        shift = len(inner)
        return [row << k * shift for k in range(spec.count) for row in inner]
    if isinstance(spec, Minus):
        rows = _rows(spec.host)
        for v, row in enumerate(_rows(spec.deleted)):
            rows[v] &= ~row
        return rows
    raise SpecError(f"not a graph expression: {spec!r}")


def realize(spec: GraphSpec) -> Graph:
    """Deterministic labeled realization of a graph expression.

    Left subexpressions take the lower vertex indices; Minus deletes on
    the lowest-indexed vertices.
    """
    order = spec_order(spec)
    if order > MAX_ORDER:
        raise SpecError(f"realized order {order} exceeds the {MAX_ORDER}-vertex cap")
    return Graph._raw(order, tuple(_rows(spec)))


# ---------------------------------------------------------------------------
# Parser and printer for the ASCII spec grammar.
#
# Grammar:  atoms K/P/S/B/F/M/E<int>; operators 'u' (union), '+' (join),
# '\' (minus), '<int>*' (copies); parentheses.  Precedence, loosest first:
# union < join < minus < copies; binary operators associate left.

_LEAVES = {family.letter: cls for cls, family in _FAMILIES.items()}
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


_LEVEL = {cls: (level, sep) for level, (cls, _, sep) in enumerate(_BINARY)}


def spec_to_text(spec: GraphSpec) -> str:
    """Print an expression so that parse_spec(spec_to_text(s)) == s."""

    def fmt(node, parent_level, right_side):
        cls = type(node)
        if cls in _FAMILIES:
            return f"{_FAMILIES[cls].letter}{node.param}"
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


def component(adj, v: int, enough: int = MAX_ORDER) -> int:
    """The vertex mask of v's connected component, given adjacency rows.

    The walk stops early, with part of the component, once it holds
    `enough` vertices.
    """
    reached = 1 << v
    frontier = adj[v]
    while frontier:
        reached |= frontier
        if reached.bit_count() >= enough:
            break
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~reached
    return reached


def twin_classes(adj) -> list[int]:
    """The vertex mask of each vertex's twin class, given adjacency rows.

    Vertices u and v are twins when adj[u] - {v} == adj[v] - {u}: false
    twins (equal rows) when not adjacent, true twins (equal closed rows)
    when adjacent.  No vertex has twins of both kinds (a true twin of v is
    adjacent to every false twin of v, hence so is v), so the relation is
    an equivalence, and swapping two twins is an automorphism.
    """
    open_rows: dict[int, int] = {}
    closed_rows: dict[int, int] = {}
    for v, row in enumerate(adj):
        open_rows[row] = open_rows.get(row, 0) | 1 << v
        closed_rows[row | 1 << v] = closed_rows.get(row | 1 << v, 0) | 1 << v
    return [open_rows[row] | closed_rows[row | 1 << v] for v, row in enumerate(adj)]


def stats(g: Graph) -> GraphStats:
    degrees = [row.bit_count() for row in g.adj]
    return GraphStats(
        min_degree=min(degrees),
        max_degree=max(degrees),
        is_connected=component(g.adj, 0) == (1 << g.order) - 1,
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
