"""Non-induced subgraph containment with fast per-family detectors.

Targets are plain graph expressions.  Every predicate answers "does the
graph contain a copy of the target", never induced containment.  The leaf
families the searches actually use (Complete, Star, Path, Matching, Book,
Fan) have specialized detectors; every other expression, and any target
wrapped in Generic, falls back to backtracking subgraph isomorphism with
degree pruning.

contains_target_through answers the rooted question "is there a copy that
uses edge uv", and copy_through returns the edges of such a copy.  The
search asks only that after coloring uv when it learns its copy clauses,
since a color class that had no copy before can only gain one through its
new edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import graphs
from .graphs import Book, Complete, Fan, Graph, GraphSpec, Matching, Path, Star, realize

# The target names of the detected leaf families, kept as aliases.
Clique = Complete
StarT = Star
PathT = Path
MatchingT = Matching
BookT = Book
FanT = Fan


@dataclass(frozen=True)
class Generic:
    """Force the backtracking path, even for a leaf that has a detector."""

    spec: GraphSpec


TargetKind = GraphSpec | Generic

_DETECTED = (Complete, Star, Path, Matching, Book, Fan)


def target_from_spec(spec: GraphSpec) -> TargetKind:
    """A detected leaf as it is; any other expression wrapped in Generic."""
    return spec if isinstance(spec, _DETECTED) else Generic(spec)


def target_to_spec(target: TargetKind) -> GraphSpec:
    return target.spec if isinstance(target, Generic) else target


def target_label(target: TargetKind) -> str:
    return graphs.spec_to_text(target_to_spec(target))


@lru_cache(maxsize=256)
def _pattern(target: TargetKind) -> Graph:
    """The target realized as a graph, once per target (both are immutable)."""
    return realize(target_to_spec(target))


# ---------------------------------------------------------------------------
# Matchings


def max_matching_size(g: Graph) -> int:
    """Exact maximum matching cardinality (memoized branching; hosts are tiny)."""
    adj = g.adj
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        if mask == 0:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        rest = mask ^ low
        result = best(rest)  # lowest vertex left unmatched
        nbrs = adj[low.bit_length() - 1] & rest
        while nbrs:
            ulow = nbrs & -nbrs
            nbrs ^= ulow
            r = 1 + best(rest ^ ulow)
            if r > result:
                result = r
        memo[mask] = result
        return result

    return best((1 << g.order) - 1)


def _matching_within(adj, mask: int, need: int) -> bool:
    """True iff the vertices in mask hold `need` disjoint edges."""
    if need == 0:
        return True
    if mask.bit_count() < 2 * need:
        return False
    while mask:
        low = mask & -mask
        rest = mask ^ low
        nbrs = adj[low.bit_length() - 1] & rest
        if nbrs:
            while nbrs:
                ulow = nbrs & -nbrs
                nbrs ^= ulow
                if _matching_within(adj, rest ^ ulow, need - 1):
                    return True
            return False
        mask = rest  # isolated within mask; drop it
    return False


def _has_matching(g: Graph, size: int) -> bool:
    return _matching_within(g.adj, (1 << g.order) - 1, size)


# ---------------------------------------------------------------------------
# Cliques


def max_clique_size(g: Graph) -> int:
    """Branch and bound over candidate bitsets."""
    adj = g.adj
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = size
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            expand(adj[low.bit_length() - 1] & cand, size + 1)

    expand((1 << g.order) - 1, 0)
    return best


def _clique_within(adj, cand: int, need: int) -> bool:
    """True iff the vertices in cand hold a clique on `need` vertices."""
    if need == 0:
        return True
    while cand:
        if cand.bit_count() < need:
            return False
        low = cand & -cand
        cand ^= low
        if _clique_within(adj, adj[low.bit_length() - 1] & cand, need - 1):
            return True
    return False


def _has_clique(g: Graph, size: int) -> bool:
    return _clique_within(g.adj, (1 << g.order) - 1, size)


# ---------------------------------------------------------------------------
# Paths


def _extend_path(adj, v: int, visited: int, remaining: int) -> bool:
    """True iff a path from v through unvisited vertices adds `remaining` more."""
    if remaining == 0:
        return True
    ext = adj[v] & ~visited
    while ext:
        low = ext & -ext
        ext ^= low
        if _extend_path(adj, low.bit_length() - 1, visited | low, remaining - 1):
            return True
    return False


def _has_path(g: Graph, n: int) -> bool:
    if n > g.order:
        return False
    adj = g.adj
    return any(_extend_path(adj, start, 1 << start, n - 1) for start in range(g.order))


def _path_through(adj, u: int, v: int, n: int) -> bool:
    """A path on n >= 2 vertices using edge uv: a tail from v, then a head from u."""

    def tail(end: int, visited: int, left: int) -> bool:
        # the tail so far ends at `end`; the other `left` vertices go on either side
        if _extend_path(adj, u, visited, left):
            return True
        ext = adj[end] & ~visited
        while ext:
            low = ext & -ext
            ext ^= low
            if tail(low.bit_length() - 1, visited | low, left - 1):
                return True
        return False

    return tail(v, 1 << u | 1 << v, n - 2)


# ---------------------------------------------------------------------------
# Generic backtracking subgraph isomorphism


def _pattern_order(pattern: Graph, start=()) -> list[int]:
    """Visit `start`, then high-degree vertices, preferring neighbors of placed ones."""
    padj = pattern.adj
    placed = list(start)
    placed_mask = sum(1 << v for v in placed)
    remaining = [v for v in range(pattern.order) if not placed_mask >> v & 1]
    # ties on (placed neighbors, degree) go to the lowest vertex
    rank = {w: padj[w].bit_count() << 7 | 127 - w for w in remaining}
    while remaining:
        best = -1
        for w in remaining:
            key = (padj[w] & placed_mask).bit_count() << 14 | rank[w]
            if key > best:
                best, v = key, w
        placed.append(v)
        placed_mask |= 1 << v
        remaining.remove(v)
    return placed


def _embeddings(host: Graph, pattern: Graph, start=(), within: int = 0):
    """Yield every injective edge-preserving map pattern -> host.

    Maps are tuples indexed by pattern vertex.  Candidate filtering uses
    host adjacency bitsets of the already-placed pattern neighbors.  The
    pattern vertices in `start` are placed first, each inside the host
    vertex mask `within`.
    """
    p = pattern.order
    if p > host.order:
        return
    padj = pattern.adj
    order = _pattern_order(pattern, start)
    # earlier[k]: the pattern neighbors of order[k] placed before it
    earlier = [[w for w in order[:k] if padj[u] >> w & 1] for k, u in enumerate(order)]
    hadj = host.adj
    hdeg = [row.bit_count() for row in hadj]
    pdeg = [row.bit_count() for row in padj]
    full = (1 << host.order) - 1
    allowed = [within] * len(start) + [full] * (p - len(start))
    assign = [-1] * p

    def place(k: int, used: int):
        if k == p:
            yield tuple(assign)
            return
        u = order[k]
        cand = allowed[k] & ~used
        for w in earlier[k]:
            cand &= hadj[assign[w]]
        need = pdeg[u]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if hdeg[v] < need:
                continue
            assign[u] = v
            yield from place(k + 1, used | low)
        assign[u] = -1

    yield from place(0, 0)


def _subgraph_exists(host: Graph, pattern: Graph) -> bool:
    return next(_embeddings(host, pattern), None) is not None


# ---------------------------------------------------------------------------
# Dispatch


def contains_target(g: Graph, target: TargetKind) -> bool:
    """True iff g has a (not necessarily induced) copy of the target."""
    if isinstance(target, Complete):
        return _has_clique(g, target.n)
    if isinstance(target, Star):
        return max(row.bit_count() for row in g.adj) >= target.n
    if isinstance(target, Path):
        return _has_path(g, target.n)
    if isinstance(target, Matching):
        return _has_matching(g, target.m)
    if isinstance(target, Book):
        adj = g.adj
        return any((adj[u] & adj[v]).bit_count() >= target.m for u, v in g.edges)
    if isinstance(target, Fan):
        adj = g.adj
        return any(_matching_within(adj, row, target.n) for row in adj)
    return _subgraph_exists(g, _pattern(target))


def contains_target_through(g: Graph, target: TargetKind, u: int, v: int) -> bool:
    """True iff g has a copy of the target that uses its edge uv.

    An edgeless target has no such copy.  When g minus uv has no copy of
    the target, this is the same predicate as contains_target(g, target).
    """
    adj = g.adj
    if isinstance(target, Complete):
        return target.n >= 2 and _clique_within(adj, adj[u] & adj[v], target.n - 2)
    if isinstance(target, Star):
        return adj[u].bit_count() >= target.n or adj[v].bit_count() >= target.n
    if isinstance(target, Path):
        return target.n >= 2 and _path_through(adj, u, v, target.n)
    if isinstance(target, Matching):
        rest = ((1 << g.order) - 1) & ~(1 << u | 1 << v)
        return _matching_within(adj, rest, target.m - 1)
    common = adj[u] & adj[v]
    if isinstance(target, Book):
        # uv is the spine, or a page edge on the spine uw or vw
        m = target.m
        if common.bit_count() >= m:
            return True
        while common:
            low = common & -common
            common ^= low
            w = low.bit_length() - 1
            if (adj[u] & adj[w]).bit_count() >= m or (adj[v] & adj[w]).bit_count() >= m:
                return True
        return False
    if isinstance(target, Fan):
        # a blade through uv: hub u or v with a spoke on uv, or a hub w on rim uv;
        # the other blades are a matching among the hub's remaining neighbors
        need = target.n - 1
        while common:
            low = common & -common
            common ^= low
            w = low.bit_length() - 1
            for hub, a, b in ((u, v, w), (v, u, w), (w, u, v)):
                if _matching_within(adj, adj[hub] & ~(1 << a | 1 << b), need):
                    return True
        return False
    # some pattern edge ab lands on uv, in either orientation, on endpoints of enough degree
    pattern = _pattern(target)
    pdeg = [row.bit_count() for row in pattern.adj]
    fewer, more = sorted((adj[u].bit_count(), adj[v].bit_count()))
    ends = 1 << u | 1 << v
    return any(
        next(_embeddings(g, pattern, (a, b), ends), None) is not None
        for a, b in pattern.edges
        if min(pdeg[a], pdeg[b]) <= fewer and max(pdeg[a], pdeg[b]) <= more
    )


def copy_through(g: Graph, target: TargetKind, u: int, v: int) -> list[tuple[int, int]] | None:
    """The edges of one copy of the target in g that uses its edge uv, or None."""
    if not contains_target_through(g, target, u, v):
        return None
    pattern = _pattern(target)
    ends = 1 << u | 1 << v
    for ab in pattern.edges:  # some pattern edge lands on uv; pin each in turn
        for emb in _embeddings(g, pattern, ab, ends):
            return [(emb[a], emb[b]) for a, b in pattern.edges]
