"""Non-induced subgraph containment with fast per-family detectors.

Targets are plain graph expressions.  Every predicate answers "does the
graph contain a copy of the target", never induced containment.  The leaf
families the searches actually use (Complete, Star, Path, Matching, Book,
Fan) have specialized detectors; every other expression, and any target
wrapped in Generic, falls back to backtracking subgraph isomorphism with
degree pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _has_matching(g: Graph, size: int) -> bool:
    adj = g.adj

    def search(mask: int, need: int) -> bool:
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
                    if search(rest ^ ulow, need - 1):
                        return True
                return False
            mask = rest  # isolated within mask; drop it
        return False

    return search((1 << g.order) - 1, size)


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


def _has_clique(g: Graph, size: int) -> bool:
    if size == 1:
        return True
    adj = g.adj

    def search(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand:
            if cand.bit_count() < need:
                return False
            low = cand & -cand
            cand ^= low
            if search(adj[low.bit_length() - 1] & cand, need - 1):
                return True
        return False

    return search((1 << g.order) - 1, size)


# ---------------------------------------------------------------------------
# Paths


def _has_path(g: Graph, n: int) -> bool:
    if n > g.order:
        return False
    if n == 1:
        return True
    adj = g.adj

    def extend(v: int, visited: int, remaining: int) -> bool:
        if remaining == 0:
            return True
        ext = adj[v] & ~visited
        while ext:
            low = ext & -ext
            ext ^= low
            u = low.bit_length() - 1
            if extend(u, visited | low, remaining - 1):
                return True
        return False

    for start in range(g.order):
        if extend(start, 1 << start, n - 1):
            return True
    return False


# ---------------------------------------------------------------------------
# Generic backtracking subgraph isomorphism


def _pattern_order(pattern: Graph) -> list[int]:
    """Visit high-degree vertices first, preferring neighbors of placed ones."""
    degs = [pattern.degree(v) for v in range(pattern.order)]
    placed: list[int] = []
    placed_mask = 0
    remaining = set(range(pattern.order))
    while remaining:
        def score(v):
            return ((pattern.adj[v] & placed_mask).bit_count(), degs[v], -v)

        v = max(remaining, key=score)
        placed.append(v)
        placed_mask |= 1 << v
        remaining.remove(v)
    return placed


def _embeddings(host: Graph, pattern: Graph):
    """Yield every injective edge-preserving map pattern -> host.

    Maps are tuples indexed by pattern vertex.  Candidate filtering uses
    host adjacency bitsets of the already-placed pattern neighbors.
    """
    p = pattern.order
    if p > host.order:
        return
    order = _pattern_order(pattern)
    earlier: list[list[int]] = []
    for k, u in enumerate(order):
        earlier.append([j for j in range(k) if pattern.has_edge(u, order[j])])
    hadj = host.adj
    hdeg = [row.bit_count() for row in hadj]
    pdeg = [pattern.degree(v) for v in range(p)]
    full = (1 << host.order) - 1
    assign = [-1] * p

    def place(k: int, used: int):
        if k == p:
            yield tuple(assign)
            return
        u = order[k]
        cand = full & ~used
        for j in earlier[k]:
            cand &= hadj[assign[order[j]]]
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
        need = target.n
        for v in range(g.order):
            row = g.adj[v]
            if row.bit_count() < 2 * need:
                continue
            hood = [u for u in range(g.order) if row >> u & 1]
            if _has_matching(g.induced(hood), need):
                return True
        return False
    return _subgraph_exists(g, realize(target_to_spec(target)))
