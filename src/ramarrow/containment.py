"""Non-induced subgraph containment with fast per-family detectors.

Targets are plain graph expressions.  Every predicate answers "does the
graph contain a copy of the target", never induced containment.  The leaf
families the searches use (Complete, Star, Path, Matching, Book, Fan)
have specialized detectors, which serve every target whose graph is a
member, however it is spelled (_leaf: K1+P3 is B2).  Any other target,
and any wrapped in Generic, falls back to backtracking subgraph
isomorphism with degree pruning, one explicit-stack loop over the
pattern's vertices.  The same loop lists a generic target's copies for
arrowing.enumerate_copies, each copy once and with no dedup set:
_symmetry_breaking gives each pattern vertex at most one lower bound, and
those let through one of the embeddings that make each copy.  The walk
that finds the bounds reads off |Aut|, which counts a target's copies in
a complete host.

copy_through answers the rooted question "is there a copy that uses edge
uv" with the edges of one such copy: the witness of a detected family's
rooted detector, or a generic search with one pattern edge pinned on uv.
The search asks only that after coloring uv when it learns its copy
clauses, since a color class that had no copy before can only gain one
through its new edge.

Both path searches skip a connected component with fewer vertices than
the path.  The existence check also remembers, for one call, the dead
ends it has walked: a set of visited vertices and the vertex the path
stopped at, which fix the length still to go.  The rooted path search
keeps its plain DFS order, so the copy it returns, which learned mode
turns into a clause, does not change; a memo there costs more than it
saves on the small color classes that search mostly sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice

from . import graphs
from .graphs import Book, Complete, Fan, Graph, GraphSpec, Matching, Path, Star, realize


@dataclass(frozen=True)
class Generic:
    """Force the backtracking path, even for a leaf that has a detector."""

    spec: GraphSpec


TargetKind = GraphSpec | Generic

_DETECTED = (Complete, Star, Path, Matching, Book, Fan)


def target_from_spec(spec: GraphSpec) -> TargetKind:
    """A detected leaf as it is, any other expression as the leaf its graph is, else Generic."""
    return spec if isinstance(spec, _DETECTED) else _leaf(spec) or Generic(spec)


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


def _matching_within(adj, mask: int, need: int) -> list[tuple[int, int]] | None:
    """`need` disjoint edges on the vertices in mask, or None."""
    if need == 0:
        return []
    if mask.bit_count() < 2 * need:
        return None
    while mask:
        low = mask & -mask
        rest = mask ^ low
        nbrs = adj[low.bit_length() - 1] & rest
        if nbrs:
            while nbrs:
                ulow = nbrs & -nbrs
                nbrs ^= ulow
                found = _matching_within(adj, rest ^ ulow, need - 1)
                if found is not None:
                    found.append((low.bit_length() - 1, ulow.bit_length() - 1))
                    return found
            return None
        mask = rest  # isolated within mask; drop it
    return None


def _has_matching(g: Graph, size: int) -> bool:
    return _matching_within(g.adj, (1 << g.order) - 1, size) is not None


def max_matching_size(g: Graph) -> int:
    """The least k with no matching of k + 1 edges."""
    k = 0
    while _has_matching(g, k + 1):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Cliques


def _clique_within(adj, cand: int, need: int) -> int | None:
    """The vertex mask of a clique on `need` vertices in cand, or None."""
    if need == 0:
        return 0
    while cand:
        if cand.bit_count() < need:
            return None
        low = cand & -cand
        cand ^= low
        found = _clique_within(adj, adj[low.bit_length() - 1] & cand, need - 1)
        if found is not None:
            return found | low
    return None


def _has_clique(g: Graph, size: int) -> bool:
    return _clique_within(g.adj, (1 << g.order) - 1, size) is not None


def max_clique_size(g: Graph) -> int:
    """The least k with no clique on k + 1 vertices."""
    k = 0
    while _has_clique(g, k + 1):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Paths


def _extend_path(adj, v: int, visited: int, remaining: int) -> list[tuple[int, int]] | None:
    """The edges of a path from v through `remaining` more unvisited vertices, or None."""
    if remaining == 0:
        return []
    ext = adj[v] & ~visited
    while ext:
        low = ext & -ext
        ext ^= low
        found = _extend_path(adj, low.bit_length() - 1, visited | low, remaining - 1)
        if found is not None:
            found.append((v, low.bit_length() - 1))
            return found
    return None


def _path_exists(adj, v: int, visited: int, remaining: int, dead: set[int]) -> bool:
    """True iff a path goes on from v through `remaining` more unvisited vertices.

    dead holds the keys visited << 6 | v of states known to fail.  The
    caller fixes the path's order, so visited fixes remaining.
    """
    if remaining == 0:
        return True
    key = visited << 6 | v
    if key in dead:
        return False
    ext = adj[v] & ~visited
    while ext:
        low = ext & -ext
        ext ^= low
        if _path_exists(adj, low.bit_length() - 1, visited | low, remaining - 1, dead):
            return True
    dead.add(key)
    return False


def _has_path(g: Graph, n: int) -> bool:
    """True iff g has a path on n vertices.

    Each start first walks its component until it reaches n vertices; a
    component that runs out first is too small, and all its vertices are
    skipped.  The starts share one set of dead states.
    """
    adj = g.adj
    unseen = (1 << g.order) - 1 if n <= g.order else 0
    dead: set[int] = set()
    while unseen:
        low = unseen & -unseen
        start = low.bit_length() - 1
        reach = graphs.component(adj, start, n)
        if reach.bit_count() < n:
            unseen &= ~reach
        elif _path_exists(adj, start, low, n - 1, dead):
            return True
        else:
            unseen ^= low
    return False


def _path_tail(adj, u: int, end: int, visited: int, left: int) -> list[tuple[int, int]] | None:
    """The edges that grow the path from u to end by `left` unvisited vertices, or None.

    The path grows a tail from end first, then a head from u.
    """
    if not adj[u] & ~visited:
        # u has no unvisited neighbour, so the path grows from end alone
        return _extend_path(adj, end, visited, left)
    found = _extend_path(adj, u, visited, left)
    if found is not None:
        return found
    ext = adj[end] & ~visited
    while ext:
        low = ext & -ext
        ext ^= low
        found = _path_tail(adj, u, low.bit_length() - 1, visited | low, left - 1)
        if found is not None:
            found.append((end, low.bit_length() - 1))
            return found
    return None


def _path_through(adj, u: int, v: int, n: int) -> list[tuple[int, int]] | None:
    """The edges of a path on n >= 2 vertices using edge uv: a tail from v, then a head from u.

    A component of u with fewer than n vertices holds no such path.
    """
    if graphs.component(adj, u, n).bit_count() < n:
        return None
    found = _path_tail(adj, u, v, 1 << u | 1 << v, n - 2)
    return None if found is None else found + [(u, v)]


# ---------------------------------------------------------------------------
# Generic backtracking subgraph isomorphism


@lru_cache(maxsize=1024)
def _plan(pattern: Graph, start: tuple[int, ...] = ()):
    """The placement order, and the neighbors of each order[k] placed before it.

    The order visits `start`, then high-degree vertices, preferring
    neighbors of placed ones.
    """
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
    order = tuple(placed)
    return order, tuple(tuple(w for w in order[:k] if padj[u] >> w & 1)
                        for k, u in enumerate(order))


def _embeddings(host: Graph, pattern: Graph, pins=(), lower=None):
    """Yield injective edge-preserving maps pattern -> host.

    Maps are tuples indexed by pattern vertex.  One loop walks the
    placement order and backtracks by index: cands[k] holds the host
    vertices left to try for order[k], those of high enough degree that
    are adjacent to the images of its placed pattern neighbors.  pins holds
    (pattern vertex, host vertex mask) pairs: those vertices are placed
    first, each inside its mask.  lower, for a search without pins, holds
    _symmetry_breaking's bounds: order[k] lands above lower[k] unless -1.
    """
    p = pattern.order
    if p > host.order:
        return
    order, earlier = _plan(pattern, tuple(a for a, _ in pins))
    if lower is None:
        lower = (-1,) * p
    hadj = host.adj
    roomy = [0] * host.order  # roomy[d]: the host vertices of degree d or more
    for v, row in enumerate(hadj):
        roomy[row.bit_count()] |= 1 << v
    for d in range(host.order - 2, -1, -1):
        roomy[d] |= roomy[d + 1]
    masks = [mask for _, mask in pins] + [-1] * (p - len(pins))
    allowed = [mask & roomy[pattern.adj[u].bit_count()] for mask, u in zip(masks, order)]
    assign = [-1] * p
    cands = allowed[:]
    k, used = 0, 0
    while True:
        cand = cands[k]
        if not cand:
            if not k:
                return
            k -= 1
            used ^= 1 << assign[order[k]]
            continue
        low = cand & -cand
        cands[k] = cand ^ low
        assign[order[k]] = low.bit_length() - 1
        if k + 1 == p:
            yield tuple(assign)
            continue
        used |= low
        k += 1
        cand = allowed[k] & ~used
        for w in earlier[k]:
            cand &= hadj[assign[w]]
        if lower[k] >= 0:
            cand &= -(2 << assign[lower[k]])
        cands[k] = cand


def _subgraph_exists(host: Graph, pattern: Graph) -> bool:
    """True iff the host has an embedding of the pattern.

    It runs without the symmetry-breaking conditions on purpose: check_free
    re-checks a counterexample's color classes for generic targets through
    this search, so the re-check must not rest on the conditions that the
    copy enumerator uses.
    """
    return next(_embeddings(host, pattern), None) is not None


@lru_cache(maxsize=256)
def _symmetry_breaking(pattern: Graph) -> tuple[Graph, tuple[int, ...], int]:
    """The pattern without isolated vertices (its core), its symmetry-breaking bounds, and |Aut(core)|.

    The embeddings of the core that make one copy differ by an automorphism
    of the core, and the bounds (Grochow & Kellis, RECOMB 2007) let exactly
    one of them through.  Walking the core's unpinned placement order, each
    other vertex w in the orbit of v, under the automorphisms that fix the
    vertices before v, must land above v.  The vertices that w must land
    above form a chain, each in the orbit of the one before, so lower keeps
    the latest, or -1, at w's position.  |Aut| is the product of the orbit
    sizes (orbit-stabilizer).  An orbit costs one automorphism query (a
    pinned embedding of the core into itself) per candidate image that is
    not a twin of v, so Aut (12! elements for K1+E12) is never listed, and
    a star's leaves, all twins, cost no query each.  Isolated vertices carry no
    edge; the caller checks that the host has room for them.
    """
    core = pattern.induced([v for v in range(pattern.order) if pattern.adj[v]])
    order, _ = _plan(core)
    lower = [-1] * core.order
    adj = core.adj
    degree = [row.bit_count() for row in adj]
    aut = 1
    fixed = ()
    for k, v in enumerate(order):
        # a twin of v (the same neighbors, v and itself aside) is in v's orbit
        # with no query: swapping the two fixes every other vertex
        twins = {j for j in range(k + 1, len(order))
                 if adj[v] & ~(1 << order[j]) == adj[order[j]] & ~(1 << v)}
        if not twins and next(islice(_embeddings(core, core, fixed), 1, None), None) is None:
            break  # only the identity fixes the vertices before v
        for j, w in enumerate(order[k + 1:], k + 1):
            if j in twins or degree[w] == degree[v] and next(
                    _embeddings(core, core, fixed + ((v, 1 << w),)), None) is not None:
                lower[j] = v
        aut *= 1 + lower.count(v)  # v's orbit: v and the vertices it has just bounded
        fixed += ((v, 1 << v),)
    return core, tuple(lower), aut


# ---------------------------------------------------------------------------
# Dispatch


@lru_cache(maxsize=1024)
def family_parameter(spec: GraphSpec, family: type) -> int | None:
    """k when family(k) is isomorphic to the spec's graph, else None.

    A member answers from its own parameter, unrealized; any other spec is
    realized, so one past the vertex cap is not recognized.  The search runs
    on equal degree sequences alone, which fix every member but a path (a
    shorter path beside cycles shares its degrees), so it stays short.
    """
    if isinstance(spec, family):
        return spec.n if hasattr(spec, "n") else spec.m
    p = graphs.spec_order(spec)
    if p > graphs.MAX_ORDER:
        return None
    k = next((k for k in range(1, p + 1) if graphs.spec_order(family(k)) == p), None)
    if k is None:
        return None
    graph, member = _pattern(spec), realize(family(k))
    same = sorted(map(int.bit_count, graph.adj)) == sorted(map(int.bit_count, member.adj))
    return k if same and _subgraph_exists(graph, member) else None


@lru_cache(maxsize=256)
def _leaf(target: TargetKind) -> GraphSpec | None:
    """The first detected family member (Complete first) isomorphic to the target; None for Generic."""
    if isinstance(target, Generic):
        return None
    return next((family(k) for family in _DETECTED
                 if (k := family_parameter(target, family)) is not None), None)


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
        return any(_matching_within(adj, row, target.n) is not None for row in adj)
    leaf = _leaf(target)
    return _subgraph_exists(g, _pattern(target)) if leaf is None else contains_target(g, leaf)


def _vertices(mask: int) -> list[int]:
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


def copy_through(g: Graph, target: TargetKind, u: int, v: int) -> list[tuple[int, int]] | None:
    """The edges of one copy of the target in g that uses its edge uv, or None.

    An edgeless target has no such copy.  When g minus uv has no copy of
    the target, None means that g has no copy at all.  Raises ValueError
    unless u and v are adjacent vertices of g.
    """
    adj = g.adj
    if not (0 <= u < g.order and 0 <= v and adj[u] >> v & 1):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    if isinstance(target, Complete):
        rest = _clique_within(adj, adj[u] & adj[v], target.n - 2) if target.n >= 2 else None
        return None if rest is None else list(combinations([u, v] + _vertices(rest), 2))
    if isinstance(target, Star):
        for hub, leaf in ((u, v), (v, u)):
            if adj[hub].bit_count() >= target.n:
                leaves = [leaf] + _vertices(adj[hub] & ~(1 << leaf))[: target.n - 1]
                return [(hub, w) for w in leaves]
        return None
    if isinstance(target, Path):
        return _path_through(adj, u, v, target.n) if target.n >= 2 else None
    if isinstance(target, Matching):
        rest = _matching_within(adj, ((1 << g.order) - 1) & ~(1 << u | 1 << v), target.m - 1)
        return None if rest is None else rest + [(u, v)]
    common = adj[u] & adj[v]
    if isinstance(target, Book):
        # uv is the spine, or a page edge on the spine aw with page b
        m = target.m
        if common.bit_count() >= m:
            return [(u, v)] + [(x, w) for w in _vertices(common)[:m] for x in (u, v)]
        for a, b in ((u, v), (v, u)):
            for w in _vertices(common):
                pages = [b] + _vertices(adj[a] & adj[w] & ~(1 << b))[: m - 1]
                if len(pages) == m:
                    return [(a, w)] + [(x, p) for p in pages for x in (a, w)]
        return None
    if isinstance(target, Fan):
        # a blade through uv: hub u or v with a spoke on uv, or a hub w on rim uv;
        # the other blades are a matching among the hub's remaining neighbors
        for w in _vertices(common):
            for hub, a, b in ((u, v, w), (v, u, w), (w, u, v)):
                rims = _matching_within(adj, adj[hub] & ~(1 << a | 1 << b), target.n - 1)
                if rims is not None:
                    return [e for x, y in rims + [(a, b)] for e in ((hub, x), (hub, y), (x, y))]
        return None
    leaf = _leaf(target)
    if leaf is not None:
        return copy_through(g, leaf, u, v)
    # some pattern edge ab lands on uv, in either orientation, on endpoints of enough degree
    pattern = _pattern(target)
    pdeg = [row.bit_count() for row in pattern.adj]
    fewer, more = sorted((adj[u].bit_count(), adj[v].bit_count()))
    ends = 1 << u | 1 << v
    for a, b in pattern.edges:
        if min(pdeg[a], pdeg[b]) <= fewer and max(pdeg[a], pdeg[b]) <= more:
            for emb in _embeddings(g, pattern, ((a, ends), (b, ends))):
                return [(emb[x], emb[y]) for x, y in pattern.edges]
    return None
