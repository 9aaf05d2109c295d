"""Non-induced subgraph containment: is there a copy, one copy through an edge, every copy.

Targets are plain graph expressions, and a copy need not be induced.
contains_target, copy_through (the edges of one copy that uses edge uv)
and enumerate_copies all serve a target by its leaf (_leaf): a member of
a detected family (Complete, Star, Path, Matching, Book, Fan) serves
itself, any other spec the first member, Complete first, isomorphic to it
(K1+P3 is B2), and a Generic target has none.  Each family has its own
code for each query; a target with no leaf falls back to backtracking
subgraph isomorphism with degree pruning, one explicit-stack loop over
the pattern's vertices.  The arrowing search asks copy_through only after
coloring uv when it learns its copy clauses, since a color class with no
copy can only gain one through its new edge.

enumerate_copies gives each copy as an int edge mask, bit i set when host
edge i (canonical order) is in it.  Each enumerator ORs a copy together
from Graph.edge_bits as its DFS goes and emits each copy once, so there is
no dedup set: a clique in increasing vertex order, a path from its lower
end, a star from its one hub, a matching or fan's disjoint parts in
increasing index order, a book from its one spine.  A complete leaf is
listed as a clique, since S1, B1 and F1 have more than one hub or spine.
A generic target's core is listed through the one embedding per copy that
its symmetry-breaking bounds, at most one lower bound per pattern vertex,
let through (_symmetry_breaking).  The walk that finds the bounds reads
off |Aut| of the core, which counts the copies in a complete host before
any is built, so a count past the cap raises at once.

Both path searches skip a connected component with fewer vertices than
the path.  The existence check also remembers, for one call, the dead
ends it has walked: a set of visited vertices and the vertex the path
stopped at, which fix the length still to go.  The rooted path search
keeps its plain DFS order, so the copy it returns, which learned mode
turns into a clause, does not change; a memo there costs more than it
saves on the small color classes that search mostly sees.
"""

from __future__ import annotations

import math
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

DETECTED_FAMILIES = (Complete, Star, Path, Matching, Book, Fan)

DEFAULT_COPY_CAP = 2_000_000


class CopyCapError(RuntimeError):
    """Copy enumeration exceeded the configured cap."""


def target_from_spec(spec: GraphSpec) -> TargetKind:
    """The spec's leaf, or the spec wrapped in Generic when it has none."""
    return _leaf(spec) or Generic(spec)


def target_to_spec(target: TargetKind) -> GraphSpec:
    return target.spec if isinstance(target, Generic) else target


def target_label(target: TargetKind) -> str:
    return graphs.spec_to_text(target_to_spec(target))


@lru_cache(maxsize=256)
def target_graph(target: TargetKind) -> Graph:
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
    classes = graphs.twin_classes(adj)
    aut = 1
    fixed = ()
    for k, v in enumerate(order):
        # a twin of v is in v's orbit with no query: swapping the two fixes
        # every other vertex
        twins = {j for j in range(k + 1, len(order)) if classes[v] >> order[j] & 1}
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
        return spec.param
    p = graphs.spec_order(spec)
    if p > graphs.MAX_ORDER:
        return None
    k = next((k for k in range(1, p + 1) if graphs.spec_order(family(k)) == p), None)
    if k is None:
        return None
    graph, member = target_graph(spec), realize(family(k))
    same = sorted(map(int.bit_count, graph.adj)) == sorted(map(int.bit_count, member.adj))
    return k if same and _subgraph_exists(graph, member) else None


def _leaf(target: TargetKind) -> GraphSpec | None:
    """The detected family member that serves the target, or None.

    A member serves itself; any other spec is served by the first member
    (Complete first) isomorphic to it, and a Generic target by none.
    """
    if isinstance(target, DETECTED_FAMILIES):
        return target
    return None if isinstance(target, Generic) else _first_member(target)


@lru_cache(maxsize=256)
def _first_member(spec: GraphSpec) -> GraphSpec | None:
    return next((family(k) for family in DETECTED_FAMILIES
                 if (k := family_parameter(spec, family)) is not None), None)


def contains_target(g: Graph, target: TargetKind) -> bool:
    """True iff g has a (not necessarily induced) copy of the target."""
    leaf = _leaf(target)
    if leaf is None:
        return _subgraph_exists(g, target_graph(target))
    if isinstance(leaf, Complete):
        return _has_clique(g, leaf.n)
    if isinstance(leaf, Star):
        return max(row.bit_count() for row in g.adj) >= leaf.n
    if isinstance(leaf, Path):
        return _has_path(g, leaf.n)
    if isinstance(leaf, Matching):
        return _has_matching(g, leaf.m)
    adj = g.adj
    if isinstance(leaf, Book):
        return any((adj[u] & adj[v]).bit_count() >= leaf.m for u, v in g.edges)
    return any(_matching_within(adj, row, leaf.n) is not None for row in adj)  # a fan


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
    leaf = _leaf(target)
    if leaf is None:
        # some pattern edge ab lands on uv, in either orientation, on endpoints of enough degree
        pattern = target_graph(target)
        pdeg = [row.bit_count() for row in pattern.adj]
        fewer, more = sorted((adj[u].bit_count(), adj[v].bit_count()))
        ends = 1 << u | 1 << v
        for a, b in pattern.edges:
            if min(pdeg[a], pdeg[b]) <= fewer and max(pdeg[a], pdeg[b]) <= more:
                for emb in _embeddings(g, pattern, ((a, ends), (b, ends))):
                    return [(emb[x], emb[y]) for x, y in pattern.edges]
        return None
    if isinstance(leaf, Complete):
        rest = _clique_within(adj, adj[u] & adj[v], leaf.n - 2) if leaf.n >= 2 else None
        return None if rest is None else list(combinations([u, v] + _vertices(rest), 2))
    if isinstance(leaf, Star):
        for hub, end in ((u, v), (v, u)):
            if adj[hub].bit_count() >= leaf.n:
                leaves = [end] + _vertices(adj[hub] & ~(1 << end))[: leaf.n - 1]
                return [(hub, w) for w in leaves]
        return None
    if isinstance(leaf, Path):
        return _path_through(adj, u, v, leaf.n) if leaf.n >= 2 else None
    if isinstance(leaf, Matching):
        rest = _matching_within(adj, ((1 << g.order) - 1) & ~(1 << u | 1 << v), leaf.m - 1)
        return None if rest is None else rest + [(u, v)]
    common = adj[u] & adj[v]
    if isinstance(leaf, Book):
        # uv is the spine, or a page edge on the spine aw with page b
        m = leaf.m
        if common.bit_count() >= m:
            return [(u, v)] + [(x, w) for w in _vertices(common)[:m] for x in (u, v)]
        for a, b in ((u, v), (v, u)):
            for w in _vertices(common):
                pages = [b] + _vertices(adj[a] & adj[w] & ~(1 << b))[: m - 1]
                if len(pages) == m:
                    return [(a, w)] + [(x, p) for p in pages for x in (a, w)]
        return None
    # a fan: a blade through uv, hub u or v with a spoke on uv, or a hub w on
    # rim uv; the other blades are a matching among the hub's remaining neighbors
    for w in _vertices(common):
        for hub, a, b in ((u, v, w), (v, u, w), (w, u, v)):
            rims = _matching_within(adj, adj[hub] & ~(1 << a | 1 << b), leaf.n - 1)
            if rims is not None:
                return [e for x, y in rims + [(a, b)] for e in ((hub, x), (hub, y), (x, y))]
    return None


# ---------------------------------------------------------------------------
# Copy enumeration


def _star_copies(bits, n: int, emit) -> None:
    for spokes in bits:
        leaves = [b for b in spokes if b]
        if len(leaves) >= n:
            for chosen in combinations(leaves, n):
                emit(sum(chosen))


def _clique_copies(adj, bits, m: int, emit, chosen: list[int], mask: int, cand: int) -> None:
    """Emit every clique on m vertices that adds vertices of cand to chosen, in increasing order."""
    last = len(chosen) + 1 == m
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        row = bits[v]
        grown = mask
        for u in chosen:
            grown |= row[u]
        if last:
            emit(grown)
        else:
            _clique_copies(adj, bits, m, emit, chosen + [v], grown, adj[v] & cand)


def _path_copies_from(adj, bits, emit, v: int, visited: int, mask: int, left: int,
                      above: int) -> None:
    """Emit every path that goes on from v through `left` more vertices and ends in above."""
    row = bits[v]
    ext = adj[v] & ~visited
    if left == 1:
        ext &= above
        while ext:
            low = ext & -ext
            ext ^= low
            emit(mask | row[low.bit_length() - 1])
        return
    while ext:
        low = ext & -ext
        ext ^= low
        w = low.bit_length() - 1
        _path_copies_from(adj, bits, emit, w, visited | low, mask | row[w], left - 1, above)


def _disjoint_copies(items, k: int, emit, start: int = 0, used: int = 0, mask: int = 0) -> None:
    """Emit the edge-mask union of every k (vertex mask, edge mask) items with disjoint vertices."""
    for idx in range(start, len(items)):
        verts, edges = items[idx]
        if used & verts:
            continue
        if k == 1:
            emit(mask | edges)
        else:
            _disjoint_copies(items, k - 1, emit, idx + 1, used | verts, mask | edges)


def _book_copies(host: Graph, bits, m: int, emit) -> None:
    adj = host.adj
    for spine, (u, v) in enumerate(host.edges):
        common = adj[u] & adj[v]
        if common.bit_count() < m:
            continue
        ru, rv = bits[u], bits[v]
        pages = [ru[w] | rv[w] for w in range(host.order) if common >> w & 1]
        for chosen in combinations(pages, m):
            emit(sum(chosen, 1 << spine))


def _fan_copies(host: Graph, bits, n: int, emit) -> None:
    for hub, spokes in enumerate(bits):
        if host.adj[hub].bit_count() < 2 * n:
            continue
        # a blade is a triangle on the hub: (its two rim vertices, its three edges)
        blades = [
            (1 << a | 1 << b, bits[a][b] | spokes[a] | spokes[b])
            for a, b in host.edges
            if spokes[a] and spokes[b]
        ]
        _disjoint_copies(blades, n, emit)


def _copies_in_complete(n: int, target: TargetKind) -> int:
    """The copy count in K_n of a target with an edge and at most n vertices.

    A copy is an edge set, the image of the target's core (the target
    without its isolated vertices) on q vertices.  The injective maps of
    the core into K_n number perm(n, q), and each copy is the image of
    |Aut(core)| of them, the product of the orbit sizes along the
    symmetry-breaking walk.
    """
    core, _, aut = _symmetry_breaking(target_graph(target))
    return math.perm(n, core.order) // aut


def enumerate_copies(host: Graph, target: TargetKind, cap: int = DEFAULT_COPY_CAP) -> list[int]:
    """All distinct host subgraphs isomorphic to the target, as edge bitmasks.

    Bit i of a copy is set when host edge i (canonical order) is in it; an
    edgeless target has the single copy 0.  Deterministic: the result is
    sorted.  Raises CopyCapError past the cap.  On a complete host every
    target's copies are counted first, so there it raises before
    enumerating anything.
    """
    pattern = target_graph(target)
    n, p, k = host.order, pattern.order, pattern.edge_count
    if p > n:
        return []
    if k == 0:
        # an edgeless target sits inside every coloring of a large-enough host
        return [0]
    if host.edge_count == n * (n - 1) // 2 and _copies_in_complete(n, target) > cap:
        raise CopyCapError(f"more than {cap} target copies in the host")
    adj, bits = host.adj, host.edge_bits
    copies: list[int] = []

    def emit(mask: int) -> None:
        copies.append(mask)
        if len(copies) > cap:
            raise CopyCapError(f"more than {cap} target copies in the host")

    leaf = _leaf(target)
    if leaf is None:
        core, lower, _ = _symmetry_breaking(pattern)
        pedges = core.edges
        for emb in _embeddings(host, core, lower=lower):
            mask = 0
            for a, b in pedges:
                mask |= bits[emb[a]][emb[b]]
            emit(mask)
    elif k == p * (p - 1) // 2:
        # as a clique, also S1, B1 and F1, which have more than one hub or spine
        _clique_copies(adj, bits, p, emit, [], 0, (1 << n) - 1)
    elif isinstance(leaf, Star):
        _star_copies(bits, leaf.n, emit)
    elif isinstance(leaf, Path):
        # a path is emitted from its lower end only
        for start in range(n):
            _path_copies_from(adj, bits, emit, start, 1 << start, 0, leaf.n - 1, -(2 << start))
    elif isinstance(leaf, Matching):
        _disjoint_copies([(1 << u | 1 << v, 1 << i) for i, (u, v) in enumerate(host.edges)],
                         leaf.m, emit)
    elif isinstance(leaf, Book):
        _book_copies(host, bits, leaf.m, emit)
    else:
        _fan_copies(host, bits, leaf.n, emit)
    copies.sort()
    return copies
