"""Exhaustive arrowing search with monochromatic-copy propagation.

Decides host -> (red, blue), lists every free coloring of a small host,
computes Ramsey numbers and deletion-critical numbers, and exports the
search space as DIMACS CNF.

The engine is one generator, _free_colorings.  It enumerates every copy of
each target inside the host as an edge bitmask, turns the copies into
clauses ("some edge of a red copy must be blue" and vice versa), and runs
an explicit-stack depth-first search over edge assignments with unit
propagation.  Each copy is one bit (a lane) of big ints: per host edge,
the copies through it; per color, the copies still alive and the copies
with one free edge left; and bit-sliced planes holding every alive copy's
free-edge count.  Coloring an edge updates all copies through it at once,
in a few big-int operations, and backtracking restores a saved state.
When the copies pass the copy cap, the same search learns its clauses
instead: each newly colored edge asks for a copy through it in its color
class, and a copy found is a conflict and a new lane.  The generator
yields the red edge mask of each complete free coloring it reaches;
arrows takes the first (exhausting the space proves arrowing, and a
coloring is re-verified before it is returned as a counterexample), and
all_free_colorings takes them all.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from . import formulas
from .coloring import BLUE, RED, Coloring, monochromatic_subgraph
from .containment import (
    TargetKind,
    _core_automorphisms,
    _embeddings,
    _pattern,
    _symmetry_breaking,
    contains_target,
    copy_through,
    target_label,
    target_to_spec,
)
from .graphs import Book, Complete, Fan, Graph, Matching, Minus, Path, Star, realize

DEFAULT_COPY_CAP = 2_000_000


class CopyCapError(RuntimeError):
    """Copy enumeration exceeded the configured cap."""


class IndeterminateError(RuntimeError):
    """Search budget exhausted before reaching a verdict."""


class NotFoundWithinBoundError(RuntimeError):
    """No arrowing complete graph exists within the requested bound."""


@dataclass
class SearchStats:
    nodes: int = 0
    runtime_ms: float = 0.0
    propagation_mode: str = "clauses"
    budget_exhausted: bool = False


@dataclass
class ArrowingResult:
    verdict: str  # "arrows" | "counterexample" | "indeterminate"
    counterexample: Coloring | None
    stats: SearchStats

    @property
    def arrows(self) -> bool:
        return self.verdict == "arrows"


class DeletionFamily(Enum):
    """Indexed family of subgraphs deleted from K_r.

    PATH and CLIQUE are indexed by vertex count (so PATH matches the
    path-critical definition); MATCHING is indexed by edge count.
    """

    PATH = "path"
    MATCHING = "matching"
    CLIQUE = "clique"

    def deletion_spec(self, index: int):
        if self is DeletionFamily.PATH:
            return Path(index)
        if self is DeletionFamily.MATCHING:
            return Matching(index)
        return Complete(index)

    def first_index(self) -> int:
        # index 1 deletes no edge for PATH/CLIQUE, so the scan starts at 2
        return 1 if self is DeletionFamily.MATCHING else 2

    def max_index(self, r: int) -> int:
        return r // 2 if self is DeletionFamily.MATCHING else r

    @property
    def index_unit(self) -> str:
        return "edges" if self is DeletionFamily.MATCHING else "vertices"


# ---------------------------------------------------------------------------
# Copy enumeration
#
# A copy is an int edge mask: bit i is set when host edge i (canonical
# order) is in the copy.  bits[u][v] (Graph.edge_bits) is the mask of edge
# uv, 0 for a non-edge, so each enumerator ORs a copy together as its DFS
# goes.  Each enumerator emits each copy once, so there is no dedup set:
# a clique in increasing vertex order, a path from its lower end, a star
# from its one hub, a matching or fan's disjoint parts in increasing index
# order, a book from its one spine, and a generic target's core through
# the one embedding per copy that its symmetry-breaking conditions allow
# (containment._symmetry_breaking).  A target whose graph is complete goes
# to the clique enumerator, whatever its kind: the K2 of Star(1) and the K3
# of Book(1) and Fan(1) have two or three hubs or spines to be emitted from.
# On a complete host the copies of every target are counted before any is
# built (_copies_in_complete), so a count past the cap raises at once.


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
    |Aut(core)| of them.
    """
    q, aut = _core_automorphisms(_pattern(target))
    return math.perm(n, q) // aut


def enumerate_copies(host: Graph, target: TargetKind, cap: int = DEFAULT_COPY_CAP) -> list[int]:
    """All distinct host subgraphs isomorphic to the target, as edge bitmasks.

    Bit i of a copy is set when host edge i (canonical order) is in it; an
    edgeless target has the single copy 0.  Deterministic: the result is
    sorted.  Raises CopyCapError past the cap.  On a complete host every
    target's copies are counted first, so there it raises before
    enumerating anything.
    """
    pattern = _pattern(target)
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

    if k == p * (p - 1) // 2:
        _clique_copies(adj, bits, p, emit, [], 0, (1 << n) - 1)
    elif isinstance(target, Star):
        _star_copies(bits, target.n, emit)
    elif isinstance(target, Path):
        # a path is emitted from its lower end only
        for start in range(n):
            _path_copies_from(adj, bits, emit, start, 1 << start, 0, target.n - 1, -(2 << start))
    elif isinstance(target, Matching):
        _disjoint_copies([(1 << u | 1 << v, 1 << i) for i, (u, v) in enumerate(host.edges)],
                         target.m, emit)
    elif isinstance(target, Book):
        _book_copies(host, bits, target.m, emit)
    elif isinstance(target, Fan):
        _fan_copies(host, bits, target.n, emit)
    else:
        core, below = _symmetry_breaking(pattern)
        pedges = core.edges
        for emb in _embeddings(host, core, below=below):
            mask = 0
            for a, b in pedges:
                mask |= bits[emb[a]][emb[b]]
            emit(mask)
    copies.sort()
    return copies


# ---------------------------------------------------------------------------
# Clause-propagation search on copy lanes
#
# Copy j of a target is lane j: bit j of an int that spans the target's
# copies.  lanes[e] has bit j set when copy j contains host edge e, so one
# big-int operation visits every copy through an edge.

_LANE_BLOCK = 4096  # copies transposed at a time (a multiple of 8)
# _BIT_DIGIT[t] maps each byte to b"1" when its bit t is set, else to b"0"
_BIT_DIGIT = [bytes(48 + (x >> t & 1) for x in range(256)) for t in range(8)]


def _lanes(copies: list[int], k: int, m: int) -> list[int]:
    """The transposed copy masks: bit j of lanes[e] is set when copies[j] contains edge e.

    k is the edge count of every copy and m the host's.  With at most six
    copies per edge on average, each copy ORs its lane into the lanes of its
    edges, which is the quicker way there.  Otherwise each block of
    _LANE_BLOCK copies is written out as little-endian bytes, last copy
    first, so that the strided slice of byte e // 8 of every copy, mapped to
    binary digits by bit e % 8, spells the block's lane of e: a few calls
    per edge and block, where the OR loop's cost grows with copies times
    edges.
    """
    if len(copies) * k <= 6 * m:
        lanes = [0] * m
        lane = 1
        for mask in copies:
            while mask:
                e = mask.bit_length() - 1
                lanes[e] |= lane
                mask ^= 1 << e
            lane <<= 1
        return lanes
    width = (m + 7) >> 3
    blocks = []
    for lo in range(0, len(copies), _LANE_BLOCK):
        data = b"".join([mask.to_bytes(width, "little")
                         for mask in reversed(copies[lo:lo + _LANE_BLOCK])])
        blocks.append([int(data[e >> 3::width].translate(_BIT_DIGIT[e & 7]), 2)
                       for e in range(m)])
    if len(blocks) == 1:
        return blocks[0]
    size = _LANE_BLOCK >> 3
    return [int.from_bytes(b"".join([block[e].to_bytes(size, "little") for block in blocks]),
                           "little")
            for e in range(m)]


def _branch_order(host: Graph, deterministic: bool) -> list[int]:
    edges = host.edges
    if deterministic:
        return list(range(len(edges)))
    degs = [row.bit_count() for row in host.adj]
    # highest degree sum first; the sort is stable, so ties stay in canonical order
    key = [-(degs[u] + degs[v]) for u, v in edges]
    return sorted(range(len(edges)), key=key.__getitem__)


def _free_colorings(host, red, blue, stats, *, order, symmetric, budget=None,
                    copy_cap=DEFAULT_COPY_CAP):
    """Yield each free coloring of the host as its red edge mask, in DFS order.

    An explicit-stack DFS over the edges in branch order, with unit
    propagation over the copy clauses ("some edge of a red copy is blue"
    and vice versa); each decision tries RED before BLUE, and symmetric
    (for red == blue) fixes the first free edge RED.

    Copy j of targets[c] is lane j of color c, and lanes[c][e] has bit j
    set when that copy contains edge e.  A state is one flat list: the red
    and blue edge masks; per color, the alive lanes (copies with no edge of
    the other color) and the unit lanes (alive copies with one free edge);
    then per color, the free-edge count minus two of each other alive copy,
    bit-sliced over (k - 2).bit_length() plane ints, k the target's edge
    count.  Coloring e with c kills the lanes of the other color through e.
    Of the alive lanes of c through e, a unit lane is a copy now all c, a
    conflict; the others take a ripple-borrow decrement, and the borrow out
    of the last plane is the set of new unit lanes, each of whose one free
    edge is queued for the other color, lowest lane first.  A step builds a
    new state, so backtracking restores a saved one.

    When either target has more than copy_cap copies, both sides learn
    their clauses instead: every state the search reaches has no
    monochromatic copy, so coloring e with c (by a decision or by
    propagation) asks copy_through for a copy through e in the grown class.
    A copy found is a conflict and becomes a new lane of c; a state popped
    from the DFS stack first takes in the lanes learned since it was
    pushed, counted from its own edge masks, so learned clauses propagate
    in every later branch.  For that query the learned-mode state also
    carries the adjacency rows of each color class, which step grows with
    each colored edge.

    stats gets nodes (current at each yield), propagation_mode and
    budget_exhausted; the search stops once nodes passes the budget.
    """
    n, edges = host.order, host.edges
    m = len(edges)
    bit = [1 << e for e in range(m)]
    targets = (red, blue)
    try:
        copies = [enumerate_copies(host, t, copy_cap) for t in targets]
    except CopyCapError:
        stats.propagation_mode = "learned"
        copies = None
    sizes = []
    for t in targets:
        p = _pattern(t)
        k = p.edge_count
        # an edgeless target that fits is in every color class, so no coloring is free
        if not k and p.order <= n:
            return
        sizes.append(k)
    learning = copies is None
    if learning:
        copies = [[], []]
        index = host.edge_index
    lanes = [_lanes(cps, k, m) for cps, k in zip(copies, sizes)]
    learned = []  # (color, lane) of each learned copy, in the order learned

    def learn(rows, e, c):
        # a copy of targets[c] through e in the class with adjacency rows, as a new lane
        copy = copy_through(Graph._raw(n, rows), targets[c], *edges[e])
        if copy is None:
            return False
        j = len(copies[c])
        lane = 1 << j
        mask = 0
        for a, b in copy:
            i = index[(a, b) if a < b else (b, a)]
            mask |= bit[i]
            lanes[c][i] |= lane
        copies[c].append(mask)
        learned.append((c, j))
        return True

    def step(state, e, c):
        # state with edge e colored c and its consequences, or None on a conflict
        s = list(state)
        queue = [(e, c)]
        while queue:
            e, c = queue.pop()
            b = bit[e]
            if s[c] & b:
                continue
            flip = 1 - c
            if s[flip] & b:
                return None
            s[c] |= b
            s[2 + flip] &= ~lanes[flip][e]
            hit = lanes[c][e] & s[2 + c]
            if hit:
                if hit & s[4 + c]:
                    return None  # a copy of targets[c] is now all c
                for i in planes[c]:
                    p = s[i]
                    s[i] = p ^ hit
                    hit &= ~p
                    if not hit:
                        break
                else:
                    # the borrow out of the last plane: copies left with one free edge
                    s[4 + c] |= hit
                    free = ~(s[RED] | s[BLUE])
                    cps = copies[c]
                    while hit:
                        low = hit & -hit
                        hit ^= low
                        queue.append(((cps[low.bit_length() - 1] & free).bit_length() - 1, flip))
            if learning:
                x, y = edges[e]
                rows = list(s[rows_at + c])
                rows[x] |= 1 << y
                rows[y] |= 1 << x
                s[rows_at + c] = rows = tuple(rows)
                if learn(rows, e, c):
                    return None
        return s

    def catch_up(state, since):
        # the state with the lanes learned after learned[:since], counted from its edge masks
        s = list(state)
        free = ~(s[RED] | s[BLUE])
        for c, j in learned[since:]:
            mask = copies[c][j]
            if mask & s[1 - c]:
                continue
            lane = 1 << j
            s[2 + c] |= lane
            count = (mask & free).bit_count()
            if count == 1:
                s[4 + c] |= lane
            else:
                for shift, i in enumerate(planes[c]):
                    if count - 2 >> shift & 1:
                        s[i] |= lane
        return s

    def skip(state, oi):
        # the first order position from oi whose edge is still uncolored
        assigned = state[RED] | state[BLUE]
        while oi < m and assigned & bit[order[oi]]:
            oi += 1
        return oi

    # the state: red, blue, alive[RED], alive[BLUE], unit[RED], unit[BLUE], the
    # planes of color c at the indices planes[c], and in learned mode the rows
    # of color class c at rows_at + c
    state = [0, 0, 0, 0, 0, 0]
    planes = []
    for c in (RED, BLUE):
        every = state[2 + c] = (1 << len(copies[c])) - 1
        # each copy starts with its k edges free: one-edge copies are units,
        # and the others count k - 2
        count = sizes[c] - 2
        if count < 0:
            state[4 + c] = every
        first = len(state)
        while count > 0:
            state.append(every if count & 1 else 0)
            count >>= 1
        planes.append(range(first, len(state)))
    rows_at = len(state)
    if learning:
        state += [(0,) * n, (0,) * n]

    # one-edge copies fix their edge before any decision
    for forbid in (RED, BLUE):
        if sizes[forbid] == 1:
            for mask in copies[forbid]:
                state = step(state, mask.bit_length() - 1, 1 - forbid)
                if state is None:
                    return

    if symmetric:
        first = skip(state, 0)
        if first < m:
            state = step(state, order[first], RED)
            if state is None:
                return

    nodes = 0
    # (order position, state before it, len(learned) then) of decisions whose BLUE branch is open
    stack = []
    oi = skip(state, 0)
    while True:
        if oi == m:
            stats.nodes = nodes
            yield state[RED]
        else:
            nodes += 1
            if budget is not None and nodes > budget:
                stats.nodes, stats.budget_exhausted = nodes, True
                return
            stack.append((oi, state, len(learned)))
            nxt = step(state, order[oi], RED)
            if nxt is not None:
                state = nxt
                oi = skip(state, oi + 1)
                continue
        while stack:
            oi, state, since = stack.pop()
            if since < len(learned):
                state = catch_up(state, since)
            nxt = step(state, order[oi], BLUE)
            if nxt is not None:
                state = nxt
                oi = skip(state, oi + 1)
                break
        else:
            stats.nodes = nodes
            return


def check_free(coloring: Coloring, red: TargetKind, blue: TargetKind) -> Coloring:
    """Return the coloring after re-checking that neither color class holds its target.

    Raises RuntimeError naming the failing side: a coloring that a search or
    a construction built as free and that is not is a bug there.
    """
    for color, side, target in ((RED, "red", red), (BLUE, "blue", blue)):
        if contains_target(monochromatic_subgraph(coloring, color), target):
            raise RuntimeError(
                f"freeness re-check failed: the {side} side contains {target_label(target)}"
            )
    return coloring


def arrows(
    host: Graph,
    red: TargetKind,
    blue: TargetKind,
    *,
    budget: int | None = None,
    deterministic: bool = False,
    copy_cap: int = DEFAULT_COPY_CAP,
) -> ArrowingResult:
    """Decide host -> (red, blue).

    Arrows means every complete red/blue coloring of the host edges has a
    red copy of the red target or a blue copy of the blue target.  A
    counterexample is a complete free coloring, re-verified by containment
    before it is returned.  In deterministic mode the counterexample is the
    lexicographically least free assignment in canonical edge order (red
    below blue).
    """
    t0 = time.perf_counter()
    stats = SearchStats()
    found = next(_free_colorings(
        host, red, blue, stats, order=_branch_order(host, deterministic),
        symmetric=red == blue, budget=budget, copy_cap=copy_cap,
    ), None)
    stats.runtime_ms = (time.perf_counter() - t0) * 1000.0
    if stats.budget_exhausted:
        return ArrowingResult("indeterminate", None, stats)
    if found is None:
        return ArrowingResult("arrows", None, stats)
    return ArrowingResult("counterexample", check_free(Coloring(host, found), red, blue), stats)


def all_free_colorings(host: Graph, red: TargetKind, blue: TargetKind) -> list[Coloring]:
    """Every complete free coloring of the host, in lexicographic order (canonical edge order)."""
    if host.edge_count > 30:
        raise ValueError(
            f"exhaustive enumeration supports at most 30 host edges, got {host.edge_count}"
        )
    order = _branch_order(host, deterministic=True)
    search = _free_colorings(host, red, blue, SearchStats(), order=order, symmetric=False)
    return [Coloring(host, mask) for mask in search]


# ---------------------------------------------------------------------------
# Ramsey and critical numbers


def ramsey_number(
    red: TargetKind,
    blue: TargetKind,
    max_r: int = 64,
    *,
    budget: int | None = None,
    deterministic: bool = False,
) -> int:
    """Smallest r <= max_r with K_r -> (red, blue), by ascending search.

    The scan starts from the Burr lower bound when its hypotheses apply.
    The result is the search value alone; formulas.compare_with_catalog
    checks it against the catalog.
    """
    if max_r > 64:
        raise ValueError("max_r is capped at 64")
    if max_r < 1:
        raise ValueError(f"max_r must be at least 1, got {max_r}")
    start = 1
    try:
        start = max(start, formulas.burr_bound(target_to_spec(red), target_to_spec(blue)))
    except (formulas.HypothesisError, ValueError):
        pass
    for r in range(start, max_r + 1):
        result = arrows(
            realize(Complete(r)), red, blue,
            budget=budget, deterministic=deterministic,
        )
        if result.verdict == "indeterminate":
            raise IndeterminateError(f"budget exhausted deciding K_{r}")
        if result.arrows:
            return r
    raise NotFoundWithinBoundError(
        f"no complete graph up to K_{max_r} arrows ({target_label(red)}, {target_label(blue)})"
    )


def critical_number(
    red: TargetKind,
    blue: TargetKind,
    family: DeletionFamily,
    r: int | None = None,
    *,
    budget: int | None = None,
    deterministic: bool = False,
) -> int:
    """Largest family index whose deletion from K_r preserves arrowing.

    Returns 0 when even the smallest one-edge deletion (P_2 / M_1 / K_2)
    breaks arrowing.  Deleting family member i+1 removes a superset of the
    edges of member i under the canonical placement, so the upward scan
    stops at the first failure.
    """
    if r is None:
        r = ramsey_number(red, blue, budget=budget, deterministic=deterministic)
    last = 0
    index = family.first_index()
    while index <= family.max_index(r):
        host = realize(Minus(Complete(r), family.deletion_spec(index)))
        result = arrows(host, red, blue, budget=budget, deterministic=deterministic)
        if result.verdict == "indeterminate":
            raise IndeterminateError(
                f"budget exhausted deciding K_{r} minus {family.value} index {index}"
            )
        if not result.arrows:
            break
        last = index
        index += 1
    return last


def result_to_json(host_label: str, red: TargetKind, blue: TargetKind, result: ArrowingResult) -> dict:
    """Wire form of a search outcome (counterexample key only when present)."""
    payload = {
        "host": host_label,
        "red": target_label(red),
        "blue": target_label(blue),
        "verdict": result.verdict,
        "stats": {
            "nodes": result.stats.nodes,
            "runtime_ms": round(result.stats.runtime_ms, 1),
            "propagation_mode": result.stats.propagation_mode,
        },
    }
    if result.counterexample is not None:
        payload["counterexample"] = result.counterexample.edge_triples()
    return payload


# ---------------------------------------------------------------------------
# DIMACS export


def export_dimacs(host: Graph, red: TargetKind, blue: TargetKind) -> str:
    """CNF whose satisfying assignments are exactly the free colorings.

    One variable per host edge in canonical order (positive literal = red);
    each red-target copy contributes an all-negative clause, each
    blue-target copy an all-positive clause.  The formula is satisfiable
    iff the host does NOT arrow.
    """
    red_copies = enumerate_copies(host, red, DEFAULT_COPY_CAP)
    blue_copies = enumerate_copies(host, blue, DEFAULT_COPY_CAP)
    lines = [
        "c arrowing CNF: satisfiable iff the host admits a free coloring",
        f"c host: {host.order} vertices, {host.edge_count} edges",
        f"c red target {target_label(red)}: {len(red_copies)} copies, clauses all-negative",
        f"c blue target {target_label(blue)}: {len(blue_copies)} copies, clauses all-positive",
        "c positive literal = red edge",
    ]
    for (u, v), idx in host.edge_index.items():
        lines.append(f"c edge {u} {v} var {idx + 1}")
    lines.append(f"p cnf {host.edge_count} {len(red_copies) + len(blue_copies)}")
    for sign, copies in ((-1, red_copies), (1, blue_copies)):
        clauses = sorted([e for e in range(mask.bit_length()) if mask >> e & 1] for mask in copies)
        for ids in clauses:
            lines.append(" ".join(str(sign * (e + 1)) for e in ids) + " 0")
    return "\n".join(lines) + "\n"
