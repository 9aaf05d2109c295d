"""Exhaustive arrowing search with monochromatic-copy propagation.

Decides host -> (red, blue), lists every free coloring of a small host,
computes Ramsey numbers and deletion-critical numbers, and exports the
search space as DIMACS CNF.

The engine is one generator, _free_colorings.  It enumerates every copy of
each target inside the host as an edge bitmask, turns the copies into
clauses ("some edge of a red copy must be blue" and vice versa), and runs
an explicit-stack depth-first search over edge assignments with unit
propagation on those bitmasks: the search state is one red and one blue
edge mask, so backtracking restores two ints.  When the copies pass the
copy cap, the same search learns its clauses instead: each newly colored
edge asks for a copy through it in its color class, and a copy found is a
conflict and a new clause.  The generator yields the red edge mask of
each complete free coloring it reaches; arrows takes the first (exhausting
the space proves arrowing, and a coloring is re-verified before it is
returned as a counterexample), and all_free_colorings takes them all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from . import formulas
from .coloring import BLUE, RED, Coloring, monochromatic_subgraph
from .containment import (
    TargetKind,
    _embeddings,
    _pattern,
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
# order) is in the copy.  bits[u][v] is the mask of edge uv, 0 for a
# non-edge, so each enumerator ORs a copy together as its DFS goes.


def _pair_bits(host: Graph) -> list[list[int]]:
    n = host.order
    bits = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(host.edges):
        bits[u][v] = bits[v][u] = 1 << i
    return bits


def _star_copies(bits, n: int, emit) -> None:
    for spokes in bits:
        leaves = [b for b in spokes if b]
        if len(leaves) >= n:
            for chosen in combinations(leaves, n):
                emit(sum(chosen))


def _clique_copies(host: Graph, bits, m: int, emit) -> None:
    adj = host.adj

    def grow(chosen: list[int], mask: int, cand: int) -> None:
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
                grow(chosen + [v], grown, adj[v] & cand)

    grow([], 0, (1 << host.order) - 1)


def _path_copies(host: Graph, bits, n: int, emit) -> None:
    adj = host.adj

    def extend(v: int, visited: int, mask: int, left: int, above: int) -> None:
        row = bits[v]
        ext = adj[v] & ~visited
        if left == 1:
            # a path is emitted from its lower end only
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
            extend(w, visited | low, mask | row[w], left - 1, above)

    for start in range(host.order):
        extend(start, 1 << start, 0, n - 1, -(2 << start))


def _disjoint_copies(items, k: int, emit) -> None:
    """Emit the edge-mask union of every k (vertex mask, edge mask) items with disjoint vertices."""
    count = len(items)

    def pick(start: int, used: int, mask: int, left: int) -> None:
        for idx in range(start, count):
            verts, edges = items[idx]
            if used & verts:
                continue
            if left == 1:
                emit(mask | edges)
            else:
                pick(idx + 1, used | verts, mask | edges, left - 1)

    pick(0, 0, 0, k)


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


def enumerate_copies(host: Graph, target: TargetKind, cap: int = DEFAULT_COPY_CAP) -> list[int]:
    """All distinct host subgraphs isomorphic to the target, as edge bitmasks.

    Bit i of a copy is set when host edge i (canonical order) is in it; an
    edgeless target has the single copy 0.  Deterministic: the result is
    sorted.  Raises CopyCapError past the cap.
    """
    pattern = _pattern(target)
    if pattern.order > host.order:
        return []
    if pattern.edge_count == 0:
        # an edgeless target sits inside every coloring of a large-enough host
        return [0]
    bits = _pair_bits(host)
    seen: set[int] = set()

    def emit(mask: int) -> None:
        seen.add(mask)
        if len(seen) > cap:
            raise CopyCapError(f"more than {cap} target copies in the host")

    if isinstance(target, Complete):
        _clique_copies(host, bits, target.n, emit)
    elif isinstance(target, Star):
        _star_copies(bits, target.n, emit)
    elif isinstance(target, Path):
        _path_copies(host, bits, target.n, emit)
    elif isinstance(target, Matching):
        _disjoint_copies([(1 << u | 1 << v, 1 << i) for i, (u, v) in enumerate(host.edges)],
                         target.m, emit)
    elif isinstance(target, Book):
        _book_copies(host, bits, target.m, emit)
    elif isinstance(target, Fan):
        _fan_copies(host, bits, target.n, emit)
    else:
        pedges = pattern.edges
        for emb in _embeddings(host, pattern):
            mask = 0
            for a, b in pedges:
                mask |= bits[emb[a]][emb[b]]
            emit(mask)
    return sorted(seen)


# ---------------------------------------------------------------------------
# Clause-propagation search


def _branch_order(host: Graph, deterministic: bool) -> list[int]:
    m = host.edge_count
    if deterministic:
        return list(range(m))
    degs = [host.degree(v) for v in range(host.order)]
    return sorted(range(m), key=lambda i: (-(degs[host.edges[i][0]] + degs[host.edges[i][1]]), i))


def _free_colorings(host, red, blue, stats, *, order, symmetric, budget=None,
                    copy_cap=DEFAULT_COPY_CAP):
    """Yield each free coloring of the host as its red edge mask, in DFS order.

    An explicit-stack DFS over the edges in branch order, with unit
    propagation over copy clauses held as edge bitmasks.  The state is the
    pair (red, blue) of edge masks, so backtracking restores a saved pair;
    each decision tries RED before BLUE, and symmetric (for red == blue)
    fixes the first free edge RED.  occ[c][e] lists the masks of the copies
    that forbid color c and contain edge e; coloring e with c visits only
    those, skipping a copy that already has an edge of the other color,
    failing on one whose edges all have color c, and queueing the last free
    edge of a copy with one left for the other color.

    When either target has more than copy_cap copies, both sides learn
    their clauses instead: every state the search reaches has no
    monochromatic copy, so coloring e with c (by a decision or by
    propagation) asks copy_through for a copy through e in the grown class.
    A copy found is a conflict, and it joins occ[c] as a clause for later
    propagation.  For that query the learned-mode state also carries the
    adjacency rows of each color class, (red, blue, red rows, blue rows);
    step grows them with each colored edge, and backtracking restores them
    with the rest of the state.

    stats gets nodes (current at each yield), propagation_mode and
    budget_exhausted; the search stops once nodes passes the budget.
    """
    n, m = host.order, host.edge_count
    edges = host.edges
    bit = [1 << e for e in range(m)]
    full = (1 << m) - 1
    targets = (red, blue)
    try:
        copies = [enumerate_copies(host, t, copy_cap) for t in targets]
    except CopyCapError:
        stats.propagation_mode = "learned"
        copies = [None, None]
    # an edgeless target that fits is in every color class, so no coloring is free
    if any(not p.edge_count and p.order <= n for p in map(_pattern, targets)):
        return
    occ = ([[] for _ in range(m)], [[] for _ in range(m)])
    learning = copies[RED] is None
    if learning:
        index = host.edge_index
    else:
        for forbid in (RED, BLUE):
            lists = occ[forbid]
            for mask in copies[forbid]:
                rest = mask
                while rest:
                    e = rest.bit_length() - 1
                    lists[e].append(mask)
                    rest ^= bit[e]

    def learn(rows, e, c):
        # a copy of targets[c] through e in the class with adjacency rows
        copy = copy_through(Graph._raw(n, rows), targets[c], *edges[e])
        if copy is None:
            return False
        ids = [index[(a, b) if a < b else (b, a)] for a, b in copy]
        mask = sum(bit[i] for i in ids)
        for i in ids:
            occ[c][i].append(mask)
        return True

    def step(state, e, c):
        # state with edge e colored c and its consequences, or None on a conflict
        masks = list(state)
        queue = [(e, c)]
        while queue:
            e, c = queue.pop()
            b = bit[e]
            if masks[c] & b:
                continue
            flip = 1 - c
            other = masks[flip]
            if other & b:
                return None
            same = masks[c] = masks[c] | b
            free = full ^ same
            for mask in occ[c][e]:
                if not mask & other:
                    rem = mask & free
                    if not rem & (rem - 1):
                        if not rem:
                            return None
                        queue.append((rem.bit_length() - 1, flip))
            if learning:
                x, y = edges[e]
                rows = list(masks[2 + c])
                rows[x] |= 1 << y
                rows[y] |= 1 << x
                masks[2 + c] = rows = tuple(rows)
                if learn(rows, e, c):
                    return None
        return tuple(masks)

    def skip(state, oi):
        # the first order position from oi whose edge is still uncolored
        assigned = state[0] | state[1]
        while oi < m and assigned & bit[order[oi]]:
            oi += 1
        return oi

    # one-edge copies fix their edge before any decision
    state = (0, 0, (0,) * n, (0,) * n) if learning else (0, 0)
    for forbid in (RED, BLUE):
        for mask in copies[forbid] or ():
            if not mask & (mask - 1):
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
    stack = []  # (order position, state before it) of decisions whose BLUE branch is open
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
            stack.append((oi, state))
            nxt = step(state, order[oi], RED)
            if nxt is not None:
                state = nxt
                oi = skip(state, oi + 1)
                continue
        while stack:
            oi, state = stack.pop()
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
