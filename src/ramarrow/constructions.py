"""Explicit witness colorings and the exhaustive free-coloring oracle.

Every construction here re-verifies itself with arrowing.check_free before
returning; a failed check is an implementation bug and aborts loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import formulas
from .arrowing import all_free_colorings, check_free
from .coloring import BLUE, RED, Coloring, monochromatic_subgraph
from .containment import TargetKind
from .graphs import (
    Complete,
    GraphSpec,
    Graph,
    Matching,
    Minus,
    Path,
    graph6_encode,
    realize,
    spec_to_text,
)


@dataclass
class WitnessReport:
    coloring: Coloring
    host_spec: GraphSpec
    red_free: bool
    blue_free: bool
    parameters: dict


def _block_coloring(host: Graph, block) -> Coloring:
    """Red inside a block and blue between blocks; block[v] names v's block."""
    red = 0
    for e, (u, v) in enumerate(host.edges):
        if block[u] == block[v]:
            red |= 1 << e
    return Coloring(host, red)


def block_coloring_witness(G: GraphSpec, H: GraphSpec, r: int) -> WitnessReport:
    """Free coloring of K_r minus a path on t*n vertices.

    Red side: t blocks of K_n minus a spanning path, chi(H)-t-1 blocks of
    K_{n-1}, and one K_{s-1} block; every cross-block edge is blue.  The
    deleted host path runs through the t big blocks consecutively.  No red
    block can hold the connected dominating-vertex graph G, and the blue
    side is chi(H)-partite with surplus s-1, so it has no H.
    """
    bound = formulas.path_critical_upper_bound(G, H, r)  # validates hypotheses
    g = realize(G)
    h = realize(H)
    data = formulas.chromatic_data(h)
    k, s = data.chi, data.surplus
    n = g.order
    t = r - (k - 1) * (n - 1) - s + 1
    host_spec = Minus(Complete(r), Path(t * n))
    host = realize(host_spec)

    sizes = [n] * t + [n - 1] * (k - t - 1)
    if s >= 2:
        sizes.append(s - 1)
    assert sum(sizes) == r, "block sizes must partition the host"
    block = []
    for b, size in enumerate(sizes):
        block.extend([b] * size)
    coloring = check_free(_block_coloring(host, block), G, H)
    assert bound == t * n - 1
    return WitnessReport(
        coloring=coloring,
        host_spec=host_spec,
        red_free=True,
        blue_free=True,
        parameters={"k": k, "t": t, "s": s, "r": r, "n": n},
    )


def odd_clique_pair(n: int, i: int) -> Coloring:
    """Free coloring of K_{2n} for (nK_2, K_3): red pair of odd cliques.

    Red side K_{2i+1} u K_{2n-2i-1}, blue side the complete bipartite graph
    between the parts.  Indices run 0..ceil(n/2)-1; index 0 (a K_1 beside a
    K_{2n-1}) is included because the enumeration oracle confirms it is
    free, even though the family is sometimes written starting at 1.
    """
    if n < 2:
        raise ValueError("odd_clique_pair needs a matching parameter n >= 2")
    top = math.ceil(n / 2) - 1
    if not 0 <= i <= top:
        raise ValueError(f"index {i} outside 0..{top}")
    host = realize(Complete(2 * n))
    split = 2 * i + 1
    return check_free(_block_coloring(host, [v < split for v in range(host.order)]),
                      Matching(n), Complete(3))


# ---------------------------------------------------------------------------
# Exhaustive enumeration of free colorings


def enumerate_free_colorings(host: Graph, red: TargetKind, blue: TargetKind) -> list[Coloring]:
    """One representative per color-preserving isomorphism class."""
    representatives: dict[tuple, Coloring] = {}
    for coloring in all_free_colorings(host, red, blue):
        key = canonical_coloring_key(coloring)
        representatives.setdefault(key, coloring)
    return [representatives[key] for key in sorted(representatives)]


# ---------------------------------------------------------------------------
# Color-aware canonical labeling: equitable refinement on (red-degree,
# blue-degree) signatures plus individualization backtracking, minimizing
# the relabeled pair-state string.


def canonical_coloring_key(coloring: Coloring) -> tuple[int, ...]:
    """Complete invariant for colored-graph isomorphism on one host.

    Two colorings get equal keys iff some vertex relabeling maps host edges
    to host edges preserving edge colors.
    """
    n = coloring.host.order
    red_rows = monochromatic_subgraph(coloring, RED).adj
    blue_rows = monochromatic_subgraph(coloring, BLUE).adj

    def refine(cells: list[list[int]]) -> list[list[int]]:
        while True:
            masks = []
            for cell in cells:
                m = 0
                for v in cell:
                    m |= 1 << v
                masks.append(m)
            split_done = False
            for ci, cell in enumerate(cells):
                if len(cell) == 1:
                    continue
                buckets: dict[tuple, list[int]] = {}
                for v in cell:
                    sig = tuple(
                        ((red_rows[v] & m).bit_count(), (blue_rows[v] & m).bit_count())
                        for m in masks
                    )
                    buckets.setdefault(sig, []).append(v)
                if len(buckets) > 1:
                    cells[ci : ci + 1] = [buckets[s] for s in sorted(buckets)]
                    split_done = True
                    break
            if not split_done:
                return cells

    def leaf_key(cells: list[list[int]]) -> tuple[int, ...]:
        perm = [cell[0] for cell in cells]
        key = []
        for a in range(n):
            va = perm[a]
            for b in range(a + 1, n):
                vb = perm[b]
                if red_rows[va] >> vb & 1:
                    key.append(1)
                elif blue_rows[va] >> vb & 1:
                    key.append(2)
                else:
                    key.append(0)
        return tuple(key)

    best: tuple[int, ...] | None = None

    def descend(cells: list[list[int]]) -> None:
        nonlocal best
        cells = refine([list(c) for c in cells])
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                for v in sorted(cell):
                    rest = [u for u in cell if u != v]
                    descend(cells[:ci] + [[v], rest] + cells[ci + 1 :])
                return
        key = leaf_key(cells)
        if best is None or key < best:
            best = key

    descend([list(range(n))] if n else [])
    assert best is not None
    return best


def witness_payload(report: WitnessReport) -> dict:
    """Export form: red side as graph6, coloring triples, parameter block."""
    red_side = monochromatic_subgraph(report.coloring, RED)
    return {
        "host": spec_to_text(report.host_spec),
        "red_graph6": graph6_encode(red_side),
        "coloring": report.coloring.edge_triples(),
        "parameters": dict(report.parameters),
        "freeness": {"red": report.red_free, "blue": report.blue_free},
    }
