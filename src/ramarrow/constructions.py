"""Explicit witness colorings and the exhaustive free-coloring oracle.

Every construction here re-verifies itself with arrowing.check_free before
returning; a failed check is an implementation bug and aborts loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import formulas
from .arrowing import all_free_colorings, check_free
from .coloring import RED, Coloring, monochromatic_subgraph
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
    twin_classes,
)


@dataclass
class WitnessReport:
    coloring: Coloring
    host_spec: GraphSpec
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
    k, s, n, t = formulas.path_critical_parameters(G, H, r)  # validates hypotheses
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
    return WitnessReport(
        coloring=coloring,
        host_spec=host_spec,
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


def _twin_transpositions(host: Graph) -> list[tuple[int, int]]:
    """The pairs (a, b), a < b, of consecutive members of each class of graphs.twin_classes.

    They generate every permutation of a class, each a host automorphism.
    """
    pairs = []
    for v, twins in enumerate(twin_classes(host.adj)):
        below = twins & ((1 << v) - 1)
        if below:
            pairs.append((below.bit_length() - 1, v))
    return pairs


def _twin_swaps(host: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Each twin transposition as delta swaps on red edge masks.

    A transposition's edge-index permutation table is a set of disjoint
    index swaps (i, i + d).  Grouped by d they give pairs (d, low), low the
    mask of the lower indices, and the image of a mask x is the delta swap
    t = (x >> d ^ x) & low; x ^= t | t << d over the pairs.
    """
    bits = host.edge_bits
    swaps = []
    for a, b in _twin_transpositions(host):
        sigma = {a: b, b: a}
        groups: dict[int, int] = {}
        for i, (x, y) in enumerate(host.edges):
            d = bits[sigma.get(x, x)][sigma.get(y, y)].bit_length() - 1 - i
            if d > 0:
                groups[d] = groups.get(d, 0) | 1 << i
        swaps.append(tuple(groups.items()))
    return swaps


def enumerate_free_colorings(host: Graph, red: TargetKind, blue: TargetKind) -> list[Coloring]:
    """One representative per color-preserving isomorphism class.

    Each class keeps the first of its colorings that all_free_colorings
    yields, and the classes come in the order the search first reaches them.

    Only a coloring outside every known twin orbit gets a key: each keyed
    coloring's orbit under the swaps of host twins (_twin_swaps) goes into
    a seen set, and a later coloring in it is skipped without a key.  Host
    automorphisms preserve freeness, so a skipped coloring's class already
    has its representative, and the output is the same as with one key per
    coloring.  On a complete host every vertex is a twin, so each class is
    one orbit and costs one key.
    """
    twins = _twin_swaps(host)
    representatives: dict[tuple, Coloring] = {}
    seen: set[int] = set()
    for coloring in all_free_colorings(host, red, blue):
        if coloring.red in seen:
            continue
        representatives.setdefault(canonical_coloring_key(coloring), coloring)
        seen.add(coloring.red)
        orbit = [coloring.red]
        for mask in orbit:  # images appended while iterating are visited in turn
            for swap in twins:
                image = mask
                for d, low in swap:
                    t = (image >> d ^ image) & low
                    image ^= t | t << d
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return list(representatives.values())


# ---------------------------------------------------------------------------
# Color-aware canonical labeling by individualization-refinement with
# automorphism pruning (McKay, "Practical graph isomorphism", Congr. Numer. 30
# (1981); McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic
# Comput. 60 (2014)).  An ordered partition is a list of vertex-bitmask cells.
# Refinement pops splitters S from a queue and splits every cell on the counts
# (|R[v] & S|, |B[v] & S|); the pieces replace the cell in signature order and
# are queued, so the result commutes with relabeling.  The root queues the
# vertex set; individualizing v in the first non-singleton cell puts {v} ahead
# of the rest of that cell and queues {v} alone.  A discrete leaf gives a
# certificate, and the key is the least one.  Two leaves with equal
# certificates give an automorphism: the search jumps back to the node where
# their paths part, and at every node skips a child in the orbit of an
# explored child under the automorphisms found that fix the node's path.


def canonical_coloring_key(coloring: Coloring) -> tuple[int, ...]:
    """Complete invariant for colored-graph isomorphism on one host.

    Two colorings get equal keys iff some vertex relabeling maps host edges
    to host edges preserving edge colors.  The key is the least certificate
    over the leaves of the individualization-refinement tree: the red rows of
    the relabeled coloring followed by its blue rows.  Subtrees that a found
    automorphism maps onto explored ones are skipped, so a coloring with many
    automorphisms (an odd-clique pair, say) visits a few leaves, not all.
    """
    host = coloring.host
    n = host.order
    red = monochromatic_subgraph(coloring, RED).adj
    # vertices are single bits from here on: rows[1 << v] = (red row, blue row)
    rows = {1 << v: (r, adj & ~r) for v, (r, adj) in enumerate(zip(red, host.adj))}
    shift = n + 1

    def refine(cells: list[int], queue: list[int]) -> list[int]:
        for s in queue:  # pieces queued while popping are popped in turn
            if len(cells) == n:
                break
            out = []
            for cell in cells:
                if not cell & (cell - 1):
                    out.append(cell)
                    continue
                groups: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    r, b = rows[low]
                    sig = (r & s).bit_count() * shift + (b & s).bit_count()
                    groups[sig] = groups.get(sig, 0) | low
                    rest ^= low
                if len(groups) == 1:
                    out.append(cell)
                else:
                    pieces = [groups[sig] for sig in sorted(groups)]
                    out += pieces
                    queue += pieces
            cells = out
        return cells

    leaves: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    autos: list[dict[int, int]] = []

    def orbits(explored: int, path: list[int]) -> int:
        """Closure of explored under the automorphisms that fix path pointwise."""
        gens = [g for g in autos if all(g[x] == x for x in path)]
        while True:
            grown = explored
            for g in gens:
                rest = explored
                while rest:
                    low = rest & -rest
                    grown |= g[low]
                    rest ^= low
            if grown == explored:
                return explored
            explored = grown

    def descend(cells: list[int], path: list[int]) -> int:
        """Search below a node; return the depth to resume at."""
        depth = len(path)
        if len(cells) == n:
            position = {v: 1 << i for i, v in enumerate(cells)}
            cert = []
            for side in (0, 1):
                for v in cells:
                    row, image = rows[v][side], 0
                    while row:
                        low = row & -row
                        image |= position[low]
                        row ^= low
                    cert.append(image)
            cert = tuple(cert)
            seen = leaves.get(cert)
            if seen is None:
                leaves[cert] = (path, cells)
                return depth
            # The map between the two leaves is an automorphism fixing their
            # common path, so the rest of this subtree mirrors one already
            # explored: resume where the paths part.
            other_path, other_cells = seen
            autos.append(dict(zip(other_cells, cells)))
            split = 0
            while other_path[split] == path[split]:
                split += 1
            return split
        t = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        cell = cells[t]
        explored = 0
        rest = cell
        while rest:
            v = rest & -rest
            rest ^= v
            if autos and orbits(explored, path) & v:
                continue
            explored |= v
            child = cells[:t] + [v, cell ^ v] + cells[t + 1:]
            resume = descend(refine(child, [v]), path + [v])
            if resume < depth:
                return resume
        return depth

    everything = (1 << n) - 1
    descend(refine([everything], [everything]), [])
    # descend's closure holds descend itself: unbinding it lets reference
    # counting free the search state now, not the cycle collector later
    del descend
    return min(leaves)


def witness_payload(report: WitnessReport) -> dict:
    """Export form: red side as graph6, coloring triples, parameter block."""
    red_side = monochromatic_subgraph(report.coloring, RED)
    return {
        "host": spec_to_text(report.host_spec),
        "red_graph6": graph6_encode(red_side),
        "coloring": report.coloring.edge_triples(),
        "parameters": dict(report.parameters),
    }
