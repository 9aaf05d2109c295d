"""Independent brute-force oracles for the verification suites.

Nothing here shares code with the search engine, the detectors or the
canonical keys: the containment oracle tries raw injections, the
isomorphism oracle tries every relabeling, the arrowing oracle enumerates
all 2^e colorings, the CNF oracle is a tiny standalone DPLL, and the
longest-path oracle is plain DFS.  They exist to be slow and obviously
correct.
"""

from __future__ import annotations

import random
from itertools import permutations, product

from .coloring import Coloring
from .graphs import Graph


def random_graph(rng: random.Random, order: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(order) for v in range(u + 1, order) if rng.random() < p]
    return Graph.from_edges(order, edges)


def random_connected_graph(rng: random.Random, order: int, p: float = 0.5) -> Graph:
    from .graphs import stats

    while True:
        g = random_graph(rng, order, p)
        if stats(g).is_connected:
            return g


def brute_contains(host: Graph, pattern: Graph) -> bool:
    """Subgraph containment by trying every injection."""
    if pattern.order > host.order:
        return False
    pedges = pattern.edges
    for image in permutations(range(host.order), pattern.order):
        if all(host.has_edge(image[a], image[b]) for a, b in pedges):
            return True
    return False


def brute_copy_masks(host: Graph, pattern: Graph) -> list[int]:
    """Distinct copies of the pattern as bitmasks over host edge indices."""
    if pattern.order > host.order:
        return []
    ei = host.edge_index
    pedges = pattern.edges
    masks = set()
    for image in permutations(range(host.order), pattern.order):
        mask = 0
        for a, b in pedges:
            u, v = image[a], image[b]
            idx = ei.get((u, v) if u < v else (v, u))
            if idx is None:
                mask = -1
                break
            mask |= 1 << idx
        if mask >= 0:
            masks.add(mask)
    return sorted(masks)


def brute_color_isomorphic(a: Coloring, b: Coloring) -> bool:
    """Colored-graph isomorphism by trying every vertex relabeling.

    They are isomorphic when some permutation of the vertices maps the host
    edges of a onto those of b, red edges onto red ones.
    """
    n = a.host.order
    if n != b.host.order:
        return False

    def pair_states(coloring) -> dict[tuple[int, int], bool]:
        """(u, v) with u < v -> True for a red edge, False for a blue one."""
        return {edge: bool(coloring.red >> i & 1) for i, edge in enumerate(coloring.host.edges)}

    states_a, states_b = pair_states(a), pair_states(b)
    if len(states_a) != len(states_b):
        return False
    for perm in permutations(range(n)):
        if all(states_b.get((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]))
               == red for (u, v), red in states_a.items()):
            return True
    return False


def naive_arrows(host: Graph, red_pattern: Graph, blue_pattern: Graph) -> bool:
    """Arrowing by enumerating every complete coloring (bit set = red).

    The truth table is one int with a bit per coloring of the m host edges:
    bit x is set while coloring x is still free.
    """
    m = host.edge_count
    if m > 24:
        raise ValueError("naive enumeration supports at most 24 host edges")
    size = 1 << m
    every = (1 << size) - 1
    # red[e]: bit x is set iff coloring x makes edge e red
    red = [int(("1" * (1 << e) + "0" * (1 << e)) * (size >> e + 1), 2) for e in range(m)]
    free = every
    for masks, side in ((brute_copy_masks(host, red_pattern), red),
                        (brute_copy_masks(host, blue_pattern), [every ^ t for t in red])):
        for mask in masks:
            inside = every  # colorings with every edge of this copy on this side
            for e in range(m):
                if mask >> e & 1:
                    inside &= side[e]
            free &= ~inside
    return not free


def naive_longest_path(g: Graph) -> int:
    best = 1

    def walk(v: int, visited: int, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        for u in g.neighbors(v):
            if not visited >> u & 1:
                walk(u, visited | 1 << u, length + 1)

    for start in range(g.order):
        walk(start, 1 << start, 1)
    return best


def chromatic_by_enumeration(g: Graph) -> int:
    """The least k with a proper k-coloring, by trying every map to k colors."""
    k = 0
    while not any(all(c[u] != c[v] for u, v in g.edges) for c in product(range(k), repeat=g.order)):
        k += 1
    return k


def surplus_by_enumeration(g: Graph, chi: int) -> int:
    """Minimum class size over all proper chi-colorings, by full enumeration."""
    best = g.order
    for colors in product(range(chi), repeat=g.order):
        proper = all(colors[u] != colors[v] for u, v in g.edges)
        if not proper:
            continue
        sizes = [colors.count(c) for c in range(chi)]
        if 0 in sizes:
            continue
        best = min(best, min(sizes))
    return best


# ---------------------------------------------------------------------------
# Minimal DPLL over DIMACS text


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    nvars = 0
    clauses = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            nvars = int(parts[2])
            continue
        lits = [int(tok) for tok in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    return nvars, clauses


def naive_dpll(clauses: list[list[int]]) -> bool:
    """Plain recursive DPLL with unit propagation; returns satisfiability."""

    def simplify(cls, lit):
        out = []
        for c in cls:
            if lit in c:
                continue
            if -lit in c:
                reduced = [x for x in c if x != -lit]
                if not reduced:
                    return None
                out.append(reduced)
            else:
                out.append(c)
        return out

    def solve(cls):
        if not cls:
            return True
        for c in cls:
            if len(c) == 1:
                reduced = simplify(cls, c[0])
                return reduced is not None and solve(reduced)
        lit = cls[0][0]
        for choice in (lit, -lit):
            reduced = simplify(cls, choice)
            if reduced is not None and solve(reduced):
                return True
        return False

    return solve([list(c) for c in clauses])
