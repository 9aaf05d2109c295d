"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single PASS line (visible with pytest -v -s or on
failure); values are exact and the runtime budgets from the criteria are
asserted, not just observed.
"""

import math
import os
import time

import pytest

from ramarrow import oracles
from ramarrow.arrowing import DeletionFamily, arrows, critical_number, ramsey_number
from ramarrow.coloring import BLUE, RED, monochromatic_subgraph
from ramarrow.constructions import (
    block_coloring_witness,
    canonical_coloring_key,
    enumerate_free_colorings,
    odd_clique_pair,
)
from ramarrow.formulas import (
    burr_bound,
    closed_form_path_critical,
    known_ramsey,
)
from ramarrow.graphs import Book, Complete, Fan, Graph, Matching, Minus, Path, Star, realize, stats
from ramarrow.verify import (
    arrows_enumeration_disagreements,
    detector_generic_disagreements,
    dimacs_disagreements,
    dirac_violations,
)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.1f}s < {self.seconds}s)")
        return False


def _components(g: Graph):
    """The connected components of g, each as a graph of its own."""
    seen = 0
    for start in range(g.order):
        if seen >> start & 1:
            continue
        part = frontier = 1 << start
        while frontier:
            reach = 0
            for v in range(g.order):
                if frontier >> v & 1:
                    reach |= g.adj[v]
            frontier = reach & ~part
            part |= frontier
        seen |= part
        index = {v: i for i, v in enumerate(v for v in range(g.order) if part >> v & 1)}
        yield Graph.from_edges(len(index), [(index[u], index[v]) for u, v in g.edges
                                            if part >> u & 1])


def _free_by_brute_force(coloring, G, H) -> bool:
    """Neither color class holds its target, by oracles.brute_contains.

    Every target here is connected, so it lies inside one component of a
    color class; trying the components one by one keeps the 9-vertex
    targets on 17-vertex hosts within reach of trying every injection.
    """
    for color, spec in ((RED, G), (BLUE, H)):
        target = realize(spec)
        assert stats(target).is_connected
        side = monochromatic_subgraph(coloring, color)
        if any(oracles.brute_contains(part, target) for part in _components(side)):
            return False
    return True


def test_criterion_1_matching_matching_pipeline():
    with _Budget("1 matching-matching pipeline", 120):
        for m, n in [(1, 2), (2, 2), (2, 3), (3, 3)]:
            want = 2 * n + m - 1
            r = ramsey_number(Matching(m), Matching(n), max_r=want + 2)
            assert r == want, (m, n, r)
            crit = critical_number(Matching(m), Matching(n), DeletionFamily.PATH, r)
            assert crit == want, (m, n, crit)  # deleting a hamiltonian path still arrows


def test_criterion_2_star_clique():
    with _Budget("2 star-clique", 60):
        assert ramsey_number(Star(2), Complete(3), max_r=7) == 5
        assert critical_number(Star(2), Complete(3), DeletionFamily.PATH, 5) == 2
        assert ramsey_number(Star(3), Complete(3), max_r=9) == 7
        assert critical_number(Star(3), Complete(3), DeletionFamily.PATH, 7) == 3


def test_criterion_3_star_star():
    with _Budget("3 star-star", 60):
        for m, n, want_r, want_crit in [(2, 2, 3, 0), (2, 3, 5, 4), (3, 3, 6, 5)]:
            r = ramsey_number(Star(m), Star(n), max_r=want_r + 2)
            assert r == want_r == known_ramsey(Star(m), Star(n)).value
            crit = critical_number(Star(m), Star(n), DeletionFamily.PATH, r)
            assert crit == want_crit == closed_form_path_critical(Star(m), Star(n)).value


def test_criterion_4_star_path():
    with _Budget("4 star-path", 10):
        assert known_ramsey(Star(2), Path(7)).value == 7
        assert ramsey_number(Star(2), Path(7), max_r=9) == 7
        assert arrows(realize(Minus(Complete(7), Path(7))), Star(2), Path(7)).arrows
        assert critical_number(Star(2), Path(7), DeletionFamily.PATH, 7) == 7


def test_criterion_5_fan2_triangle_headline():
    with _Budget("5 fan2-triangle arrowing", 300):
        witness = block_coloring_witness(Fan(2), Complete(3), 9)
        assert witness.host_spec == Minus(Complete(9), Path(5))
        assert _free_by_brute_force(witness.coloring, Fan(2), Complete(3))
        result = arrows(
            realize(Minus(Complete(9), Path(4))), Fan(2), Complete(3), budget=10**8
        )
        assert result.verdict == "arrows", result.verdict  # indeterminate fails the suite
        # witness bounds the critical value above by 4, the search below by 4
        assert closed_form_path_critical(Fan(2), Complete(3)).value == 4


def test_criterion_6_free_coloring_classes():
    with _Budget("6 free-coloring classes", 300):
        for n, want in [(2, 1), (3, 2), (4, 2)]:
            host = realize(Complete(2 * n))
            classes = enumerate_free_colorings(host, Matching(n), Complete(3))
            got = {canonical_coloring_key(c) for c in classes}
            expected = {
                canonical_coloring_key(odd_clique_pair(n, i))
                for i in range(math.ceil(n / 2))
            }
            assert len(classes) == want
            assert got == expected


def test_criterion_7_witness_sweep():
    with _Budget("7 witness sweep", 30):
        pairs = [(Star(n), Complete(m)) for n in (2, 3, 4) for m in (2, 3, 4)]
        pairs.append((Star(8), Book(2)))
        pairs.extend((Fan(n), Complete(3)) for n in (2, 3, 4))
        for G, H in pairs:
            r = known_ramsey(G, H).value
            report = block_coloring_witness(G, H, r)
            assert _free_by_brute_force(report.coloring, G, H), (G, H)


def test_criterion_8_burr_goodness():
    with _Budget("8 burr goodness", 60):
        good_pairs = [
            (Star(2), Complete(2)),
            (Star(2), Complete(3)),
            (Star(3), Complete(2)),
            (Star(3), Complete(3)),
            (Fan(2), Complete(3)),
        ]
        other_pairs = [(Star(2), Star(3)), (Star(3), Star(3)), (Star(2), Path(7))]
        from ramarrow.containment import target_from_spec

        for G, H in good_pairs + other_pairs:
            bound = burr_bound(G, H)
            r = ramsey_number(target_from_spec(G), target_from_spec(H), max_r=bound + 4)
            assert r >= bound, (G, H)
            if (G, H) in good_pairs:
                assert r == bound, (G, H)


def test_criterion_9_property_suites():
    with _Budget("9 property suites", 180):
        assert detector_generic_disagreements(1000) == 0
        assert arrows_enumeration_disagreements(200) == 0
        assert dirac_violations(500) == 0
        assert dimacs_disagreements(60) == 0


@pytest.mark.skipif(
    not os.environ.get("RAMARROW_FULL"),
    reason="stretch search (full level only); set RAMARROW_FULL=1 to run",
)
def test_criterion_10_fan3_triangle_stretch():
    witness = block_coloring_witness(Fan(3), Complete(3), 13)
    assert _free_by_brute_force(witness.coloring, Fan(3), Complete(3))
    result = arrows(realize(Minus(Complete(13), Path(6))), Fan(3), Complete(3), budget=10**8)
    if result.verdict == "indeterminate":
        pytest.skip(f"budget exhausted after {result.stats.nodes} nodes (allowed at desk scale)")
    assert result.arrows
    print("ACCEPTANCE 10 fan3-triangle stretch: PASS")
