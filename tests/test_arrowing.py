import gc
import json
import os
import pathlib
import random
import signal
import threading

import pytest

from ramarrow import arrowing, containment, oracles
from ramarrow.arrowing import (
    CopyCapError,
    DeletionFamily,
    IndeterminateError,
    NotFoundWithinBoundError,
    SearchStats,
    all_free_colorings,
    arrows,
    check_free,
    critical_number,
    enumerate_copies,
    export_dimacs,
    ramsey_number,
    _lanes,
)
from ramarrow.coloring import BLUE, RED, Coloring, monochromatic_subgraph
from ramarrow.containment import (
    Generic,
    _copies_in_complete,
    contains_target,
    target_label,
    target_to_spec,
)
from ramarrow.graphs import (
    Book,
    Complete,
    Fan,
    Graph,
    Matching,
    Minus,
    Path,
    Star,
    graph6_encode,
    parse_spec,
    realize,
)
from ramarrow.verify import _RANDOM_TARGET_POOL

DATA = pathlib.Path(__file__).parent / "data"

TARGET_POOL = [
    Complete(2), Complete(3), Star(1), Star(2), Star(3),
    Path(2), Path(3), Path(4), Matching(1), Matching(2),
    Generic(parse_spec("K3 u K2")),
]


# --- copy enumeration --------------------------------------------------------


def test_copy_counts_against_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        host = oracles.random_graph(rng, rng.randint(3, 6), rng.uniform(0.3, 0.9))
        for target in TARGET_POOL:
            copies = enumerate_copies(host, target)
            brute = oracles.brute_copy_masks(host, realize(target_to_spec(target)))
            assert sorted(copies) == brute, (host, target)


def test_specialized_enumerators_against_brute_force():
    targets = [
        Book(1), Book(2), Fan(1), Fan(2), Complete(4), Star(4), Path(5), Matching(3),
    ]
    rng = random.Random(31)
    for _ in range(25):
        host = oracles.random_graph(rng, rng.randint(4, 7), rng.uniform(0.4, 0.95))
        for target in targets:
            brute = oracles.brute_copy_masks(host, realize(target_to_spec(target)))
            assert sorted(enumerate_copies(host, target)) == brute, (host, target)


@pytest.mark.parametrize("spec", [
    "K3 u K3", "E2+E2", "K2+E3", "K1+P4", "P3 u P3 u K2", "K3 u E2",
])
def test_high_symmetry_generic_copies_against_brute_force(spec):
    # no dedup set hides a duplicate: each copy must come from exactly one embedding
    target = Generic(parse_spec(spec))
    pattern = realize(target.spec)
    rng = random.Random(37)
    for _ in range(20):
        # from one vertex too few for the pattern up to 7 vertices, or to its order
        order = rng.randint(pattern.order - 1, max(pattern.order, 7))
        host = oracles.random_graph(rng, order, rng.uniform(0.4, 0.95))
        brute = oracles.brute_copy_masks(host, pattern)
        assert sorted(enumerate_copies(host, target)) == brute, (host, spec)


def test_generic_star_with_many_leaves_enumerates_each_copy_once():
    # |Aut(K1+E12)| = 12!, so listing every embedding would take hours
    copies = enumerate_copies(realize(Complete(14)), Generic(parse_spec("K1+E12")))
    assert len(copies) == 14 * 13 == len(set(copies))


def test_copy_counts_closed_forms():
    k4 = realize(Complete(4))
    assert len(enumerate_copies(k4, Matching(2))) == 3  # perfect matchings of K_4
    k7 = realize(Complete(7))
    assert len(enumerate_copies(k7, Path(7))) == 2520  # 7!/2 hamiltonian paths
    k9 = realize(Complete(9))
    assert len(enumerate_copies(k9, Fan(2))) == 9 * 210  # hub choices x 2-matchings of K_8
    assert len(enumerate_copies(k7, Complete(3))) == 35


def test_copy_cap():
    k7 = realize(Complete(7))
    with pytest.raises(CopyCapError):
        enumerate_copies(k7, Path(7), cap=100)
    assert len(enumerate_copies(k7, Path(7), cap=2520)) == 2520
    with pytest.raises(CopyCapError, match="more than 2519 target copies"):
        enumerate_copies(k7, Path(7), cap=2519)


def test_default_copy_cap_is_read_at_call_time(monkeypatch):
    # the search and the DIMACS export agree on the patched cap: K6 has 20 triangles
    monkeypatch.setattr(arrowing, "DEFAULT_COPY_CAP", 5)
    k6 = realize(Complete(6))
    result = arrows(k6, Complete(3), Complete(3))
    assert result.stats.propagation_mode == "learned"
    assert result.arrows
    with pytest.raises(CopyCapError):
        export_dimacs(k6, Complete(3), Complete(3))
    assert arrows(k6, Complete(3), Complete(3), copy_cap=20).stats.propagation_mode == "clauses"


def test_copy_counts_on_complete_hosts_have_a_closed_form():
    # every parameter with an edge whose target fits in K_8, and generic
    # targets with and without isolated vertices
    targets = ([Path(k) for k in range(2, 9)] + [Complete(k) for k in range(2, 9)]
               + [Star(k) for k in range(1, 8)] + [Matching(k) for k in range(1, 5)]
               + [Book(k) for k in range(1, 5)] + [Fan(k) for k in range(1, 4)]
               + [Generic(parse_spec(spec)) for spec in [
                   "K3 u K2", "K4\\P4", "K1+P4", "P3 u P3 u K2", "K2+E3",
                   "K3 u E2", "K1+E5", "E2+E2 u E1"]])
    for n in range(1, 9):
        host = realize(Complete(n))
        for target in targets:
            if realize(target_to_spec(target)).order <= n:
                assert _copies_in_complete(n, target) == len(enumerate_copies(host, target)), (
                    n, target)


def test_copy_cap_on_complete_hosts_raises_before_enumerating(monkeypatch):
    def enumerate_anyway(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    targets = [(Path(9), 100000), (Fan(3), 1000), (Book(2), 1000),
               (Generic(parse_spec("K3 u K2")), 1000)]
    # the count's automorphism walk runs on the generic embedding search; warm it first
    for target, _ in targets:
        containment._symmetry_breaking(containment.target_graph(target))
    for enumerator in ["_path_copies_from", "_fan_copies", "_book_copies", "_embeddings"]:
        monkeypatch.setattr(containment, enumerator, enumerate_anyway)
    k11 = realize(Complete(11))
    for target, cap in targets:
        with pytest.raises(CopyCapError, match=f"more than {cap} target copies in the host"):
            enumerate_copies(k11, target, cap=cap)


def _cyclic_garbage(call) -> list:
    """The objects that the call leaves for the cycle collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_copy_enumeration_leaves_no_cyclic_garbage():
    def capped(target):
        def call():
            # not complete, so the enumerators run until the cap stops them
            try:
                enumerate_copies(realize(parse_spec("K7\\P3")), target, cap=3)
            except CopyCapError:
                pass
        return call

    for target in [Path(5), Complete(3), Matching(2), Fan(1), Generic(parse_spec("K3 u K2"))]:
        assert _cyclic_garbage(capped(target)) == [], target

    def conditions_then_capped():
        # the symmetry-breaking conditions' automorphism queries run inside the call
        containment._symmetry_breaking.cache_clear()
        capped(Generic(parse_spec("K3 u E2")))()

    assert _cyclic_garbage(conditions_then_capped) == []
    k6 = realize(Complete(6))
    assert _cyclic_garbage(lambda: arrows(k6, Complete(3), Complete(3))) == []
    # past the cap the search learns path copies through containment's path tail
    assert _cyclic_garbage(lambda: arrows(realize(Complete(7)), Path(5), Path(5), copy_cap=0)) == []
    # generic searches that the caller stops at their first embedding
    k3_k2 = Generic(parse_spec("K3 u K2"))
    assert _cyclic_garbage(lambda: contains_target(k6, k3_k2)) == []
    assert _cyclic_garbage(lambda: containment.copy_through(k6, k3_k2, 0, 1)) == []


def test_lanes_transpose_the_copies():
    # a few copies per edge, one block of bytes, and several blocks (4,096 copies each)
    rng = random.Random(7)
    for count, k, m in [(5, 3, 12), (300, 5, 40), (9000, 6, 70)]:
        copies = sorted({sum(1 << e for e in rng.sample(range(m), k)) for _ in range(count)})
        want = [sum(1 << j for j, mask in enumerate(copies) if mask >> e & 1) for e in range(m)]
        assert _lanes(copies, k, m) == want, (count, k, m)


# --- arrows ------------------------------------------------------------------


def test_arrows_single_edge():
    result = arrows(realize(Complete(2)), Complete(2), Complete(2))
    assert result.arrows


def test_arrows_k5_minus_p5_matchings():
    result = arrows(realize(Minus(Complete(5), Path(5))), Matching(2), Matching(2))
    assert result.arrows


def test_arrows_k4_matchings_counterexample():
    result = arrows(realize(Complete(4)), Matching(2), Matching(2), deterministic=True)
    assert result.verdict == "counterexample"
    col = result.counterexample
    assert not contains_target(monochromatic_subgraph(col, RED), Matching(2))
    assert not contains_target(monochromatic_subgraph(col, BLUE), Matching(2))
    # lexicographically least free assignment: red star at vertex 0
    assert col.edge_triples() == [
        [0, 1, "R"], [0, 2, "R"], [0, 3, "R"],
        [1, 2, "B"], [1, 3, "B"], [2, 3, "B"],
    ]


def test_check_free_names_the_failing_side():
    k4 = realize(Complete(4))
    all_red = Coloring(k4, (1 << k4.edge_count) - 1)
    assert check_free(all_red, Complete(5), Complete(2)) is all_red
    with pytest.raises(RuntimeError, match="the red side contains K3$"):
        check_free(all_red, Complete(3), Complete(2))
    with pytest.raises(RuntimeError, match="the blue side contains M2$"):
        check_free(Coloring(k4, 0), Complete(3), Matching(2))


def test_deterministic_counterexample_is_lex_least():
    rng = random.Random(42)
    checked = 0
    while checked < 25:
        host = oracles.random_graph(rng, rng.randint(3, 6), rng.uniform(0.4, 0.9))
        if host.edge_count == 0 or host.edge_count > 12:
            continue
        red = rng.choice(TARGET_POOL)
        blue = rng.choice(TARGET_POOL)
        result = arrows(host, red, blue, deterministic=True)
        red_masks = oracles.brute_copy_masks(host, realize(target_to_spec(red)))
        blue_masks = oracles.brute_copy_masks(host, realize(target_to_spec(blue)))
        m = host.edge_count
        free = []
        for bits in range(1 << m):
            red_set = {e for e in range(m) if bits >> e & 1 == 0}
            mask = sum(1 << e for e in red_set)
            if any(cm & mask == cm for cm in red_masks):
                continue
            if any(cm & ~mask == cm for cm in blue_masks):
                continue
            free.append([bits >> e & 1 for e in range(m)])
        checked += 1
        # lexicographic on the colors in canonical edge order, red (0) below blue (1)
        lex_least_first = [sum(1 << e for e in range(m) if not a[e]) for a in sorted(free)]
        listed = [c.red for c in all_free_colorings(host, red, blue)]
        assert listed == lex_least_first
        if result.verdict == "arrows":
            assert not listed
        else:
            assert listed[0] == result.counterexample.red


def test_arrows_agrees_with_naive_enumeration():
    rng = random.Random(77)
    for _ in range(60):
        host = oracles.random_graph(rng, rng.randint(4, 7), rng.uniform(0.3, 0.8))
        if host.edge_count > 14:
            continue
        red = rng.choice(TARGET_POOL)
        blue = rng.choice(TARGET_POOL)
        got = arrows(host, red, blue).arrows
        want = oracles.naive_arrows(
            host, realize(target_to_spec(red)), realize(target_to_spec(blue))
        )
        assert got == want, (host, red, blue)


def test_arrows_verdict_independent_of_branch_order():
    rng = random.Random(55)
    for _ in range(30):
        host = oracles.random_graph(rng, rng.randint(4, 6), rng.uniform(0.4, 0.9))
        red = rng.choice(TARGET_POOL)
        blue = rng.choice(TARGET_POOL)
        assert (
            arrows(host, red, blue, deterministic=True).verdict.startswith("arrows")
            == arrows(host, red, blue, deterministic=False).verdict.startswith("arrows")
        )


def test_learned_mode_agrees_with_clauses():
    rng = random.Random(31)
    for _ in range(25):
        host = oracles.random_graph(rng, rng.randint(4, 6), rng.uniform(0.4, 0.9))
        red = rng.choice(TARGET_POOL)
        blue = rng.choice(TARGET_POOL)
        full = arrows(host, red, blue)
        assert full.stats.propagation_mode == "clauses"
        capped = arrows(host, red, blue, copy_cap=0)
        assert capped.stats.propagation_mode == "learned"
        assert full.arrows == capped.arrows

    # every rooted detector family, generic targets and an edgeless one, against all colorings
    pool = TARGET_POOL + [
        Complete(4), Book(1), Book(2), Fan(1), Fan(2), Fan(3), Matching(3), Path(5),
        Generic(parse_spec("K3")), Generic(parse_spec("K4\\P4")), Generic(parse_spec("E2")),
    ]
    checked = 0
    while checked < 60:
        host = oracles.random_graph(rng, rng.randint(4, 7), rng.uniform(0.4, 0.9))
        if host.edge_count > 14:
            continue
        red = rng.choice(pool)
        blue = rng.choice(pool)
        capped = arrows(host, red, blue, copy_cap=0)
        if capped.stats.propagation_mode != "learned":
            continue  # neither target fits in the host, so there is no copy to cap
        want = oracles.naive_arrows(
            host, realize(target_to_spec(red)), realize(target_to_spec(blue))
        )
        assert capped.arrows == want, (host, red, blue)
        checked += 1


def test_capped_counterexample_is_lex_least():
    # learned clauses are real copies, so they cut off no free coloring: past the
    # cap, each branch order still finds the enumerated clauses' first counterexample
    pool = TARGET_POOL + [
        Complete(4), Book(1), Book(2), Fan(1), Fan(2), Path(5), Matching(3),
        Generic(parse_spec("K4\\P4")), Generic(parse_spec("E2")), parse_spec("K2 u E3"),
    ]
    rng = random.Random(83)
    for _ in range(80):
        host = oracles.random_graph(rng, rng.randint(3, 7), rng.uniform(0.3, 0.9))
        red = rng.choice(pool)
        blue = rng.choice(pool)
        for deterministic in (True, False):
            full = arrows(host, red, blue, deterministic=deterministic)
            capped = arrows(host, red, blue, deterministic=deterministic, copy_cap=0)
            assert capped.verdict == full.verdict, (host, red, blue)
            if full.counterexample is not None:
                assert capped.counterexample.red == full.counterexample.red, (
                    host, red, blue, deterministic,
                )


def test_edge_monotonicity_of_arrowing():
    rng = random.Random(61)
    for _ in range(25):
        host = oracles.random_graph(rng, rng.randint(3, 6), 0.5)
        red = rng.choice(TARGET_POOL)
        blue = rng.choice(TARGET_POOL)
        if not arrows(host, red, blue).arrows:
            continue
        non_edges = [
            (u, v)
            for u in range(host.order)
            for v in range(u + 1, host.order)
            if not host.has_edge(u, v)
        ]
        for u, v in non_edges:
            assert arrows(Graph.from_edges(host.order, host.edges + ((u, v),)), red, blue).arrows


def test_budget_exhaustion_is_indeterminate():
    host = realize(Minus(Complete(9), Path(4)))
    result = arrows(host, Fan(2), Complete(3), budget=5)
    assert result.verdict == "indeterminate"
    assert result.stats.budget_exhausted
    assert result.counterexample is None


def test_degenerate_edgeless_targets():
    host = realize(Complete(3))
    # an edgeless red target that fits is contained in every coloring
    assert arrows(host, Generic(parse_spec("E2")), Complete(3)).arrows
    assert arrows(host, Path(1), Complete(3)).arrows
    # too large to embed: unconstrained, so the all-red coloring is free
    result = arrows(host, Generic(parse_spec("E4")), Complete(4))
    assert result.verdict == "counterexample"


# --- pinned engine output and deep hosts ---------------------------------------


def test_engine_output_is_pinned():
    # node counts are machine-independent; a change to any of these must say why
    k9 = realize(Complete(9))
    k9p4 = realize(Minus(Complete(9), Path(4)))
    runs = [
        (arrows(k9, Complete(3), Complete(4)), "clauses", 19563),
        (arrows(k9p4, Fan(2), Complete(3)), "clauses", 16025),
        (arrows(k9p4, Fan(2), Complete(3), deterministic=True), "clauses", 9179),
        (arrows(realize(Complete(8)), Book(2), Complete(3), copy_cap=0), "learned", 1266),
        (arrows(realize(Complete(7)), Fan(2), Star(3), copy_cap=0), "learned", 385),
        (arrows(realize(Complete(7)), Matching(3), Complete(3), copy_cap=0), "learned", 136),
        (arrows(realize(Complete(6)), parse_spec("K3 u K2"), Complete(3), copy_cap=0),
         "learned", 126),
    ]
    for result, mode, nodes in runs:
        assert (result.verdict, result.stats.propagation_mode, result.stats.nodes) == (
            "arrows", mode, nodes,
        )

    k5 = arrows(realize(Complete(5)), Complete(3), Complete(3), deterministic=True)
    assert k5.counterexample.edge_triples() == [
        [0, 1, "R"], [0, 2, "R"], [0, 3, "B"], [0, 4, "B"], [1, 2, "B"],
        [1, 3, "R"], [1, 4, "B"], [2, 3, "B"], [2, 4, "R"], [3, 4, "R"],
    ]

    colorings = all_free_colorings(realize(Complete(6)), Complete(3), Complete(4))
    assert len(colorings) == 2812
    # bit i of red is host edge i (canonical order), so edge 0 is the lowest bit
    assert colorings[0].red == 0b011110110000111
    assert colorings[-1].red == 0b001101110000000


@pytest.mark.parametrize(
    "order, copies, verdict, nodes",
    [(10, 15120, "arrows", 90), (8, 3360, "counterexample", 23)],
)
def test_many_copies_per_edge_are_pinned(order, copies, verdict, nodes):
    # enough P5 copies per edge that their lanes are built from bytes, over
    # several blocks on K10
    host = realize(Complete(order))
    assert len(enumerate_copies(host, Path(5))) == copies
    for deterministic in (False, True):
        result = arrows(host, Path(5), Complete(3), deterministic=deterministic)
        assert (result.verdict, result.stats.nodes) == (verdict, nodes)
        if result.counterexample is not None:
            assert check_free(result.counterexample, Path(5), Complete(3)).red == 264249735


def _learned_grid() -> dict[str, list]:
    """Verdict and node count of deterministic learned-mode searches on K4..K7."""
    grid = {}
    for order in range(4, 8):
        host = realize(Complete(order))
        for red in ("K3", "P3", "P4", "B2", "S2", "M2"):
            for blue in ("K3", "P3", "S2"):
                result = arrows(host, parse_spec(red), parse_spec(blue),
                                copy_cap=0, deterministic=True)
                grid[f"K{order} {red} {blue}"] = [result.verdict, result.stats.nodes]
    return grid


def test_learned_propagation_order_is_pinned():
    # learned_grid.json holds _learned_grid() (72 searches).  Past the cap
    # every colored edge may learn a copy, so the node counts depend on the
    # order in which unit copies are propagated: the newest batch of units
    # first and, within a batch, the highest lane first.  K7 (P4,K3) takes
    # 176 nodes, and 178 when the lowest lane of a batch goes first.
    assert _learned_grid() == json.loads((DATA / "learned_grid.json").read_text())


def _learned_path_grid() -> dict[str, list]:
    """Verdict, node count and counterexample red mask of learned-mode path searches.

    Each entry holds the default branch order's outcome, then the canonical
    order's.
    """
    grid = {}
    for order, n, m, cap in ((7, 6, 6, 0), (8, 6, 6, 0), (8, 7, 6, 0), (11, 9, 9, 100_000)):
        host = realize(Complete(order))
        runs = []
        for deterministic in (False, True):
            result = arrows(host, Path(n), Path(m), copy_cap=cap, deterministic=deterministic)
            found = result.counterexample
            runs.append([result.verdict, result.stats.nodes, None if found is None else found.red])
        grid[f"K{order} P{n} P{m} copy_cap={cap}"] = runs
    return grid


def test_learned_path_outcomes_are_pinned():
    # learned_paths.json holds _learned_path_grid().  Learned mode turns the
    # rooted path search's first copy into a clause, so these move if that
    # search's order or its answers change
    assert _learned_path_grid() == json.loads((DATA / "learned_paths.json").read_text())


def _clause_grid() -> dict[str, list]:
    """Verdict, node count and counterexample red mask of seeded clause-mode searches.

    Each entry holds the default branch order's outcome, then the canonical
    order's, for a K_r\\X host or a random host (named by its graph6 text)
    and two targets from the verify suite's random pool.
    """
    rng = random.Random(18)
    # the blue target always has two edges or more, so that most searches branch
    blues = [t for t in _RANDOM_TARGET_POOL if realize(t).edge_count > 1]
    cases = []
    for r in range(6, 11):
        for x in ("P3", "P5", "M3", "K4"):
            spec = f"K{r}\\{x}"
            host = realize(parse_spec(spec))
            for _ in range(4):
                cases.append((spec, host, rng.choice(_RANDOM_TARGET_POOL), rng.choice(blues)))
    while len(cases) < 150:
        host = oracles.random_graph(rng, rng.randint(6, 10), rng.uniform(0.3, 0.8))
        cases.append((graph6_encode(host), host, rng.choice(_RANDOM_TARGET_POOL),
                      rng.choice(blues)))
    grid = {}
    for label, host, red, blue in cases:
        runs = []
        for deterministic in (False, True):
            result = arrows(host, red, blue, deterministic=deterministic)
            assert result.stats.propagation_mode == "clauses"
            found = result.counterexample
            runs.append([result.verdict, result.stats.nodes, None if found is None else found.red])
        grid[f"{label} {target_label(red)} {target_label(blue)}"] = runs
    return grid


def test_clause_mode_outcomes_are_pinned(copy_order):
    # clause_grid.json holds _clause_grid(): 150 seeded searches in each
    # branch order, two of them the same draw, so 149 entries.  With every
    # copy a clause, a step propagates to the same state or the same
    # conflict in whatever order it takes its units, so these must not move
    # when the propagation loop or the order of the copies changes
    copy_order()
    assert _clause_grid() == json.loads((DATA / "clause_grid.json").read_text())


@pytest.mark.parametrize(
    "target, copy_cap, mode, nodes",
    [(Path(47), None, "clauses", 1034), (Star(45), 0, "learned", 1036)],
)
def test_search_depth_is_not_bounded_by_recursion(target, copy_cap, mode, nodes):
    # K46 has 1,035 edges, so the DFS is 1,035 decisions deep on its first branch
    host = realize(Complete(46))
    kwargs = {} if copy_cap is None else {"copy_cap": copy_cap}
    result = arrows(host, target, target, **kwargs)
    assert (result.verdict, result.stats.propagation_mode, result.stats.nodes) == (
        "counterexample", mode, nodes,
    )
    col = result.counterexample
    assert not contains_target(monochromatic_subgraph(col, RED), target)
    assert not contains_target(monochromatic_subgraph(col, BLUE), target)


# --- the split search ----------------------------------------------------------
#
# Past arrowing._SPLIT_GATE nodes a clause-mode search walks the rest of its
# tree in forked workers.  Every output must equal the sequential one.


@pytest.fixture
def split_early(monkeypatch):
    """Split every clause-mode search past its third node over two worker processes."""
    monkeypatch.setattr(arrowing, "_SPLIT_GATE", 3)
    monkeypatch.setattr(arrowing, "_workers", lambda: 2)


def test_clause_mode_outcomes_are_pinned_when_split(split_early):
    assert _clause_grid() == json.loads((DATA / "clause_grid.json").read_text())


def test_engine_output_is_pinned_when_split(split_early):
    test_engine_output_is_pinned()


def test_many_copies_per_edge_are_pinned_when_split(split_early):
    for case in [(10, 15120, "arrows", 90), (8, 3360, "counterexample", 23)]:
        test_many_copies_per_edge_are_pinned(*case)


def test_deterministic_counterexample_is_lex_least_when_split(split_early):
    test_deterministic_counterexample_is_lex_least()


def _yields(host, red, blue, **kwargs):
    """Each mask _free_colorings yields with the node count at its yield, and the final stats."""
    stats = SearchStats()
    seen = [(stats.nodes, mask) for mask in arrowing._free_colorings(host, red, blue, stats,
                                                                       **kwargs)]
    return seen, stats.nodes, stats.budget_exhausted


@pytest.mark.parametrize("gate, subtrees", [(3, 32), (40, 2)])
def test_split_search_stops_where_the_sequential_one_does(monkeypatch, gate, subtrees):
    monkeypatch.setattr(arrowing, "_SPLIT_GATE", gate)
    monkeypatch.setattr(arrowing, "_SUBTREES_PER_WORKER", subtrees)
    cases = [
        # no coloring in 16,025 nodes; a first coloring after 23; 2,812 colorings in 2,889 nodes
        (realize(Minus(Complete(9), Path(4))), Fan(2), Complete(3), (4, 45, 3000)),
        (realize(Complete(8)), Path(5), Complete(3), (None, 3, 4, 22, 23, 24, 60)),
        (realize(Complete(6)), Complete(3), Complete(4), (None, 4, 41, 42, 500, 2888, 2889)),
    ]
    for host, red, blue, budgets in cases:
        for budget in budgets:
            for first in (False, True):
                kwargs = dict(order=arrowing._branch_order(host, False), symmetric=False,
                              budget=budget, first=first)
                monkeypatch.setattr(arrowing, "_workers", lambda: 1)
                want = _yields(host, red, blue, **kwargs)
                monkeypatch.setattr(arrowing, "_workers", lambda: 2)
                assert _yields(host, red, blue, **kwargs) == want, (host, red, blue, budget)


def _no_child_left():
    # no worker outlives the call, not even as a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_a_split_search(split_early, monkeypatch):
    # the first counterexample comes after 14 nodes, with workers still walking
    # subtrees of a 14,515-node tree
    result = arrows(realize(Minus(Complete(9), Path(5))), Fan(2), Complete(3))
    assert (result.verdict, result.stats.nodes) == ("counterexample", 14)
    _no_child_left()

    host = realize(Complete(6))
    search = arrowing._free_colorings(host, Complete(3), Complete(4), SearchStats(),
                                      order=arrowing._branch_order(host, True), symmetric=False)
    assert len([next(search) for _ in range(5)]) == 5
    search.close()
    _no_child_left()

    def fail(*args):
        raise ValueError("worker fails")

    monkeypatch.setattr(arrowing, "_serve", fail)
    with pytest.raises(RuntimeError, match="search worker .* ended with exit code 1"):
        arrows(realize(Complete(9)), Complete(3), Complete(4))
    _no_child_left()


def test_a_worker_killed_mid_result_fails_the_search(split_early, monkeypatch):
    def killed(tree, roots, budget, first, tasks, out):
        # a length header and part of the body it announces, then a kill
        os.write(out, (100).to_bytes(8, "little") + b"part")
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(arrowing, "_serve", killed)
    with pytest.raises(RuntimeError, match="exit code -9"):
        arrows(realize(Complete(9)), Complete(3), Complete(4))
    _no_child_left()


def test_searches_that_must_not_fork(monkeypatch):
    def forbidden():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", forbidden)
    # scan-sized questions stay below the gate: hosts of 4-9 vertices and at
    # most 14 edges, targets from the verify pool
    rng = random.Random(5)
    for i in range(200):
        host = oracles.random_graph(rng, 4 + i % 6, rng.uniform(0.3, 0.8))
        edges = list(host.edges)
        if len(edges) > 14:
            rng.shuffle(edges)
            host = Graph.from_edges(host.order, edges[:14])
        arrows(host, rng.choice(_RANDOM_TARGET_POOL), rng.choice(_RANDOM_TARGET_POOL))

    monkeypatch.setattr(arrowing, "_SPLIT_GATE", 3)
    # nor does a search past the gate while a second thread runs
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert arrows(realize(Complete(9)), Complete(3), Complete(4)).stats.nodes == 19563
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()

    # nor learned mode, whose lanes carry over from one subtree to the next
    monkeypatch.setattr(arrowing, "_workers", lambda: 2)
    result = arrows(realize(Complete(8)), Book(2), Complete(3), copy_cap=0)
    assert (result.verdict, result.stats.propagation_mode, result.stats.nodes) == (
        "arrows", "learned", 1266,
    )


# --- ramsey_number and critical_number --------------------------------------


def test_ramsey_examples():
    assert ramsey_number(Star(2), Complete(3)) == 5
    assert ramsey_number(Complete(2), Complete(3)) == 3
    # matching pair: 2n+m-1 with (m,n)=(2,3)
    assert ramsey_number(Matching(2), Matching(3)) == 7


def test_ramsey_not_found_within_bound():
    with pytest.raises(NotFoundWithinBoundError):
        ramsey_number(Complete(3), Complete(3), max_r=5)
    with pytest.raises(ValueError, match="at least 1"):
        ramsey_number(Complete(3), Complete(3), max_r=0)
    with pytest.raises(ValueError, match="capped at 64"):
        ramsey_number(Complete(3), Complete(3), max_r=65)


def test_ramsey_number_of_an_edgeless_target_is_one():
    # K1 holds K1 in every coloring of its zero edges
    assert arrows(realize(Complete(1)), Complete(1), Complete(3)).arrows
    assert ramsey_number(Complete(1), Complete(3)) == 1
    assert ramsey_number(Star(3), Complete(1)) == 1


def test_critical_examples():
    assert critical_number(Matching(2), Matching(2), DeletionFamily.PATH, 5) == 5
    assert critical_number(Star(2), Star(2), DeletionFamily.PATH, 3) == 0
    assert critical_number(Star(2), Complete(3), DeletionFamily.PATH, 5) == 2


def test_critical_number_below_the_ramsey_number_raises():
    # R(S2, K3) = 5: K4 has a counterexample, so no deletion from it is critical
    assert arrows(realize(Complete(4)), Star(2), Complete(3)).verdict == "counterexample"
    with pytest.raises(ValueError, match=r"^K_4 does not arrow \(S2, K3\)"):
        critical_number(Star(2), Complete(3), DeletionFamily.PATH, 4)
    # K1 has no path to delete and no K3 in either color
    with pytest.raises(ValueError, match=r"^K_1 does not arrow \(K3, K3\)"):
        critical_number(Complete(3), Complete(3), DeletionFamily.PATH, 1)


def test_critical_other_families():
    # matching family indexed by edges, clique family by vertices
    assert critical_number(Star(2), Complete(3), DeletionFamily.MATCHING, 5) == 2
    assert critical_number(Star(2), Complete(3), DeletionFamily.CLIQUE, 5) == 2
    assert DeletionFamily.MATCHING.index_unit == "edges"
    assert DeletionFamily.PATH.index_unit == "vertices"
    assert DeletionFamily.MATCHING.deletion_spec(2) == Matching(2)


def test_deletion_monotonicity():
    # once a deletion breaks arrowing, every longer one does too
    for red, blue, r in [
        (Star(2), Star(3), 5),
        (Star(2), Complete(3), 5),
        (Matching(2), Matching(2), 5),
    ]:
        verdicts = []
        for i in range(2, r + 1):
            host = realize(Minus(Complete(r), Path(i)))
            verdicts.append(arrows(host, red, blue).arrows)
        assert verdicts == sorted(verdicts, reverse=True), (red, blue, verdicts)


def test_indeterminate_propagates():
    # each scan names the host it could not decide
    with pytest.raises(IndeterminateError,
                       match=r"^budget exhausted deciding K_9 minus path index 2$"):
        critical_number(Fan(2), Complete(3), DeletionFamily.PATH, 9, budget=5)
    with pytest.raises(IndeterminateError, match=r"^budget exhausted deciding K_5$"):
        ramsey_number(Star(2), Complete(3), budget=1)


def test_search_matches_catalog_for_small_pairs():
    # every cataloged pair whose Ramsey host stays at or below K_8
    from ramarrow.containment import target_from_spec
    from ramarrow.formulas import closed_form_path_critical, known_ramsey
    from ramarrow.graphs import Book, Matching as MSpec, Path as PSpec, Star

    pairs = [
        (Star(1), Complete(2)), (Star(2), Complete(3)), (Star(3), Complete(3)),
        (Star(1), Star(1)), (Star(2), Star(2)), (Star(2), Star(3)),
        (Star(3), Star(3)), (Star(3), Star(4)), (Star(4), Star(4)),
        (Star(2), Book(2)),
        (MSpec(2), Complete(3)), (MSpec(3), Complete(3)),
        (Star(1), PSpec(4)), (Star(2), PSpec(7)), (Star(2), PSpec(8)),
        (MSpec(1), MSpec(2)), (MSpec(2), MSpec(2)), (MSpec(2), MSpec(3)),
        (MSpec(3), MSpec(3)),
    ]
    for G, H in pairs:
        entry = known_ramsey(G, H)
        assert entry is not None, (G, H)
        assert entry.value <= 8, (G, H)
        red, blue = target_from_spec(G), target_from_spec(H)
        r = ramsey_number(red, blue, max_r=entry.value + 2)
        assert r == entry.value, (G, H, r, entry)
        closed = closed_form_path_critical(G, H)
        if closed is not None:
            crit = critical_number(red, blue, DeletionFamily.PATH, r)
            assert crit == closed.value, (G, H, crit, closed)


def test_upper_bound_dominates_critical_number():
    from ramarrow.formulas import path_critical_upper_bound
    from ramarrow.graphs import Star

    for n, r in [(2, 5), (3, 7)]:
        bound = path_critical_upper_bound(Star(n), Complete(3), r)
        crit = critical_number(Star(n), Complete(3), DeletionFamily.PATH, r)
        assert bound >= crit


# --- DIMACS ------------------------------------------------------------------


def test_dimacs_triangle_example():
    text = export_dimacs(realize(Complete(3)), Complete(3), Complete(3))
    nvars, clauses = oracles.parse_dimacs(text)
    assert nvars == 3
    assert sorted(clauses) == [[-1, -2, -3], [1, 2, 3]]
    assert "c edge 0 1 var 1" in text


def test_dimacs_text_is_pinned():
    # clauses are listed in lexicographic order of their ascending edge lists
    text = export_dimacs(realize(Complete(4)), Path(3), Complete(3))
    assert text == """\
c arrowing CNF: satisfiable iff the host admits a free coloring
c host: 4 vertices, 6 edges
c red target P3: 12 copies, clauses all-negative
c blue target K3: 4 copies, clauses all-positive
c positive literal = red edge
c edge 0 1 var 1
c edge 0 2 var 2
c edge 0 3 var 3
c edge 1 2 var 4
c edge 1 3 var 5
c edge 2 3 var 6
p cnf 6 16
-1 -2 0
-1 -3 0
-1 -4 0
-1 -5 0
-2 -3 0
-2 -4 0
-2 -6 0
-3 -5 0
-3 -6 0
-4 -5 0
-4 -6 0
-5 -6 0
1 2 4 0
1 3 5 0
2 3 6 0
4 5 6 0
"""


def test_dimacs_matching_example():
    text = export_dimacs(realize(Complete(4)), Matching(2), Matching(2))
    nvars, clauses = oracles.parse_dimacs(text)
    assert nvars == 6
    assert len(clauses) == 6
    negatives = sorted(c for c in clauses if all(l < 0 for l in c))
    assert negatives == [[-3, -4], [-2, -5], [-1, -6]]


def test_dimacs_k5_minus_p5_unsatisfiable():
    text = export_dimacs(realize(Minus(Complete(5), Path(5))), Matching(2), Matching(2))
    _, clauses = oracles.parse_dimacs(text)
    assert not oracles.naive_dpll(clauses)


def test_dimacs_matches_internal_verdict():
    rng = random.Random(13)
    for _ in range(40):
        host = oracles.random_graph(rng, rng.randint(4, 7), rng.uniform(0.3, 0.7))
        if host.edge_count > 20:
            continue
        red = rng.choice(TARGET_POOL)
        blue = rng.choice(TARGET_POOL)
        _, clauses = oracles.parse_dimacs(export_dimacs(host, red, blue))
        assert oracles.naive_dpll(clauses) == (not arrows(host, red, blue).arrows)
