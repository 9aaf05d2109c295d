import random
from itertools import permutations

import pytest

from ramarrow import oracles
from ramarrow.coloring import BLUE, RED, Coloring, monochromatic_subgraph
from ramarrow.constructions import (
    all_free_colorings,
    block_coloring_witness,
    canonical_coloring_key,
    enumerate_free_colorings,
    odd_clique_pair,
    witness_payload,
)
from ramarrow.containment import contains_target
from ramarrow.formulas import closed_form_path_critical, path_critical_upper_bound
from ramarrow.graphs import (
    Book,
    Complete,
    Empty,
    Fan,
    Join,
    Matching,
    Minus,
    Path,
    Star,
    Union,
    graph6_decode,
    realize,
    stats,
)


# --- block coloring witnesses --------------------------------------------------


def test_witness_star3_triangle():
    report = block_coloring_witness(Star(3), Complete(3), 7)
    assert report.host_spec == Minus(Complete(7), Path(4))
    assert report.parameters == {"k": 3, "t": 1, "s": 1, "r": 7, "n": 4}
    assert report.red_free and report.blue_free
    red = monochromatic_subgraph(report.coloring, RED)
    blue = monochromatic_subgraph(report.coloring, BLUE)
    # red side: the deleted-path block first, then a K_3 block
    assert red == realize(Union(Minus(Complete(4), Path(4)), Complete(3)))
    assert blue == realize(Join(Empty(4), Empty(3)))
    assert not contains_target(red, Star(3))
    assert not contains_target(blue, Complete(3))


def test_witness_fan2_triangle():
    report = block_coloring_witness(Fan(2), Complete(3), 9)
    assert report.host_spec == Minus(Complete(9), Path(5))
    assert report.parameters == {"k": 3, "t": 1, "s": 1, "r": 9, "n": 5}
    red = monochromatic_subgraph(report.coloring, RED)
    assert red == realize(Union(Minus(Complete(5), Path(5)), Complete(4)))


def test_witness_star8_book2():
    report = block_coloring_witness(Star(8), Book(2), 17)
    assert report.host_spec == Minus(Complete(17), Path(9))
    assert report.parameters["k"] == 3 and report.parameters["t"] == 1
    red = monochromatic_subgraph(report.coloring, RED)
    assert red == realize(Union(Minus(Complete(9), Path(9)), Complete(8)))


def test_witness_certifies_upper_bound():
    for G, H, r in [(Star(3), Complete(3), 7), (Fan(2), Complete(3), 9)]:
        report = block_coloring_witness(G, H, r)
        bound = path_critical_upper_bound(G, H, r)
        deleted_path = report.host_spec.deleted
        assert deleted_path == Path(bound + 1)
        closed = closed_form_path_critical(G, H)
        assert closed is not None and closed.value <= bound


def test_witness_rejects_bad_hypotheses():
    from ramarrow.formulas import HypothesisError

    with pytest.raises(HypothesisError):
        block_coloring_witness(Path(4), Complete(3), 9)


def test_witness_payload_round_trip():
    report = block_coloring_witness(Star(3), Complete(3), 7)
    payload = witness_payload(report)
    assert payload["host"] == "K7\\P4"
    assert payload["freeness"] == {"red": True, "blue": True}
    assert payload["parameters"]["r"] == 7
    assert graph6_decode(payload["red_graph6"]) == monochromatic_subgraph(report.coloring, RED)
    assert all(len(t) == 3 for t in payload["coloring"])


# --- the odd-clique-pair family -------------------------------------------------


def test_odd_clique_pair_examples():
    pair = odd_clique_pair(3, 1)
    assert monochromatic_subgraph(pair, RED) == realize(Union(Complete(3), Complete(3)))
    assert monochromatic_subgraph(pair, BLUE) == realize(Join(Empty(3), Empty(3)))

    pair = odd_clique_pair(2, 0)
    assert monochromatic_subgraph(pair, RED) == realize(Union(Complete(1), Complete(3)))
    blue = monochromatic_subgraph(pair, BLUE)
    assert stats(blue).max_degree == 3 and blue.edge_count == 3  # K_{1,3}

    pair = odd_clique_pair(3, 0)
    red = monochromatic_subgraph(pair, RED)
    assert red == realize(Union(Complete(1), Complete(5)))
    assert not contains_target(red, Matching(3))
    assert not contains_target(monochromatic_subgraph(pair, BLUE), Complete(3))


def test_odd_clique_pair_index_range():
    with pytest.raises(ValueError):
        odd_clique_pair(3, 2)  # ceil(3/2)-1 = 1
    with pytest.raises(ValueError):
        odd_clique_pair(2, -1)
    with pytest.raises(ValueError):
        odd_clique_pair(1, 0)
    odd_clique_pair(4, 1)  # in range


# --- exhaustive enumeration ------------------------------------------------------


def test_enumerate_k4_matching_pair():
    host = realize(Complete(4))
    labeled = all_free_colorings(host, Matching(2), Complete(3))
    classes = enumerate_free_colorings(host, Matching(2), Complete(3))
    assert len(labeled) == 4  # choices of the isolated red vertex
    assert len(classes) == 1
    assert canonical_coloring_key(classes[0]) == canonical_coloring_key(odd_clique_pair(2, 0))


def test_enumerate_k6_matching_pair():
    host = realize(Complete(6))
    labeled = all_free_colorings(host, Matching(3), Complete(3))
    classes = enumerate_free_colorings(host, Matching(3), Complete(3))
    assert len(labeled) == 16  # 6 splits {1,5} + 10 splits {3,3}
    keys = {canonical_coloring_key(c) for c in classes}
    expected = {canonical_coloring_key(odd_clique_pair(3, i)) for i in range(2)}
    assert keys == expected


def test_enumerate_triangle_both_triangle():
    host = realize(Complete(3))
    labeled = all_free_colorings(host, Complete(3), Complete(3))
    classes = enumerate_free_colorings(host, Complete(3), Complete(3))
    assert len(labeled) == 6  # all but the two monochromatic colorings
    assert len(classes) == 2  # 2 red + 1 blue vs 1 red + 2 blue


def test_enumerate_edge_limit():
    with pytest.raises(ValueError):
        all_free_colorings(realize(Complete(9)), Complete(3), Complete(3))


def test_every_enumerated_coloring_is_free():
    host = realize(Complete(5))
    for coloring in all_free_colorings(host, Matching(2), Complete(3)):
        assert not contains_target(monochromatic_subgraph(coloring, RED), Matching(2))
        assert not contains_target(monochromatic_subgraph(coloring, BLUE), Complete(3))


# --- canonical labeling -----------------------------------------------------------


def _brute_color_isomorphic(a: Coloring, b: Coloring) -> bool:
    host_a, host_b = a.host, b.host
    if host_a.order != host_b.order:
        return False
    n = host_a.order
    for perm in permutations(range(n)):
        ok = True
        for u in range(n):
            for v in range(u + 1, n):
                ea = host_a.edge_index.get((u, v))
                pu, pv = perm[u], perm[v]
                eb = host_b.edge_index.get((pu, pv) if pu < pv else (pv, pu))
                if (ea is None) != (eb is None):
                    ok = False
                    break
                if ea is not None and a.red >> ea & 1 != b.red >> eb & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(27)
    for _ in range(40):
        host = oracles.random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
        coloring = Coloring(host, rng.getrandbits(host.edge_count))
        perm = list(range(host.order))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in host.edges]
        relabeled_host = type(host).from_edges(host.order, edges)
        relabeled = Coloring.from_edge_triples(
            relabeled_host, [[perm[u], perm[v], c] for u, v, c in coloring.edge_triples()]
        )
        assert canonical_coloring_key(coloring) == canonical_coloring_key(relabeled)


def test_canonical_key_matches_brute_force_classes():
    rng = random.Random(28)
    host = realize(Complete(4))
    colorings = [Coloring(host, rng.getrandbits(host.edge_count)) for _ in range(40)]
    for a in colorings:
        for b in colorings:
            same_key = canonical_coloring_key(a) == canonical_coloring_key(b)
            assert same_key == _brute_color_isomorphic(a, b)
