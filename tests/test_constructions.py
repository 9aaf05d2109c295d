import json
import random
from pathlib import Path as FilePath

import pytest

from ramarrow import arrowing, oracles
from ramarrow.coloring import BLUE, RED, Coloring, monochromatic_subgraph
from ramarrow.constructions import (
    _twin_swaps,
    _twin_transpositions,
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
    Graph,
    Join,
    Matching,
    Minus,
    Path,
    Star,
    Union,
    graph6_decode,
    parse_spec,
    realize,
    stats,
)

DATA = FilePath(__file__).parent / "data"


# --- block coloring witnesses --------------------------------------------------


def test_witness_star3_triangle():
    report = block_coloring_witness(Star(3), Complete(3), 7)
    assert report.host_spec == Minus(Complete(7), Path(4))
    assert report.parameters == {"k": 3, "t": 1, "s": 1, "r": 7, "n": 4}
    red = monochromatic_subgraph(report.coloring, RED)
    blue = monochromatic_subgraph(report.coloring, BLUE)
    assert not oracles.brute_contains(red, realize(Star(3)))
    assert not oracles.brute_contains(blue, realize(Complete(3)))
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


def test_witness_star2_matching2():
    # s(2K2) = 2, so a last block of s - 1 = 1 vertex follows the t blocks of n
    report = block_coloring_witness(Star(2), Matching(2), 4)
    assert witness_payload(report)["host"] == "K4\\P3"
    assert report.parameters == {"k": 2, "t": 1, "s": 2, "r": 4, "n": 3}
    coloring = report.coloring
    assert not oracles.brute_contains(monochromatic_subgraph(coloring, RED), realize(Star(2)))
    assert not oracles.brute_contains(monochromatic_subgraph(coloring, BLUE), realize(Matching(2)))


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
    assert set(payload) == {"host", "red_graph6", "coloring", "parameters"}
    assert payload["parameters"]["r"] == 7
    assert graph6_decode(payload["red_graph6"]) == monochromatic_subgraph(report.coloring, RED)
    # the exported coloring is free on its own, re-checked by brute force
    coloring = Coloring.from_edge_triples(realize(parse_spec(payload["host"])), payload["coloring"])
    assert coloring == report.coloring
    assert not oracles.brute_contains(monochromatic_subgraph(coloring, RED), realize(Star(3)))
    assert not oracles.brute_contains(monochromatic_subgraph(coloring, BLUE), realize(Complete(3)))


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


def _relabeled(coloring: Coloring, perm: list[int]) -> Coloring:
    """The same coloring with vertex v renamed perm[v], on the renamed host."""
    host = Graph.from_edges(coloring.host.order,
                            [(perm[u], perm[v]) for u, v in coloring.host.edges])
    return Coloring.from_edge_triples(
        host, [[perm[u], perm[v], c] for u, v, c in coloring.edge_triples()]
    )


def _red_where(host: Graph, red_pair) -> Coloring:
    """Red on the host edges uv with red_pair(u, v), blue elsewhere."""
    return Coloring(host, sum(1 << i for i, (u, v) in enumerate(host.edges) if red_pair(u, v)))


def _symmetric_colorings(host: Graph) -> list[Coloring]:
    """All red, all blue, block colorings (odd-clique pairs among them), red
    cycles and a red K3,3: colorings whose automorphisms the key prunes on."""
    n = host.order
    colorings = [Coloring(host, 0), Coloring(host, (1 << host.edge_count) - 1)]
    for sizes in ([1, n - 1], [3, n - 3], [2, 2, n - 4], [n // 2, n - n // 2]):
        if min(sizes) >= 1:
            block = [b for b, size in enumerate(sizes) for _ in range(size)]
            colorings.append(_red_where(host, lambda u, v: block[u] == block[v]))
    complete = host.edge_count == n * (n - 1) // 2
    if complete and n >= 5:
        colorings.append(_red_where(host, lambda u, v: (v - u) % n in (1, n - 1)))  # red C_n
    if complete and n == 6:
        colorings.append(_red_where(host, lambda u, v: u < 3 <= v))  # red K3,3
    return colorings


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(27)
    for _ in range(40):
        host = oracles.random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
        coloring = Coloring(host, rng.getrandbits(host.edge_count))
        perm = list(range(host.order))
        rng.shuffle(perm)
        assert canonical_coloring_key(coloring) == canonical_coloring_key(_relabeled(coloring, perm))


def test_canonical_key_matches_brute_force_classes():
    rng = random.Random(28)
    host = realize(Complete(4))
    colorings = [Coloring(host, rng.getrandbits(host.edge_count)) for _ in range(40)]
    for a in colorings:
        for b in colorings:
            same_key = canonical_coloring_key(a) == canonical_coloring_key(b)
            assert same_key == oracles.brute_color_isomorphic(a, b)


def test_canonical_key_is_exact_on_symmetric_pool():
    # Hosts of 1-6 vertices (a graph has at least one): complete and random
    # non-complete ones, each with high-symmetry, random and relabeled
    # colorings.  Keys must be equal exactly on the isomorphic pairs.
    rng = random.Random(29)
    pool = []
    for n in range(1, 7):
        hosts = [realize(Complete(n))]
        hosts += [oracles.random_graph(rng, n, rng.uniform(0.4, 0.8)) for _ in range(2)]
        for host in hosts:
            colorings = _symmetric_colorings(host)
            colorings += [Coloring(host, rng.getrandbits(host.edge_count)) for _ in range(3)]
            for coloring in list(colorings):
                perm = list(range(n))
                rng.shuffle(perm)
                colorings.append(_relabeled(coloring, perm))
            pool += colorings
    keys = [canonical_coloring_key(c) for c in pool]
    isomorphic_pairs = 0
    for i, a in enumerate(pool):
        for j in range(i + 1, len(pool)):
            same = oracles.brute_color_isomorphic(a, pool[j])
            assert (keys[i] == keys[j]) == same, (a, pool[j])
            isomorphic_pairs += same
    assert isomorphic_pairs >= len(pool) // 2  # every relabeled copy at least


def _red_cycles(lengths) -> Coloring:
    """Red disjoint cycles of the given lengths on a complete host."""
    n = sum(lengths)
    nxt, start = {}, 0
    for k in lengths:
        for i in range(k):
            nxt[start + i] = start + (i + 1) % k
        start += k
    return _red_where(realize(Complete(n)), lambda u, v: nxt[u] == v or nxt[v] == u)


@pytest.mark.parametrize("lengths", [(3, 4), (3, 3, 4), (3, 4, 5), (3, 3, 4, 4)],
                         ids=lambda lengths: "+".join(f"C{k}" for k in lengths))
def test_canonical_key_is_invariant_when_cells_hold_several_orbits(lengths):
    # Every vertex has red degree 2, so refinement cannot tell the cycles
    # apart: the root cell, and after one individualization the cell of the
    # other cycles, each hold several orbits.  Pruning must still reach the
    # least leaf from every labeling, and never merge the orbits.
    rng = random.Random(30)
    coloring = _red_cycles(lengths)
    key = canonical_coloring_key(coloring)
    for _ in range(20):
        perm = list(range(coloring.host.order))
        rng.shuffle(perm)
        assert canonical_coloring_key(_relabeled(coloring, perm)) == key
    assert key != canonical_coloring_key(_red_cycles([sum(lengths)]))


def test_free_coloring_representatives_are_pinned():
    # free_coloring_representatives.json: the sorted red masks of each
    # question's representatives.  Each class keeps its first coloring in the
    # search order, and enumerate_free_colorings lists the classes in the
    # order the search reaches them, so neither depends on the key's values.
    pinned = json.loads((DATA / "free_coloring_representatives.json").read_text())
    for question, masks in pinned.items():
        host, red, blue = (parse_spec(text) for text in question.split())
        reps = enumerate_free_colorings(realize(host), red, blue)
        assert sorted(c.red for c in reps) == masks, question


def _one_key_per_coloring(host: Graph, red, blue) -> list[Coloring]:
    """enumerate_free_colorings without the twin orbits: a key for every coloring."""
    representatives = {}
    for coloring in all_free_colorings(host, red, blue):
        representatives.setdefault(canonical_coloring_key(coloring), coloring)
    return list(representatives.values())


# Complete hosts, where the twin swaps generate every automorphism, and hosts
# where they generate a proper subgroup (K3,3 also swaps its sides) or none.
ORBIT_QUESTIONS = [
    "K3 K3 K3", "K4 M2 K3", "K5 K3 K3", "K6 K3 K4", "K6 M3 K3", "K7 S3 K4", "K8 M4 K3",
    "K7\\P4 M3 K3", "K6\\P3 K3 K3", "K8\\P6 M4 K3", "K7\\K3 M3 K3", "E3+E3 S3 S3",
    "E2+E2+E2 S3 K3", "E2+E2+E2 K3 K3", "K4 u K3 K3 P3",
]


@pytest.mark.parametrize("question", ORBIT_QUESTIONS)
def test_twin_orbits_keep_the_representatives_and_their_order(question):
    host, red, blue = (parse_spec(text) for text in question.rsplit(" ", 2))
    host = realize(host)
    reference = _one_key_per_coloring(host, red, blue)
    assert reference, question  # a question without free colorings would show nothing
    assert enumerate_free_colorings(host, red, blue) == reference


def test_twin_transpositions_are_host_automorphisms():
    rng = random.Random(41)
    for _ in range(200):
        host = oracles.random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.9))
        edges = set(host.edges)
        pairs = _twin_transpositions(host)
        for (a, b), swap in zip(pairs, _twin_swaps(host)):
            sigma = {a: b, b: a}
            images = {tuple(sorted((sigma.get(x, x), sigma.get(y, y)))) for x, y in edges}
            assert images == edges, (host, a, b)
            for i, (x, y) in enumerate(host.edges):
                image = 1 << i
                for d, low in swap:
                    t = (image >> d ^ image) & low
                    image ^= t | t << d
                x, y = sorted((sigma.get(x, x), sigma.get(y, y)))
                assert image == 1 << host.edge_index[(x, y)], (host, a, b, i)
        # the pairs join exactly the twins
        adj = host.adj
        cls = list(range(host.order))
        for a, b in pairs:
            cls[b] = cls[a]
        for u in range(host.order):
            for v in range(u + 1, host.order):
                twins = adj[u] & ~(1 << v) == adj[v] & ~(1 << u)
                assert (cls[u] == cls[v]) == twins, (host, u, v)


# (K3,K4)-free colorings of K_n: labeled colorings and classes.  The classes
# are the (3,4)-Ramsey graphs on n vertices (McKay's census); K8's 3 are the
# published ones on 8 vertices, and K9 has none since R(3,4) = 9.
K3K4_CLASSES = [(1, 1, 1), (2, 2, 2), (3, 7, 3), (4, 40, 6), (5, 322, 9),
                (6, 2812, 15), (7, 13842, 9), (8, 17640, 3)]


@pytest.mark.parametrize("n, labeled, classes", K3K4_CLASSES)
def test_k3_k4_classes_on_complete_hosts(n, labeled, classes):
    host = realize(Complete(n))
    assert len(all_free_colorings(host, Complete(3), Complete(4))) == labeled
    assert len(enumerate_free_colorings(host, Complete(3), Complete(4))) == classes


def test_free_colorings_are_listed_alike_when_split(monkeypatch, copy_order):
    # the colorings behind the pinned representatives and the K3K4 counts,
    # with every search split past its third node over two workers and its
    # copies taken in another order, equal the sequential lists
    pinned = json.loads((DATA / "free_coloring_representatives.json").read_text())
    questions = [[parse_spec(text) for text in question.split()] for question in pinned]
    questions += [[Complete(n), Complete(3), Complete(4)] for n, _, _ in K3K4_CLASSES]
    questions = [(realize(host), red, blue) for host, red, blue in questions]
    monkeypatch.setattr(arrowing, "_SPLIT_GATE", 3)
    monkeypatch.setattr(arrowing, "_workers", lambda: 1)
    wants = [[c.red for c in all_free_colorings(*question)] for question in questions]
    monkeypatch.setattr(arrowing, "_workers", lambda: 2)
    copy_order()
    for question, want in zip(questions, wants):
        assert [c.red for c in all_free_colorings(*question)] == want, question
