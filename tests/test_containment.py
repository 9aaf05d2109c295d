import hashlib
import json
import pathlib
import random
from itertools import permutations

import pytest

from ramarrow import containment, oracles
from ramarrow.arrowing import arrows
from ramarrow.containment import (
    Generic,
    contains_target,
    copy_through,
    enumerate_copies,
    max_clique_size,
    target_from_spec,
    target_to_spec,
)
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
    graph6_encode,
    longest_path_order,
    parse_spec,
    realize,
    stats,
)

DATA = pathlib.Path(__file__).parent / "data"

ALL_FAMILIES = (Complete, Star, Path, Matching, Book, Fan)


def test_spec_examples():
    assert contains_target(realize(Complete(4)), Complete(3))
    red_h0 = realize(Union(Empty(1), Complete(5)))
    assert not contains_target(red_h0, Matching(3))
    assert not contains_target(realize(Complete(4)), Fan(2))
    assert not contains_target(realize(Join(Empty(3), Empty(4))), Complete(3))


def test_max_clique_against_brute():
    rng = random.Random(7)
    drawn = [oracles.random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.9)) for _ in range(80)]
    for g in drawn + [realize(Empty(1)), realize(Empty(5))]:
        best = max(
            m for m in range(1, g.order + 1) if oracles.brute_contains(g, realize(Complete(m)))
        )
        assert max_clique_size(g) == best


def test_star_detector_is_max_degree():
    rng = random.Random(9)
    for _ in range(100):
        g = oracles.random_graph(rng, rng.randint(2, 9), rng.random())
        for n in range(1, 5):
            assert contains_target(g, Star(n)) == (stats(g).max_degree >= n)


def test_detectors_agree_with_generic():
    rng = random.Random(14)
    targets = [family(k) for family in ALL_FAMILIES for k in range(1, 5)]
    for _ in range(200):
        g = oracles.random_graph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.8))
        for target in targets:
            generic = Generic(target_to_spec(target))
            assert contains_target(g, target) == contains_target(g, generic), (g, target)


def test_detectors_agree_with_independent_brute_force():
    rng = random.Random(15)
    targets = [family(k) for family in ALL_FAMILIES for k in range(1, 4)]
    for _ in range(60):
        g = oracles.random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.8))
        for target in targets:
            pattern = realize(target_to_spec(target))
            assert contains_target(g, target) == oracles.brute_contains(g, pattern)


def test_rooted_detector_against_brute_force_copies():
    targets = [
        Complete(1), Complete(2), Complete(3), Complete(4), Star(1), Star(2), Star(3), Star(4),
        Path(1), Path(2), Path(3), Path(4), Path(5),
        Book(1), Book(2), Fan(1), Fan(2), Fan(3), Matching(1), Matching(2), Matching(3),
        Generic(Complete(3)), parse_spec("K3 u K2"), parse_spec("E2"),
    ]
    rng = random.Random(17)
    for _ in range(60):
        g = oracles.random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.95))
        for target in targets:
            copies = oracles.brute_copy_masks(g, realize(target_to_spec(target)))
            for i, (u, v) in enumerate(g.edges):
                through = [mask for mask in copies if mask >> i & 1]
                for a, b in ((u, v), (v, u)):
                    copy = copy_through(g, target, a, b)
                    if copy is None:
                        assert not through, (g, target, a, b)
                    else:
                        mask = sum(1 << g.edge_index[min(x, y), max(x, y)] for x, y in copy)
                        assert mask in through, (g, target, a, b, copy)


def test_path_detector_against_longest_path_dp():
    # graphs.longest_path_order is a subset DP that shares no code with the
    # path searches, so it checks the dead-end memo independently
    rng = random.Random(20)
    for _ in range(120):
        g = oracles.random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
        longest = longest_path_order(g)
        for n in range(1, g.order + 2):
            assert contains_target(g, Path(n)) == (longest >= n), (graph6_encode(g), n)


@pytest.mark.parametrize("spec, longest", [
    ("K8 u E3", 8), ("K4 u K4", 4), ("E3 u K4 u K1", 4),
    # the star's component is large enough for P4 but holds none
    ("K1+E8 u P4", 4),
])
def test_path_searches_skip_components_that_are_too_small(spec, longest):
    g = realize(parse_spec(spec))
    assert longest_path_order(g) == longest
    for n in (longest, longest + 1):
        rooted = [copy_through(g, Path(n), a, b) for u, v in g.edges for a, b in ((u, v), (v, u))]
        assert contains_target(g, Path(n)) == (n == longest)
        assert any(copy is not None for copy in rooted) == (n == longest)


def test_copy_walks_end_at_dead_ends():
    # the clique walk stops once too few candidates are left, and the path
    # walk starts only in a component large enough for the path; without
    # these bounds the walks would not end in any useful time
    assert enumerate_copies(realize(parse_spec("K40\\P2")), Complete(40)) == []
    assert enumerate_copies(realize(parse_spec("K12 u K12")), Path(13)) == []


def test_rooted_path_copies_are_pinned():
    # the rooted path search skips only walks that cannot succeed, so it must
    # return this same first copy, edges in the same order, on every edge in
    # both orientations; learned mode turns that copy into a clause
    rng = random.Random(20)
    digest = hashlib.sha256()
    for _ in range(200):
        g = oracles.random_graph(rng, rng.randint(2, 11), rng.uniform(0.1, 0.9))
        # P3 is served as S2, so the path search serves P4 and longer
        for n in range(4, 10):
            for u, v in g.edges:
                found = (copy_through(g, Path(n), u, v), copy_through(g, Path(n), v, u))
                digest.update(repr(found).encode())
    assert digest.hexdigest() == "b4cda0f0eb61a8c0e7322d8f31a13d5a215ea88a19f8e51828b75fb0e5910a1f"


def test_copy_through_rejects_a_non_edge():
    g = realize(parse_spec("K4\\P2"))  # 0 and 1 are not adjacent
    targets = [Complete(3), Star(2), Path(3), Matching(2), Book(1), Fan(1), Generic(Path(3))]
    for target in targets:
        for u, v in ((0, 1), (1, 0), (0, 7), (-1, 2), (2, 2)):
            with pytest.raises(ValueError):
                copy_through(g, target, u, v)
        assert copy_through(g, target, 0, 2) is not None, target


def test_detected_families_never_use_the_generic_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generic embedding search called")

    runs = ((7, Fan(2), Star(3)), (8, Book(2), Complete(3)), (6, Path(5), Matching(3)))
    # other spellings of family members, each with the leaf its graph is
    respelled = [(parse_spec(spec), leaf) for spec, leaf in (
        ("K4\\P4", Path(4)), ("K1+E3", Star(3)), ("E1+2*K2", Fan(2)),
        ("K1+P3", Book(2)), ("2*K2", Matching(2)), ("K2+K1", Complete(3)),
        # family members too: each is served by the first member isomorphic to it
        ("S1", Complete(2)), ("P2", Complete(2)), ("M1", Complete(2)),
        ("B1", Complete(3)), ("F1", Complete(3)), ("P3", Star(2)))]
    # a complete host counts each target's copies from its pattern's
    # automorphisms, a walk of pattern into pattern made once per pattern and
    # cached, and a target's family is read off its pattern by one cached
    # isomorphism check: warm both first, since neither is a search of a host
    targets = [t for _, *pair in runs for t in pair] + [t for pair in respelled for t in pair]
    k3_k2 = Generic(parse_spec("K3 u K2"))
    for target in targets + [Star(2), k3_k2]:
        containment._symmetry_breaking(containment.target_graph(target))
        containment._leaf(target)
    monkeypatch.setattr(containment, "_embeddings", refuse)
    g = realize(Complete(7))
    for target in (Complete(3), Star(3), Path(5), Matching(3), Book(2), Fan(2)):
        copy = copy_through(g, target, 2, 5)
        edges = sorted(tuple(sorted(edge)) for edge in copy)
        assert (2, 5) in edges and len(set(edges)) == realize(target).edge_count, (target, copy)
    for r, red, blue in runs:
        host = realize(Complete(r))
        learned = arrows(host, red, blue, copy_cap=0)
        assert learned.stats.propagation_mode == "learned"
        assert learned.verdict == arrows(host, red, blue).verdict, (r, red, blue)
    host = realize(parse_spec("K6\\P3"))
    for spec, leaf in respelled:
        assert contains_target(host, spec) == contains_target(host, leaf), spec
        assert enumerate_copies(host, spec) == enumerate_copies(host, leaf), spec
        for u, v in host.edges:
            assert copy_through(host, spec, u, v) == copy_through(host, leaf, u, v), (spec, u, v)
        # arrows fixes the first edge RED only when red == blue as written, so
        # the blue target is one that no row's leaf equals
        spelled, named = (arrows(host, t, Path(5), copy_cap=0) for t in (spec, leaf))
        assert spelled.stats.propagation_mode == named.stats.propagation_mode == "learned"
        assert (spelled.verdict, spelled.counterexample, spelled.stats.nodes) == (
            named.verdict, named.counterexample, named.stats.nodes), spec
    # the guard sees copy enumeration too: a generic target's copies take the walk
    with pytest.raises(AssertionError, match="generic embedding search called"):
        enumerate_copies(host, k3_k2)


def test_recognizer_turns_other_degrees_down_without_a_search(monkeypatch):
    # P3 u 30*K2 u E1 has M32's order and edge count; a search for M32 in it
    # would try the 31 fitting edges in every order before failing
    def refuse(*args, **kwargs):
        raise AssertionError("generic embedding search called")

    monkeypatch.setattr(containment, "_embeddings", refuse)
    spec = parse_spec("P3 u 30*K2 u E1")
    assert containment.family_parameter(spec, Matching) is None
    assert target_from_spec(spec) == Generic(spec)


def test_monotone_under_edge_addition():
    rng = random.Random(16)
    targets = [family(k) for family in ALL_FAMILIES for k in range(1, 4)]
    for _ in range(60):
        g = oracles.random_graph(rng, rng.randint(3, 8), 0.4)
        non_edges = [
            (u, v)
            for u in range(g.order)
            for v in range(u + 1, g.order)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        bigger = Graph.from_edges(g.order, g.edges + ((u, v),))
        for target in targets:
            if contains_target(g, target):
                assert contains_target(bigger, target)


def test_target_spec_round_trip():
    for target in [Complete(3), Star(2), Path(5), Matching(2), Book(2), Fan(3)]:
        assert target_from_spec(target_to_spec(target)) == target
    generic = Generic(parse_spec("K3 u K2"))
    assert target_from_spec(target_to_spec(generic)) == generic
    assert target_from_spec(parse_spec("K4\\P4")) == Path(4)
    assert target_from_spec(Star(3)) == Star(3)
    assert target_from_spec(Fan(2)) == Fan(2)
    assert target_from_spec(Matching(4)) == Matching(4)
    assert target_from_spec(Star(1)) == Complete(2)
    assert target_from_spec(Path(3)) == Star(2)
    assert target_from_spec(Book(1)) == Complete(3)


def test_every_member_is_served_by_its_first_isomorphic_member():
    # a graph holds a copy of another with its order and edge count only when
    # the two are isomorphic; the brute-force check shares no code with
    # family_parameter.  members lists each family in DETECTED_FAMILIES order.
    members = [family(k) for family in containment.DETECTED_FAMILIES for k in range(1, 7)
               if realize(family(k)).order <= 6]
    for member in members:
        g = realize(member)
        first = next(other for other in members
                     if (h := realize(other)).order == g.order and h.edge_count == g.edge_count
                     and oracles.brute_contains(g, h))
        assert target_from_spec(member) == first, member


def test_symmetry_breaking_keeps_one_embedding_per_copy():
    rng = random.Random(41)
    checked = 0
    while checked < 150:
        pattern = oracles.random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.9))
        if not pattern.edge_count:
            continue
        checked += 1
        core, lower, aut_order = containment._symmetry_breaking(pattern)
        assert all(core.adj) and core.edge_count == pattern.edge_count
        assert len(list(containment._embeddings(core, core, lower=lower))) == 1, pattern
        # checked against a full listing of Aut: its order, and each vertex's
        # orbit under the automorphisms that fix the vertices before it, which
        # is the vertex and every vertex whose chain of lower bounds passes it
        edges = set(core.edges)
        aut = [image for image in permutations(range(core.order))
               if all((min(image[a], image[b]), max(image[a], image[b])) in edges
                      for a, b in edges)]
        assert aut_order == len(aut), pattern
        order, _ = containment._plan(core)
        pos = {v: k for k, v in enumerate(order)}

        def chain(w):
            while lower[pos[w]] >= 0:
                w = lower[pos[w]]
                yield w

        for k, v in enumerate(order):
            stabilizer = [image for image in aut if all(image[u] == u for u in order[:k])]
            orbit = {image[v] for image in stabilizer}
            assert orbit == {v} | {w for w in order if v in chain(w)}, (pattern, k)


def _symmetry_breaking_table() -> dict[str, list]:
    """Core order, core edges, bounds and |Aut| for named and seeded random patterns."""
    specs = ([f"S{n}" for n in (1, 2, 3, 5, 12, 45)] + [f"M{n}" for n in (1, 2, 4, 7)]
             + ["K1+E12", "K3 u K2", "K4\\P4", "K1+P4", "P3 u P3 u K2", "K2+E3", "K3 u E2",
                "E2+E2 u E1", "K3 u K3", "E3+E3", "F3", "B3", "K5\\M2", "P6", "K4", "S3 u S3",
                "M2 u P3 u E2", "K2+E2 u K2"])
    patterns = [(spec, realize(parse_spec(spec))) for spec in specs]
    rng = random.Random(43)
    for _ in range(60):
        g = oracles.random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.9))
        if g.edge_count:
            patterns.append((graph6_encode(g), g))
    table = {}
    for name, pattern in patterns:
        core, lower, aut = containment._symmetry_breaking(pattern)
        table[name] = [core.order, [list(e) for e in core.edges], list(lower), aut]
    return table


def test_symmetry_breaking_is_pinned():
    # symmetry_breaking.json holds _symmetry_breaking_table() computed with
    # one automorphism query per candidate image, twins included, so taking
    # twins into an orbit without a query must leave every bound and |Aut|
    # as they were; stars, matchings and K1+E12 are mostly twins
    containment._symmetry_breaking.cache_clear()
    assert _symmetry_breaking_table() == json.loads((DATA / "symmetry_breaking.json").read_text())
