import random

import pytest

from ramarrow import oracles
from ramarrow.graphs import (
    Book,
    Complete,
    Copies,
    Empty,
    Fan,
    Graph,
    Graph6Error,
    Join,
    Matching,
    Minus,
    Path,
    SpecError,
    Star,
    Union,
    component,
    graph6_decode,
    graph6_encode,
    longest_path_order,
    parse_spec,
    realize,
    spec_order,
    spec_to_text,
    stats,
    twin_classes,
)


# --- parsing ---------------------------------------------------------------


def test_parse_minus():
    assert parse_spec("K5\\P5") == Minus(Complete(5), Path(5))


def test_parse_fan_equivalent_to_join_of_copies():
    assert parse_spec("F2") == Fan(2)
    built = parse_spec("E1 + 2*K2")
    assert built == Join(Empty(1), Copies(2, Complete(2)))
    assert realize(built) == realize(Fan(2))


def test_parse_union_with_copies():
    assert parse_spec("K3 u 2*K2") == Union(Complete(3), Copies(2, Complete(2)))


def test_parse_precedence_copies_over_minus():
    assert parse_spec("2*K3\\P3") == Minus(Copies(2, Complete(3)), Path(3))


def test_parse_left_associative():
    assert parse_spec("K1 + K2 + K3") == Join(Join(Complete(1), Complete(2)), Complete(3))
    assert parse_spec("K9\\P4\\P2") == Minus(Minus(Complete(9), Path(4)), Path(2))


def test_parse_parentheses():
    assert parse_spec("K1 + (K2 u K3)") == Join(Complete(1), Union(Complete(2), Complete(3)))


_SPEC_ERRORS = [
    ("K5\\", "expected a graph atom at position 3"),
    ("K0", "parameter must be at least 1 at position 1"),
    ("K3 +", "expected a graph atom at position 4"),
    ("3K2", "expected '*' after copy count at position 1"),  # copies need the '*'
    ("2 K3", "expected '*' after copy count at position 2"),
    ("2*", "expected a graph atom at position 2"),
    ("", "expected a graph atom at position 0"),
    ("Q3", "expected a graph atom at position 0"),
    ("K2 u", "expected a graph atom at position 4"),
    ("K3\\P5", "deleted graph has 5 vertices but the host only 3 at position 5"),
    ("(K2", "expected ')' at position 3"),
    ("K2)", "unexpected trailing input at position 2"),
    ("K3 u (K2 + ", "expected a graph atom at position 11"),
]


def test_parse_errors_carry_position():
    for text, message in _SPEC_ERRORS:
        with pytest.raises(SpecError) as info:
            parse_spec(text)
        assert str(info.value) == f"{message} in {text!r}"


def test_deep_nesting_is_a_spec_error():
    # 150 levels parse and realize: parentheses, copy counts and a chain of operators
    chain = "\\".join(["K9"] + ["P2"] * 150)
    assert parse_spec("(" * 150 + "K3" + ")" * 150) == Complete(3)
    assert realize(parse_spec("1*" * 150 + "K3")) == realize(Complete(3))
    assert realize(parse_spec(chain)).edge_count == 35
    for text in ("(" * 151 + "K3" + ")" * 151, "1*" * 151 + "K3", chain + "\\P2"):
        with pytest.raises(SpecError, match="more than 150 operators and parentheses"):
            parse_spec(text)


def test_minus_size_violation():
    with pytest.raises(SpecError):
        parse_spec("K3\\P5")
    with pytest.raises(SpecError):
        Minus(Complete(3), Path(5))


def _random_spec(rng, depth=0):
    leaves = [
        lambda: Complete(rng.randint(1, 5)),
        lambda: Path(rng.randint(1, 5)),
        lambda: Star(rng.randint(1, 4)),
        lambda: Book(rng.randint(1, 3)),
        lambda: Fan(rng.randint(1, 3)),
        lambda: Matching(rng.randint(1, 3)),
        lambda: Empty(rng.randint(1, 4)),
    ]
    if depth >= 3 or rng.random() < 0.4:
        return rng.choice(leaves)()
    kind = rng.randrange(4)
    if kind == 0:
        return Join(_random_spec(rng, depth + 1), _random_spec(rng, depth + 1))
    if kind == 1:
        return Union(_random_spec(rng, depth + 1), _random_spec(rng, depth + 1))
    if kind == 2:
        return Copies(rng.randint(1, 3), _random_spec(rng, depth + 1))
    host = _random_spec(rng, depth + 1)
    deleted = Path(rng.randint(1, max(1, min(spec_order(host), 5))))
    return Minus(host, deleted)


def test_print_parse_round_trip():
    rng = random.Random(99)
    for _ in range(300):
        spec = _random_spec(rng)
        assert parse_spec(spec_to_text(spec)) == spec


# One row per leaf family: (class, letter, name in its error, edge count of family(k)).
_LEAF_FACTS = [
    (Complete, "K", "complete-graph", lambda k: k * (k - 1) // 2),
    (Path, "P", "path", lambda k: k - 1),
    (Star, "S", "star", lambda k: k),
    (Book, "B", "book", lambda k: 2 * k + 1),
    (Fan, "F", "fan", lambda k: 3 * k),
    (Matching, "M", "matching", lambda k: k),
    (Empty, "E", "empty-graph", lambda k: 0),
]


@pytest.mark.parametrize("family, letter, name, edge_count", _LEAF_FACTS)
def test_leaf_family_facts(family, letter, name, edge_count):
    for k in range(1, 7):
        spec = family(k)
        assert parse_spec(f"{letter}{k}") == spec
        assert spec_to_text(spec) == f"{letter}{k}"
        assert spec_order(spec) == realize(spec).order
        assert realize(spec).edge_count == edge_count(k)
    with pytest.raises(SpecError) as info:
        family(0)
    assert str(info.value) == f"{name} parameter must be a positive integer, got 0"


def test_counts_and_orders_must_be_plain_ints():
    # a bool is an int to isinstance, but prints as True, which no parser reads
    for build in (lambda: Complete(True), lambda: Book(False), lambda: Copies(True, Complete(2)),
                  lambda: Path(2.0)):
        with pytest.raises(SpecError, match="must be a positive integer"):
            build()
    for build in (lambda: Graph(True, [0]), lambda: Graph(3.0, [0, 0, 0]),
                  lambda: Graph.from_edges(2.0, [(0, 1)])):
        with pytest.raises(SpecError, match="order must be in 1..64"):
            build()


# --- realization -----------------------------------------------------------


def test_realize_fan2():
    g = realize(Fan(2))
    st = stats(g)
    # F_2 is two triangles sharing the hub: 5 vertices, 6 edges, hub degree 4
    assert g.order == 5
    assert g.edge_count == 6
    assert st.max_degree == 4
    assert sum(1 for v in range(g.order) if g.degree(v) == 4) == 1


def test_realize_book2():
    g = realize(Book(2))
    assert g.order == 4 and g.edge_count == 5
    missing = [(u, v) for u in range(4) for v in range(u + 1, 4) if not g.has_edge(u, v)]
    assert missing == [(2, 3)]  # K_4 minus one edge


def test_realize_k9_minus_p4():
    g = realize(Minus(Complete(9), Path(4)))
    st = stats(g)
    assert g.order == 9
    assert g.edge_count == 36 - 3 == 33
    assert st.min_degree == 6  # path-interior vertices lose two edges
    assert st.max_degree == 8


def test_realize_deterministic_and_canonical():
    a = realize(parse_spec("K3 u 2*K2"))
    b = realize(Union(Complete(3), Copies(2, Complete(2))))
    assert a == b
    # left subexpression gets the lower indices
    assert a.has_edge(0, 1) and a.has_edge(3, 4) and not a.has_edge(2, 3)


def test_realize_minus_places_path_on_low_vertices():
    g = realize(Minus(Complete(5), Path(3)))
    assert not g.has_edge(0, 1) and not g.has_edge(1, 2)
    assert g.has_edge(0, 2) and g.has_edge(3, 4)


def test_realize_path1_deletes_nothing():
    assert realize(Minus(Complete(5), Path(1))) == realize(Complete(5))


def _reference_edges(spec) -> set:
    """The realization's edge set, built edge by edge from the leaves' edges."""
    if isinstance(spec, (Join, Union)):
        shift = spec_order(spec.left)
        edges = _reference_edges(spec.left)
        edges |= {(u + shift, v + shift) for u, v in _reference_edges(spec.right)}
        if isinstance(spec, Join):
            edges |= {(u, v) for u in range(shift) for v in range(shift, spec_order(spec))}
        return edges
    if isinstance(spec, Copies):
        shift = spec_order(spec.inner)
        inner = _reference_edges(spec.inner)
        return {(u + k * shift, v + k * shift) for k in range(spec.count) for u, v in inner}
    if isinstance(spec, Minus):
        return _reference_edges(spec.host) - _reference_edges(spec.deleted)
    return set(realize(spec).edges)


def test_realize_rows_match_the_edge_lists():
    rng = random.Random(22)
    specs = [parse_spec(t) for t in ("K13\\P6", "K9\\(K3 u P3)", "(K2 + E3)\\M2", "2*(K3\\P2) + S2")]
    specs += [_random_spec(rng) for _ in range(300)]
    for _ in range(100):
        host = _random_spec(rng)
        deleted = _random_spec(rng)
        if spec_order(deleted) <= spec_order(host):
            specs.append(Minus(host, deleted))
    for spec in specs:
        if spec_order(spec) > 64:
            continue
        g = realize(spec)
        assert Graph(g.order, g.adj) == g  # symmetric and loop-free
        assert set(g.edges) == _reference_edges(spec), spec_to_text(spec)


def test_twin_classes():
    # past the deleted path every vertex of K_r \ P_n is a twin of the others
    assert twin_classes(realize(parse_spec("K7\\P3")).adj) == [
        0b101, 0b10, 0b101, *[0b1111000] * 4
    ]
    assert twin_classes(realize(Star(3)).adj) == [0b1] + [0b1110] * 3
    rng = random.Random(9)
    for _ in range(200):
        g = oracles.random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9))
        adj = g.adj
        assert twin_classes(adj) == [
            sum(1 << u for u in range(g.order) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
            for v in range(g.order)
        ], g.adj


def test_realize_order_overflow():
    with pytest.raises(SpecError, match="cap"):
        realize(Complete(65))
    with pytest.raises(SpecError, match="cap"):
        realize(Copies(3, Complete(22)))


def test_join_union_edge_counts():
    rng = random.Random(4)
    for _ in range(100):
        a = _random_spec(rng, depth=2)
        b = _random_spec(rng, depth=2)
        if spec_order(a) + spec_order(b) > 40:
            continue
        ea = realize(a).edge_count
        eb = realize(b).edge_count
        assert realize(Join(a, b)).edge_count == ea + eb + spec_order(a) * spec_order(b)
        assert realize(Union(a, b)).edge_count == ea + eb


def test_graph_invariants_on_construction():
    g = realize(Minus(Complete(6), Matching(2)))
    # re-validating through the public constructor checks symmetry/no-loops
    assert Graph(g.order, g.adj) == g
    assert g.edge_count == sum(g.degree(v) for v in range(g.order)) // 2
    with pytest.raises(SpecError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(SpecError):
        Graph(1, (1,))  # self-loop


@pytest.mark.parametrize("order", [0, 65])
def test_from_edges_checks_order(order):
    with pytest.raises(SpecError, match="order must be in 1..64"):
        Graph.from_edges(order, [])
    with pytest.raises(SpecError, match="order must be in 1..64"):
        Graph(order, (0,) * order)
    assert Graph.from_edges(64, [(0, 63)]).edges == ((0, 63),)


# --- graph6 ----------------------------------------------------------------


def test_graph6_known_encodings():
    assert graph6_encode(realize(Complete(3))) == "Bw"
    assert graph6_encode(realize(Empty(1))) == "@"
    assert graph6_decode("Bw") == realize(Complete(3))


def test_graph6_round_trip_examples():
    g = realize(Minus(Complete(5), Path(5)))
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_round_trip_random():
    rng = random.Random(17)
    for _ in range(1000):
        g = oracles.random_graph(rng, rng.randint(1, 20), rng.random())
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_round_trip_large_orders():
    rng = random.Random(3)
    for order in (62, 63, 64):
        g = oracles.random_graph(rng, order, 0.2)
        text = graph6_encode(g)
        assert graph6_decode(text) == g


def test_graph6_malformed():
    with pytest.raises(Graph6Error):
        graph6_decode("")
    with pytest.raises(Graph6Error):
        graph6_decode("Bwx")  # trailing garbage
    with pytest.raises(Graph6Error):
        graph6_decode("B")  # truncated body
    with pytest.raises(Graph6Error):
        graph6_decode("B" + chr(127))  # byte out of range
    # nonzero padding bits: K_2 needs one bit; force a second one
    with pytest.raises(Graph6Error):
        graph6_decode("A" + chr(63 + 0b010000))


# --- stats and longest path --------------------------------------------------


def test_stats_examples():
    st = stats(realize(Complete(5)))
    assert (st.min_degree, st.max_degree, st.is_connected, st.edge_count) == (4, 4, True, 10)
    st = stats(realize(Minus(Complete(5), Path(5))))
    assert (st.min_degree, st.max_degree, st.is_connected, st.edge_count) == (2, 3, True, 6)
    assert not stats(realize(Union(Complete(3), Complete(3)))).is_connected


def test_component_and_its_early_stop():
    g = realize(parse_spec("P3 u K4 u E2"))  # vertices 0-2, 3-6, 7, 8
    assert [component(g.adj, v) for v in (0, 2, 3, 6, 7)] == [0b111, 0b111, 0b1111000,
                                                             0b1111000, 1 << 7]
    path = realize(Path(10))
    for enough in range(1, 12):
        part = component(path.adj, 5, enough)
        assert part >> 5 & 1 and part & (1 << 10) - 1 == part
        assert part.bit_count() >= min(enough, 10)
    assert component(path.adj, 5, 3) != (1 << 10) - 1


def test_stats_bounds():
    rng = random.Random(8)
    for _ in range(100):
        g = oracles.random_graph(rng, rng.randint(1, 12), rng.random())
        st = stats(g)
        assert st.min_degree <= st.max_degree <= g.order - 1


def test_longest_path_examples():
    assert longest_path_order(realize(Complete(6))) == 6
    assert longest_path_order(realize(Union(Complete(3), Complete(3)))) == 3
    assert longest_path_order(realize(Minus(Complete(9), Path(4)))) == 9


def test_longest_path_matches_naive_dfs():
    rng = random.Random(21)
    for _ in range(150):
        g = oracles.random_graph(rng, rng.randint(1, 8), rng.random())
        assert longest_path_order(g) == oracles.naive_longest_path(g)


def test_longest_path_order_limit():
    with pytest.raises(ValueError):
        longest_path_order(realize(Complete(21)))


def test_dirac_bound_sample():
    rng = random.Random(2)
    for _ in range(100):
        g = oracles.random_connected_graph(rng, rng.randint(3, 10), rng.uniform(0.3, 0.9))
        delta = stats(g).min_degree
        assert longest_path_order(g) >= min(2 * delta + 1, g.order)
