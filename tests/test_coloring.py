import random

import pytest

from ramarrow import oracles
from ramarrow.coloring import BLUE, RED, Coloring, colored_degree, monochromatic_subgraph
from ramarrow.constructions import odd_clique_pair
from ramarrow.graphs import Complete, Empty, Join, Minus, Path, Union, realize


def _full(host, color):
    return Coloring(host, (1 << host.edge_count) - 1 if color == RED else 0)


def _random(rng, host):
    return Coloring(host, rng.getrandbits(host.edge_count))


def test_monochromatic_all_red_k4():
    host = realize(Complete(4))
    col = _full(host, RED)
    assert monochromatic_subgraph(col, RED) == host
    assert monochromatic_subgraph(col, BLUE) == realize(Empty(4))


def test_monochromatic_odd_clique_pair_k6():
    col = odd_clique_pair(3, 1)
    assert monochromatic_subgraph(col, RED) == realize(Union(Complete(3), Complete(3)))
    assert monochromatic_subgraph(col, BLUE) == realize(Join(Empty(3), Empty(3)))


def test_monochromatic_partial_assignment():
    host = realize(Minus(Complete(5), Path(5)))
    col = Coloring(host, 1 << host.edge_index[(0, 2)])
    assert host.edge_count == 6
    assert monochromatic_subgraph(col, RED).edges == ((0, 2),)
    assert monochromatic_subgraph(col, BLUE).edge_count == 5


def test_colored_degree_examples():
    host = realize(Complete(5))
    col = _full(host, BLUE)
    assert all(colored_degree(col, v, BLUE) == 4 for v in range(5))
    assert all(colored_degree(col, v, RED) == 0 for v in range(5))

    pair = odd_clique_pair(3, 1)
    assert all(colored_degree(pair, v, RED) == 2 for v in range(6))

    host = realize(Minus(Complete(9), Path(4)))
    col = _full(host, RED)
    for interior in (1, 2):
        col2 = Coloring(host, col.red ^ 1 << host.edge_index[(interior, 5)])
        assert colored_degree(col2, interior, BLUE) == 1
        total = colored_degree(col2, interior, RED) + colored_degree(col2, interior, BLUE)
        assert total == host.degree(interior) == 6


def test_color_degree_splits_host_degree():
    rng = random.Random(11)
    for _ in range(50):
        host = oracles.random_graph(rng, rng.randint(2, 9), rng.random())
        col = _random(rng, host)
        for v in range(host.order):
            parts = colored_degree(col, v, RED) + colored_degree(col, v, BLUE)
            assert parts == host.degree(v)


def test_sides_partition_host_edges_when_complete():
    rng = random.Random(12)
    for _ in range(50):
        host = oracles.random_graph(rng, rng.randint(2, 9), rng.random())
        col = _random(rng, host)
        red = monochromatic_subgraph(col, RED)
        blue = monochromatic_subgraph(col, BLUE)
        assert all(not (red.adj[v] & blue.adj[v]) for v in range(host.order))
        assert all(red.adj[v] | blue.adj[v] == host.adj[v] for v in range(host.order))
        # the red class is exactly the set bits of the mask
        assert {host.edge_index[e] for e in red.edges} == {
            i for i in range(host.edge_count) if col.red >> i & 1
        }


def test_edge_triples_round_trip():
    host = realize(Minus(Complete(5), Path(5)))
    col = Coloring(host, 1 << host.edge_index[(0, 2)])
    triples = col.edge_triples()
    assert triples == [[0, 2, "R"], [0, 3, "B"], [0, 4, "B"], [1, 3, "B"], [1, 4, "B"], [2, 4, "B"]]
    assert Coloring.from_edge_triples(host, triples) == col
    # the order of the triples and of each edge's endpoints does not matter
    assert Coloring.from_edge_triples(host, [[v, u, c] for u, v, c in reversed(triples)]) == col

    rng = random.Random(13)
    for _ in range(50):
        host = oracles.random_graph(rng, rng.randint(2, 9), rng.random())
        col = _random(rng, host)
        assert Coloring.from_edge_triples(host, col.edge_triples()) == col


def test_errors():
    host = realize(Complete(3))
    with pytest.raises(ValueError):
        Coloring(host, -1)
    with pytest.raises(ValueError):
        Coloring(host, 1 << 3)
    Coloring(host, (1 << 3) - 1)
    for not_int in ([RED, RED, BLUE], 1.0, "7", None, True):
        with pytest.raises(TypeError):
            Coloring(host, not_int)
    triples = Coloring(host, 0b101).edge_triples()
    with pytest.raises(ValueError, match="1 host edges have no color"):
        Coloring.from_edge_triples(host, triples[1:])
    with pytest.raises(ValueError, match="colored twice"):
        Coloring.from_edge_triples(host, triples + [[1, 0, "R"]])
    with pytest.raises(ValueError, match="not an edge"):
        Coloring.from_edge_triples(host, triples[:2] + [[0, 0, "R"]])
    with pytest.raises(ValueError, match="not an edge"):
        Coloring.from_edge_triples(realize(Minus(Complete(3), Path(2))), triples)
    # vertex -1 would index vertex 2 of the edge table
    for bad in ([-1, 0, "R"], [0, -1, "R"], [0, 3, "R"]):
        with pytest.raises(ValueError, match="not an edge"):
            Coloring.from_edge_triples(host, triples[:2] + [bad])
    with pytest.raises(ValueError, match="invalid color letter"):
        Coloring.from_edge_triples(host, triples[:2] + [[1, 2, "G"]])
    col = Coloring(host, 0)
    with pytest.raises(AttributeError):
        col.red = 1
    with pytest.raises(ValueError):
        colored_degree(col, 7, RED)
    with pytest.raises(ValueError):
        colored_degree(col, 0, 2)
    with pytest.raises(ValueError):
        monochromatic_subgraph(col, -1)
