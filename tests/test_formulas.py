import json
import pathlib
import random

import pytest

from ramarrow import oracles
from ramarrow.containment import Generic, max_clique_size, target_from_spec
from ramarrow.formulas import (
    HypothesisError,
    burr_bound,
    chromatic_data,
    chromatic_number,
    chromatic_surplus,
    closed_form_path_critical,
    compare_with_catalog,
    is_ramsey_good,
    known_ramsey,
    path_critical_parameters,
    path_critical_upper_bound,
)
from ramarrow.graphs import (
    Book,
    Complete,
    Empty,
    Fan,
    Graph,
    Matching,
    Minus,
    Path,
    Star,
    parse_spec,
    realize,
    spec_to_text,
)

DATA = pathlib.Path(__file__).parent / "data"


# --- chromatic quantities -----------------------------------------------------


def test_chromatic_number_examples():
    assert chromatic_number(realize(Complete(4))) == 4
    assert chromatic_number(realize(Book(2))) == 3
    assert chromatic_number(realize(Path(7))) == 2
    assert chromatic_number(realize(Empty(5))) == 1
    assert chromatic_number(realize(Minus(Complete(4), Path(2)))) == 3
    # chi above the clique number: the 5-cycle needs a third color
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert max_clique_size(c5) == 2
    assert chromatic_number(c5) == 3 == oracles.chromatic_by_enumeration(c5)


def test_chromatic_surplus_examples():
    for m in range(2, 6):
        assert chromatic_surplus(realize(Complete(m))) == 1
    assert chromatic_surplus(realize(Book(2))) == 1
    assert chromatic_surplus(realize(Path(4))) == 2
    assert chromatic_surplus(realize(Matching(3))) == 3  # every 2-coloring splits each edge
    assert chromatic_surplus(realize(Empty(4))) == 4


def test_chromatic_surplus_matches_full_enumeration():
    # every graph on up to 4 vertices, then a random sample up to 7
    from itertools import combinations
    from ramarrow.graphs import Graph

    for order in range(1, 5):
        pairs = list(combinations(range(order), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(order, [e for i, e in enumerate(pairs) if bits >> i & 1])
            chi = chromatic_number(g)
            assert chi == oracles.chromatic_by_enumeration(g)
            assert chromatic_surplus(g) == oracles.surplus_by_enumeration(g, chi)
    rng = random.Random(19)
    for _ in range(120):
        g = oracles.random_graph(rng, rng.randint(5, 7), rng.random())
        chi = chromatic_number(g)
        assert chromatic_surplus(g) == oracles.surplus_by_enumeration(g, chi)


def test_chromatic_data_invariants():
    rng = random.Random(20)
    for _ in range(60):
        g = oracles.random_graph(rng, rng.randint(1, 9), rng.random())
        data = chromatic_data(g)
        assert 1 <= data.chi <= g.order
        assert 1 <= data.surplus <= g.order // data.chi


def test_chromatic_limits():
    with pytest.raises(ValueError):
        chromatic_number(realize(Complete(21)))
    with pytest.raises(ValueError):
        chromatic_surplus(realize(Complete(17)))


# --- Burr bound and the path-deletion upper bound ------------------------------


def test_burr_bound_examples():
    assert burr_bound(Fan(2), Complete(3)) == 9
    assert burr_bound(Star(3), Complete(3)) == 7
    assert burr_bound(Star(8), Book(2)) == 17


def test_burr_bound_hypotheses():
    with pytest.raises(HypothesisError):
        burr_bound(Matching(2), Complete(3))  # G disconnected
    with pytest.raises(HypothesisError):
        burr_bound(Complete(1), Matching(2))  # |V(G)| < s(H) = 2


def test_goodness():
    assert is_ramsey_good(Fan(2), Complete(3), 9)
    assert not is_ramsey_good(Fan(2), Complete(3), 10)


def test_upper_bound_examples():
    assert path_critical_upper_bound(Fan(2), Complete(3), 9) == 4
    assert path_critical_upper_bound(Star(3), Complete(3), 7) == 3
    assert path_critical_upper_bound(Star(8), Book(2), 17) == 8


def test_upper_bound_hypothesis_messages():
    with pytest.raises(HypothesisError, match="connected"):
        path_critical_upper_bound(Matching(2), Complete(3), 7)
    with pytest.raises(HypothesisError, match="max degree"):
        path_critical_upper_bound(Path(4), Complete(3), 9)
    with pytest.raises(HypothesisError, match="r <="):
        path_critical_upper_bound(Star(3), Complete(3), 12)
    with pytest.raises(HypothesisError, match="r=4 lies below the Burr lower bound"):
        path_critical_parameters(Star(2), Complete(3), 4)


# --- catalogs ------------------------------------------------------------------


def test_known_ramsey_examples():
    assert known_ramsey(Fan(3), Complete(3)).value == 13
    assert known_ramsey(Star(2), Path(7)).value == 7
    # star-book boundary: n >= 3m-4 holds with equality for (2, 2)
    entry = known_ramsey(Star(2), Book(2))
    assert entry is not None and entry.value == 5
    assert known_ramsey(Star(8), Book(2)).value == 17
    assert known_ramsey(Star(3), Complete(4)).value == 10
    assert known_ramsey(Matching(2), Matching(3)).value == 7
    assert known_ramsey(Matching(3), Complete(3)).value == 7
    assert known_ramsey(Star(2), Star(3)).value == 5
    assert known_ramsey(Star(2), Star(2)).value == 3


def test_known_ramsey_symmetry_and_aliases():
    assert known_ramsey(Complete(3), Fan(3)).value == 13  # swapped order
    assert known_ramsey(Complete(2), Matching(2)).value == 4  # K2 read as 1K2
    assert known_ramsey(Path(3), Complete(3)).value == 5  # P3 read as K_{1,2}
    # every spelling of a tiny graph gets the same answers, in either order
    aliases = [
        (Complete(1), Path(1), Empty(1)),
        (Complete(2), Path(2), Star(1), Matching(1)),
        (Complete(3), Book(1), Fan(1)),
        (Path(3), Star(2)),
        (parse_spec("K1+E3"), Star(3)),
        (parse_spec("E1+2*K2"), Fan(2)),
        (parse_spec("2*K2"), Matching(2)),
        (parse_spec("K1+P3"), Book(2)),
        (parse_spec("K4\\P4"), Path(4)),
    ]
    families = (Complete, Path, Star, Book, Fan, Matching, Empty)
    partners = [family(k) for family in families for k in range(1, 10)]
    for lookup in (known_ramsey, closed_form_path_critical):
        for row in aliases:
            for partner in partners:
                first = {lookup(spelling, partner) for spelling in row}
                second = {lookup(partner, spelling) for spelling in row}
                assert len(first) == len(second) == 1, (lookup.__name__, row, partner)


def test_leaves_past_the_vertex_cap_are_read_unrealized():
    # a family member answers from its own parameter, so the catalog and
    # target_from_spec take leaves past the 64-vertex cap; any other
    # expression past the cap is not recognized, and raises nothing
    assert known_ramsey(Star(100), Complete(3)).value == 201
    assert known_ramsey(Fan(40), Complete(3)).value == 161
    assert known_ramsey(Matching(40), Matching(40)).value == 119
    assert target_from_spec(Star(64)) == Star(64)
    fan = parse_spec("E1 + 40*K2")
    assert target_from_spec(fan) == Generic(fan)
    assert known_ramsey(fan, Complete(3)) is None


def test_known_ramsey_outside_validity():
    assert known_ramsey(Star(2), Book(3)) is None  # needs n >= 3m-4 = 5
    assert known_ramsey(Star(2), Path(4)) is None  # needs n >= 2m+1 = 5
    assert known_ramsey(Fan(1), Complete(4)) is None
    assert known_ramsey(Book(2), Book(2)) is None


def test_closed_form_examples():
    assert closed_form_path_critical(Matching(2), Matching(3)).value == 7
    assert closed_form_path_critical(Star(2), Star(2)).value == 0
    assert closed_form_path_critical(Fan(3), Complete(3)).value == 6
    assert closed_form_path_critical(Fan(2), Complete(3)).value == 4
    assert closed_form_path_critical(Star(3), Star(3)).value == 5
    assert closed_form_path_critical(Star(2), Complete(3)).value == 2
    assert closed_form_path_critical(Star(8), Book(2)).value == 8
    assert closed_form_path_critical(Star(2), Path(7)).value == 7
    assert closed_form_path_critical(Matching(1), Matching(2)).value == 4


def test_compare_with_catalog_names_a_critical_mismatch():
    entry, closed, mismatches = compare_with_catalog(Star(2), Complete(3), 5, 3)
    assert (entry.value, closed.value) == (5, 2)
    assert mismatches == ["critical number: search 3 vs closed form 2 (path-critical star-clique)"]


def test_closed_form_outside_validity():
    assert closed_form_path_critical(Star(2), Book(2)) is None  # needs n >= 3m+2
    assert closed_form_path_critical(Star(2), Path(6)) is None  # needs n >= 2m+3
    assert closed_form_path_critical(Matching(1), Matching(1)) is None
    assert closed_form_path_critical(Complete(2), Complete(2)) is None
    assert closed_form_path_critical(Book(2), Book(2)) is None


def test_star_star_closed_form_parity_table():
    for m, n in [(2, 2), (2, 4), (4, 4)]:
        assert closed_form_path_critical(Star(m), Star(n)).value == 0
    for m, n in [(1, 2), (2, 3), (3, 3), (3, 4)]:
        assert closed_form_path_critical(Star(m), Star(n)).value == m + n - 1


def _catalog_grid() -> dict[str, list]:
    """Both lookups, as [value, source] or None, for every ordered pair of leaves 1..12."""
    leaves = [family(k) for family in (Complete, Path, Star, Book, Fan, Matching, Empty)
              for k in range(1, 13)]
    grid = {}
    for a in leaves:
        for b in leaves:
            grid[f"{spec_to_text(a)} {spec_to_text(b)}"] = [
                None if entry is None else [entry.value, entry.source]
                for entry in (known_ramsey(a, b), closed_form_path_critical(a, b))
            ]
    return grid


def test_catalog_matches_pinned_grid():
    # catalog_grid.json holds _catalog_grid() as the catalog answered it before
    # its two lookups shared one table: 84 leaves, 7,056 ordered pairs
    assert _catalog_grid() == json.loads((DATA / "catalog_grid.json").read_text())
