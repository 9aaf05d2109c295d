"""Chromatic quantities, the Burr lower bound, and cataloged exact values.

Catalog entries carry their validity ranges; querying outside a range
returns None rather than extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .containment import family_parameter, max_clique_size
from .graphs import Book, Complete, Fan, Graph, GraphSpec, Matching, Path, Star, realize, stats


class HypothesisError(ValueError):
    """A formula was queried outside its stated hypotheses."""


@dataclass(frozen=True)
class ChromaticData:
    chi: int
    surplus: int


@dataclass(frozen=True)
class KnownValue:
    value: int
    source: str


# ---------------------------------------------------------------------------
# Chromatic number and surplus


def _k_colorable(g: Graph, k: int) -> bool:
    if k >= g.order:
        return True
    order = sorted(range(g.order), key=g.degree, reverse=True)
    colors = [-1] * g.order

    def assign(i: int, used: int) -> bool:
        if i == g.order:
            return True
        v = order[i]
        forbidden = 0
        row = g.adj[v]
        while row:
            low = row & -row
            row ^= low
            c = colors[low.bit_length() - 1]
            if c >= 0:
                forbidden |= 1 << c
        # trying at most one fresh color kills color-permutation symmetry
        for c in range(min(used + 1, k)):
            if forbidden >> c & 1:
                continue
            colors[v] = c
            if assign(i + 1, max(used, c + 1)):
                return True
        colors[v] = -1
        return False

    return assign(0, 0)


def chromatic_number(g: Graph) -> int:
    """Exact chi: the least k-colorable k from the clique number up (k = order always is)."""
    if g.order > 20:
        raise ValueError(f"chromatic_number supports at most 20 vertices, got {g.order}")
    k = max_clique_size(g)
    while not _k_colorable(g, k):
        k += 1
    return k


def chromatic_surplus(g: Graph) -> int:
    """Minimum color-class size over all proper chi-colorings."""
    return chromatic_data(g).surplus


def chromatic_data(g: Graph) -> ChromaticData:
    """chi and the surplus.  A class of size z in some chi-coloring is exactly
    an independent set S with chi(G - S) <= chi - 1, so scan those by size.
    """
    if g.order > 16:
        raise ValueError(f"chromatic_surplus supports at most 16 vertices, got {g.order}")
    chi = chromatic_number(g)
    if chi == 1:
        return ChromaticData(chi, g.order)
    vertices = range(g.order)
    for size in range(1, g.order // chi + 1):
        for subset in combinations(vertices, size):
            independent = True
            for u, v in combinations(subset, 2):
                if g.has_edge(u, v):
                    independent = False
                    break
            if not independent:
                continue
            rest = g.induced([v for v in vertices if v not in subset])
            if _k_colorable(rest, chi - 1):
                return ChromaticData(chi, size)
    raise AssertionError("pigeonhole guarantees a class of size at most n/chi")


# ---------------------------------------------------------------------------
# Burr bound and the deletion upper bound


def _bound_terms(G: GraphSpec, H: GraphSpec, bound: str) -> tuple[int, int, ChromaticData]:
    """G's order and max degree and H's chromatic data, once G is connected and |V(G)| >= s(H).

    bound names the caller's bound in the HypothesisError.
    """
    g = realize(G)
    g_stats = stats(g)
    if not g_stats.is_connected:
        raise HypothesisError(f"{bound} requires G connected")
    data = chromatic_data(realize(H))
    if g.order < data.surplus:
        raise HypothesisError(f"{bound} requires |V(G)| >= s(H): {g.order} < {data.surplus}")
    return g.order, g_stats.max_degree, data


def burr_bound(G: GraphSpec, H: GraphSpec) -> int:
    """(chi(H)-1)(|V(G)|-1) + s(H); needs G connected and |V(G)| >= s(H)."""
    n, _, data = _bound_terms(G, H, "Burr bound")
    return (data.chi - 1) * (n - 1) + data.surplus


def is_ramsey_good(G: GraphSpec, H: GraphSpec, ramsey_value: int) -> bool:
    """G is H-good when the Ramsey number meets the Burr lower bound."""
    return ramsey_value == burr_bound(G, H)


def path_critical_parameters(G: GraphSpec, H: GraphSpec, r: int) -> tuple[int, int, int, int]:
    """(chi(H), s(H), n, t) for the path-critical upper bound, t = r-(chi-1)(n-1)-s+1.

    Hypotheses: G connected of order n with a dominating vertex, n >= s(H),
    and r <= (chi(H)-1)n + s(H) - 1; HypothesisError names the one that fails.
    """
    n, max_degree, data = _bound_terms(G, H, "upper bound")
    if max_degree != n - 1:
        raise HypothesisError(f"upper bound requires max degree n-1={n - 1}, got {max_degree}")
    limit = (data.chi - 1) * n + data.surplus - 1
    if r > limit:
        raise HypothesisError(f"upper bound requires r <= (chi-1)n+s-1 = {limit}, got {r}")
    t = r - (data.chi - 1) * (n - 1) - data.surplus + 1
    if t < 1:
        raise HypothesisError(f"r={r} lies below the Burr lower bound")
    return data.chi, data.surplus, n, t


def path_critical_upper_bound(G: GraphSpec, H: GraphSpec, r: int) -> int:
    """Upper bound t*n-1 on the path-critical number, under path_critical_parameters' hypotheses."""
    _, _, n, t = path_critical_parameters(G, H, r)
    return t * n - 1


# ---------------------------------------------------------------------------
# The catalog: one row per family pair, (source, G family, H family, R, R_pi).
# R and R_pi take the two family parameters and return None outside their
# validity range; a lookup takes the first row that answers, with the pair
# in either order since R(G,H) = R(H,G), and each parameter read off the
# graph (containment.family_parameter), so K1+P3 answers as B2, P3 as S2.

_CATALOG = (
    ("star-clique", Star, Complete,
     lambda n, m: n * (m - 1) + 1 if m >= 2 else None,
     lambda n, m: n if m >= 2 and n >= 2 else None),
    ("star-star", Star, Star,
     lambda n, m: n + m - 1 if n % 2 == m % 2 == 0 else n + m,
     lambda n, m: None if n + m < 3 else 0 if n % 2 == m % 2 == 0 else n + m - 1),
    ("star-book", Star, Book,
     lambda n, m: 2 * n + 1 if m >= 2 and n >= 3 * m - 4 else None,
     lambda n, m: n if m >= 2 and n >= 3 * m + 2 else None),
    ("star-path", Star, Path,
     lambda n, m: m if m >= 2 * n + 1 else None,
     lambda n, m: m if m >= 2 * n + 3 else None),
    ("fan-triangle", Fan, Complete,
     lambda n, m: 4 * n + 1 if n >= 2 and m == 3 else None,
     lambda n, m: 2 * n if n >= 2 and m == 3 else None),
    ("matching-triangle", Matching, Complete,
     lambda n, m: 2 * n + 1 if n >= 2 and m == 3 else None,
     lambda n, m: None),
    ("matching-matching", Matching, Matching,
     lambda n, m: 2 * m + n - 1 if m >= n else None,
     lambda n, m: 2 * m + n - 1 if m >= n and m >= 2 else None),
)


def _lookup(red: GraphSpec, blue: GraphSpec, column: int, prefix: str) -> KnownValue | None:
    for a, b in ((red, blue), (blue, red)):
        for source, g_family, h_family, *values in _CATALOG:
            n, m = family_parameter(a, g_family), family_parameter(b, h_family)
            if n is not None and m is not None:
                value = values[column](n, m)
                if value is not None:
                    return KnownValue(value, prefix + source)
    return None


def known_ramsey(red: GraphSpec, blue: GraphSpec) -> KnownValue | None:
    """Cataloged Ramsey number for the pair, if its validity range applies.

    The star-star entry is classical background (re-verified by search for
    small parameters); the rest are the exact families the closed forms
    build on.
    """
    return _lookup(red, blue, 0, "")


def closed_form_path_critical(red: GraphSpec, blue: GraphSpec) -> KnownValue | None:
    """Cataloged path-critical Ramsey number, when the parameters qualify."""
    return _lookup(red, blue, 1, "path-critical ")


def compare_with_catalog(
    red: GraphSpec, blue: GraphSpec, ramsey: int, critical: int | None = None
) -> tuple[KnownValue | None, KnownValue | None, list[str]]:
    """Search values against the catalog: (entry, closed form, mismatches).

    The closed form is looked up only when a path-critical value is given.
    A value the catalog lacks is not a mismatch.
    """
    entry = known_ramsey(red, blue)
    closed = None if critical is None else closed_form_path_critical(red, blue)
    mismatches = []
    if entry is not None and entry.value != ramsey:
        mismatches.append(
            f"Ramsey number: search {ramsey} vs catalog {entry.value} ({entry.source})"
        )
    if closed is not None and closed.value != critical:
        mismatches.append(
            f"critical number: search {critical} vs closed form {closed.value} ({closed.source})"
        )
    return entry, closed, mismatches
