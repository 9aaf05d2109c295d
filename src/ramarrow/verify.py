"""Reproduction suite: every desk-scale exact value, re-derived by search.

Each check recomputes its values from scratch (search and catalog are kept
separate and compared; a mismatch is a failure, never silently resolved).
The quick level runs everything except the deep fan search; that one is
full-level only and may report itself as skipped when the budget runs out.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass

from . import oracles
from .arrowing import (
    DeletionFamily,
    IndeterminateError,
    arrows,
    critical_number,
    export_dimacs,
    ramsey_number,
)
from .constructions import (
    block_coloring_witness,
    canonical_coloring_key,
    enumerate_free_colorings,
    odd_clique_pair,
)
from .containment import DETECTED_FAMILIES, Generic, contains_target
from .formulas import burr_bound, closed_form_path_critical, compare_with_catalog, known_ramsey
from .graphs import (
    Book,
    Complete,
    Fan,
    Graph,
    Matching,
    Minus,
    Path,
    Star,
    longest_path_order,
    parse_spec,
    realize,
    spec_to_text,
    stats,
)

SCHEMA_VERSION = 1

DESK_SCALE_NOTE = (
    "17-vertex star-book hosts and the fan-triangle family beyond n=3 are out of "
    "reach of exhaustive search at desk scale; those values are certified by "
    "witness freeness (upper direction) and by the property suites that validate "
    "the search engine itself."
)


@dataclass
class CheckResult:
    name: str
    level: str
    status: str  # pass | fail | skip | indeterminate
    runtime_ms: float
    detail: str


# ---------------------------------------------------------------------------
# Individual checks.  Each returns (status, detail).


# Pair checks: search R(G,H) and the path-critical number, compare each with
# its expected value, then with the catalog.  A row is (G, H, R, critical);
# the check's template formats the detail of each passing row.
_PAIR_CHECKS = {
    "matching-matching-pipeline": (
        "(m={red.m},n={blue.m}): R={r}, crit={crit}",
        [(Matching(m), Matching(n), 2 * n + m - 1, 2 * n + m - 1)
         for m, n in [(1, 2), (2, 2), (2, 3), (3, 3)]],
    ),
    "star-clique-critical": (
        "n={red.n}: R={r}, crit={crit}",
        [(Star(2), Complete(3), 5, 2), (Star(3), Complete(3), 7, 3)],
    ),
    "star-star-critical": (
        "(m={red.n},n={blue.n}): R={r}, crit={crit}",
        [(Star(2), Star(2), 3, 0), (Star(2), Star(3), 5, 4), (Star(3), Star(3), 6, 5)],
    ),
    "star-path-critical": (
        "R={r} (catalog {entry.source} + search), crit={crit}, host colorings searched",
        [(Star(2), Path(7), 7, 7)],
    ),
}


def _pair_check(template, rows):
    def check(budget):
        details = []
        for red, blue, want_r, want_c in rows:
            pair = f"({spec_to_text(red)},{spec_to_text(blue)})"
            r = ramsey_number(red, blue, max_r=want_r + 2, budget=budget)
            if r != want_r:
                return "fail", f"R{pair} search gave {r}, expected {want_r}"
            crit = critical_number(red, blue, DeletionFamily.PATH, r, budget=budget)
            if crit != want_c:
                return "fail", f"path-critical{pair} gave {crit}, expected {want_c}"
            entry, closed, mismatches = compare_with_catalog(red, blue, r, crit)
            if entry is None or closed is None:
                return "fail", f"{pair} missing from the catalog"
            if mismatches:
                return "fail", f"{pair}: " + "; ".join(mismatches)
            details.append(template.format(red=red, blue=blue, r=r, crit=crit, entry=entry))
        return "pass", "; ".join(details)

    return check


def _check_fan2_triangle(budget):
    witness = block_coloring_witness(Fan(2), Complete(3), 9)  # raises unless free
    result = arrows(
        realize(Minus(Complete(9), Path(4))), Fan(2), Complete(3), budget=budget
    )
    if result.verdict == "indeterminate":
        return "indeterminate", f"budget exhausted after {result.stats.nodes} nodes"
    if not result.arrows:
        return "fail", "K9\\P4 unexpectedly admits a free coloring"
    closed = closed_form_path_critical(Fan(2), Complete(3))
    if closed is None or closed.value != 4:
        return "fail", f"closed form gives {closed}, expected 4"
    return "pass", (
        f"witness free on {spec_to_text(witness.host_spec)}; K9\\P4 arrows "
        f"({result.stats.nodes} nodes) => path-critical value 4"
    )


def _check_free_coloring_classes(budget):
    details = []
    for n in (2, 3, 4):
        host = realize(Complete(2 * n))
        classes = enumerate_free_colorings(host, Matching(n), Complete(3))
        got = {canonical_coloring_key(c) for c in classes}
        expected = {
            canonical_coloring_key(odd_clique_pair(n, i)) for i in range(math.ceil(n / 2))
        }
        if got != expected:
            return "fail", f"n={n}: {len(got)} classes found, expected {len(expected)}"
        details.append(f"n={n}: {len(classes)} classes")
    return "pass", "; ".join(details)


def _check_witness_sweep(budget):
    pairs = [(Star(n), Complete(m)) for n in (2, 3, 4) for m in (2, 3, 4)]
    pairs.append((Star(8), Book(2)))
    pairs.extend((Fan(n), Complete(3)) for n in (2, 3, 4))
    for G, H in pairs:
        known = known_ramsey(G, H)
        if known is None:
            return "fail", f"({spec_to_text(G)},{spec_to_text(H)}) missing from catalog"
        block_coloring_witness(G, H, known.value)  # raises unless free
    return "pass", f"{len(pairs)} witnesses verified free"


def _check_burr_goodness(budget):
    cases = [
        (Star(2), Complete(2), True),
        (Star(2), Complete(3), True),
        (Star(3), Complete(2), True),
        (Star(3), Complete(3), True),
        (Star(2), Star(3), False),
        (Star(3), Star(3), False),
        (Star(2), Path(7), False),
        (Fan(2), Complete(3), True),
    ]
    details = []
    for G, H, expect_good in cases:
        bound = burr_bound(G, H)
        r = ramsey_number(G, H, max_r=bound + 4, budget=budget)
        mismatches = compare_with_catalog(G, H, r)[2]
        if mismatches:
            return "fail", f"({spec_to_text(G)},{spec_to_text(H)}): " + "; ".join(mismatches)
        if r < bound:
            return "fail", f"({spec_to_text(G)},{spec_to_text(H)}): R={r} below Burr {bound}"
        if expect_good and r != bound:
            return "fail", f"({spec_to_text(G)},{spec_to_text(H)}): expected goodness, R={r} != {bound}"
        details.append(f"({spec_to_text(G)},{spec_to_text(H)}): R={r}, Burr={bound}")
    return "pass", "; ".join(details)


# --- property suites -------------------------------------------------------


_DETECTOR_TARGETS = [factory(k) for factory in DETECTED_FAMILIES for k in (1, 2, 3, 4)]


def detector_generic_disagreements(cases: int, seed: int = 2024) -> int:
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        g = oracles.random_graph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.8))
        for target in _DETECTOR_TARGETS:
            fast = contains_target(g, target)
            slow = contains_target(g, Generic(target))
            if fast != slow:
                bad += 1
    return bad


_RANDOM_TARGET_POOL = [
    Complete(2), Complete(3), Star(1), Star(2), Star(3),
    Path(2), Path(3), Path(4), Matching(1), Matching(2),
    Book(1), Book(2), Fan(1), Fan(2),
    parse_spec("K3 u K2"), parse_spec("K4\\P4"),
]


def _random_host(rng: random.Random, max_edges: int):
    g = oracles.random_graph(rng, rng.randint(4, 7), rng.uniform(0.3, 0.8))
    edges = list(g.edges)
    if len(edges) > max_edges:
        rng.shuffle(edges)
        g = Graph.from_edges(g.order, edges[:max_edges])
    return g


def arrows_enumeration_disagreements(cases: int, seed: int = 77) -> int:
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        host = _random_host(rng, 14)
        red = rng.choice(_RANDOM_TARGET_POOL)
        blue = rng.choice(_RANDOM_TARGET_POOL)
        engine = arrows(host, red, blue).arrows
        naive = oracles.naive_arrows(host, realize(red), realize(blue))
        if engine != naive:
            bad += 1
    return bad


def dirac_violations(cases: int, seed: int = 5) -> int:
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        g = oracles.random_connected_graph(rng, rng.randint(3, 10), rng.uniform(0.3, 0.9))
        delta = stats(g).min_degree
        if longest_path_order(g) < min(2 * delta + 1, g.order):
            bad += 1
    return bad


def dimacs_disagreements(cases: int, seed: int = 31) -> int:
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        host = _random_host(rng, 20)
        red = rng.choice(_RANDOM_TARGET_POOL)
        blue = rng.choice(_RANDOM_TARGET_POOL)
        _, clauses = oracles.parse_dimacs(export_dimacs(host, red, blue))
        satisfiable = oracles.naive_dpll(clauses)
        if satisfiable == arrows(host, red, blue).arrows:
            bad += 1
    return bad


def _count_check(count, cases, what):
    """A check that passes when count(cases) finds no bad case; what names them, over cases."""
    def check(budget):
        bad = count(cases)
        return ("pass" if bad == 0 else "fail"), f"{bad} {what.format(cases)}"

    return check


def _check_fan3_triangle(budget):
    block_coloring_witness(Fan(3), Complete(3), 13)  # raises unless free
    result = arrows(
        realize(Minus(Complete(13), Path(6))), Fan(3), Complete(3), budget=budget
    )
    if result.verdict == "indeterminate":
        return "skip", (
            f"budget exhausted after {result.stats.nodes} nodes; witness half verified. "
            + DESK_SCALE_NOTE
        )
    if not result.arrows:
        return "fail", "K13\\P6 unexpectedly admits a free coloring"
    return "pass", (
        f"K13\\P6 arrows ({result.stats.nodes} nodes) and the K13\\P7 witness is free "
        f"=> path-critical value 6. " + DESK_SCALE_NOTE
    )


_CHECKS = [
    *((name, "quick", _pair_check(*spec)) for name, spec in _PAIR_CHECKS.items()),
    ("fan2-triangle-arrowing", "quick", _check_fan2_triangle),
    ("matching-triangle-free-classes", "quick", _check_free_coloring_classes),
    ("witness-sweep", "quick", _check_witness_sweep),
    ("burr-goodness", "quick", _check_burr_goodness),
    ("containment-detectors", "quick", _count_check(
        detector_generic_disagreements, 1000,
        f"disagreements over {{}} random graphs x {len(_DETECTOR_TARGETS)} targets")),
    ("arrows-vs-enumeration", "quick", _count_check(
        arrows_enumeration_disagreements, 200, "disagreements over {} random instances")),
    ("dirac-longest-path", "quick", _count_check(
        dirac_violations, 500, "violations over {} random connected graphs")),
    ("dimacs-consistency", "quick", _count_check(
        dimacs_disagreements, 60, "verdict mismatches over {} exports")),
    ("fan3-triangle-arrowing", "full", _check_fan3_triangle),
]


def check_names() -> list[str]:
    return [name for name, _, _ in _CHECKS]


def run_verification(level: str = "quick", only=None, budget: int = 10**8) -> dict:
    """Run the reproduction suite; returns a JSON-ready report."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    results = []
    for name, check_level, fn in _CHECKS:
        if only is not None and name not in only:
            continue
        if check_level == "full" and level != "full":
            results.append(CheckResult(name, check_level, "skip", 0.0, "full level only"))
            continue
        t0 = time.perf_counter()
        try:
            status, detail = fn(budget)
        except IndeterminateError as exc:
            status, detail = "indeterminate", str(exc)
        except Exception as exc:  # a crashing check is a failing check
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        runtime = (time.perf_counter() - t0) * 1000.0
        results.append(CheckResult(name, check_level, status, round(runtime, 1), detail))
    passed = all(r.status in ("pass", "skip") for r in results)
    return {
        "schema_version": SCHEMA_VERSION,
        "level": level,
        "passed": passed,
        "notes": DESK_SCALE_NOTE,
        "checks": [asdict(r) for r in results],
    }
