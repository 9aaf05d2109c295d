"""The two benchmark workloads: their questions and the known answers.

A question is one call into ramarrow's public API (`arrows`,
`ramsey_number`, `critical_number` or `enumerate_free_colorings`).  Each
question carries a check that compares the answer with a value known
independently of the search: the formula catalog, a closed form from the
literature, or a brute-force oracle.  Checks run after each timed pass,
untimed.

Every question resolves the API function through its module at call time,
so that a traced run, which swaps module attributes for wrappers, times
the same calls an untraced run makes.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

WORKLOADS = ("search", "scan")
SIZES = ("full", "smoke")

# Budget of the K13\P6 -> (F3, K3) probe: about 0.5 s, most of it building
# the 99,113 F3 copies, so that the probe runs on every pass while the
# paper's open stretch stays undecided at seed speed.
PROBE_BUDGET = 20

# Copy cap of the K11 -> (P9, P9) question: the default cap (2,000,000)
# costs about 9 s a call, too long to repeat within a run; a tenth of it
# takes the same fallback to the same 55 prune-only nodes in about 1.3 s.
K11_COPY_CAP = 100_000

# Random `arrows` instances per scan pass.  The full size visits every
# (host order, red target, blue target) cell twice: 6 orders x 16 x 16
# targets x 2 = 3072, so that seeds differ only in the random edges.
SCAN_RANDOM = {"full": 3072, "smoke": 50}

# Ramsey numbers the formula catalog does not hold, with their source.
LITERATURE_RAMSEY = {
    ("P5", "P5"): (6, "Gerencser-Gyarfas: R(Pn,Pm) = n + floor(m/2) - 1"),
    ("P6", "P5"): (7, "Gerencser-Gyarfas: R(Pn,Pm) = n + floor(m/2) - 1"),
    ("B2", "K3"): (7, "Chvatal-Harary 1972: R(K4-e, K3) = 7"),
    ("K3", "K4"): (9, "Greenwood-Gleason 1955: R(3,4) = 9"),
}
R_B2_K3 = LITERATURE_RAMSEY[("B2", "K3")][0]


@dataclass
class Question:
    """One closed-loop call and the check of its answer.

    `call` takes no argument and returns the answer.  `check(answer)`
    returns None when the answer is right and a message otherwise.
    `decided(answer)` is False only for a verdict cut off by a node budget.
    `nodes_metric` names the per-layer metric that records the node count
    of an `arrows` answer, for instances whose count is pinned.
    """

    label: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    decided: Callable[[Any], bool] = lambda answer: True
    nodes_metric: str | None = None


def load(package) -> SimpleNamespace:
    """The ramarrow modules a workload builds its inputs from."""
    names = ("graphs", "arrowing", "containment", "constructions", "formulas",
             "coloring", "oracles", "verify")
    return SimpleNamespace(
        **{n: importlib.import_module(f"{package.__name__}.{n}") for n in names}
    )


def build(name: str, rm: SimpleNamespace, seed: int, size: str) -> list[Question]:
    """The workload's questions, in a fixed order.

    Only scan draws instances from the seed.  search asks fixed instances,
    whose node counts are pinned, in a fixed order.
    """
    return _BUILDERS[name](rm, random.Random(seed), size)


def _host(rm, text: str):
    g = rm.graphs.realize(rm.graphs.parse_spec(text))
    g.edge_index  # fill the lazy edge caches during set-up, not in pass one
    return g


def _target(rm, text: str):
    return rm.containment.target_from_spec(rm.graphs.parse_spec(text))


def _arrows_question(rm, label, host, red, blue, expect, *, nodes_metric=None,
                     may_stop=False, check_extra=None, **kwargs) -> Question:
    """`arrows(host, red, blue, **kwargs)` expected to give `expect`.

    With may_stop, an "indeterminate" verdict (budget exhausted) is allowed
    and counts as undecided; any other verdict must equal `expect`.
    """

    def call():
        return rm.arrowing.arrows(host, red, blue, **kwargs)

    def check(result):
        if may_stop and result.verdict == "indeterminate":
            return None
        if result.verdict != expect:
            return f"{label}: verdict {result.verdict}, expected {expect}"
        return check_extra(result) if check_extra else None

    return Question(label, "arrows", call, check,
                    decided=lambda r: r.verdict != "indeterminate",
                    nodes_metric=nodes_metric)


def _expected_verdict_from_critical(rm, red: str, blue: str, deleted_path: int) -> str:
    """K_R minus P_i arrows exactly when i is at most the path-critical number."""
    closed = rm.formulas.closed_form_path_critical(
        rm.graphs.parse_spec(red), rm.graphs.parse_spec(blue)
    )
    if closed is None:
        raise LookupError(f"no closed-form path-critical number for ({red},{blue})")
    return "arrows" if deleted_path <= closed.value else "counterexample"


def _deep(rm, size):
    """Find-one clause-mode searches, each with a pinned node count."""
    f2k3 =_expected_verdict_from_critical(rm, "F2", "K3", 4)
    f3k3 = _expected_verdict_from_critical(rm, "F3", "K3", 6)
    probe = _arrows_question(
        rm, "K13\\P6 -> (F3,K3) probe", _host(rm, "K13\\P6"), _target(rm, "F3"),
        _target(rm, "K3"), f3k3, nodes_metric="arrowing.search.nodes.k13p6_f3k3_probe",
        may_stop=True, budget=PROBE_BUDGET if size == "full" else 1,
    )
    if size == "smoke":
        return [
            _arrows_question(rm, "K6 -> (K3,K3)", _host(rm, "K6"), _target(rm, "K3"),
                             _target(rm, "K3"), "arrows"),
            probe,
        ]
    k9p4 = _host(rm, "K9\\P4")
    f2, k3, k4 = _target(rm, "F2"), _target(rm, "K3"), _target(rm, "K4")
    r34 = LITERATURE_RAMSEY[("K3", "K4")][0]
    return [
        _arrows_question(rm, "K9\\P4 -> (F2,K3) degree order", k9p4, f2, k3, f2k3,
                         nodes_metric="arrowing.search.nodes.k9p4_f2k3_degree"),
        _arrows_question(rm, "K9 -> (K3,K4)", _host(rm, "K9"), k3, k4,
                         "arrows" if r34 <= 9 else "counterexample",
                         nodes_metric="arrowing.search.nodes.k9_k3k4"),
        _arrows_question(rm, "K9\\P4 -> (F2,K3) canonical order", k9p4, f2, k3, f2k3,
                         nodes_metric="arrowing.search.nodes.k9p4_f2k3_canonical",
                         deterministic=True),
        probe,
    ]


def _known_ramsey(rm, red: str, blue: str) -> tuple[int, str]:
    known = rm.formulas.known_ramsey(rm.graphs.parse_spec(red), rm.graphs.parse_spec(blue))
    if known is not None:
        return known.value, f"catalog {known.source}"
    return LITERATURE_RAMSEY[(red, blue)]


def _ramsey_question(rm, red: str, blue: str, max_r: int | None = None) -> Question:
    want, source = _known_ramsey(rm, red, blue)
    r_t, b_t = _target(rm, red), _target(rm, blue)
    kwargs = {} if max_r is None else {"max_r": max_r}
    label = f"R({red},{blue})"

    def check(value):
        return None if value == want else f"{label} = {value}, expected {want} ({source})"

    return Question(label, "ramsey_number",
                    lambda: rm.arrowing.ramsey_number(r_t, b_t, **kwargs), check)


def _critical_question(rm, red: str, blue: str, r: int) -> Question:
    closed = rm.formulas.closed_form_path_critical(
        rm.graphs.parse_spec(red), rm.graphs.parse_spec(blue)
    )
    want = closed.value
    r_t, b_t = _target(rm, red), _target(rm, blue)
    path = rm.arrowing.DeletionFamily.PATH
    label = f"path-critical({red},{blue}) in K{r}"

    def check(value):
        return None if value == want else f"{label} = {value}, expected {want} ({closed.source})"

    return Question(label, "critical_number",
                    lambda: rm.arrowing.critical_number(r_t, b_t, path, r), check)


def _ramsey_and_critical(rm, red, blue):
    """R(red, blue) scanned up to R + 2, and the path-critical number in K_R."""
    r = _known_ramsey(rm, red, blue)[0]
    return [_ramsey_question(rm, red, blue, max_r=r + 2), _critical_question(rm, red, blue, r)]


def _scan(rm, rng, size):
    """The quick suite's number questions (less the fan pair) plus random instances."""
    pairs = [("M1", "M2"), ("M2", "M2"), ("M2", "M3"), ("M3", "M3"),
             ("S2", "K3"), ("S3", "K3"),
             ("S2", "S2"), ("S2", "S3"), ("S3", "S3")]
    questions = []
    if size == "smoke":
        pairs = pairs[:2]
    for red, blue in pairs:
        questions += _ramsey_and_critical(rm, red, blue)
    if size == "full":
        # star-path uses a fixed scan ceiling of K9, as the quick suite does
        questions += [_ramsey_question(rm, "S2", "P7", max_r=9),
                      _critical_question(rm, "S2", "P7", 7)]
        for red, blue in [("S2", "K2"), ("S2", "K3"), ("S3", "K2"), ("S3", "K3"),
                          ("S2", "S3"), ("S3", "S3"), ("S2", "P7")]:
            bound = rm.formulas.burr_bound(rm.graphs.parse_spec(red), rm.graphs.parse_spec(blue))
            questions.append(_ramsey_question(rm, red, blue, max_r=bound + 4))
        for red, blue in [("P5", "P5"), ("P6", "P5"), ("B2", "K3"), ("M4", "K3")]:
            questions.append(_ramsey_question(rm, red, blue))
    pool = rm.verify._RANDOM_TARGET_POOL
    for i in range(SCAN_RANDOM[size]):
        questions.append(_random_arrows(rm, rng, pool, i))
    return questions


def _random_arrows(rm, rng, pool, i) -> Question:
    """Host of 4-9 vertices and at most 14 edges; targets from the verify pool.

    Instance i has order 4 + i mod 6 and the (i // 6)-th target pair, in
    pool order; the seed draws the edge density and the edges.
    """
    pair = i // 6 % (len(pool) ** 2)
    red, blue = pool[pair // len(pool)], pool[pair % len(pool)]
    g = rm.oracles.random_graph(rng, 4 + i % 6, rng.uniform(0.3, 0.8))
    edges = list(g.edges)
    if len(edges) > 14:
        rng.shuffle(edges)
        g = rm.graphs.Graph.from_edges(g.order, edges[:14])
    g.edge_index
    label = f"random #{i}: {g!r} -> ({rm.containment.target_label(red)}, " \
            f"{rm.containment.target_label(blue)})"
    oracle = []  # memo: the brute-force verdict, computed on first check

    def check(result):
        if not oracle:
            to_graph = rm.containment.target_to_spec
            oracle.append(rm.oracles.naive_arrows(
                g, rm.graphs.realize(to_graph(red)), rm.graphs.realize(to_graph(blue))
            ))
        if result.verdict == "indeterminate" or result.arrows != oracle[0]:
            return f"{label}: verdict {result.verdict}, brute force says arrows={oracle[0]}"
        return None

    return Question(label, "arrows", lambda: rm.arrowing.arrows(g, red, blue), check,
                    decided=lambda r: r.verdict != "indeterminate")


# (host, red, blue, classes, free colorings).  The (nK2,K3) classes are the
# verify suite's odd-clique pairs.  A free (K3,K4) colouring of K6 is a
# (3,4)-Ramsey graph on 6 vertices, of which there are 15 (McKay's census).
# Each labelled count equals the sum of n!/|Aut| over the classes, and the
# K6 (K3,K4) figures were checked once by brute force over all 2^15 graphs
# and all 720 vertex permutations.
CLASSIFY = [
    ("K4", "M2", "K3", 1, 4),
    ("K6", "M3", "K3", 2, 16),
    ("K6", "K3", "K4", 15, 2812),
]


def _classify(rm, size):
    questions = []
    for host_text, red_text, blue_text, classes, solutions in CLASSIFY[: 2 if size == "smoke" else 3]:
        host, red, blue = _host(rm, host_text), _target(rm, red_text), _target(rm, blue_text)
        label = f"classes of free ({red_text},{blue_text}) colorings of {host_text}"
        questions.append(Question(
            label, "enumerate_free_colorings",
            lambda host=host, red=red, blue=blue:
                rm.constructions.enumerate_free_colorings(host, red, blue),
            _classes_check(rm, label, host, red, blue, classes, solutions),
        ))
    return questions


def _classes_check(rm, label, host, red, blue, classes, solutions):
    counted = []  # memo: free colorings of the host, counted once

    def check(reps):
        if len(reps) != classes:
            return f"{label}: {len(reps)} classes, expected {classes}"
        keys = {rm.constructions.canonical_coloring_key(c) for c in reps}
        if len(keys) != classes:
            return f"{label}: representatives are not pairwise non-isomorphic"
        for c in reps:
            if _has_mono_copy(rm, c, red, blue):
                return f"{label}: a representative is not free"
        if not counted:
            counted.append(len(rm.constructions.all_free_colorings(host, red, blue)))
        if counted[0] != solutions:
            return f"{label}: {counted[0]} free colorings, expected {solutions}"
        return None

    return check


def _has_mono_copy(rm, coloring, red, blue) -> bool:
    col = rm.coloring
    contains = rm.containment.contains_target
    return (contains(col.monochromatic_subgraph(coloring, col.RED), red)
            or contains(col.monochromatic_subgraph(coloring, col.BLUE), blue))


def _path_free_check(rm, n: int):
    """Both colour classes of a counterexample lack a path on n vertices."""

    def check(result):
        col = rm.coloring
        for colour in (col.RED, col.BLUE):
            side = col.monochromatic_subgraph(result.counterexample, colour)
            longest = rm.graphs.longest_path_order(side)
            if longest >= n:
                return f"counterexample has a monochromatic path on {longest} vertices"
        return None

    return check


def _capped(rm, size):
    # R(Pn,Pn) = n + floor(n/2) - 1 (Gerencser-Gyarfas): K11 < R(P9,P9) = 12,
    # and K7 < R(P6,P6) = 8, so both path instances have free colorings.
    if size == "smoke":
        return [
            _arrows_question(rm, "K7 -> (P6,P6) copy_cap=100", _host(rm, "K7"),
                             _target(rm, "P6"), _target(rm, "P6"), "counterexample",
                             check_extra=_path_free_check(rm, 6), copy_cap=100),
            _arrows_question(rm, "K6 -> (K3,K3) copy_cap=0", _host(rm, "K6"),
                             _target(rm, "K3"), _target(rm, "K3"), "arrows", copy_cap=0),
        ]
    return [
        _arrows_question(rm, "K8 -> (B2,K3) copy_cap=0", _host(rm, "K8"),
                         _target(rm, "B2"), _target(rm, "K3"),
                         "arrows" if R_B2_K3 <= 8 else "counterexample",
                         nodes_metric="arrowing.search.nodes.k8_b2k3_prune_only",
                         copy_cap=0),
        _arrows_question(rm, f"K11 -> (P9,P9) copy_cap={K11_COPY_CAP}", _host(rm, "K11"),
                         _target(rm, "P9"), _target(rm, "P9"), "counterexample",
                         nodes_metric="arrowing.search.nodes.k11_p9p9_capped",
                         check_extra=_path_free_check(rm, 9), copy_cap=K11_COPY_CAP),
    ]


def _search(rm, rng, size):
    """Find-one clause search, collect-all classification, then the fallbacks."""
    return _deep(rm, size) + _classify(rm, size) + _capped(rm, size)


_BUILDERS = {"search": _search, "scan": _scan}
