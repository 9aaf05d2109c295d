"""ramarrow benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload search --seed 1 --seconds 55 --trace 0

The caller asks the workload's questions one after another, each only after
the previous answer has returned, and repeats the whole set (a pass) while
another pass still fits in --seconds; there is always at least one pass.
After each pass, untimed, its answers are checked against independently
known values.  A question's time is the median of its repeats in the run.
Between questions, at most every REF_EVERY_S, the run times a fixed
pure-Python reference loop; every end-to-end time is scaled by
REF_UNIT_S over that loop's median time in the run, so that it reads as
the time at one fixed host speed (see README.md, Steadiness).
With --trace 1 the first half of --seconds makes untraced passes and the
second half passes with every traced ramarrow function wrapped (see
spans.py); the run reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
answer is right, 1 when one is wrong or raised, and 2 when the program
cannot be loaded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

# The host speed reference: after each question, REFERENCE_UNITS runs of
# reference_unit() for every REF_EVERY_S that has passed since the last
# ones, so that the samples follow the run's time evenly (about 2% of it).
# On the machine this benchmark was written on the unit takes 0.37-0.54 ms
# as the host's load moves; REF_UNIT_S fixes the speed times are quoted at.
REF_EVERY_S = 0.05
REFERENCE_UNITS = 2
REF_UNIT_S = 4e-4

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "questions_per_s": "1/s",
    "question_ms.p50": "ms",
    "question_ms.p99": "ms",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}

# Pinned node counts of single instances (see workloads.py).
NODES_METRICS = (
    "arrowing.search.nodes.k9p4_f2k3_degree",
    "arrowing.search.nodes.k9_k3k4",
    "arrowing.search.nodes.k9p4_f2k3_canonical",
    "arrowing.search.nodes.k13p6_f3k3_probe",
    "arrowing.search.nodes.k8_b2k3_prune_only",
    "arrowing.search.nodes.k11_p9p9_capped",
)

_LAYER_UNITS = {
    "ms": "ms", "self_ms": "ms", "ms_per_call": "ms", "us_per_call": "us",
    "copies_per_s": "1/s", "nodes_per_s": "1/s",
    "hosts_per_value": "ratio", "classes_per_key": "ratio", "overhead_frac": "ratio",
}


def layer_unit(name: str) -> str:
    return _LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def fresh_import():
    """Import ramarrow anew, dropping any copy loaded by an earlier set-up."""
    for name in [n for n in sys.modules if n == "ramarrow" or n.startswith("ramarrow.")]:
        del sys.modules[name]
    return importlib.import_module("ramarrow")


def reference_unit() -> int:
    """Fixed pure-Python work, independent of ramarrow, timed to track host speed."""
    total = 0
    slots = {}
    for i in range(3000):
        total += i * i % 7
        slots[i & 63] = total
    return total


class HostSpeed:
    """Reference-unit times sampled through a run; see REF_UNIT_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        """Time REFERENCE_UNITS units per REF_EVERY_S passed since the last ones."""
        clock = time.perf_counter
        periods = int((clock() - self.last) / REF_EVERY_S)
        if periods == 0:
            return
        for _ in range(periods * REFERENCE_UNITS):
            t0 = clock()
            reference_unit()
            self.samples.append(clock() - t0)
        self.last = clock()

    def scale(self, start: int = 0) -> float:
        """Factor from measured seconds to seconds at the reference speed.

        start drops the samples taken before it, to scale the later part of
        a run on its own.
        """
        return REF_UNIT_S / statistics.median(self.samples[start:] or self.samples)


def run_pass(questions, speed: HostSpeed, tracer=None):
    """Ask every question once; returns (wall seconds, latencies in s, answers).

    The wall time includes the reference samples taken between questions.
    """
    latencies = []
    answers = []
    clock = time.perf_counter
    start = clock()
    for qid, q in enumerate(questions):
        close = tracer.question(qid, q.kind) if tracer else None
        t0 = clock()
        try:
            answer = q.call()
        except Exception as exc:  # a raising question is a failed answer
            answer = exc
        latencies.append(clock() - t0)
        if close:
            close()
        answers.append(answer)
        speed.sample()
    return clock() - start, latencies, answers


def timed_passes(questions, speed: HostSpeed, seconds: float):
    """Timed passes, each checked right after it, while another fits in seconds.

    Returns (pass walls, each question's latencies, failure messages,
    decided answers, peak RSS in MB after the first pass).  The checks
    count against seconds too, so the passes end about seconds after the
    first one starts.
    """
    deadline = time.perf_counter() + seconds
    walls, failures = [], []
    latencies = [[] for _ in questions]
    decided = 0
    rss = None
    while True:
        wall, lat, answers = run_pass(questions, speed)
        if rss is None:
            rss = peak_rss_mb()
        pass_failures, pass_decided = check_answers(questions, answers)
        walls.append(wall)
        for samples, t in zip(latencies, lat):
            samples.append(t)
        failures += pass_failures
        decided += pass_decided
        if time.perf_counter() + wall > deadline:
            return walls, latencies, failures, decided, rss


def traced_passes(package, rm, questions, speed: HostSpeed, seconds: float):
    """Traced passes while another fits in seconds, at least one.

    Returns (the tracer and pass of the fastest traced pass, each
    question's latencies, failure messages, passes made).
    """
    deadline = time.perf_counter() + seconds
    fastest = None
    latencies = [[] for _ in questions]
    failures = []
    passes = 0
    while True:
        tracer = spans.Tracer(package, rm.arrowing.CopyCapError, rm.arrowing.DEFAULT_COPY_CAP)
        tracer.install()
        try:
            traced = run_pass(questions, speed, tracer)
        finally:
            tracer.uninstall()
        passes += 1
        failures += check_answers(questions, traced[2])[0]
        for samples, t in zip(latencies, traced[1]):
            samples.append(t)
        if fastest is None or traced[0] < fastest[1][0]:
            fastest = (tracer, traced)
        if time.perf_counter() + traced[0] > deadline:
            return fastest, latencies, failures, passes


def check_answers(questions, answers) -> tuple[list[str], int]:
    """(failure messages, decided count) for one pass's answers."""
    failures = []
    decided = 0
    for q, answer in zip(questions, answers):
        if isinstance(answer, Exception):
            failures.append(f"{q.label}: raised {type(answer).__name__}: {answer}")
            continue
        try:
            problem = q.check(answer)
            decided += bool(q.decided(answer))
        except Exception as exc:  # a check that cannot run counts against the answer
            problem = f"{q.label}: check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(problem)
    return failures, decided


def median_each(latencies) -> list[float]:
    """Each question's median latency over its repeats."""
    return [statistics.median(samples) for samples in latencies]


def nearest_rank(sorted_values, p: float):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="smoke runs the smallest instances, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ramarrow" / "__init__.py").is_file():
        print(f"perfbench: no ramarrow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        package = fresh_import()
        rm = workloads.load(package)
        questions = workloads.build(args.workload, rm, args.seed, args.size)
        setups.append(time.perf_counter() - t0)

    speed = HostSpeed()
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    walls, latencies, failures, decided, rss = timed_passes(questions, speed, untraced_seconds)
    attempted = len(questions) * len(walls)
    untraced_scale = speed.scale()
    if args.trace:
        traced_from = len(speed.samples)
        fastest, traced_latencies, traced_failures, traced_count = traced_passes(
            package, rm, questions, speed, args.seconds - untraced_seconds)
        failures += traced_failures
        attempted += len(questions) * traced_count

    scale = untraced_scale
    typical = sorted(median_each(latencies))
    wall = sum(typical) * scale
    beyond_p99 = len(typical) - math.ceil(0.99 * len(typical))
    e2e = {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": wall,
        "questions_per_s": len(questions) / wall,
        "question_ms.p50": statistics.median(typical) * scale * 1e3,
        "question_ms.p99": nearest_rank(typical, 0.99) * scale * 1e3,
        "decided_frac": decided / (len(questions) * len(walls)),
        "peak_rss_mb": rss,
    }

    print(f"perfbench {args.workload}: seed {args.seed}, size {args.size}, "
          f"closed loop with 1 caller, {len(walls)} timed pass(es) of "
          f"{len(questions)} questions")
    for name, value in e2e.items():
        print(f"  {name:<18} {value:>14.6g} {END_TO_END[name]}")
    print(f"  {'failed_frac':<18} {len(failures) / attempted:>14.6g} ratio "
          f"({len(failures)} of {attempted} answers wrong or raised)")
    print(f"  set-ups: {', '.join(f'{s:.4f}' for s in setups)} s "
          f"(the first also imports numpy)")
    print(f"  each question's time is the median of its {len(walls)} repeats; "
          f"wall_s is their sum, {sum(typical):.4f} s as measured.  Pass walls "
          f"{min(walls):.4f}-{max(walls):.4f} s")
    print(f"  times above are at the reference speed: measured x {scale:.4f}, from "
          f"{len(speed.samples)} reference units of median "
          f"{statistics.median(speed.samples) * 1e3:.4f} ms against {REF_UNIT_S * 1e3:g} ms")
    print(f"  question_ms: {len(typical)} samples (one per question), {beyond_p99} beyond p99"
          + ("" if beyond_p99 >= 10 else
             "; fewer than 10, so p99 is the slowest question, not a resolved tail"))
    print("  time waited: 0 by construction (one thread, no queue or lock)")
    metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    if args.trace:
        traced_wall = sum(median_each(traced_latencies)) * speed.scale(traced_from)
        metrics = trace_report(args, questions, fastest, traced_wall, traced_count, wall)
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def trace_report(args, questions, fastest, traced_wall, passes, untraced_wall) -> dict:
    """Per-layer metrics of the fastest traced pass; prints the layer split, saves spans.

    traced_wall and untraced_wall are sums of each question's median time,
    each at the reference speed of its own half of the run.  The layer
    times are as measured, not scaled.
    """
    tracer, (pass_wall, _, answers) = fastest
    values = spans.layer_metrics(tracer.spans)
    nodes = dict.fromkeys(NODES_METRICS, 0)
    for q, answer in zip(questions, answers):
        if q.nodes_metric and not isinstance(answer, Exception):
            nodes[q.nodes_metric] = answer.stats.nodes
    values.update(nodes)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0

    out_dir = ROOT / "perfbench" / "traces"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-{args.size}-seed{args.seed}.tsv.gz"
    tracer.write(out)

    print(f"fastest of {passes} traced pass(es): {pass_wall:.4f} s, {len(tracer.spans)} "
          f"spans saved to {out.relative_to(ROOT)}")
    print("  layer split (self time over that pass's wall time):")
    split = spans.layer_split(tracer.spans)
    for name, own in sorted(split.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<42} {own / pass_wall:>7.1%}  {own * 1e3:>10.1f} ms")
    for name, value in values.items():
        print(f"  {name:<46} {value:>14.6g} {layer_unit(name)}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
