"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

For each workload, untraced and traced, it runs run.py with --size smoke
and checks that the last output line is the result object, that it holds
exactly the metrics BENCHMARK.json names for that mode, each with its
unit, and that no answer was wrong (failed_frac 0).  It also checks that
run.py fails without printing a result in a directory holding only the
benchmark and not the program's sources.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIMEOUT_S = 170


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if not any(line.split()[:2] == ["failed_frac", "0"] for line in lines):
        problems.append(f"{where}: failed_frac 0 not printed")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(printed) & set(expected) if printed[n] != expected[n])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    text_units = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] in expected:
            text_units[parts[0]] = parts[2]
    for name, unit in expected.items():
        if text_units.get(name) != unit:
            problems.append(f"{where}: {name} not printed with its unit {unit}")
    return problems


def check_without_sources() -> list[str]:
    bare = HERE / "selftest-tmp"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run(bare, "scan", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        print("FAIL workloads in BENCHMARK.json differ from workloads.WORKLOADS")
        return 1
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, expected in modes.items():
            found = check_run(workload, trace, expected)
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}")
            problems += found
    found = check_without_sources()
    print(f"{'FAIL' if found else 'ok  '} run.py without program sources")
    problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
