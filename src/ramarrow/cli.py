"""Command-line surface: arrowing queries, number computation, verification.

Exit codes are a stable scripting contract: 0 pass/arrows, 1
counterexample/fail, 2 indeterminate (node budget or --max-r exhausted),
3 usage error, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .arrowing import (
    CopyCapError,
    DeletionFamily,
    IndeterminateError,
    NotFoundWithinBoundError,
    arrows,
    critical_number,
    export_dimacs,
    ramsey_number,
    result_to_json,
)
from .coloring import RED, monochromatic_subgraph
from .formulas import compare_with_catalog
from .graphs import Graph6Error, SpecError, graph6_encode, parse_spec, realize
from .verify import SCHEMA_VERSION, check_names, run_verification

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        _flush_stdout()  # --help has written to stdout
        super().exit(status, message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ramarrow",
        description="Arrowing search, Ramsey numbers, and deletion-critical Ramsey numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget", type=int, default=None, help="node budget of each host's search")
        p.add_argument("--json", action="store_true", help="print the report as JSON")

    p_arrows = sub.add_parser("arrows", help="decide host -> (red, blue)")
    p_arrows.add_argument("--host", required=True, help="host graph expression, e.g. 'K9\\P4'")
    p_arrows.add_argument("--red", required=True, help="red target expression")
    p_arrows.add_argument("--blue", required=True, help="blue target expression")
    p_arrows.add_argument("--emit-witness", metavar="PATH", help="write counterexample JSON here")
    p_arrows.add_argument("--dimacs", metavar="PATH", help="write the CNF encoding here")
    common(p_arrows)
    p_arrows.add_argument("--deterministic", action="store_true",
                          help="canonical-order search; counterexamples are lexicographically least")

    p_numbers = sub.add_parser("numbers", help="Ramsey number and critical number for a pair")
    p_numbers.add_argument("--red", required=True)
    p_numbers.add_argument("--blue", required=True)
    p_numbers.add_argument(
        "--family",
        choices=[f.value for f in DeletionFamily],
        default="path",
        help="deletion family for the critical number",
    )
    p_numbers.add_argument("--max-r", type=int, default=17, help="largest host to try")
    common(p_numbers)

    p_verify = sub.add_parser("verify-paper", help="run the reproduction suite")
    p_verify.add_argument("--level", choices=["quick", "full"], default="quick")
    p_verify.add_argument(
        "--only", help="comma-separated check names (default: all); known names: "
        + ", ".join(check_names())
    )
    p_verify.add_argument("--out", metavar="PATH", help="write the JSON summary here")
    common(p_verify)
    return parser


def _flush_stdout(text: str | None = None) -> None:
    """Print text, if any, and flush stdout."""
    try:
        if text is not None:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): drop the rest, here and
        # at the interpreter's final flush, and keep the command's exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    _flush_stdout(json.dumps(report, indent=2) if as_json else "\n".join(lines))


def _write(path: str, flag: str, text: str | None) -> None:
    """Write text to path; with text None, only check that path can be written.

    The check appends nothing to an existing file and removes a file it made."""
    existed = os.path.exists(path)
    try:
        with open(path, "a" if text is None else "w", encoding="utf-8") as fh:
            if text is not None:
                fh.write(text)
    except OSError as exc:
        raise _UsageError(f"{flag}: cannot write {path}: {exc.strerror or exc}") from None
    if text is None and not existed:
        os.remove(path)


def _cmd_arrows(args) -> int:
    host = realize(parse_spec(args.host))
    red = parse_spec(args.red)
    blue = parse_spec(args.blue)
    for path, flag in ((args.dimacs, "--dimacs"), (args.emit_witness, "--emit-witness")):
        if path:
            _write(path, flag, None)
    if args.dimacs:
        try:
            cnf = export_dimacs(host, red, blue)
        except CopyCapError as exc:
            raise _UsageError(f"--dimacs: {exc}") from None
        _write(args.dimacs, "--dimacs", cnf)
    result = arrows(
        host, red, blue, budget=args.budget, deterministic=args.deterministic
    )
    outputs = result_to_json(args.host, red, blue, result)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "arrows",
        "inputs": {
            "host": args.host,
            "red": args.red,
            "blue": args.blue,
            "budget": args.budget,
            "deterministic": args.deterministic,
        },
        "outputs": outputs,
        "provenance": "search",
        "stats": outputs["stats"],
    }
    if args.emit_witness and result.counterexample is not None:
        payload = {
            "host": args.host,
            "red": args.red,
            "blue": args.blue,
            "coloring": result.counterexample.edge_triples(),
            "red_graph6": graph6_encode(monochromatic_subgraph(result.counterexample, RED)),
        }
        _write(args.emit_witness, "--emit-witness", json.dumps(payload, indent=2) + "\n")
    lines = [f"{args.host} -> ({args.red}, {args.blue}): {result.verdict}"]
    if result.counterexample is not None:
        lines.append(f"counterexample: {result.counterexample.edge_triples()}")
    lines.append(
        f"nodes={result.stats.nodes} mode={result.stats.propagation_mode} "
        f"runtime={result.stats.runtime_ms:.0f}ms"
    )
    _emit(report, args.json, lines)
    if result.verdict == "arrows":
        return EXIT_PASS
    if result.verdict == "counterexample":
        return EXIT_FAIL
    return EXIT_INDETERMINATE


def _cmd_numbers(args) -> int:
    red = parse_spec(args.red)
    blue = parse_spec(args.blue)
    family = DeletionFamily(args.family)

    t0 = time.perf_counter()
    r_search = ramsey_number(red, blue, max_r=args.max_r, budget=args.budget)
    crit_search = critical_number(red, blue, family, r_search, budget=args.budget)
    r_catalog, crit_closed, mismatches = compare_with_catalog(
        red, blue, r_search, crit_search if family is DeletionFamily.PATH else None
    )

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "numbers",
        "inputs": {
            "red": args.red,
            "blue": args.blue,
            "family": family.value,
            "max_r": args.max_r,
        },
        "outputs": {
            "ramsey": {
                "value": r_search,
                "search": r_search,
                "catalog": r_catalog.value if r_catalog else None,
                "catalog_source": r_catalog.source if r_catalog else None,
                "provenance": "search+catalog" if r_catalog else "search",
            },
            "critical": {
                "value": crit_search,
                "search": crit_search,
                "closed_form": crit_closed.value if crit_closed else None,
                "closed_form_source": crit_closed.source if crit_closed else None,
                "family": family.value,
                "index_unit": family.index_unit,
                "provenance": "search+catalog" if crit_closed else "search",
            },
            "consistent": not mismatches,
        },
        "provenance": "search",
        "stats": {"runtime_ms": round((time.perf_counter() - t0) * 1000.0, 1)},
    }
    lines = [
        f"R({args.red}, {args.blue}) = {r_search}"
        + (f"  [catalog {r_catalog.source}: {r_catalog.value}]" if r_catalog else "  [search only]"),
        f"critical({family.value}, indexed by {family.index_unit}) = {crit_search}"
        + (
            f"  [closed form {crit_closed.source}: {crit_closed.value}]"
            if crit_closed
            else "  [search only]"
        ),
    ]
    lines += [f"PROVENANCE MISMATCH: {mismatch}" for mismatch in mismatches]
    _emit(report, args.json, lines)
    return EXIT_FAIL if mismatches else EXIT_PASS


def _cmd_verify(args) -> int:
    only = set(args.only.split(",")) if args.only else None
    if only:
        unknown = only - set(check_names())
        if unknown:
            raise _UsageError(f"unknown check names: {', '.join(sorted(unknown))}")
    if args.out:
        _write(args.out, "--out", None)
    t0 = time.perf_counter()
    budget = args.budget if args.budget is not None else 10**8
    report = run_verification(level=args.level, only=only, budget=budget)
    report["runtime_ms"] = round((time.perf_counter() - t0) * 1000.0, 1)
    if args.out:
        _write(args.out, "--out", json.dumps(report, indent=2) + "\n")
    lines = []
    for check in report["checks"]:
        lines.append(f"[{check['status']:>5}] {check['name']} ({check['runtime_ms']:.0f}ms)")
        lines.append(f"        {check['detail']}")
    lines.append("suite: " + ("PASS" if report["passed"] else "FAIL"))
    _emit(report, args.json, lines)
    if any(c["status"] == "indeterminate" for c in report["checks"]):
        return EXIT_INDETERMINATE
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.budget is not None and args.budget < 0:
            raise _UsageError(f"--budget must not be negative, got {args.budget}")
        if args.command == "arrows":
            return _cmd_arrows(args)
        if args.command == "numbers":
            return _cmd_numbers(args)
        return _cmd_verify(args)
    except (_UsageError, SpecError, Graph6Error, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except NotFoundWithinBoundError as exc:
        # no verdict within the given bound, like an exhausted node budget
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except Exception as exc:
        # a fault of ramarrow itself, kept apart from exit 1 (counterexample or failed check)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
