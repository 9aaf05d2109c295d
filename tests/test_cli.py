import json
import os
import pathlib
import subprocess
import sys

import pytest

import ramarrow.cli as cli
import ramarrow.containment as containment
import ramarrow.formulas as formulas
import ramarrow.verify as verify
from ramarrow.cli import main
from ramarrow.graphs import graph6_decode
from ramarrow.verify import run_verification

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes ---------------------------------------------------------------


def test_exit_code_arrows(capsys):
    code, out, _ = run_cli(capsys, "arrows", "--host", "K5\\P5", "--red", "M2", "--blue", "M2")
    assert code == 0
    assert "arrows" in out


def test_exit_code_counterexample(capsys):
    code, out, _ = run_cli(capsys, "arrows", "--host", "K4", "--red", "M2", "--blue", "M2")
    assert code == 1
    assert "counterexample" in out


def test_exit_code_indeterminate(capsys):
    code, _, _ = run_cli(
        capsys, "arrows", "--host", "K9\\P4", "--red", "F2", "--blue", "K3", "--budget", "5"
    )
    assert code == 2


def test_exit_code_usage(capsys):
    code, _, err = run_cli(capsys, "arrows", "--host", "K0", "--red", "M2", "--blue", "M2")
    assert code == 3 and "usage error" in err
    code, _, err = run_cli(capsys, "arrows", "--host", "Q4", "--red", "M2", "--blue", "M2")
    assert code == 3
    code, _, err = run_cli(
        capsys, "arrows", "--host", "K3", "--red", "M2", "--blue", "M2", "--jobs", "0"
    )
    assert code == 3
    code, _, err = run_cli(capsys, "verify-paper", "--only", "no-such-check")
    assert code == 3 and "no-such-check" in err
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 3


def test_verify_paper_takes_no_deterministic_flag(capsys):
    # its checks fix their own search order, so the flag would do nothing
    code, out, err = run_cli(capsys, "verify-paper", "--only", "witness-sweep", "--deterministic")
    assert code == 3 and out == ""
    assert err == "usage error: unrecognized arguments: --deterministic\n"


def test_numbers_takes_no_deterministic_flag(capsys):
    # a number scan reads verdicts only, and a verdict does not depend on branch order
    code, out, err = run_cli(capsys, "numbers", "--red", "S2", "--blue", "K3", "--deterministic")
    assert code == 3 and out == ""
    assert err == "usage error: unrecognized arguments: --deterministic\n"


def test_exit_code_deeply_nested_spec(capsys):
    host = "(" * 200 + "K3" + ")" * 200
    code, out, err = run_cli(capsys, "arrows", "--host", host, "--red", "K2", "--blue", "K2")
    assert (code, out) == (3, "")
    assert err.startswith("usage error: more than 150 operators and parentheses at position 150")


def test_exit_code_negative_budget(capsys):
    for argv in (
        ["arrows", "--host", "K6", "--red", "K3", "--blue", "K3"],
        ["numbers", "--red", "K2", "--blue", "K3"],
        ["verify-paper", "--only", "witness-sweep"],
    ):
        code, out, err = run_cli(capsys, *argv, "--budget", "-5")
        assert code == 3, argv
        assert out == ""
        assert err == "usage error: --budget must not be negative, got -5\n"


def test_exit_code_max_r_below_one(capsys):
    code, out, err = run_cli(capsys, "numbers", "--red", "K3", "--blue", "K3", "--max-r", "0")
    assert code == 3
    assert out == ""
    assert err == "usage error: max_r must be at least 1, got 0\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_exit_code_not_found_within_max_r(capsys, json_flag):
    # R(P3,P3) = 3, so no complete graph up to K2 arrows the pair
    code, out, err = run_cli(capsys, "numbers", "--red", "P3", "--blue", "P3", "--max-r", "2",
                             *json_flag)
    assert code == 2  # no verdict within the bound
    assert out == ""
    assert err == "not found: no complete graph up to K_2 arrows (P3, P3)\n"


def test_exit_code_numbers_budget_exhausted(capsys):
    code, out, err = run_cli(capsys, "numbers", "--red", "K3", "--blue", "K3", "--budget", "3")
    assert code == 2
    assert out == ""
    assert err == "indeterminate: budget exhausted deciding K_5\n"


def test_exit_code_verify_check_indeterminate(capsys):
    code, out, _ = run_cli(
        capsys, "verify-paper", "--only", "fan2-triangle-arrowing", "--budget", "5", "--json"
    )
    assert code == 2
    report = json.loads(out)
    assert [c["status"] for c in report["checks"]] == ["indeterminate"]
    assert report["passed"] is False


def test_exit_code_dimacs_past_copy_cap(tmp_path, capsys):
    # K30 holds C(30, 10) copies of K10, counted before any is listed, so this is quick
    cnf = tmp_path / "x.cnf"
    code, out, err = run_cli(
        capsys, "arrows", "--host", "K30", "--red", "K10", "--blue", "K10", "--dimacs", str(cnf)
    )
    assert code == 3
    assert out == ""
    assert err == "usage error: --dimacs: more than 2000000 target copies in the host\n"
    assert not cnf.exists()


def test_exit_code_unwritable_witness_path(tmp_path, capsys):
    path = tmp_path / "missing" / "w.json"
    code, out, err = run_cli(
        capsys, "arrows", "--host", "K4", "--red", "M2", "--blue", "M2", "--emit-witness", str(path)
    )
    assert code == 3
    assert out == ""
    assert err == f"usage error: --emit-witness: cannot write {path}: No such file or directory\n"


def test_exit_code_unwritable_dimacs_path(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "arrows", "--host", "K4", "--red", "M2", "--blue", "M2", "--dimacs", str(tmp_path)
    )
    assert code == 3
    assert out == ""
    assert err == f"usage error: --dimacs: cannot write {tmp_path}: Is a directory\n"


def test_exit_code_unwritable_report_path(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "verify-paper", "--only", "witness-sweep", "--out", str(path))
    assert code == 3
    assert out == ""
    assert err == f"usage error: --out: cannot write {path}: No such file or directory\n"


def test_unwritable_paths_fail_before_the_run(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before its output path was checked")

    monkeypatch.setattr(cli, "arrows", never)
    monkeypatch.setattr(cli, "run_verification", never)
    path = tmp_path / "missing" / "out.json"
    for argv, flag in (
        (["arrows", "--host", "K6", "--red", "K3", "--blue", "K3", "--emit-witness"], "--emit-witness"),
        (["verify-paper", "--out"], "--out"),
    ):
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 3
        assert out == ""
        assert err == f"usage error: {flag}: cannot write {path}: No such file or directory\n"


def test_witness_path_check_keeps_files(tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    for path in (fresh, kept):
        code, _, _ = run_cli(
            capsys, "arrows", "--host", "K6", "--red", "K3", "--blue", "K3", "--emit-witness", str(path)
        )
        assert code == 0
    assert not fresh.exists()
    assert kept.read_text() == "old\n"


def test_exit_code_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "arrows", broken)
    code, out, err = run_cli(capsys, "arrows", "--host", "K6", "--red", "K3", "--blue", "K3")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: engine fault\n"


def _subprocess_env() -> dict:
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_python_dash_m_entry_point():
    env = _subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-m", "ramarrow", "arrows", "--host", "K6", "--red", "K3", "--blue", "K3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("K6 -> (K3, K3): arrows\n")


def test_package_imports_without_numpy():
    env = _subprocess_env()
    code = "import sys, ramarrow, ramarrow.oracles; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _run_with_closed_stdout(unbuffered: bool, *argv: str) -> tuple[int, bytes]:
    # the reader is gone before anything is written, as with `| head` on a long report
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramarrow", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    return proc.wait(timeout=120), err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_the_exit_code(unbuffered):
    assert _run_with_closed_stdout(
        unbuffered, "arrows", "--host", "K4", "--red", "M2", "--blue", "M2", "--json"
    ) == (cli.EXIT_FAIL, b"")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["arrows", "--help"]], ids=["main", "arrows"])
def test_closed_stdout_after_help_exits_0(unbuffered, argv):
    assert _run_with_closed_stdout(unbuffered, *argv) == (cli.EXIT_PASS, b"")


def test_arrows_deep_host_counterexample(capsys):
    # 1,035 edges of search depth, past Python's default recursion limit
    code, out, _ = run_cli(capsys, "arrows", "--host", "K46", "--red", "P47", "--blue", "P47")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "K46 -> (P47, P47): counterexample"
    assert lines[1].startswith("counterexample: [[0, 1, 'R'], ")
    assert lines[2].startswith("nodes=1034 mode=clauses ")


# --- reports --------------------------------------------------------------------


def test_arrows_golden_report(capsys):
    code, out, _ = run_cli(
        capsys, "arrows", "--host", "K4", "--red", "M2", "--blue", "M2",
        "--deterministic", "--json",
    )
    assert code == 1
    report = json.loads(out)
    for stats in (report["stats"], report["outputs"]["stats"]):
        stats["runtime_ms"] = 0.0
        stats["nodes"] = 0
    golden = json.loads((DATA / "arrows_k4_matchings.json").read_text())
    assert report == golden
    # the outputs block is the library wire schema
    assert set(report["outputs"]) == {"host", "red", "blue", "verdict", "stats", "counterexample"}
    assert set(report["outputs"]["stats"]) == {"nodes", "runtime_ms", "propagation_mode"}


def test_arrows_witness_and_dimacs_files(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    cnf = tmp_path / "out.cnf"
    code, _, _ = run_cli(
        capsys, "arrows", "--host", "K4", "--red", "M2", "--blue", "M2",
        "--deterministic", "--emit-witness", str(witness), "--dimacs", str(cnf),
    )
    assert code == 1
    payload = json.loads(witness.read_text())
    assert payload["coloring"][0] == [0, 1, "R"]
    red = graph6_decode(payload["red_graph6"])
    assert red.edge_count == 3
    text = cnf.read_text()
    assert "p cnf 6 6" in text
    assert "c edge 0 1 var 1" in text


def test_numbers_report_consistency(capsys):
    code, out, _ = run_cli(
        capsys, "numbers", "--red", "M2", "--blue", "M2", "--family", "path", "--json"
    )
    assert code == 0
    report = json.loads(out)
    ramsey = report["outputs"]["ramsey"]
    critical = report["outputs"]["critical"]
    assert ramsey["value"] == 5 and ramsey["catalog"] == 5
    assert ramsey["provenance"] == "search+catalog"
    assert critical["value"] == 5 and critical["closed_form"] == 5
    assert critical["index_unit"] == "vertices"
    assert report["outputs"]["consistent"] is True


def test_numbers_star_examples(capsys):
    code, out, _ = run_cli(capsys, "numbers", "--red", "S2", "--blue", "K3", "--json")
    report = json.loads(out)
    assert code == 0
    assert report["outputs"]["ramsey"]["value"] == 5
    assert report["outputs"]["critical"]["value"] == 2

    code, out, _ = run_cli(capsys, "numbers", "--red", "S2", "--blue", "S2", "--json")
    report = json.loads(out)
    assert code == 0
    assert report["outputs"]["ramsey"]["value"] == 3
    assert report["outputs"]["critical"]["value"] == 0


def test_numbers_reads_the_catalog_for_any_spelling(capsys):
    # K1+E3 is the star S3, so it gets the star-clique rows
    code, out, _ = run_cli(capsys, "numbers", "--red", "K1+E3", "--blue", "K3", "--json")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["ramsey"]["catalog_source"] == "star-clique"
    assert outputs["critical"]["closed_form_source"] == "path-critical star-clique"


def test_numbers_path_critical_scan_of_a_large_clique_ends(capsys):
    # critical_number asks about K64\P2, which holds no K64; the clique walk
    # must stop once too few candidates are left, not try every partial clique
    code, out, _ = run_cli(capsys, "numbers", "--red", "K64", "--blue", "K2", "--max-r", "64")
    assert code == 0
    assert "R(K64, K2) = 64" in out


def test_numbers_edgeless_target(capsys):
    # K1 already holds a red K1, so R(K1, K3) = 1
    code, out, _ = run_cli(capsys, "numbers", "--red", "K1", "--blue", "K3")
    assert code == 0
    assert out.splitlines()[0] == "R(K1, K3) = 1  [search only]"


def test_verify_single_check(capsys):
    code, out, _ = run_cli(
        capsys, "verify-paper", "--only", "star-clique-critical", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == ["star-clique-critical"]
    assert report["checks"][0]["status"] == "pass"


def test_verify_quick_output_is_pinned():
    # every check's status and detail; regenerate the file only for a deliberate change
    report = run_verification(level="quick")
    for check in report["checks"]:
        del check["runtime_ms"]
    assert report == json.loads((DATA / "verify_quick.json").read_text())


def test_run_verification_reports_each_outcome(monkeypatch):
    with pytest.raises(ValueError, match="level must be quick or full, got 'medium'"):
        run_verification(level="medium")
    # a check out of budget is indeterminate and names the host it could not decide
    check = run_verification(only={"star-clique-critical"}, budget=1)["checks"][0]
    assert (check["status"], check["detail"]) == ("indeterminate", "budget exhausted deciding K_5")

    # a check that raises is a failing check, named by the exception
    def crash(budget):
        raise RuntimeError("boom")

    name, level, _ = verify._CHECKS[0]
    monkeypatch.setattr(verify, "_CHECKS", [(name, level, crash), *verify._CHECKS[1:]])
    report = run_verification(only={name})
    assert report["passed"] is False
    check = report["checks"][0]
    assert (check["name"], check["status"], check["detail"]) == (name, "fail", "RuntimeError: boom")


def test_verify_full_level_stretch_skips_on_budget(capsys):
    # the deep fan search may report itself skipped when the budget runs out
    code, out, _ = run_cli(
        capsys, "verify-paper", "--level", "full", "--only", "fan3-triangle-arrowing",
        "--budget", "5", "--json",
    )
    assert code == 0
    report = json.loads(out)
    check = report["checks"][0]
    assert check["status"] == "skip"
    assert "witness half verified" in check["detail"]
    assert report["passed"] is True


def test_verify_writes_summary(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify-paper", "--only", "witness-sweep", "--out", str(out_path)
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["checks"][0]["name"] == "witness-sweep"
    assert "runtime_ms" in report["checks"][0]


# --- fault injection --------------------------------------------------------------


def test_broken_matching_detector_fails_named_check(capsys, monkeypatch):
    # a detector that never finds matchings must surface as a failing check
    monkeypatch.setattr(containment, "_has_matching", lambda g, size: False)
    report = run_verification(only={"containment-detectors"})
    assert report["passed"] is False
    check = report["checks"][0]
    assert check["name"] == "containment-detectors"
    assert check["status"] == "fail"

    code, out, _ = run_cli(
        capsys, "verify-paper", "--only", "containment-detectors", "--json"
    )
    assert code == 1
    named = json.loads(out)["checks"][0]
    assert named["name"] == "containment-detectors" and named["status"] == "fail"


def test_catalog_mismatch_is_reported_not_raised(capsys, monkeypatch):
    # a wrong catalog entry must reach the mismatch report, not escape as a traceback
    monkeypatch.setattr(
        formulas, "known_ramsey", lambda red, blue: formulas.KnownValue(99, "wrong")
    )
    code, out, _ = run_cli(capsys, "numbers", "--red", "M2", "--blue", "M2", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["outputs"]["consistent"] is False
    assert report["outputs"]["ramsey"]["search"] == 5
    assert report["outputs"]["ramsey"]["catalog"] == 99

    code, out, _ = run_cli(capsys, "numbers", "--red", "M2", "--blue", "M2")
    assert code == 1
    assert "PROVENANCE MISMATCH: Ramsey number: search 5 vs catalog 99 (wrong)" in out

    report = run_verification(only={"burr-goodness", "star-clique-critical"})
    assert [c["status"] for c in report["checks"]] == ["fail", "fail"]
    assert all("catalog 99" in c["detail"] for c in report["checks"])
