"""The README's library example and command-line block run as written."""

import pathlib
import re
import shlex

from ramarrow import cli

README = pathlib.Path(__file__).parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    block = _block("Library", "python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # a call commented with a bare number returns that number
    calls = re.findall(r"^(\w+\(.*\))\s+# (\d+)$", block, re.M)
    assert len(calls) == 3
    for call, value in calls:
        assert eval(call, namespace) == int(value), call


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    assert len(lines) == 4
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "ramarrow", line
        # a comment "exit N: ..." states the exit code; any other command passes
        stated = re.search(r"# exit (\d+):", line)
        assert cli.main(argv[1:]) == (int(stated.group(1)) if stated else 0), line
        capsys.readouterr()
        for flag in ("--out", "--emit-witness", "--dimacs"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).is_file(), line
