"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # a call commented with a bare number returns that number
    calls = re.findall(r"^(\w+\(.*\))\s+# (\d+)$", block, re.M)
    assert len(calls) == 2
    for call, value in calls:
        assert eval(call, namespace) == int(value), call
