"""No ramarrow module reaches into the private names of another."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ramarrow"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _root(node: ast.expr) -> str | None:
    """The name an attribute chain starts from, or None for any other expression."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def private_names(source: str) -> list[str]:
    """Each private name of a ramarrow module that the source imports or reads through a module.

    Both spellings count: `from .x import _y` and `x._y`, where x was bound
    by `from . import x`, `from ramarrow import x` or `import ramarrow.x`.
    """
    tree = ast.parse(source)
    modules = set()  # the local names bound to ramarrow modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ramarrow":
                    modules.add(alias.asname or "ramarrow")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "ramarrow":
                continue
            package = not module if node.level else module == "ramarrow"
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{module.split('.')[-1] or 'ramarrow'}.{alias.name}")
                elif package:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and _root(node) in modules:
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    found = {path.name: private_names(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_name_check_sees_both_spellings():
    source = (
        "from . import graphs\n"
        "import ramarrow.formulas as f\n"
        "import ramarrow.arrowing\n"
        "from .containment import _leaf, target_graph\n"
        "from .graphs import Graph\n"
        "def g():\n"
        "    return graphs._leaf_edges, f._k_colorable, ramarrow.arrowing._lanes\n"
        "ok = graphs.realize, Graph._raw, graphs.__name__\n"
    )
    assert sorted(private_names(source)) == [
        "containment._leaf", "f._k_colorable", "graphs._leaf_edges", "ramarrow.arrowing._lanes",
    ]


def test_only_the_oracles_read_edge_index():
    # graphs defines it, and the oracles keep their own lookup to stay
    # independent; everywhere else an edge's bit is read from Graph.edge_bits
    readers = {
        path.name for path in SRC.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "edge_index"
               for node in ast.walk(ast.parse(path.read_text())))
    }
    assert readers == {"oracles.py"}
