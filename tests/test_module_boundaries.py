"""No ramarrow module reaches into the private names of another, and every public name has a caller."""

import ast
import pathlib
import re

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


# oracles.py holds reference implementations that tests compare against:
# it is read like any module, but what it defines need not be reached
REFERENCE = "oracles.py"
ROOT = SRC.parent.parent


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each public top-level function and class, and each public method of a public class."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[node.name] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = item
    return found


def _reads(tree: ast.AST) -> list[tuple[str, frozenset]]:
    """Each name the tree reads, bare or as an attribute, with the definitions around the read."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, inside))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def unreached(modules: dict[str, str], readers: list[str], readme: str) -> list[str]:
    """Each public name of the modules that no caller reaches.

    A name is reached when another module (not __init__.py) or one of the
    readers reads it, when its own module reads it outside its definition,
    or when the README has it as a word.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = {name: _reads(tree) for name, tree in trees.items()}
    outside = {name for source in readers for name, _ in _reads(ast.parse(source))}
    found = []
    for module, tree in trees.items():
        if module == REFERENCE:
            continue
        elsewhere = outside | {
            name for other, pairs in reads.items() if other not in (module, "__init__.py")
            for name, _ in pairs
        }
        for dotted, node in _definitions(tree).items():
            name = dotted.rsplit(".", 1)[-1]
            if not (name in elsewhere
                    or any(read == name and node not in inside for read, inside in reads[module])
                    or re.search(rf"\b{re.escape(name)}\b", readme)):
                found.append(f"{module[:-3]}.{dotted}")
    return sorted(found)


def test_every_public_name_has_a_caller():
    modules = {path.name: path.read_text() for path in SRC.glob("*.py")}
    readers = [path.read_text() for path in (ROOT / "perfbench").glob("*.py")]
    assert unreached(modules, readers, (ROOT / "README.md").read_text()) == []


def test_caller_check_sees_each_way_in():
    modules = {
        "__init__.py": "from .a import dead\nprint(dead)\n",
        "a.py": (
            "def used(): pass\n"
            "def own(): pass\n"
            "def dead(): return dead()\n"
            "def documented(): pass\n"
            "def benched(): pass\n"
            "def _private(): pass\n"
            "class Box:\n"
            "    def take(self): pass\n"
            "    def spare(self): return self.spare\n"
            "    def __len__(self): return 0\n"
            "x = own()\n"
        ),
        "b.py": "from .a import used, Box\nused(); Box().take()\n",
        REFERENCE: "def naive(): pass\n",
    }
    found = unreached(modules, ["import ramarrow.a as a\na.benched()\n"], "`documented(x)`")
    assert found == ["a.Box.spare", "a.dead"]
