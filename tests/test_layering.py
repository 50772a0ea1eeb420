"""The package's import layering, read from the source with `ast`: each
module imports only the sibling modules below it."""
import ast
from pathlib import Path

import pytest

import triqom

SRC = Path(triqom.__file__).parent

# the siblings each library module may import; `cli` and `__init__` sit on top
LAYERS = {
    "core": set(),
    "dynamics": {"core"},
    "entanglement": {"core"},
    "lindblad": {"core", "dynamics", "entanglement"},
    "nonclassical": {"core", "dynamics"},
}


def _sibling_imports(module: str) -> set[str]:
    """Every sibling `module` imports, at any depth of its source:
    `from .x import ...`, `from . import x` and their absolute forms."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    targets = []  # dotted name of everything imported
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["triqom" if node.level else "", node.module]))
            targets += [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            targets += [a.name for a in node.names]
    return {t.split(".")[1] for t in targets if t.startswith("triqom.")}


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS) | {"__init__", "cli"}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_the_layers_below(module):
    edges = _sibling_imports(module)
    assert edges <= LAYERS[module], f"{module} imports {sorted(edges - LAYERS[module])}"
    # every module above core does import it: the reader sees the edges
    assert module == "core" or "core" in edges


def _print_calls(module: str) -> list[tuple[str, ast.Call]]:
    """Every `print(...)` call in `module`, with the function it sits in."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            found.append((owner, node))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_progress_is_logged_not_printed():
    # the library reports through `logging`; only `cli.main` prints, its errors
    calls = {p.stem: _print_calls(p.stem) for p in SRC.glob("*.py")}
    assert {m for m, found in calls.items() if found} == {"cli"}
    assert [owner for owner, _ in calls["cli"]] == ["main"] * 5
    for _, call in calls["cli"]:
        assert [ast.unparse(k) for k in call.keywords] == ["file=sys.stderr"]
