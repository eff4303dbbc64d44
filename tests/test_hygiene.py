"""Source hygiene, read with ``ast`` alone: no module under
``src/lingamsort/`` keeps an import it never uses, and no private top-level
function or class is left that nothing in ``src/`` refers to."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lingamsort"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _referenced(tree: ast.AST) -> set[str]:
    """Every name read, and every attribute taken, in ``tree``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", [m for m in MODULES if m.stem != "__init__"],
                         ids=lambda m: m.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - names) == []


def test_every_private_definition_is_referenced():
    trees = {path.stem: _tree(path) for path in MODULES}
    referenced = set().union(*map(_referenced, trees.values()))
    referenced |= {a.name for tree in trees.values() for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names}
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in referenced]
    assert unused == []
