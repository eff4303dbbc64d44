"""Source hygiene: no module under
``src/lingamsort/`` keeps an import it never uses, no private top-level
function or class is left that nothing in ``src/`` refers to, and the
package exports exactly the names that its documented uses take from it."""
import ast
import re
from pathlib import Path

import pytest

import lingamsort

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


def _used_as_ls(text: str) -> set[str]:
    return set(re.findall(r"\bls\.(\w+)", text))


def test_public_names_are_the_documented_ones():
    # the package exports what README's python blocks and the benchmark's
    # data preparation use as ls.<name> and what the acceptance suite
    # imports from it; every other name comes from its submodule
    root = SRC.parent.parent
    blocks = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S)
    acceptance = _tree(root / "tests" / "test_acceptance.py")
    documented = (_used_as_ls("".join(blocks))
                  | _used_as_ls((root / "perfbench" / "prepare.py").read_text())
                  | {a.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
                     and node.module == "lingamsort" for a in node.names})
    assert sorted(lingamsort.__all__) == sorted(documented)
    imported = [a.asname or a.name for node in _tree(SRC / "__init__.py").body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(imported) == sorted(lingamsort.__all__)
