"""Every public module-level function or class of the package is used.

A public name (no leading underscore) defined at the top level of a
module in ``src/nccausal/`` must be exported from the package's
``__init__``, referenced from library code outside its own definition,
or be the console-script entry point.  Anything else is code that only
tests call.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nccausal"


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_public_names_are_exported_or_used():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entry_points = {target.replace(":", ".") for target in scripts.values()}

    defined = []  # (module, name)
    references: dict[str, set[tuple[str, str]]] = {}  # name -> {(module, referrer)}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", None)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((module, node.name))
            for ref in _referenced_names(node):
                references.setdefault(ref, set()).add((module, name))

    unused = [f"{module}.{name}" for module, name in defined
              if name not in exported
              and f"nccausal.{module}.{name}" not in entry_points
              and not references.get(name, set()) - {(module, name)}]
    assert unused == []
