"""Every public module-level function or class of the package is used.

A public name (no leading underscore) defined at the top level of a
module in ``src/nccausal/`` must be exported from the package's
``__init__``, referenced from library code outside its own definition,
or be the console-script entry point.  A public method of a public
class must be referenced, as an attribute, from library code outside
its own definition or be listed as ``Class.method`` in the README's
"Public API" section.  Anything else is code that only tests call.
A public function or method that none of the seven experiments enters
at its default config is listed in ``LIBRARY_ONLY``.
"""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import nccausal
from nccausal import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nccausal"


def _exported_names() -> set[str]:
    """The names ``__init__`` imports, and those it exports on first use
    (the string entries of the name tuples in ``_LAZY``, keyed by module)."""
    names = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                               for t in node.targets] == ["_LAZY"]:
            names |= {c.value for v in node.value.values
                      for c in ast.walk(v) if isinstance(c, ast.Constant)}
    return names


def _readme_api() -> dict[str, list[str]]:
    """{module: names} from the bullets of the README's "Public API" section."""
    section = (ROOT / "README.md").read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* `nccausal\.(\w+)`:(.*?)(?=\n\* |\n\n)", section, re.M | re.S)
    return {module: re.findall(r"`(\w+)`", re.split(r"\.\s", text, 1)[0])
            for module, text in bullets}


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_public_names_are_exported_or_used():
    exported = _exported_names()
    # ``[project.scripts]`` by hand: tomllib is not in the 3.10 standard library.
    scripts = (ROOT / "pyproject.toml").read_text().split("\n[project.scripts]\n", 1)[1]
    targets = re.findall(r'^[\w.-]+\s*=\s*"([^"]+)"', scripts.split("\n[", 1)[0], re.M)
    entry_points = {target.replace(":", ".") for target in targets}
    assert "nccausal.cli.main" in entry_points

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


def test_library_modules_use_every_import():
    # A name a module imports and never uses is compiled into every set-up
    # that loads the module; an import kept only for its side effect says so
    # with ``# noqa: F401`` on its line.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.stem}: {alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used
                           and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert unused == []


def test_public_methods_are_used_or_documented():
    section = (ROOT / "README.md").read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([A-Z]\w*\.\w+)`", section))
    references: Counter = Counter()
    methods = []  # (Class.method, its own references)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        references.update(_reference_counts(tree))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                methods += [(f"{cls.name}.{fn.name}", fn.name, _reference_counts(fn))
                            for fn in cls.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    unused = [qualified for qualified, name, own in methods
              if references[name] == own[name] and qualified not in documented]
    assert unused == []
    assert documented <= {qualified for qualified, _, _ in methods}


def _reference_counts(node: ast.AST) -> Counter:
    # A method is reached as an attribute; a local variable of the same
    # name (``strict = poset.strict_pairs()``) is no use of it.
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_readme_public_api_resolves():
    # Every listed name is reached as ``nccausal.<name>``, lazily exported
    # ones included, as the same object as in its module; the list is the
    # export set.
    api = _readme_api()
    assert set(api) == {"hermitian", "poset", "isocone", "minkowski", "spectral", "causal_cone"}
    for module, names in api.items():
        for name in names:
            assert getattr(nccausal, name) is getattr(
                importlib.import_module(f"nccausal.{module}"), name), f"{module}.{name}"
    assert {name for names in api.values() for name in names} == _exported_names()
    assert nccausal.isocone.BlochState is nccausal.hermitian.BlochState
    assert nccausal.isocone.CapIsocone is nccausal.hermitian.CapIsocone


def _defaulted_parameters() -> list[tuple[str, str, int | None, str]]:
    """(qualified name, callee name, position, parameter) for each defaulted
    parameter of a library function.  The position counts a caller's
    positional arguments, so ``self`` and ``cls`` are skipped; it is None
    for a keyword-only parameter.  A class's ``__init__`` is called by the
    class name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [(fn.name, fn.name, fn, 0)
                     for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
            functions += [(f"{cls.name}.{fn.name}", cls.name if fn.name == "__init__" else fn.name,
                           fn, 0 if any(getattr(d, "id", None) == "staticmethod"
                                        for d in fn.decorator_list) else 1)
                          for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for qualified, callee, fn, skip in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found += [(f"{path.stem}.{qualified}", callee, k - skip, a.arg)
                      for k, a in enumerate(positional) if k >= first]
            found += [(f"{path.stem}.{qualified}", callee, None, a.arg)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _call_sites() -> dict[str, list[tuple[float, set]]]:
    """{callee name: [(positional arguments, keywords)]} over every call in
    ``src/``, ``tests/`` and ``bench/``.  A starred argument may fill every
    later position and ``**`` every keyword (``"**"``); ``cls(...)`` inside
    a class calls that class."""
    calls: dict[str, list[tuple[float, set]]] = {}
    for path in sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for cls in (c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)):
            owner.update({id(sub): cls.name for sub in ast.walk(cls)})
        for call in (c for c in ast.walk(tree) if isinstance(c, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name == "cls":
                name = owner.get(id(call), name)
            starred = [k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            keywords = {k.arg or "**" for k in call.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(call.args), keywords))
    return calls


def test_every_defaulted_parameter_is_set_by_some_call():
    # A default that no call overrides is a constant: the function reads it
    # from its module instead, so each decision has one value and one path.
    calls = _call_sites()

    def is_set(callee, position, parameter):
        return any(parameter in keywords or "**" in keywords
                   or (position is not None and position < count)
                   for count, keywords in calls.get(callee, []))
    unset = [f"{qualified}({parameter})" for qualified, callee, position, parameter
             in _defaulted_parameters() if not is_set(callee, position, parameter)]
    assert not unset, "no call sets " + ", ".join(unset)


# Public functions and methods that no experiment enters at its default
# config: they stay for library users and the acceptance criteria.
LIBRARY_ONLY = (
    "causal_cone.ClockProbeReport.inversion_found", "causal_cone.ClockProbeReport.to_json",
    "causal_cone.MatrixField.event_at", "causal_cone.MatrixField.hu",
    "causal_cone.MatrixField.hv", "causal_cone.MatrixField.node_index",
    "causal_cone.cone_condition_at", "causal_cone.eigenvalue_clock_probe",
    "causal_cone.scalar_causal_iff",
    "hermitian.BlochState.projection", "hermitian.HermMat.dim", "hermitian.HermMat.from_pauli",
    "hermitian.HermMat.pauli_coeffs", "hermitian.HermMat.to_json",
    "grids.FutureSetGrid.statuses",
    "hermitian.apply_monotone", "hermitian.commutator", "hermitian.is_psd", "hermitian.op_norm",
    "hermitian.random_herm", "hermitian.spectrum",
    "isocone.cap_induced_order", "isocone.cap_membership", "isocone.lex_induced_order",
    "isocone.lex_membership", "isocone.state_value",
    "minkowski.lambda_closedness_probe", "minkowski.lambda_leq", "minkowski.penrose_map",
    "poset.FinitePoset.antichain", "poset.FinitePoset.chain",
    "spectral.product_state_order", "spectral.spectral_distance",
)


def _public_functions() -> dict[tuple[str, int], str]:
    """{(file, first line): "module.function" or "module.Class.method"} for
    every public module-level function and public method of a public class.
    The first line is the first decorator's, as in ``co_firstlineno``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = [(fn, f"{path.stem}.{fn.name}") for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                named += [(fn, f"{path.stem}.{cls.name}.{fn.name}") for fn in cls.body
                          if isinstance(fn, ast.FunctionDef)]
        for fn, name in named:
            if not fn.name.startswith("_"):
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                found[str(path.resolve()), first] = name
    return found


def test_functions_no_experiment_enters_are_listed(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main([name, "--out", str(tmp_path / name)]) for name in cli.EXPERIMENTS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(cli.EXPERIMENTS)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    public = _public_functions()
    unreached = {name for key, name in public.items() if key not in reached}
    listed = set(LIBRARY_ONLY)
    assert len(listed) == len(LIBRARY_ONLY)
    assert listed <= set(public.values()), "listed names that do not exist"
    assert sorted(unreached - listed) == [], "no experiment enters these; list them"
    assert sorted(listed - unreached) == [], "an experiment enters these; unlist them"
