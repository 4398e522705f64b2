"""Names other code looks up in the package by string must stay defined,
and no module keeps a name nothing uses.

The benchmark's tracer wraps the functions listed in
``perfbench/tracing.py``'s ``LAYERS`` by name, reading them from the
module's ``__dict__`` (or, for ``Class.method``, the class's ``__dict__``);
a missing name would stop the traced benchmark run with a ``KeyError``.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import pathlib
import re

import pytest

import branchdual

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
SRC = pathlib.Path(branchdual.__file__).resolve().parent


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [
        (layer, modname, name)
        for layer, (modname, names) in tracing.LAYERS.items()
        for name in names
    ]


@pytest.mark.parametrize("layer, modname, name", _layers())
def test_traced_layer_resolves(layer, modname, name):
    owner = importlib.import_module(f"branchdual.{modname}")
    if "." in name:
        cls, name = name.split(".")
        owner = owner.__dict__[cls]
    assert callable(owner.__dict__[name]), layer


def test_every_exported_name_resolves():
    assert [name for name in branchdual.__all__ if not hasattr(branchdual, name)] == []


# Exported functions that stay with no caller: ``residue`` is the paper's
# residue pairing, which ``rosenlicht``'s Laurent representatives realize.
KEEP = {"residue"}


def test_every_exported_function_is_called_traced_or_kept():
    # a public function that no call in the package makes, that the
    # benchmark's tracer does not wrap and that KEEP does not name is
    # surface nothing needs
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        for call in [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]:
            calls.add(getattr(call.func, "id", getattr(call.func, "attr", None)))
    traced = {name.split(".")[-1] for _, _, name in _layers()}
    functions = [name for name in branchdual.__all__ if inspect.isfunction(getattr(branchdual, name))]
    assert [name for name in functions if name not in calls | traced | KEEP] == []


def _referenced(tree):
    """Every name a module reads, as a variable, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def test_no_unused_import_or_private_definition():
    # in each module but __init__, every imported name is used; every private
    # module-level function or class is referenced somewhere in the package
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = {mod: {n.id for n in ast.walk(t) if isinstance(n, ast.Name)} for mod, t in trees.items()}
    everywhere = set().union(*[_referenced(t) for t in trees.values()])
    unused, dead = [], []
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for a in node.names:
                    name = a.asname or a.name.split(".")[0]
                    if name not in used[mod]:
                        unused.append(f"{mod}: {name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if node.name not in everywhere:
                    dead.append(f"{mod}: {node.name}")
    assert (unused, dead) == ([], [])


def _python_floor():
    """The (3, minor) floor of pyproject.toml's ``requires-python = ">=3.minor"``."""
    text = (SRC.parent.parent / "pyproject.toml").read_text()
    return (3, int(re.search(r'requires-python\s*=\s*">=\s*3\.(\d+)"', text).group(1)))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_parses_as_the_oldest_supported_python(path):
    # no syntax newer than the declared floor: ast rejects, for one, except* under 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())


def _defaulted_parameters(tree, exported):
    """(owner, callee name, parameter, positional index or None) for each
    parameter with a default of the functions and methods in a module whose
    module-level owner is not exported.  The callee name of ``__init__`` is
    its class's; the index counts the arguments a call passes, so a method's
    ``self`` or ``cls`` is not counted, and it is None for a keyword-only one."""
    out = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name in exported:
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.FunctionDef):
                continue
            method = node in top.body if isinstance(top, ast.ClassDef) else False
            bound = method and "staticmethod" not in [getattr(d, "id", None) for d in node.decorator_list]
            callee = top.name if node.name == "__init__" and method else node.name
            label = f"{top.name}.{node.name}" if method else node.name
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            out += [(label, callee, a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            out += [(label, callee, a.arg, None)
                    for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
    return out


def test_every_defaulted_parameter_is_passed_somewhere():
    # a parameter with a default that no call in the package passes is a knob
    # nothing turns: every path runs its default.  Exported names are public
    # surface and exempt, and so is the console entry point cli.main
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    passed = {}  # callee name -> (most positional arguments of a call, keywords any call passes)
    for tree in trees.values():
        for call in [n for n in ast.walk(tree) if isinstance(n, ast.Call)]:
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            most, keywords = passed.get(name, (0, set()))
            n = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
            keys = {k.arg for k in call.keywords}
            passed[name] = (max(most, n), keywords | (keys if None not in keys else {"**"}))
    unturned = []
    for mod, tree in trees.items():
        for owner, callee, param, index in _defaulted_parameters(tree, set(branchdual.__all__)):
            most, keywords = passed.get(callee, (0, set()))
            if f"{mod}.{owner}" != "cli.main" and not (index is not None and most > index or {param, "**"} & keywords):
                unturned.append(f"{mod}.{owner}({param}=…)")
    assert unturned == []
