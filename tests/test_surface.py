"""Names other code looks up in the package by string must stay defined.

The benchmark's tracer wraps the functions listed in
``perfbench/tracing.py``'s ``LAYERS`` by name, reading them from the
module's ``__dict__`` (or, for ``Class.method``, the class's ``__dict__``);
a missing name would stop the traced benchmark run with a ``KeyError``.
"""

import importlib
import importlib.util
import pathlib

import pytest

import branchdual

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
