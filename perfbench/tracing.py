"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each ``branchdual`` module
(and ``Echelon.insert_coeffs`` on its class) at every module that imported
them, so a call through ``cli.closure`` and one through
``inverse_system.closure`` both record a span.  Private helpers are not
wrapped; their time counts as self time of the public function that called
them.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# layer -> (module, names); a name "Class.method" is patched on the class.
LAYERS = {
    "cli.run": ("cli", ["run"]),
    "expressions.parse": ("expressions", ["parse_series", "parse_diffop"]),
    "expressions.format": ("expressions", ["format_series", "format_diffop", "format_rational"]),
    "series.mul": ("series", ["mul"]),
    "series.perp": ("series", ["perp"]),
    "series.divide_by_unit": ("series", ["divide_by_unit"]),
    "linalg.nullspace": ("linalg", ["nullspace"]),
    "linalg.solve": ("linalg", ["solve"]),
    "subalgebra.closure": ("subalgebra", ["closure"]),
    "subalgebra.echelon": ("subalgebra", ["Echelon.insert_coeffs"]),
    "subalgebra.hilbert": ("subalgebra", ["hilbert"]),
    "subalgebra.blowup": ("subalgebra", ["blowup"]),
    "subalgebra.blowup_chain": ("subalgebra", ["blowup_chain"]),
    "subalgebra.membership": ("subalgebra", ["membership"]),
    "inverse_system.natural_set": ("inverse_system", ["natural_set"]),
    "inverse_system.inverse_system": ("inverse_system", ["inverse_system"]),
    "inverse_system.is_algebra_forming": ("inverse_system", ["is_algebra_forming"]),
    "inverse_system.annihilator": ("inverse_system", ["annihilator"]),
    "inverse_system.verify_duality": ("inverse_system", ["verify_duality"]),
    "inverse_system.transport_dual": ("inverse_system", ["transport_dual"]),
    "inverse_system.standard_filtration": ("inverse_system", ["standard_filtration"]),
    "inverse_system.cutting_derivation": ("inverse_system", ["cutting_derivation"]),
    "semigroup": ("semigroup", ["from_generators", "from_staircase", "is_symmetric",
                                "monomial_inverse_system", "gorenstein_check",
                                "saturation_from_characteristic"]),
}

MARK = "_perfbench_layer"


class Span(NamedTuple):
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    job: int


def _target(module, name):
    owner = module
    if "." in name:
        cls, name = name.split(".")
        owner = getattr(module, cls)
    return owner, name


def _modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "branchdual" or n.startswith("branchdual."))]


def _count(counts, layer, args, result):
    if layer == "subalgebra.closure":
        counts["subalgebra.closure.work_trunc"] += result.work_trunc
    elif layer == "subalgebra.echelon":
        counts["subalgebra.echelon.useful"] += result is not None
    elif layer == "linalg.nullspace":
        counts["linalg.nullspace.cells"] += args[0].rows * args[0].cols


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._undo = []

    def wrap(self, layer, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        from branchdual.errors import BranchDualError

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BranchDualError:
                counts[layer + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(layer, start, end, parent, self.job)
                counts[layer + ".calls"] += 1
            _count(counts, layer, args, result)
            return result

        traced.__wrapped__ = fn
        setattr(traced, MARK, layer)
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self):
        import branchdual.cli  # noqa: F401  (loads every module that imports a layer)

        modules = _modules()
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[f"branchdual.{modname}"]
            for name in names:
                owner, attr = _target(module, name)
                orig = owner.__dict__[attr]
                wrapped = self.wrap(layer, orig)
                sites = [owner] if owner is not module else [
                    m for m in modules if m.__dict__.get(attr) is orig]
                for site in sites:
                    setattr(site, attr, wrapped)
                    self._undo.append((site, attr, orig))

    def uninstall(self):
        for site, attr, orig in reversed(self._undo):
            setattr(site, attr, orig)
        self._undo.clear()


def assert_unpatched():
    """Raise unless every layer function at every import site is the original."""
    import branchdual.cli  # noqa: F401

    for m in _modules():
        owners = [m] + [v for v in vars(m).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if hasattr(value, MARK):
                    raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out
