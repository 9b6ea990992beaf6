"""The compiled candidate-evaluation kernel (``explore(engine="compiled")``).

This package compiles a frozen specification once into bit-level
tables (:class:`CompiledSpec`), then evaluates candidates over masks
with cross-candidate memoization keyed by relevance projections
(:class:`CompiledEvaluator`).  When numpy is importable the optional
block-vectorized layer (:mod:`repro.compiled.batch`) additionally runs
enumeration and the cheap checks as uint64 bit-plane kernels over
thousands of candidates per call (:func:`active_numpy` says whether
numpy imported; nothing else turns the layer off).  It is the default
engine; the reference pipeline remains available as
``engine="reference"`` and the two are differentially tested to
produce identical fronts, statistics, progress events and logical
traces.  See ``docs/performance.md``.
"""

from __future__ import annotations

from .batch import BlockKernel, active_numpy, numpy_version
from .enumerate import MaskAllocationEnumerator
from .evaluator import CompiledEvaluator, Verdict, compiled_evaluator
from .spec import CompiledSpec, EcsInfo, OptionRec

class _InternTable:
    """One CompiledSpec per live specification object, kept on the
    specification itself (like its possible-allocation expression).

    The compiled tables reference their specification, so the two form
    one cycle that a single garbage collection frees once the caller
    drops the specification.  (A weakly keyed dictionary cannot do
    that: its value would keep its own key alive.)  ``pop`` drops an
    entry early; nothing else the tables own points back at them, so
    refcounting alone then frees them with the specification.
    Specifications never pickle their compiled tables.
    """

    def get(self, spec) -> "CompiledSpec | None":
        return spec._compiled

    def __setitem__(self, spec, compiled: CompiledSpec) -> None:
        spec._compiled = compiled

    def pop(self, spec, default=None):
        compiled, spec._compiled = spec._compiled, None
        return default if compiled is None else compiled


_COMPILED = _InternTable()


def compiled_spec_for(spec) -> CompiledSpec:
    """The interned :class:`CompiledSpec` of a frozen specification."""
    compiled = _COMPILED.get(spec)
    if compiled is None:
        compiled = CompiledSpec(spec)
        _COMPILED[spec] = compiled
    return compiled


__all__ = [
    "BlockKernel",
    "CompiledEvaluator",
    "CompiledSpec",
    "EcsInfo",
    "MaskAllocationEnumerator",
    "OptionRec",
    "Verdict",
    "active_numpy",
    "compiled_evaluator",
    "compiled_spec_for",
    "numpy_version",
]
