"""Per-layer call counts and self time, measured from outside the program.

While installed, a Tracer replaces each traced function at every
module-level name inside the ``flexhist`` package that refers to it, so a
caller that imported the function by name (``bench`` does
``from .audit import flexible_error``) goes through the wrapper too.  A
class is traced through its ``__init__``, which counts constructions.  A
call's self time is its duration minus the time covered by the traced calls
it made.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

PACKAGE = "flexhist"

#: every traced function or class, as ``<module>.<name>``, in report order
LAYERS = (
    "bench.run_experiment",
    "bench.gen_dataset",
    "mechanisms.mech_hbs",
    "mechanisms.mech_bucket",
    "mechanisms.mech_trlap",
    "hist.eval_statistic",
    "hist.Histogram",
    "baselines.exp_mech",
    "baselines.ptr_mech",
    "baselines.ss_mech",
    "baselines.bns_mech",
    "baselines.sanpoints_mech",
    "audit.flexible_error",
    "transport.winf_lossy",
    "transport.w_avg_lossy",
    "distortion.drmv",
)


class LayerMissing(RuntimeError):
    """A traced name no longer exists in the program."""


class Tracer:
    """Counts calls and self time per layer while installed."""

    def __init__(self):
        self._targets = []
        for layer in LAYERS:
            module, name = layer.split(".")
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            if not hasattr(mod, name):
                raise LayerMissing(f"{PACKAGE}.{layer} no longer exists; "
                                   f"update LAYERS in perfbench/tracing.py")
            self._targets.append((layer, getattr(mod, name)))
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [0]
        self.calls = {layer: 0 for layer, _ in self._targets}
        self.self_ns = {layer: 0 for layer, _ in self._targets}

    def _wrap(self, layer: str, fn):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                children = stack.pop()
                stack[-1] += took
                calls[layer] += 1
                self_ns[layer] += took - children

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, _ in self._targets:
            self.calls[layer] = self.self_ns[layer] = 0
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, target in self._targets:
            if isinstance(target, type):
                self._patch(target, "__init__", self._wrap(layer, target.__init__))
                continue
            wrapper = self._wrap(layer, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer since the last install."""
        return {layer: (self.calls[layer], self.self_ns[layer] / 1e9)
                for layer, _ in self._targets}
