#!/usr/bin/env python3
"""Benchmark for flexhist, run from the root of a source checkout.

    python3 perfbench/run.py --workload paper-grid --seed 20260814 \\
        --seconds 30 --trace 0

Repeats rounds of timed passes (one pass of each kind the workload has)
until ``--seconds`` have passed, checks every output, and prints one JSON
line: ``correct``, ``attempted`` and ``failed`` operations, and
``metrics``.  With ``--trace 0`` the metrics are end to end; with
``--trace 1`` each pass kind also runs traced, and the metrics are per
layer.  The same line, with the raw samples, goes to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from tracing import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
PROBES = 5


def _import_program() -> None:
    """Put the checkout's sources first on the path; fail without them."""
    if not os.path.isfile(os.path.join(SRC, "flexhist", "__init__.py")):
        sys.exit(f"perfbench: no flexhist sources under {SRC}")
    sys.path.insert(0, SRC)
    import flexhist

    if not os.path.abspath(flexhist.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported flexhist from {flexhist.__file__}, not {SRC}")


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import and prepare the inputs."""
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def _clear_caches() -> None:
    """Empty every functools cache in the program, so no pass reuses work."""
    for key, mod in list(sys.modules.items()):
        if key == "flexhist" or key.startswith("flexhist."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _ss_cache_info():
    from flexhist import baselines

    return baselines._ss_cached.cache_info()


class Run:
    """The timed loop of one run and the samples it collects."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = None
        if trace:
            self.tracer = Tracer()
            _ss_cache_info()  # the hit ratio is a reported layer: fail now if gone
        self.attempted = 0
        self.failed = 0
        self.times = {p.name: [] for p in workload.passes}
        self.traced_times = {p.name: [] for p in workload.passes}
        self.layers = {p.name: [] for p in workload.passes}
        self.cache = [0, 0]  # ss cache hits, misses over traced passes
        self.setup = []

    def _pass(self, kind, traced: bool) -> None:
        _clear_caches()
        self.attempted += kind.ops
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            out = kind.run()
            took = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.failed += kind.ops
            return
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            info = _ss_cache_info()
            self.cache[0] += info.hits
            self.cache[1] += info.misses
            self.layers[kind.name].append(self.tracer.snapshot())
            self.traced_times[kind.name].append(took)
        else:
            self.times[kind.name].append(took)
        kind.check(out)

    def measure(self) -> None:
        start = time.perf_counter()
        due = [start + i * self.seconds / PROBES for i in range(PROBES)]
        rounds = 0
        while True:
            for i, kind in enumerate(self.workload.passes):
                if self.tracer is None:
                    self._pass(kind, False)
                else:  # traced and untraced back to back, alternating order
                    first = (rounds + i) % 2 == 0
                    self._pass(kind, first)
                    self._pass(kind, not first)
                while due and time.perf_counter() >= due[0]:
                    due.pop(0)
                    self.setup.append(_probe_setup(self.workload.name, self.seed))
            rounds += 1
            if time.perf_counter() - start >= self.seconds:
                break
        for _ in due:
            self.setup.append(_probe_setup(self.workload.name, self.seed))
        for kind in self.workload.passes:
            kind.final_check()

    @staticmethod
    def _rate(kinds, times) -> float:
        """Operations per second of one round made of each kind's median pass."""
        if not all(times[k.name] for k in kinds):
            sys.exit("perfbench: every pass of some kind failed; no rate to report")
        return (sum(k.ops for k in kinds)
                / sum(statistics.median(times[k.name]) for k in kinds))

    def end_to_end(self) -> dict:
        kinds = self.workload.passes
        return {
            "ops_per_s": {"value": self._rate(kinds, self.times), "unit": "1/s"},
            "setup_s": {"value": statistics.median(self.setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }

    def per_layer(self) -> dict:
        kinds = self.workload.passes
        out = {}
        for layer in LAYERS:
            calls = sum(statistics.median_low(s[layer][0] for s in self.layers[k.name])
                        for k in kinds)
            self_s = sum(statistics.median(s[layer][1] for s in self.layers[k.name])
                         for k in kinds)
            if layer in self.workload.layers and calls == 0:
                raise RuntimeError(f"layer {layer} saw no calls on {self.workload.name}: "
                                   f"its callers no longer reach the traced name")
            out[f"{layer}.calls"] = {"value": calls, "unit": "count"}
            out[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        lookups = sum(self.cache)
        out["baselines.ss_cache.hit_ratio"] = {
            "value": self.cache[0] / lookups if lookups else 0.0, "unit": "ratio"}
        untraced = self._rate(kinds, self.times)
        traced = self._rate(kinds, self.traced_times)
        out["trace.overhead_pct"] = {"value": 100.0 * (untraced - traced) / untraced,
                                     "unit": "%"}
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20260814)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and prepare the inputs, then exit (times set-up)")
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return 0

    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.measure()
        correct, metrics = True, run.per_layer() if args.trace else run.end_to_end()
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, "pass_seconds": run.times,
                   "traced_pass_seconds": run.traced_times, "layers": run.layers,
                   "setup_seconds": run.setup}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
