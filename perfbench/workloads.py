"""The benchmark's workloads: their inputs, timed passes and output checks.

A workload is a list of pass kinds.  A pass is one timed call into the
program's public entry points that does a fixed amount of work, counted in
operations; ``check`` runs after every pass and ``final_check`` once after
the timed loop.  Checks compare against ``oracles`` and against properties
that hold independently of the program's current output.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction

import flexhist
from flexhist import baselines, bench, distortion, mechanisms, transport
from flexhist.hist import Histogram, MetricSpace, parse_statistic

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the CSV header the README documents
CSV_HEADER = ("experiment,mechanism,epsilon,mean_err_pct,mean_flex_err_pct,"
              "stderr_pct,runs,flags")
FLAG_NO_CERT = "cert unavailable"

#: layers each workload must reach; tracing fails loudly if one sees no call
GRID_LAYERS = (
    "bench.run_experiment", "bench.gen_dataset", "mechanisms.mech_hbs",
    "mechanisms.mech_bucket", "mechanisms.mech_trlap", "hist.eval_statistic",
    "hist.Histogram", "baselines.exp_mech", "baselines.ptr_mech",
    "baselines.ss_mech", "baselines.bns_mech", "baselines.sanpoints_mech",
    "audit.flexible_error",
)


class CheckFailed(Exception):
    """The program's output disagrees with a reference or a property."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Workload:
    name: str
    passes: list
    layers: tuple[str, ...]


# ---------------------------------------------------------------------------
# release-and-score grids: paper-grid and large-hist


def _release(name: str, cfg, x, eps: float, rng):
    """One release, seeded and parameterised as the README documents."""
    kind = cfg.statistic
    if name == "buckethist":
        params, _ = bench.derive_params(cfg, eps, x.size)
        return mechanisms.mech_hbs(kind, x, params, rng)
    if name == "expmech":
        return baselines.exp_mech(kind, x, eps, rng)
    if name == "ptr":
        return baselines.ptr_mech(kind, x, eps, cfg.delta, rng)
    if name == "smoothsens":
        return baselines.ss_mech(kind, x, eps, cfg.delta, rng)
    if name == "bnshist":
        return baselines.bns_mech(kind, x, eps, cfg.delta, rng)
    if name == "sanpoints":
        return baselines.sanpoints_mech(kind, x, eps, cfg.delta, rng,
                                        k_rounds=cfg.sanpoints_rounds)
    raise ValueError(f"unknown mechanism {name!r}")


class GridPass:
    """One ``bench.run_to_csv`` call on one experiment config, threads=1.

    Every pass must print the same CSV.  ``recompute`` lists the
    (mechanism, epsilon) rows that ``final_check`` rebuilds from the
    per-task seeding ``split_seed(seed, d, r, m, e)`` and the reference
    scorer.
    """

    def __init__(self, cfg, recompute, cert_required: bool):
        self.name = cfg.experiment
        self.cfg = cfg
        self.ops = cfg.datasets * cfg.runs * len(cfg.mechanisms) * len(cfg.eps_grid)
        self.recompute = recompute
        self.cert_required = cert_required
        self._first = None

    def run(self) -> str:
        out = io.StringIO()
        bench.run_to_csv(self.cfg, out, threads=1)
        return out.getvalue()

    def check(self, text: str) -> None:
        if self._first is None:
            self._rows(text)
            self._first = text
        else:
            expect(text == self._first, f"{self.name}: CSV differs between passes")

    def _rows(self, text: str) -> list[list[str]]:
        cfg = self.cfg
        lines = [ln for ln in text.splitlines() if not ln.startswith("# ")]
        expect(lines[:1] == [CSV_HEADER], f"{self.name}: CSV header {lines[:1]}")
        rows = list(csv.reader(lines[1:]))
        grid = [(name, eps) for name in cfg.mechanisms for eps in cfg.eps_grid]
        expect(len(rows) == len(grid), f"{self.name}: {len(rows)} rows, "
                                       f"expected {len(grid)}")
        for row, (name, eps) in zip(rows, grid):
            where = f"{self.name} row {row}"
            expect(len(row) == 8, f"{where}: {len(row)} columns")
            expect(row[0] == cfg.experiment and row[1] == name
                   and float(row[2]) == eps, f"{where}: out of grid order")
            err, flex, stderr = (float(v) for v in row[3:6])
            expect(0 <= flex <= err <= 100 and stderr >= 0,
                   f"{where}: errors out of order or range")
            expect(int(row[6]) == cfg.datasets * cfg.runs, f"{where}: runs column")
            if self.cert_required:
                expect(FLAG_NO_CERT not in row[7], f"{where}: {FLAG_NO_CERT}")
        return rows

    def final_check(self) -> None:
        if self._first is None:  # every pass failed
            return
        cfg = self.cfg
        rows = self._rows(self._first)
        data = []
        for d in range(cfg.datasets):
            x = bench.gen_dataset(cfg, mechanisms.RngStream(
                mechanisms.split_seed(cfg.seed, d)))
            bars = [(g[0], c) for g, c in x.items()]
            m = oracles.drop_allowance(cfg.drop_budget, x.size)
            data.append((x, oracles.truth(cfg.statistic, bars),
                         oracles.reachable(cfg.statistic, bars, m)))
        bound = float(cfg.bound)
        for mi, e in self.recompute:
            plains, flexes = [], []
            for d, (x, truth, points) in enumerate(data):
                for r in range(cfg.runs):
                    rng = mechanisms.RngStream(
                        mechanisms.split_seed(cfg.seed, d, r, mi, e))
                    released = _release(cfg.mechanisms[mi], cfg, x,
                                        cfg.eps_grid[e], rng)
                    if released is flexhist.UNDEFINED:
                        plains.append(bound)
                        flexes.append(bound)
                        continue
                    value = float(released)
                    plains.append(min(abs(value - truth), bound))
                    flexes.append(min(oracles.flexible_error(points, value, bound),
                                      bound))
            pct = 100.0 / bound
            total = len(plains)
            want = (math.fsum(plains) / total * pct, math.fsum(flexes) / total * pct,
                    statistics.stdev(plains) / math.sqrt(total) * pct
                    if total > 1 else 0.0)
            row = rows[mi * len(cfg.eps_grid) + e]
            got = tuple(float(v) for v in row[3:6])
            expect(all(abs(a - b) <= 1e-6 for a, b in zip(want, got)),
                   f"{self.name} row {row}: recomputed {want}")


def paper_grid(seed: int) -> Workload:
    """The six shipped configs with the master seed replaced by ``seed``."""
    passes = []
    for i in range(1, 7):
        cfg = bench.read_config(os.path.join(ROOT, "configs", f"exp{i}.cfg"))
        cfg = replace(cfg, seed=seed)
        n_eps = len(cfg.eps_grid)
        ours = (0, seed % n_eps)  # buckethist is the first mechanism
        other = (1 + seed % (len(cfg.mechanisms) - 1), (seed // n_eps) % n_eps)
        passes.append(GridPass(cfg, [ours, other], cert_required=False))
    return Workload("paper-grid", passes, GRID_LAYERS)


LARGE_MECHANISMS = ("buckethist", "expmech", "ptr", "bnshist", "sanpoints")


def large_hist(seed: int) -> Workload:
    """max and mode on one histogram of 3,000 Poisson(3000) bars."""
    passes = []
    for stat in ("max", "mode"):
        cfg = bench.ExperimentConfig(
            experiment=f"large-{stat}", statistic=parse_statistic(stat),
            bound=3000, generator="poisson", bars=3000, poisson_mean=3000.0,
            eps_grid=(0.4, 0.8), beta=0.5, datasets=1, runs=1,
            mechanisms=LARGE_MECHANISMS, seed=seed)
        grid = [(m, e) for m in range(len(LARGE_MECHANISMS)) for e in range(2)]
        passes.append(GridPass(cfg, grid, cert_required=True))
    layers = tuple(layer for layer in GRID_LAYERS if layer != "baselines.ss_mech")
    return Workload("large-hist", passes, layers)


# ---------------------------------------------------------------------------
# transport and distortion


SPACE = MetricSpace(1, 64.0)
ATOMS = 24
INSTANCES = 8
ETA = 0.5


@dataclass(frozen=True)
class TransportInstance:
    p: transport.DiscreteDistribution
    q: transport.DiscreteDistribution
    gammas: tuple[float, ...]  # 0 < tv/4 < tv/2 < tv, the last rounded up
    x: Histogram
    y: Histogram


def _instance(rnd: random.Random) -> TransportInstance:
    def distribution():
        pts = rnd.sample(range(48), ATOMS)
        weights = [rnd.randint(1, 20) for _ in pts]
        total = sum(weights)
        return transport.DiscreteDistribution(
            [(g, Fraction(w, total)) for g, w in zip(pts, weights)], SPACE)

    p, q = distribution(), distribution()
    tv = oracles.tv([(g[0], w) for g, w in p.atoms], [(g[0], w) for g, w in q.atoms])
    expect(tv > 0, "transport instance with identical distributions")
    top = float(tv)
    if Fraction(top) < tv:
        top = math.nextafter(top, 1.0)
    gammas = (0.0, float(tv / 4), float(tv / 2), top)
    # |y| <= 10 * ATOMS <= |x|, so drmv always has a finite drop part
    x = Histogram({g: rnd.randint(10, 40) for g in rnd.sample(range(48), ATOMS)}, SPACE)
    y = Histogram({g: rnd.randint(1, 10) for g in rnd.sample(range(48), ATOMS)}, SPACE)
    return TransportInstance(p, q, gammas, x, y)


class TransportPass:
    """Per instance: winf_lossy at four losses, w_avg_lossy at tv/2, drmv."""

    name = "transport"

    def __init__(self, instances):
        self.instances = instances
        self.ops = 6 * len(instances)
        self._first = None

    def run(self):
        out = []
        for inst in self.instances:
            winf = tuple(transport.winf_lossy(inst.p, inst.q, g) for g in inst.gammas)
            avg = transport.w_avg_lossy(inst.p, inst.q, inst.gammas[2])
            dr = distortion.drmv(inst.x, inst.y, ETA)
            out.append((winf, avg, dr.value, dr.witness))
        return out

    def check(self, out) -> None:
        if self._first is None:
            self._first = out
        else:
            expect(out == self._first, "transport results differ between passes")

    def final_check(self) -> None:
        if self._first is None:  # every pass failed
            return
        for k, (inst, (winf, avg, drmv_value, z)) in enumerate(
                zip(self.instances, self._first)):
            where = f"transport instance {k}"
            p = [(g[0], w) for g, w in inst.p.atoms]
            q = [(g[0], w) for g, w in inst.q.atoms]
            tv = oracles.tv(p, q)
            expect(Fraction(winf[0]) == oracles.quantile_winf(p, q),
                   f"{where}: W_inf at loss 0 is {winf[0]}, quantile coupling "
                   f"gives {oracles.quantile_winf(p, q)}")
            expect(all(a >= b for a, b in zip(winf, winf[1:])),
                   f"{where}: W_inf grows with the loss: {winf}")
            for g, v in zip(inst.gammas, winf):
                expect((v == 0) == (tv <= Fraction(g)),
                       f"{where}: W_inf = {v} at loss {g}, tv = {float(tv)}")
            expect(avg <= winf[2], f"{where}: W_avg {avg} > W_inf {winf[2]}")
            self._check_witness(where, inst, winf[2])
            self._check_drmv(where, inst, drmv_value, z)

    @staticmethod
    def _check_witness(where, inst, radius) -> None:
        gamma = inst.gammas[2]
        value, coupling = transport.winf_lossy_witness(inst.p, inst.q, gamma)
        expect(value == radius, f"{where}: witness radius {value} != {radius}")
        first: dict = {}
        second: dict = {}
        for a, b, m in coupling.cells:
            expect(m >= 0, f"{where}: negative coupling mass")
            if m > 0:
                expect(abs(Fraction(a[0]) - Fraction(b[0])) <= Fraction(radius),
                       f"{where}: coupling moves {a}->{b} beyond {radius}")
            first[a] = first.get(a, 0) + m
            second[b] = second.get(b, 0) + m
        expect(sum(first.values()) == 1, f"{where}: coupling mass is not 1")
        deviation = sum(
            abs(marginal.get(g, 0) - target.get(g, 0))
            for marginal, target in ((first, dict(inst.p.atoms)),
                                     (second, dict(inst.q.atoms)))
            for g in set(marginal) | set(target))
        expect(deviation <= 2 * Fraction(gamma),
               f"{where}: coupling deviation {float(deviation)} > 2 * {gamma}")

    @staticmethod
    def _check_drmv(where, inst, value, z) -> None:
        x, y = inst.x, inst.y
        expect(z is not None and all(c <= x.count(g) for g, c in z.items()),
               f"{where}: drmv witness is not below x")
        expect(z.size == y.size, f"{where}: drmv witness size {z.size} != {y.size}")
        move = oracles.quantile_winf([(g[0], Fraction(c, z.size)) for g, c in z.items()],
                                     [(g[0], Fraction(c, y.size)) for g, c in y.items()])
        want = float(Fraction(x.size - y.size, x.size)) + ETA * float(move)
        expect(value == want, f"{where}: drmv {value}, its witness gives {want}")


def transport_workload(seed: int) -> Workload:
    rnd = random.Random(seed)
    instances = [_instance(rnd) for _ in range(INSTANCES)]
    return Workload("transport", [TransportPass(instances)],
                    ("transport.winf_lossy", "transport.w_avg_lossy", "distortion.drmv"))


WORKLOADS = {
    "paper-grid": paper_grid,
    "large-hist": large_hist,
    "transport": transport_workload,
}
