"""Benchmark harness: dataset generators, experiment runner, CSV emission.

An experiment is described by a line-oriented ``key = value`` config file
(see ``parse_config`` for the schema).  The runner scores every configured
mechanism on every epsilon of the grid, over ``datasets`` generated inputs
with ``runs`` repetitions each, and reports mean plain error and mean
flexible error as percentages of the range [0, B).

Determinism contract: identical config + master seed give a byte-identical
CSV.  Every (dataset, run, mechanism, epsilon) task derives its own stream
seed via split_seed (computed for the whole grid at once, bit for bit the
same), one RngStream re-seeded in place draws each task's stream, and the
runner visits the tasks, and aggregates their results, in fixed index order.
The runner is serial: each task is a chain of small numpy calls that hold
the GIL, so worker threads would only contend for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

from . import mechanisms
from .audit import flexible_error
from .baselines import bns_mech, exp_mech, ptr_mech, sanpoints_mech, ss_mech
from .certificates import solve_q
from .hist import (
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    StatisticKind,
    UndefinedStatisticError,
    eval_statistic,
    parse_statistic,
)
from .mechanisms import (
    UNDEFINED,
    BucketSpec,
    MechParams,
    mech_hbs,
    seed_sequence_words,
    split_seed,
    split_seed_grid,
)

DEFAULT_DELTA = 2.0 ** -20
DEFAULT_DROP_BUDGET = 0.005
DEFAULT_SEED = 20260814
DEFAULT_SANPOINTS_ROUNDS = 8

FLAG_APPROX = "approximate reproduction"
FLAG_NO_CERT = "cert unavailable"

CSV_COLUMNS = ("experiment", "mechanism", "epsilon", "mean_err_pct",
               "mean_flex_err_pct", "stderr_pct", "runs", "flags")

_NUMERIC = frozenset({"max", "min", "maxk", "mode"})
_ANY = _NUMERIC | {"support"}
_STABLE = frozenset({"max", "maxk", "mode"})  # PTR radii, smooth sensitivities

#: the statistics each mechanism can release; ``release`` runs them
RELEASES: dict[str, frozenset[str]] = {
    "buckethist": _ANY, "expmech": _NUMERIC, "ptr": _STABLE,
    "smoothsens": _STABLE, "bnshist": _ANY, "sanpoints": _ANY}
MECHANISMS = tuple(RELEASES)


def check_releasable(name: str, kind: StatisticKind) -> None:
    if kind.name not in RELEASES[name]:
        raise ParameterError(f"mechanism {name} cannot release statistic {kind}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything the runner needs; one instance per experiment."""

    experiment: str
    statistic: StatisticKind
    bound: int
    generator: str
    eps_grid: tuple[float, ...]
    delta: float = DEFAULT_DELTA
    datasets: int = 10
    runs: int = 10
    drop_budget: float = DEFAULT_DROP_BUDGET
    mechanisms: tuple[str, ...] = MECHANISMS
    beta: float | None = None  # None -> bound / 20
    sanpoints_rounds: int = DEFAULT_SANPOINTS_ROUNDS
    scale: float = 1.0
    seed: int = DEFAULT_SEED
    # generator parameters (used according to `generator`)
    median: float = 45.0
    cauchy_scale: float = 4.0
    items: int = 10_000
    zero_last: int = 0
    steps: tuple[tuple[int, int], ...] = ()  # (height, width) blocks
    bars: int = 30
    poisson_mean: float = 250.0

    def __post_init__(self) -> None:
        if not self.eps_grid:
            raise ParameterError("eps_grid must not be empty")
        if any(not 0 < e < math.inf for e in self.eps_grid):
            raise ParameterError("every epsilon must be finite and positive")
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ParameterError("beta must be finite and positive")
        if not 0 < self.delta < 1:
            raise ParameterError("delta must lie in (0,1)")
        if self.datasets < 1 or self.runs < 1:
            raise ParameterError("datasets and runs must be >= 1")
        if not 0 <= self.drop_budget < 1:
            raise ParameterError("drop_budget must lie in [0,1)")
        if not self.bound > 0:
            raise ParameterError("bound must be positive")
        if not 0 < self.scale < math.inf:
            raise ParameterError("scale must be finite and positive")
        if self.sanpoints_rounds < 1:
            raise ParameterError("sanpoints_rounds must be >= 1")
        if not self.mechanisms:
            raise ParameterError("mechanism list must not be empty")
        unknown = [m for m in self.mechanisms if m not in MECHANISMS]
        if unknown:
            raise ParameterError(f"unknown mechanisms: {', '.join(unknown)}")
        if self.statistic.name == "support":
            raise ParameterError("no flexible-error scoring for statistic support")
        for name in self.mechanisms:
            check_releasable(name, self.statistic)
        if self.generator not in ("cauchy", "steps", "poisson"):
            raise ParameterError(f"unknown generator {self.generator!r}")
        if self.generator == "steps" and not self.steps:
            raise ParameterError("steps generator needs a steps = h x w, ... line")
        for height, width in self.steps:
            if height < 0 or width < 0:
                raise ParameterError(f"steps block {height}x{width}: height and width"
                                     " must be >= 0")
            try:  # gen_dataset puts round(height * scale) in an int64 count
                fits = round(height * self.scale) < 2**63
            except OverflowError:  # the height or the product has no float
                fits = False
            if not fits:
                raise ParameterError(f"steps height {height} times scale {self.scale!r}"
                                     " is 2^63 or more")
        if not (math.isfinite(self.median) and 0 < self.cauchy_scale < math.inf
                and 0 <= self.poisson_mean < math.inf):
            raise ParameterError("need finite median, cauchy_scale > 0 and poisson_mean >= 0")
        if self.generator == "cauchy":
            # share of Cauchy draws that land in [0, bound); the generator
            # redraws the rest, so a tiny share would draw (almost) forever
            kept = (math.atan((self.bound - self.median) / self.cauchy_scale)
                    + math.atan(self.median / self.cauchy_scale)) / math.pi
            if kept < 1e-6:
                raise ParameterError(f"only {kept:.3g} of the Cauchy draws land in [0, bound),"
                                     " more than 10^6 draws per kept item")
        if self.items < 1 or self.bars < 1 or not 0 <= self.zero_last < self.bound:
            raise ParameterError("items and bars must be >= 1, and zero_last in [0, bound)")

    @property
    def beta_value(self) -> float:
        return self.bound / 20 if self.beta is None else self.beta


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    mechanism: str
    epsilon: float
    mean_err_pct: float
    mean_flex_err_pct: float
    stderr_pct: float
    runs: int
    flags: str

    def __post_init__(self) -> None:
        for v in (self.mean_err_pct, self.mean_flex_err_pct, self.stderr_pct):
            if not 0 <= v <= 100:
                raise ParameterError(f"percentage {v} outside [0,100]")


# ---------------------------------------------------------------------------
# config file parsing


_LIST_KEYS = {"eps_grid", "mechanisms", "steps"}
_INT_KEYS = {"bound", "datasets", "runs", "sanpoints_rounds", "seed", "items",
             "zero_last", "bars", "k"}
_FLOAT_KEYS = {"delta", "drop_budget", "beta", "scale", "median",
               "cauchy_scale", "poisson_mean"}


def _parse_number(tok: str) -> float:
    """Plain float, with 2^-20 style powers accepted for delta."""
    tok = tok.strip()
    if "^" in tok:
        base, exp = tok.split("^", 1)
        return math.pow(float(base), float(exp))  # ValueError where ** gives a complex or 1/0
    return float(tok)


def _convert(key: str, value: str, convert: Callable):
    try:
        return convert(value)
    except (ValueError, OverflowError) as exc:
        raise ParameterError(f"config key {key!r}: cannot read {value!r} ({exc})") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse a line-oriented ``key = value`` experiment description.

    Lists are comma-separated; ``steps`` blocks are HEIGHTxWIDTH pairs;
    ``#`` starts a comment.  Unknown keys are rejected so typos fail loudly.
    """
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(f"config line {ln}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ParameterError(f"config line {ln}: duplicate key {key!r}")
        raw[key] = value

    known = (_LIST_KEYS | _INT_KEYS | _FLOAT_KEYS
             | {"experiment", "statistic", "generator"})
    unknown = set(raw) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for required in ("experiment", "statistic", "bound", "generator", "eps_grid"):
        if required not in raw:
            raise ParameterError(f"config is missing the {required!r} key")

    kwargs: dict = {
        "experiment": raw["experiment"],
        "generator": raw["generator"].lower(),
    }
    kind = parse_statistic(raw["statistic"],
                           k=_convert("k", raw["k"], int) if "k" in raw else None)
    kwargs["statistic"] = kind
    kwargs["eps_grid"] = tuple(_convert("eps_grid", t, _parse_number)
                               for t in raw["eps_grid"].split(","))
    if "mechanisms" in raw:
        kwargs["mechanisms"] = tuple(t.strip() for t in raw["mechanisms"].split(","))
    if "steps" in raw:
        blocks = []
        for tok in raw["steps"].split(","):
            try:
                h, w = tok.lower().split("x")
                blocks.append((int(h), int(w)))
            except ValueError:
                raise ParameterError(f"bad steps block {tok!r}, expected HEIGHTxWIDTH")
        kwargs["steps"] = tuple(blocks)
    for key in _INT_KEYS - {"k"}:
        if key in raw:
            kwargs[key] = _convert(key, raw[key], int)
    for key in _FLOAT_KEYS:
        if key in raw:
            kwargs[key] = _convert(key, raw[key], _parse_number)
    return ExperimentConfig(**kwargs)


def read_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# dataset generators


def gen_dataset(cfg: ExperimentConfig, rng: mechanisms.RngStream) -> Histogram:
    """One input histogram over [0, bound) according to the generator spec.

    The scale factor multiplies heights (item count for the Cauchy stream),
    preserving the shape of the data.
    """
    space = MetricSpace(1, float(cfg.bound))
    if cfg.generator == "steps":
        widths = [width for _, width in cfg.steps]
        if sum(widths) > cfg.bound:
            raise ParameterError("steps blocks exceed the bound")
        heights = np.array([round(height * cfg.scale) for height, _ in cfg.steps], np.int64)
        counts = np.repeat(heights, widths)
        return Histogram((np.arange(counts.size), counts), space)
    if cfg.generator == "poisson":
        if cfg.bars > cfg.bound:
            raise ParameterError("more bars than the bound allows")
        heights = rng.poisson(cfg.poisson_mean * cfg.scale, size=cfg.bars)
        return Histogram((np.arange(cfg.bars), heights), space)
    # cauchy: inverse-CDF draws, rejecting out-of-range values, then the
    # rightmost zero_last bars are emptied (their items are discarded).
    want = round(cfg.items * cfg.scale)
    keep_below = cfg.bound - cfg.zero_last
    bars = np.zeros(cfg.bound, dtype=np.int64)
    kept = 0
    while kept < want:
        u = rng.random(size=max(64, want - kept))
        draws = cfg.median + cfg.cauchy_scale * np.tan(np.pi * (u - 0.5))
        draws = draws[(draws >= 0) & (draws < cfg.bound)]
        if draws.size > want - kept:
            draws = draws[: want - kept]
        np.add.at(bars, draws.astype(np.int64), 1)
        kept += draws.size
    bars[keep_below:] = 0
    return Histogram((np.arange(cfg.bound), bars), space)


# ---------------------------------------------------------------------------
# our mechanism's parameter derivation


def derive_mech_params(bound: float, beta: float, delta: float, eps: float,
                       n: int) -> tuple[MechParams, tuple[str, ...]]:
    """(alpha, beta, eps) for the bucketed noisy-histogram release.

    q comes from the delta solver, tau = q/n and alpha = tau*t.  When the
    derivation leaves the valid range (tau or alpha >= 1, e.g. a tiny input)
    the run still happens with alpha clamped just below 1, but the result is
    flagged: no certificate covers it.
    """
    q = solve_q(eps, delta)
    t = BucketSpec(w=2.0 * beta, B=float(bound)).bucket_count
    alpha = (q / n) * t
    flags: tuple[str, ...] = ()
    if not alpha < 1:
        alpha = math.nextafter(1.0, 0.0)
        flags = (FLAG_NO_CERT,)
    return MechParams(alpha=alpha, beta=beta, eps=eps, B=float(bound)), flags


def derive_params(cfg: ExperimentConfig, eps: float, n: int) -> tuple[MechParams, tuple[str, ...]]:
    return derive_mech_params(cfg.bound, cfg.beta_value, cfg.delta, eps, n)


# ---------------------------------------------------------------------------
# runner


def release(name: str, kind: StatisticKind, x: Histogram, eps: float, delta: float,
            beta: float, rounds: int, rng: mechanisms.RngStream):
    """Run mechanism ``name`` once on x; returns (released value, row flags).

    Each mechanism is called by its name in this module's globals, so a
    wrapper installed over that name sees every call.  buckethist derives
    its parameters from x's bound and size (its flags say whether a
    certificate covers them); ``rounds`` is sanpoints' round count.
    """
    if name == "buckethist":
        params, flags = derive_mech_params(x.space.bound, beta, delta, eps, x.size)
        return mech_hbs(kind, x, params, rng), flags
    if name == "expmech":
        return exp_mech(kind, x, eps, rng), ()
    if name == "ptr":
        return ptr_mech(kind, x, eps, delta, rng), ()
    if name == "smoothsens":
        return ss_mech(kind, x, eps, delta, rng), ()
    if name == "bnshist":
        return bns_mech(kind, x, eps, delta, rng), ()
    if name == "sanpoints":
        return sanpoints_mech(kind, x, eps, delta, rng, k_rounds=rounds), (FLAG_APPROX,)
    raise ParameterError(f"unknown mechanism {name!r}")


def run_experiment(cfg: ExperimentConfig, threads: int = 1
                   ) -> tuple[list[ResultRow], list[str]]:
    """Score every configured mechanism; returns (rows, metadata lines).

    Rows come out in (mechanism, epsilon) grid order.  The runner is serial:
    ``threads`` must be >= 1 and has no other effect.
    """
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    datasets = [gen_dataset(cfg, mechanisms.RngStream(split_seed(cfg.seed, d)))
                for d in range(cfg.datasets)]
    truths = []
    for d, x in enumerate(datasets):
        if x.size == 0:
            raise DomainError(f"dataset {d} came out empty")
        try:
            truths.append(int(eval_statistic(cfg.statistic, x)))
        except UndefinedStatisticError as exc:
            raise DomainError(f"dataset {d}: statistic undefined on the raw "
                              f"input, nothing to score against") from exc

    # one pass seeds every (dataset, run, mechanism, eps) stream; cell
    # i = d * runs + r holds the tasks of run r on dataset d
    total = cfg.datasets * cfg.runs
    grid = (cfg.datasets, cfg.runs, len(cfg.mechanisms), len(cfg.eps_grid))
    words = seed_sequence_words(split_seed_grid(cfg.seed, (), grid).reshape(total, -1)).tolist()
    tasks = list(itertools.product(cfg.mechanisms, cfg.eps_grid))
    # one contiguous row per (mechanism, eps), its cells in index order:
    # determinism; both errors are capped at the range
    plains = np.empty((len(tasks), total))
    flexes = np.empty((len(tasks), total))
    flags: list[set[str]] = [set() for _ in tasks]
    bound = float(cfg.bound)
    stream = mechanisms.RngStream(0)
    for i in range(total):
        x, truth = datasets[i // cfg.runs], truths[i // cfg.runs]
        released = []
        for t, ((name, eps), row) in enumerate(zip(tasks, words[i])):
            value, row_flags = release(name, cfg.statistic, x, eps, cfg.delta, cfg.beta_value,
                                       cfg.sanpoints_rounds, stream.restate(row))
            released.append(value)
            plains[t, i] = bound if value is UNDEFINED else min(abs(float(value) - truth), bound)
            flags[t].update(row_flags)
        flexes[:, i] = np.minimum(flexible_error(cfg.statistic, x, released, cfg.drop_budget),
                                  bound)

    pct = 100.0 / cfg.bound
    rows: list[ResultRow] = []
    for t, (name, eps) in enumerate(tasks):
        stderr = 0.0 if total < 2 else float(plains[t].std(ddof=1) / math.sqrt(total))
        rows.append(ResultRow(
            experiment=cfg.experiment,
            mechanism=name,
            epsilon=eps,
            mean_err_pct=float(plains[t].mean()) * pct,
            mean_flex_err_pct=float(flexes[t].mean()) * pct,
            stderr_pct=stderr * pct,
            runs=total,
            flags="; ".join(sorted(flags[t])),
        ))
    return rows, _metadata(cfg, datasets)


def _metadata(cfg: ExperimentConfig, datasets: Sequence[Histogram]) -> list[str]:
    """Comment lines echoing the parameter derivation for transparency."""
    lines = [
        f"experiment = {cfg.experiment}",
        f"statistic = {cfg.statistic}",
        f"generator = {cfg.generator}"
        + (" (out-of-range draws rejected and redrawn)" if cfg.generator == "cauchy" else ""),
        f"bound = {cfg.bound}  delta = {cfg.delta!r}  drop_budget = {cfg.drop_budget!r}",
        f"datasets = {cfg.datasets}  runs = {cfg.runs}  scale = {cfg.scale!r}  "
        f"master_seed = {cfg.seed}",
        f"mechanisms = {', '.join(cfg.mechanisms)}",
    ]
    beta = cfg.beta_value
    t = BucketSpec(w=2.0 * beta, B=float(cfg.bound)).bucket_count
    lines.append(f"ours: beta = {beta!r}  w = {2.0 * beta!r}  t = {t}")
    n0 = datasets[0].size
    for eps in cfg.eps_grid:
        q = solve_q(eps, cfg.delta)
        tau = q / n0
        lines.append(f"ours at eps = {eps!r}: q = {q!r}  tau = {tau!r}  "
                     f"alpha = {tau * t!r}  (dataset 0, n = {n0})")
    return lines


# ---------------------------------------------------------------------------
# CSV


def _fmt_eps(eps: float) -> str:
    return repr(float(eps))


def write_csv(rows: Sequence[ResultRow], meta: Sequence[str], out: IO[str]) -> None:
    for line in meta:
        out.write(f"# {line}\n")
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        flags = f'"{row.flags}"' if "," in row.flags else row.flags
        out.write(",".join((
            row.experiment,
            row.mechanism,
            _fmt_eps(row.epsilon),
            f"{row.mean_err_pct:.6f}",
            f"{row.mean_flex_err_pct:.6f}",
            f"{row.stderr_pct:.6f}",
            str(row.runs),
            flags,
        )) + "\n")


def run_to_csv(cfg: ExperimentConfig, out: IO[str], threads: int = 1) -> list[ResultRow]:
    rows, meta = run_experiment(cfg, threads=threads)
    write_csv(rows, meta, out)
    return rows
