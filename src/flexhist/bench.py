"""Benchmark harness: dataset generators, experiment runner, CSV emission.

An experiment is described by a line-oriented ``key = value`` config file
(see ``parse_config`` for the schema).  The runner scores every configured
mechanism on every epsilon of the grid, over ``datasets`` generated inputs
with ``runs`` repetitions each, and reports mean plain error and mean
flexible error as percentages of the range [0, B).

Determinism contract: identical config + master seed give a byte-identical
CSV.  Every (dataset, run, mechanism, epsilon) task derives its own stream
seed via split_seed (computed for the whole grid at once, bit for bit the
same).  The runner keeps one stream per run, a numpy Generator from
RngStream(0), re-seeded in place by restate for each task.  On each dataset
it makes one ``release`` call per (mechanism, epsilon) with the streams of
all the runs, which calls the mechanism once with all of them, and it
aggregates the results in fixed index order.  Each stream draws what it
would draw alone.  The runner is serial: each release is a chain of small
numpy calls that hold the GIL, so worker threads would only contend for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import IO, Callable, Sequence

import numpy as np

from .audit import check_scored, flexible_error
from .baselines import bns_mech, exp_mech, ptr_mech, sanpoints_mech, ss_mech
from .certificates import solve_q
from .hist import (
    STATISTICS,
    UNDEFINED,
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
    MechParams,
    RngStream,
    Streams,
    as_streams,
    mech_hbs,
    restate,
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

_ANY = frozenset(STATISTICS)
_NUMERIC = _ANY - {"support"}
_STABLE = frozenset({"max", "maxk", "mode"})  # PTR radii, smooth sensitivities

#: the statistics each mechanism can release; ``release`` runs them
RELEASES: dict[str, frozenset[str]] = {
    "buckethist": _ANY, "expmech": _NUMERIC, "ptr": _STABLE,
    "smoothsens": _STABLE, "bnshist": _ANY, "sanpoints": _ANY}
MECHANISMS = tuple(RELEASES)


def check_releasable(name: str, kind: StatisticKind) -> None:
    if kind.name not in RELEASES[name]:
        raise ParameterError(f"mechanism {name} cannot release statistic {kind}")


def default_beta(bound: float) -> float:
    """buckethist's output-error bound when none is given: B/20."""
    return bound / 20


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
    beta: float | None = None  # None -> default_beta(bound)
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
        check_scored(self.statistic)
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
        return default_beta(self.bound) if self.beta is None else self.beta

    @property
    def space(self) -> MetricSpace:  # the line every dataset lives on
        return MetricSpace(1, float(self.bound))


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


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


# ---------------------------------------------------------------------------
# config file parsing


def _parse_number(tok: str) -> float:
    """Plain float, with 2^-20 style powers accepted for delta."""
    tok = tok.strip()
    if "^" in tok:
        base, exp = tok.split("^", 1)
        return math.pow(float(base), float(exp))  # ValueError where ** gives a complex or 1/0
    return float(tok)


def _parse_block(tok: str) -> tuple[int, int]:
    try:
        h, w = tok.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ParameterError(f"bad steps block {tok!r}, expected HEIGHTxWIDTH") from None


#: how parse_config reads a value, by the type of its ExperimentConfig field
_READERS: dict[str, Callable] = {
    "str": str,
    "int": int,
    "float": _parse_number,
    "float | None": _parse_number,
    "tuple[float, ...]": lambda value: tuple(map(_parse_number, value.split(","))),
    "tuple[str, ...]": lambda value: tuple(tok.strip() for tok in value.split(",")),
    "tuple[tuple[int, int], ...]": lambda value: tuple(map(_parse_block, value.split(","))),
}


def _convert(key: str, value: str, convert: Callable):
    try:
        return convert(value)
    except (ValueError, OverflowError) as exc:
        raise ParameterError(f"config key {key!r}: cannot read {value!r} ({exc})") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse a line-oriented ``key = value`` experiment description.

    Keys are ExperimentConfig's fields (required where it has no default)
    and ``k``; lists are comma-separated; ``steps`` blocks are HEIGHTxWIDTH
    pairs; ``#`` starts a comment.  Unknown keys are rejected so typos fail loudly.
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

    schema = fields(ExperimentConfig)
    unknown = set(raw) - {f.name for f in schema} - {"k"}
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for f in schema:
        if f.default is MISSING and f.name not in raw:
            raise ParameterError(f"config is missing the {f.name!r} key")

    k = _convert("k", raw["k"], int) if "k" in raw else None
    readers = {**_READERS, "StatisticKind": lambda value: parse_statistic(value, k=k)}
    kwargs = {f.name: _convert(f.name, raw[f.name], readers[f.type])
              for f in schema if f.name in raw}
    kwargs["generator"] = kwargs["generator"].lower()
    return ExperimentConfig(**kwargs)


def read_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# dataset generators


def gen_dataset(cfg: ExperimentConfig, rng: np.random.Generator) -> Histogram:
    """One input histogram over [0, bound) according to the generator spec.

    The scale factor multiplies heights (item count for the Cauchy stream),
    preserving the shape of the data.
    """
    if cfg.generator == "steps":
        widths = [width for _, width in cfg.steps]
        if sum(widths) > cfg.bound:
            raise ParameterError("steps blocks exceed the bound")
        heights = np.array([round(height * cfg.scale) for height, _ in cfg.steps], np.int64)
        counts = np.repeat(heights, widths)
        return Histogram((np.arange(counts.size), counts), cfg.space)
    if cfg.generator == "poisson":
        if cfg.bars > cfg.bound:
            raise ParameterError("more bars than the bound allows")
        heights = rng.poisson(cfg.poisson_mean * cfg.scale, size=cfg.bars)
        return Histogram((np.arange(cfg.bars), heights), cfg.space)
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
    return Histogram((np.arange(cfg.bound), bars), cfg.space)


# ---------------------------------------------------------------------------
# our mechanism's parameter derivation


@lru_cache(maxsize=64)
def derive_alpha(space: MetricSpace, beta: float, delta: float, eps: float,
                 n: int) -> tuple[float, float, float]:
    """(q, tau, alpha) for the bucketed noisy-histogram release over space,
    alpha unclamped: q comes from the delta solver, tau = q/n and alpha = tau*t.
    Cached: the CSV comment lines repeat it."""
    if n < 1:
        raise DomainError("buckethist needs a non-empty histogram")
    q = solve_q(eps, delta)
    t = MechParams(alpha=0.0, beta=beta, eps=eps, B=space.bound, d=space.dimension).t
    tau = q / n
    return q, tau, tau * t


@lru_cache(maxsize=64)
def derive_mech_params(space: MetricSpace, beta: float, delta: float, eps: float,
                       n: int) -> tuple[MechParams, tuple[str, ...]]:
    """(alpha, beta, eps) for the bucketed noisy-histogram release over space.

    alpha is derive_alpha's.  When the derivation leaves the valid range
    (tau or alpha >= 1, e.g. a tiny input) the run still happens with alpha
    clamped just below 1, but the result is flagged: no certificate covers
    it.  Cached: datasets of one size repeat it.
    """
    alpha = derive_alpha(space, beta, delta, eps, n)[2]
    flags: tuple[str, ...] = ()
    if not alpha < 1:
        alpha = math.nextafter(1.0, 0.0)
        flags = (FLAG_NO_CERT,)
    return MechParams(alpha, beta, eps, space.bound, space.dimension), flags


def derive_params(cfg: ExperimentConfig, eps: float, n: int) -> tuple[MechParams, tuple[str, ...]]:
    return derive_mech_params(cfg.space, cfg.beta_value, cfg.delta, eps, n)


# ---------------------------------------------------------------------------
# runner


def release(name: str, kind: StatisticKind, x: Histogram, eps: float, delta: float,
            beta: float, rounds: int, rng: Streams):
    """Run mechanism ``name`` on x; returns (released value, row flags).

    ``rng`` is one stream, or a sequence of streams: then the result is a
    list with one (value, flags) per stream, each what release with that
    stream alone returns.  Either way the mechanism is called once, with all
    the streams.

    Each mechanism is called by its name in this module's globals, so a
    wrapper installed over that name sees every call.  buckethist derives
    its parameters from x's space and size (its flags say whether a
    certificate covers them); ``rounds`` is sanpoints' round count.
    """
    streams, one = as_streams(rng)
    flags: tuple[str, ...] = ()
    if name == "buckethist":
        params, flags = derive_mech_params(x.space, beta, delta, eps, x.size)
        values = mech_hbs(kind, x, params, streams)
    elif name == "expmech":
        values = exp_mech(kind, x, eps, streams)
    elif name == "ptr":
        values = ptr_mech(kind, x, eps, delta, streams)
    elif name == "smoothsens":
        values = ss_mech(kind, x, eps, delta, streams)
    elif name == "bnshist":
        values = bns_mech(kind, x, eps, delta, streams)
    elif name == "sanpoints":
        values = sanpoints_mech(kind, x, eps, delta, streams, k_rounds=rounds)
        flags = (FLAG_APPROX,)
    else:
        raise ParameterError(f"unknown mechanism {name!r}")
    return (values[0], flags) if one else [(v, flags) for v in values]


def run_experiment(cfg: ExperimentConfig, threads: int = 1
                   ) -> tuple[list[ResultRow], list[str]]:
    """Score every configured mechanism; returns (rows, metadata lines).

    Rows come out in (mechanism, epsilon) grid order.  The runner is serial:
    ``threads`` must be >= 1 and has no other effect.
    """
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    datasets = [gen_dataset(cfg, RngStream(split_seed(cfg.seed, d)))
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

    # one pass seeds every (dataset, run, mechanism, eps) stream; words[d][t]
    # holds task t's seeds for the runs on dataset d, in run order
    total = cfg.datasets * cfg.runs
    tasks = list(itertools.product(cfg.mechanisms, cfg.eps_grid))
    grid = (cfg.datasets, cfg.runs, len(cfg.mechanisms), len(cfg.eps_grid))
    seeds = split_seed_grid(cfg.seed, (), grid).transpose(0, 2, 3, 1)
    words = seed_sequence_words(seeds.reshape(cfg.datasets, len(tasks), cfg.runs)).tolist()
    # one contiguous row per (mechanism, eps), cell i = d * runs + r holding
    # run r on dataset d: determinism; both errors are capped at the range
    plains = np.empty((len(tasks), total))
    flexes = np.empty((len(tasks), total))
    flags: list[set[str]] = [set() for _ in tasks]
    bound = float(cfg.bound)
    streams = [RngStream(0) for _ in range(cfg.runs)]  # one per run, re-seeded
    for d, (x, truth) in enumerate(zip(datasets, truths)):
        released = []  # one row per task, one value per run
        for t, (name, eps) in enumerate(tasks):
            batch = release(name, cfg.statistic, x, eps, cfg.delta, cfg.beta_value,
                            cfg.sanpoints_rounds,
                            [restate(s, row) for s, row in zip(streams, words[d][t])])
            values = [value for value, _ in batch]
            released.append(values)
            plains[t, d * cfg.runs:(d + 1) * cfg.runs] = [
                bound if value is UNDEFINED else min(abs(float(value) - truth), bound)
                for value in values]
            for _, row_flags in batch:
                flags[t].update(row_flags)
        for r, values in enumerate(zip(*released)):  # one cell: run r's values, task order
            flexes[:, d * cfg.runs + r] = np.minimum(
                flexible_error(cfg.statistic, x, list(values), cfg.drop_budget), bound)

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
    n0 = datasets[0].size
    ours = derive_params(cfg, cfg.eps_grid[0], n0)[0]  # w and t: the same at every eps
    lines.append(f"ours: beta = {ours.beta!r}  w = {ours.w!r}  t = {ours.t}")
    for eps in cfg.eps_grid:
        q, tau, alpha = derive_alpha(cfg.space, cfg.beta_value, cfg.delta, eps, n0)
        lines.append(f"ours at eps = {eps!r}: q = {q!r}  tau = {tau!r}  "
                     f"alpha = {alpha!r}  (dataset 0, n = {n0})")
    return lines


# ---------------------------------------------------------------------------
# CSV


def write_csv(rows: Sequence[ResultRow], meta: Sequence[str], out: IO[str]) -> None:
    for line in meta:
        out.write(f"# {line}\n")
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        flags = f'"{row.flags}"' if "," in row.flags else row.flags
        pcts = (f"{v:.6f}" for v in (row.mean_err_pct, row.mean_flex_err_pct, row.stderr_pct))
        out.write(",".join((row.experiment, row.mechanism, repr(float(row.epsilon)), *pcts,
                            str(row.runs), flags)) + "\n")


def run_to_csv(cfg: ExperimentConfig, out: IO[str], threads: int = 1) -> list[ResultRow]:
    rows, meta = run_experiment(cfg, threads=threads)
    write_csv(rows, meta, out)
    return rows
