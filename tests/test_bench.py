"""Config parsing, dataset generators, and the deterministic experiment runner."""

import hashlib
import io
import math
import threading
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from flexhist import baselines, bench
from flexhist.audit import flexible_error
from flexhist.baselines import bns_mech, exp_mech, ptr_mech, sanpoints_mech, ss_mech
from flexhist.bench import (
    CSV_COLUMNS,
    DEFAULT_DELTA,
    DEFAULT_DROP_BUDGET,
    DEFAULT_SEED,
    FLAG_APPROX,
    FLAG_NO_CERT,
    MECHANISMS,
    RELEASES,
    ExperimentConfig,
    ResultRow,
    check_releasable,
    derive_alpha,
    derive_mech_params,
    gen_dataset,
    parse_config,
    read_config,
    release,
    run_experiment,
    run_to_csv,
    write_csv,
)
from flexhist.certificates import solve_q
from flexhist.hist import (
    MAX,
    MIN,
    MODE,
    STATISTICS,
    SUPPORT,
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    eval_statistic,
    maxk,
    parse_statistic,
)
from flexhist.mechanisms import (
    UNDEFINED,
    BucketSpec,
    RngStream,
    mech_bucket,
    mech_hbs,
    split_seed,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of the run_to_csv bytes, "# " lines included, at datasets = runs = 2
GOLDEN_CSV_SHA256 = {
    "exp1": "2533cda42822bab16d3414839b24fba7a743d706f5e6ccf0e9c72903cdbe935a",
    "exp2": "75d10ab90b83f592d5264c7a31296f19194ed8d0cda408802c29f56fadaa81f3",
    "exp3": "e7c5d30fb94350db7b433a97f5c851740ae5dd5a6f9f4bf382d526532764e500",
    "exp4": "3be4b5b3f3e74976096bf3b4aab802226c01bcb048b71ca4f3564f0cb136208f",
    "exp5": "38b6b3ae3a94727aa3a419dd681428e362b6146a170344fc7d8da8f325b08736",
    "exp6": "82bca0b54b5c54d5daf8f70da3810d4e2b9458159c5589f50026053f525f2878",
}

# the same at each config's shipped size (datasets = runs = 10), where
# sanpoints releases for ten streams at once
GOLDEN_FULL_CSV_SHA256 = {
    "exp1": "f4a9113664ec85c67eedbaaf486a1438c078e743f8f4df70539830a731c12fcb",
    "exp2": "bc6a88d7f43d4798f73851c2815e696f964a238804450f8a00c4719f69da8d74",
    "exp3": "585bdf165e85f0a9d74f624b369cab4f1fa82fb1cc95d660727174796b24ab07",
    "exp4": "3271a1fb076e680bf31cb035a119c39186be0f2002c722337952f4b4bf26434c",
    "exp5": "4abf88ef6450723adaea54aaa6a15dc052b92d2e152685e3f9b1cb4dfc46995b",
    "exp6": "cb7a9ac17737ea60d7e670efaead4ef482cc0385b4495bd7277d8ac79a00e22b",
}

# the same at the shape of the large-hist benchmark: 3,000 Poisson(3000) bars,
# datasets = runs = 2, at threads = 1 and 2
GOLDEN_LARGE_CSV_SHA256 = {
    "max": "89bda6bce2c1c250b0f8ac530b39c3bcf4057bff5c4538383f0bec10fdd29fcc",
    "mode": "585a8361a6631ee2dd6fccbe51474ba8d4368d66420fc16c50982646684b7f7e",
}

BASE_CFG = """
# demo experiment
experiment = demo
statistic = max
bound = 20
generator = steps
steps = 150x2, 1x3
eps_grid = 1.0, 2.0
mechanisms = buckethist, expmech
datasets = 2
runs = 3
delta = 2^-20
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_full():
    cfg = parse_config(BASE_CFG)
    assert cfg.experiment == "demo"
    assert cfg.statistic.name == "max"
    assert cfg.bound == 20
    assert cfg.steps == ((150, 2), (1, 3))
    assert cfg.eps_grid == (1.0, 2.0)
    assert cfg.mechanisms == ("buckethist", "expmech")
    assert cfg.delta == 2.0**-20
    assert cfg.datasets == 2 and cfg.runs == 3
    # untouched defaults
    assert cfg.drop_budget == DEFAULT_DROP_BUDGET
    assert cfg.seed == DEFAULT_SEED
    assert cfg.beta is None and cfg.beta_value == 1.0  # bound / 20


#: for every ExperimentConfig field, a value other than its default and the
#: base config's: as a config line writes it, and as the parsed config holds it
FIELD_SAMPLES = {
    "experiment": ("other", "other"),
    "statistic": ("Mode", MODE),
    "bound": ("50", 50),
    "generator": ("Poisson", "poisson"),
    "eps_grid": ("0.5, 2^-2", (0.5, 0.25)),
    "delta": ("2^-10", 2.0**-10),
    "datasets": ("4", 4),
    "runs": ("5", 5),
    "drop_budget": ("0.01", 0.01),
    "mechanisms": ("expmech, ptr", ("expmech", "ptr")),
    "beta": ("2.5", 2.5),
    "sanpoints_rounds": ("3", 3),
    "scale": ("1.5", 1.5),
    "seed": ("7", 7),
    "median": ("10", 10.0),
    "cauchy_scale": ("2", 2.0),
    "items": ("500", 500),
    "zero_last": ("2", 2),
    "steps": ("3x2, 1X4", ((3, 2), (1, 4))),
    "bars": ("12", 12),
    "poisson_mean": ("9.5", 9.5),
}


@pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
def test_parse_config_reads_every_field(field):
    # a field whose type parse_config has no reader for fails here
    assert list(FIELD_SAMPLES) == [f.name for f in fields(ExperimentConfig)]
    text, want = FIELD_SAMPLES[field.name]
    assert want != getattr(parse_config(BASE_CFG), field.name)
    assert field.default is MISSING or want != field.default
    kept = [l for l in BASE_CFG.splitlines() if l.split("=")[0].strip() != field.name]
    cfg = parse_config("\n".join(kept) + f"\n{field.name} = {text}\n")
    assert getattr(cfg, field.name) == want


def test_parse_config_maxk_threshold():
    cfg = parse_config(
        "experiment = t\nstatistic = maxk\nk = 3\nbound = 10\n"
        "generator = poisson\nbars = 5\neps_grid = 0.5\n")
    assert cfg.statistic == maxk(3)


def test_parse_config_rejects_malformed_input():
    with pytest.raises(ParameterError, match="missing"):
        parse_config("experiment = t\nstatistic = max\nbound = 10\ngenerator = poisson\n")
    with pytest.raises(ParameterError, match="unknown config keys"):
        parse_config(BASE_CFG + "wat = 1\n")
    with pytest.raises(ParameterError, match="duplicate"):
        parse_config(BASE_CFG + "bound = 20\n")
    with pytest.raises(ParameterError, match="key = value"):
        parse_config("experiment\n")
    with pytest.raises(ParameterError, match="steps block"):
        parse_config(BASE_CFG.replace("150x2, 1x3", "150by2"))
    with pytest.raises(ParameterError, match="unknown mechanisms"):
        parse_config(BASE_CFG.replace("expmech", "magic"))
    with pytest.raises(ParameterError, match="max takes no k"):
        parse_config(BASE_CFG + "k = 3\n")
    with pytest.raises(ParameterError, match="maxk needs --k"):
        parse_config(BASE_CFG.replace("statistic = max", "statistic = maxk"))
    with pytest.raises(ParameterError, match="unknown generator"):
        parse_config(BASE_CFG.replace("generator = steps", "generator = zipf"))
    with pytest.raises(ParameterError, match="needs a steps"):
        parse_config("\n".join(l for l in BASE_CFG.splitlines()
                               if not l.startswith("steps")))
    # numbers that do not parse name their key instead of escaping as a
    # plain ValueError or OverflowError
    for key, old, new in [("bound", "20", "abc"), ("runs", "3", "1.5"),
                          ("eps_grid", "1.0, 2.0", "0.1, x"), ("delta", "2^-20", "10^400"),
                          ("delta", "2^-20", "-8^0.5"), ("delta", "2^-20", "0^-1")]:
        with pytest.raises(ParameterError, match=f"config key '{key}'"):
            parse_config(BASE_CFG.replace(f"{key} = {old}", f"{key} = {new}"))
    with pytest.raises(ParameterError, match="config key 'beta'"):
        parse_config(BASE_CFG + "beta =\n")
    with pytest.raises(ParameterError, match="config key 'k'"):
        parse_config(BASE_CFG.replace("statistic = max", "statistic = maxk") + "k = two\n")


def test_config_validation_direct():
    ok = dict(experiment="t", statistic=maxk(2), bound=10, generator="poisson",
              eps_grid=(1.0,))
    ExperimentConfig(**ok)
    with pytest.raises(ParameterError):
        ExperimentConfig(**{**ok, "eps_grid": ()})
    with pytest.raises(ParameterError):
        ExperimentConfig(**{**ok, "eps_grid": (0.0,)})
    with pytest.raises(ParameterError):
        ExperimentConfig(**{**ok, "delta": 1.0})
    with pytest.raises(ParameterError):
        ExperimentConfig(**{**ok, "drop_budget": 1.0})
    with pytest.raises(ParameterError):
        ExperimentConfig(**{**ok, "datasets": 0})
    with pytest.raises(ParameterError):
        ExperimentConfig(**{**ok, "bound": 0})
    with pytest.raises(ParameterError):
        ExperimentConfig(**{**ok, "mechanisms": ()})
    for bad in [{"eps_grid": (1.0, math.inf)}, {"beta": math.inf}, {"beta": 0.0},
                {"beta": -1.0}, {"beta": math.nan}, {"scale": math.inf},
                {"sanpoints_rounds": 0}]:
        with pytest.raises(ParameterError):
            ExperimentConfig(**{**ok, **bad})


GENERATOR_CFG = """
experiment = gen
statistic = max
bound = 100
generator = cauchy
eps_grid = 1.0
mechanisms = buckethist
datasets = 1
runs = 1
"""

BAD_GENERATOR_PARAMETERS = [
    "median = nan", "median = inf",
    "cauchy_scale = nan", "cauchy_scale = 0", "cauchy_scale = -1", "cauchy_scale = inf",
    "poisson_mean = -5", "poisson_mean = nan", "poisson_mean = inf",
    "items = 0", "bars = 0", "zero_last = -1", "zero_last = 100", "zero_last = 150",
    "median = 1e12\ncauchy_scale = 1",  # about 1e-22 of the draws land in range
]


@pytest.mark.parametrize("line", BAD_GENERATOR_PARAMETERS)
def test_parse_config_rejects_bad_generator_parameters(line):
    parse_config(GENERATOR_CFG)
    with pytest.raises(ParameterError):
        parse_config(GENERATOR_CFG + line + "\n")


@pytest.mark.parametrize("line", ["median = -30", "cauchy_scale = 1e-3", "poisson_mean = 0",
                                  "items = 1", "bars = 1", "zero_last = 99"])
def test_parse_config_accepts_edge_generator_parameters(line):
    parse_config(GENERATOR_CFG + line + "\n")


def test_config_rejects_statistics_it_cannot_score_or_release():
    ok = dict(experiment="t", bound=10, generator="poisson", eps_grid=(1.0,))
    with pytest.raises(ParameterError, match="no flexible-error scoring"):
        ExperimentConfig(**ok, statistic=SUPPORT, mechanisms=("buckethist",))
    # the default roster includes ptr and smoothsens, which release no min
    with pytest.raises(ParameterError, match="ptr cannot release statistic min"):
        ExperimentConfig(**ok, statistic=MIN)
    with pytest.raises(ParameterError, match="smoothsens cannot release"):
        parse_config(BASE_CFG.replace("statistic = max", "statistic = min")
                     .replace("expmech", "smoothsens"))
    ExperimentConfig(**ok, statistic=MIN,
                     mechanisms=("buckethist", "expmech", "bnshist", "sanpoints"))


def test_run_experiment_scores_min():
    cfg = parse_config(BASE_CFG.replace("statistic = max", "statistic = min"))
    rows, _ = run_experiment(cfg)
    assert [r.mechanism for r in rows] == ["buckethist"] * 2 + ["expmech"] * 2
    for r in rows:
        assert 0.0 <= r.mean_flex_err_pct <= r.mean_err_pct <= 100.0


def test_result_row_validation():
    with pytest.raises(ParameterError):
        ResultRow("e", "m", 1.0, -0.1, 0.0, 0.0, 10, "")
    with pytest.raises(ParameterError):
        ResultRow("e", "m", 1.0, 0.0, 101.0, 0.0, 10, "")


# ---------------------------------------------------------------------------
# dataset generators


def _steps_cfg(**over):
    base = dict(experiment="t", statistic=parse_config(BASE_CFG).statistic,
                bound=20, generator="steps", eps_grid=(1.0,),
                steps=((1000, 2), (1, 3)))
    base.update(over)
    return ExperimentConfig(**base)


def test_gen_steps_exact():
    x = gen_dataset(_steps_cfg(), RngStream(0))
    assert dict(x.items()) == {(0,): 1000, (1,): 1000, (2,): 1, (3,): 1, (4,): 1}
    assert x.size == 2003


def test_gen_steps_scale_drops_rounded_out_bars():
    x = gen_dataset(_steps_cfg(scale=0.5), RngStream(0))
    assert dict(x.items()) == {(0,): 500, (1,): 500}


def test_gen_steps_must_fit_the_bound():
    with pytest.raises(ParameterError):
        gen_dataset(_steps_cfg(steps=((5, 21),)), RngStream(0))


@pytest.mark.parametrize("steps, scale", [
    (((-5, 10),), 1.0), (((3, -2),), 1.0), (((1, 2), (-1, 1)), 1.0),
    (((10**400, 1),), 1.0),  # no float to scale
    (((2**62, 1),), 2.0),    # a count of 2^63
    (((10**300, 1),), 1e10),  # the product overflows to inf
])
def test_config_rejects_steps_blocks_gen_dataset_cannot_build(steps, scale):
    with pytest.raises(ParameterError, match="steps"):
        _steps_cfg(steps=steps, scale=scale)


def test_config_accepts_empty_and_large_steps_blocks():
    x = gen_dataset(_steps_cfg(steps=((0, 3), (2**62, 1), (4, 0))), RngStream(0))
    assert dict(x.items()) == {(3,): 2**62}


def test_gen_poisson():
    cfg = ExperimentConfig(experiment="t", statistic=parse_config(BASE_CFG).statistic,
                           bound=100, generator="poisson", eps_grid=(1.0,),
                           bars=50, poisson_mean=100.0)
    x = gen_dataset(cfg, RngStream(split_seed(cfg.seed, 0)))
    assert all(0 <= g[0] < 50 for g in x.support())
    assert abs(x.size - 5000) < 400  # total ~ Poisson(5000)
    again = gen_dataset(cfg, RngStream(split_seed(cfg.seed, 0)))
    assert x == again
    with pytest.raises(ParameterError):
        gen_dataset(ExperimentConfig(experiment="t", statistic=cfg.statistic,
                                     bound=10, generator="poisson",
                                     eps_grid=(1.0,), bars=11), RngStream(0))


def test_gen_cauchy():
    cfg = ExperimentConfig(experiment="t", statistic=parse_config(BASE_CFG).statistic,
                           bound=100, generator="cauchy", eps_grid=(1.0,),
                           items=500)
    x = gen_dataset(cfg, RngStream(77))
    assert x.size == 500  # rejection sampling keeps exactly `items`
    assert all(0 <= g[0] < 100 for g in x.support())
    assert x == gen_dataset(cfg, RngStream(77))


def test_gen_cauchy_zero_last():
    cfg = ExperimentConfig(experiment="t", statistic=parse_config(BASE_CFG).statistic,
                           bound=100, generator="cauchy", eps_grid=(1.0,),
                           items=500, zero_last=30)
    x = gen_dataset(cfg, RngStream(77))
    assert all(g[0] < 70 for g in x.support())
    assert 0 < x.size <= 500  # items on the emptied bars are discarded


# ---------------------------------------------------------------------------
# parameter derivation


def test_derive_mech_params_from_delta():
    params, flags = derive_mech_params(space=MetricSpace(1, 100.0), beta=5.0, delta=2.0**-20,
                                       eps=1.0, n=10_000)
    assert flags == ()
    q = 27.42224479056748  # solve_q(1, 2^-20)
    assert params.tau * 10_000 == pytest.approx(q, rel=1e-12)
    assert params.alpha == pytest.approx(q / 1000, rel=1e-12)  # tau * t, t = 10
    assert params.beta == 5.0 and params.t == 10


def test_derive_mech_params_buckets_the_plane_with_the_diagonal_width():
    params, flags = derive_mech_params(MetricSpace(2, 8.0), 0.4, 2.0**-20, 1.0, 10_000)
    assert flags == ()
    assert params.d == 2 and params.w == 0.8 / math.sqrt(2)
    assert params.t == 15**2  # ceil(8 / w) cells per axis
    assert params.alpha == (27.42224479056748 / 10_000) * 225
    with pytest.raises(DomainError, match="buckethist needs a non-empty histogram"):
        derive_mech_params(MetricSpace(2, 8.0), 0.4, 2.0**-20, 1.0, 0)


def test_derive_mech_params_clamps_and_flags_tiny_inputs():
    params, flags = derive_mech_params(space=MetricSpace(1, 100.0), beta=5.0, delta=2.0**-20,
                                       eps=1.0, n=100)
    assert flags == (FLAG_NO_CERT,)
    assert params.alpha == math.nextafter(1.0, 0.0)


# ---------------------------------------------------------------------------
# runner


def test_run_experiment_grid_order_and_scores():
    cfg = parse_config(BASE_CFG)
    rows, meta = run_experiment(cfg)
    assert [(r.mechanism, r.epsilon) for r in rows] == [
        ("buckethist", 1.0), ("buckethist", 2.0),
        ("expmech", 1.0), ("expmech", 2.0)]
    for r in rows:
        assert r.experiment == "demo"
        assert r.runs == 6  # datasets * runs
        assert 0.0 <= r.mean_flex_err_pct <= r.mean_err_pct <= 100.0
        assert r.stderr_pct >= 0.0
    assert meta[0] == "experiment = demo"
    assert any(line.startswith("ours: beta = 1.0") for line in meta)
    assert sum(1 for line in meta if line.startswith("ours at eps")) == 2


def test_run_experiment_thread_count_does_not_change_the_csv():
    cfg = parse_config(BASE_CFG)
    outs = []
    for threads in (1, 4):
        buf = io.StringIO()
        run_to_csv(cfg, buf, threads=threads)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert CSV_COLUMNS == tuple(
        next(l for l in outs[0].splitlines() if not l.startswith("#")).split(","))


@pytest.mark.parametrize("threads", [1, 4])
def test_run_experiment_releases_on_the_calling_thread(monkeypatch, threads):
    idents = []

    def recorded(*args, **kwargs):
        idents.append(threading.get_ident())
        return release(*args, **kwargs)

    monkeypatch.setattr(bench, "release", recorded)
    cfg = parse_config(BASE_CFG)
    run_experiment(cfg, threads=threads)
    # one call per (dataset, mechanism, eps), with the streams of all the runs
    calls = cfg.datasets * len(cfg.mechanisms) * len(cfg.eps_grid)
    assert idents == [threading.get_ident()] * calls


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_run_experiment_rows_are_the_per_task_definition(name):
    # each task on its own stream, scored alone; the runner seeds and scores in bulk
    cfg = replace(read_config(str(CONFIGS / f"{name}.cfg")), datasets=2, runs=2)
    datasets = [gen_dataset(cfg, RngStream(split_seed(cfg.seed, d))) for d in range(cfg.datasets)]
    bound, pct = float(cfg.bound), 100.0 / cfg.bound
    want = []
    for m, mech in enumerate(cfg.mechanisms):
        for e, eps in enumerate(cfg.eps_grid):
            plains, flexes, flags = [], [], set()
            for d, x in enumerate(datasets):
                truth = int(eval_statistic(cfg.statistic, x))
                for r in range(cfg.runs):
                    rng = RngStream(split_seed(cfg.seed, d, r, m, e))
                    value, row_flags = release(mech, cfg.statistic, x, eps, cfg.delta,
                                               cfg.beta_value, cfg.sanpoints_rounds, rng)
                    plains.append(bound if value is UNDEFINED
                                  else min(abs(float(value) - truth), bound))
                    flexes.append(min(flexible_error(cfg.statistic, x, value, cfg.drop_budget),
                                      bound))
                    flags.update(row_flags)
            plains, flexes = np.array(plains), np.array(flexes)
            stderr = float(plains.std(ddof=1) / math.sqrt(plains.size))
            want.append(ResultRow(cfg.experiment, mech, eps, float(plains.mean()) * pct,
                                  float(flexes.mean()) * pct, stderr * pct, plains.size,
                                  "; ".join(sorted(flags))))
    assert run_experiment(cfg)[0] == want


def test_run_experiment_rejects_bad_inputs():
    cfg = parse_config(BASE_CFG)
    with pytest.raises(ParameterError):
        run_experiment(cfg, threads=0)
    empty = _steps_cfg(steps=((0, 5),))
    with pytest.raises(DomainError, match="came out empty"):
        run_experiment(empty)
    undefined = _steps_cfg(statistic=maxk(5000), steps=((2, 3),))
    with pytest.raises(DomainError, match="nothing to score"):
        run_experiment(undefined)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # uint64 wraparound on a numpy scalar
@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_run_to_csv_golden_bytes(name):
    cfg = replace(read_config(str(CONFIGS / f"{name}.cfg")), datasets=2, runs=2)
    buf = io.StringIO()
    run_to_csv(cfg, buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[name]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(GOLDEN_FULL_CSV_SHA256))
def test_run_to_csv_golden_bytes_at_the_shipped_size(name):
    cfg = read_config(str(CONFIGS / f"{name}.cfg"))
    assert (cfg.datasets, cfg.runs) == (10, 10)
    buf = io.StringIO()
    run_to_csv(cfg, buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_FULL_CSV_SHA256[name]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("stat", sorted(GOLDEN_LARGE_CSV_SHA256))
def test_run_to_csv_golden_bytes_on_3000_bars(stat, threads):
    cfg = ExperimentConfig(
        experiment=f"large-{stat}", statistic=parse_statistic(stat), bound=3000,
        generator="poisson", bars=3000, poisson_mean=3000.0, eps_grid=(0.4, 0.8), beta=0.5,
        datasets=2, runs=2, mechanisms=("buckethist", "expmech", "ptr", "bnshist", "sanpoints"))
    buf = io.StringIO()
    run_to_csv(cfg, buf, threads=threads)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_LARGE_CSV_SHA256[stat]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_to_csv_reads_the_master_seed_modulo_2_64():
    cfg = replace(read_config(str(CONFIGS / "exp5.cfg")), datasets=2, runs=2)
    texts = []
    for seed in (-1, 2**64 - 1):
        buf = io.StringIO()
        run_to_csv(replace(cfg, seed=seed), buf)
        texts.append(buf.getvalue())
    assert "master_seed = -1" in texts[0]  # the echo of the config is the one difference
    assert texts[0].replace("master_seed = -1", f"master_seed = {2**64 - 1}") == texts[1]


def test_run_experiment_scores_each_cell_through_the_traced_name(monkeypatch):
    # perfbench traces audit.flexible_error by wrapping bench.flexible_error
    assert bench.flexible_error is flexible_error
    calls = []

    def counted(kind, x, released, budget):
        calls.append(len(released))
        return flexible_error(kind, x, released, budget)

    monkeypatch.setattr(bench, "flexible_error", counted)
    cfg = parse_config(BASE_CFG)
    run_experiment(cfg, threads=2)
    assert calls == [len(cfg.mechanisms) * len(cfg.eps_grid)] * (cfg.datasets * cfg.runs)


def test_run_experiment_releases_each_mechanism_once_per_dataset_and_eps(monkeypatch):
    # perfbench traces each mechanism by wrapping its name in bench's globals
    own = {"mech_hbs": mech_hbs, "exp_mech": exp_mech, "ptr_mech": ptr_mech,
           "ss_mech": ss_mech, "bns_mech": bns_mech, "sanpoints_mech": sanpoints_mech}
    batches, cells = [], []
    for name, fn in RUNS.items():
        real = getattr(bench, fn)
        assert real is own[fn]

        def batched(kind, x, eps, *args, _name=name, _real=real, **kwargs):
            # buckethist's third argument is its MechParams
            batches.append((_name, x, getattr(eps, "eps", eps), len(args[-1])))
            return _real(kind, x, eps, *args, **kwargs)

        monkeypatch.setattr(bench, fn, batched)

    def scored(kind, x, released, budget):
        cells.append(len(released))
        return flexible_error(kind, x, released, budget)

    monkeypatch.setattr(bench, "flexible_error", scored)
    cfg = replace(parse_config(BASE_CFG), mechanisms=MECHANISMS)
    run_experiment(cfg)
    datasets = [gen_dataset(cfg, RngStream(split_seed(cfg.seed, d))) for d in range(cfg.datasets)]
    assert batches == [(name, x, eps, cfg.runs) for x in datasets
                       for name in cfg.mechanisms for eps in cfg.eps_grid]
    assert cells == [len(cfg.mechanisms) * len(cfg.eps_grid)] * (cfg.datasets * cfg.runs)


@pytest.mark.parametrize("name, distinct", [("exp1", 2), ("exp2", 1)])
def test_run_experiment_computes_each_smooth_sensitivity_once(name, distinct):
    # one lookup per (dataset, eps), as ss_mech takes all the runs at once;
    # a miss per distinct (dataset, beta), as before batching
    cfg = replace(read_config(str(CONFIGS / f"{name}.cfg")), mechanisms=("smoothsens",),
                  datasets=2, runs=3)
    run_experiment(cfg)
    info = baselines._ss_cached.cache_info()
    assert info.misses == distinct * len(cfg.eps_grid)
    assert info.hits + info.misses == cfg.datasets * len(cfg.eps_grid)


def test_metadata_echoes_the_unclamped_alpha_of_the_one_derivation():
    cfg = replace(parse_config(BASE_CFG), eps_grid=(0.1, 1.0))
    meta = run_experiment(cfg)[1]
    n = gen_dataset(cfg, RngStream(split_seed(cfg.seed, 0))).size
    clamped = []
    for eps in cfg.eps_grid:
        q, tau, alpha = derive_alpha(cfg.space, cfg.beta_value, cfg.delta, eps, n)
        assert (f"ours at eps = {eps!r}: q = {q!r}  tau = {tau!r}  alpha = {alpha!r}"
                f"  (dataset 0, n = {n})") in meta
        params, flags = derive_mech_params(cfg.space, cfg.beta_value, cfg.delta, eps, n)
        assert (q, tau, alpha) == (solve_q(eps, cfg.delta), q / n, (q / n) * params.t)
        if alpha < 1:
            assert (params.alpha, flags) == (alpha, ())
        else:
            assert (params.alpha, flags) == (math.nextafter(1.0, 0.0), (FLAG_NO_CERT,))
            clamped.append(eps)
    assert clamped == [0.1]  # the line shows the alpha the run clamps


@pytest.mark.parametrize("name, distinct", [("exp1", 10), ("exp2", 1)])
def test_run_experiment_buckets_each_dataset_once(name, distinct):
    # exp1 draws ten different datasets; exp2's step datasets are all equal
    cfg = replace(read_config(str(CONFIGS / f"{name}.cfg")), mechanisms=("buckethist",))
    run_experiment(cfg)
    info = mech_bucket.cache_info()
    assert info.misses == distinct
    # one lookup per (dataset, eps): the release takes all the runs at once
    assert info.hits + info.misses == cfg.datasets * len(cfg.eps_grid)


def test_write_csv_formatting():
    rows = [
        ResultRow("e1", "buckethist", 0.5, 12.25, 3.5, 0.125, 100, ""),
        ResultRow("e1", "sanpoints", 0.5, 1.0, 1.0, 0.0, 100, "a, b"),
    ]
    buf = io.StringIO()
    write_csv(rows, ["note one", "note two"], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# note one"
    assert lines[1] == "# note two"
    assert lines[2] == ",".join(CSV_COLUMNS)
    assert lines[3] == "e1,buckethist,0.5,12.250000,3.500000,0.125000,100,"
    assert lines[4] == 'e1,sanpoints,0.5,1.000000,1.000000,0.000000,100,"a, b"'


def test_mechanism_roster():
    assert MECHANISMS == ("buckethist", "expmech", "ptr", "smoothsens",
                          "bnshist", "sanpoints")
    assert 0 < DEFAULT_DELTA < 1 and 0 < DEFAULT_DROP_BUDGET < 1


# ---------------------------------------------------------------------------
# dispatch: one release per mechanism name

KIND_OF = {"max": MAX, "min": MIN, "maxk": maxk(2), "mode": MODE, "support": SUPPORT}
#: the function each mechanism name runs, by its name in bench's globals
RUNS = {"buckethist": "mech_hbs", "expmech": "exp_mech", "ptr": "ptr_mech",
        "smoothsens": "ss_mech", "bnshist": "bns_mech", "sanpoints": "sanpoints_mech"}


def test_releases_table_and_check_releasable():
    numeric = ["max", "maxk", "min", "mode"]
    assert {name: sorted(stats) for name, stats in RELEASES.items()} == {
        "buckethist": numeric + ["support"], "expmech": numeric,
        "ptr": ["max", "maxk", "mode"], "smoothsens": ["max", "maxk", "mode"],
        "bnshist": numeric + ["support"], "sanpoints": numeric + ["support"]}
    assert MECHANISMS == tuple(RELEASES) == tuple(RUNS)
    assert RELEASES["buckethist"] == frozenset(STATISTICS)  # hist owns the names
    for name in MECHANISMS:
        for stat, kind in KIND_OF.items():
            if stat in RELEASES[name]:
                check_releasable(name, kind)
            else:
                with pytest.raises(ParameterError, match=f"{name} cannot release statistic"):
                    check_releasable(name, kind)


def test_release_returns_what_each_mechanism_returns():
    x = Histogram({3: 500, 7: 300, 12: 40, 15: 2}, MetricSpace(1, 20.0))
    eps, delta, beta, rounds = 1.0, DEFAULT_DELTA, 1.0, 3
    params, flags = derive_mech_params(x.space, beta, delta, eps, x.size)
    assert flags == ()
    own = {
        "buckethist": lambda kind, rng: (mech_hbs(kind, x, params, rng), ()),
        "expmech": lambda kind, rng: (exp_mech(kind, x, eps, rng), ()),
        "ptr": lambda kind, rng: (ptr_mech(kind, x, eps, delta, rng), ()),
        "smoothsens": lambda kind, rng: (ss_mech(kind, x, eps, delta, rng), ()),
        "bnshist": lambda kind, rng: (bns_mech(kind, x, eps, delta, rng), ()),
        "sanpoints": lambda kind, rng: (sanpoints_mech(kind, x, eps, delta, rng,
                                                       k_rounds=rounds), (FLAG_APPROX,)),
    }
    assert tuple(own) == MECHANISMS
    for name in MECHANISMS:
        for stat in sorted(RELEASES[name]):
            for seed in (1, 2):
                kind = KIND_OF[stat]
                got = release(name, kind, x, eps, delta, beta, rounds, RngStream(seed))
                assert got == own[name](kind, RngStream(seed)), (name, stat, seed)
            # a sequence of streams: one result per stream, each as if alone
            kind, seeds = KIND_OF[stat], (1, 2, 2**64 - 1)
            got = release(name, kind, x, eps, delta, beta, rounds,
                          [RngStream(seed) for seed in seeds])
            assert got == [own[name](kind, RngStream(seed)) for seed in seeds], (name, stat)
    tiny = Histogram({3: 2, 7: 1}, MetricSpace(1, 20.0))  # derives alpha >= 1
    assert release("buckethist", MAX, tiny, eps, delta, beta, rounds, RngStream(0))[1] == (
        FLAG_NO_CERT,)
    with pytest.raises(ParameterError, match="unknown mechanism 'nope'"):
        release("nope", MAX, x, eps, delta, beta, rounds, RngStream(0))


def test_release_buckethist_support_in_the_plane():
    # the release used to bucket at the 1-D width and fail on the dimension
    x = Histogram({(0, 0): 5, (0.3, 0.2): 4, (7, 7): 6}, MetricSpace(2, 8.0))
    value, flags = release("buckethist", SUPPORT, x, 1.0, DEFAULT_DELTA, 0.4, 3, RngStream(0))
    assert flags == (FLAG_NO_CERT,)  # 15 elements derive alpha >= 1
    spec = BucketSpec(w=0.8 / math.sqrt(2), B=8.0, d=2)
    assert value == frozenset({spec.center((0, 0)), spec.center((7, 7))})
    assert value == mech_bucket(x, spec).support()  # the noise drops < 1/2 per cell


def test_release_calls_each_mechanism_through_its_module_global(monkeypatch):
    # perfbench traces a mechanism by wrapping its name in bench's globals
    calls = []
    for fn in RUNS.values():
        real = getattr(bench, fn)
        monkeypatch.setattr(bench, fn, lambda *args, _fn=fn, _real=real, **kwargs:
                            calls.append(_fn) or _real(*args, **kwargs))
    x = Histogram({3: 500, 7: 300}, MetricSpace(1, 20.0))
    for name, fn in RUNS.items():
        calls.clear()
        release(name, MAX, x, 1.0, DEFAULT_DELTA, 1.0, 3, RngStream(0))
        assert calls == [fn], name
        calls.clear()  # every mechanism takes all the streams at once
        release(name, MAX, x, 1.0, DEFAULT_DELTA, 1.0, 3, [RngStream(0), RngStream(1)])
        assert calls == [fn], name
