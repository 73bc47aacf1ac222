"""Differentially private histogram release with flexible accuracy guarantees."""

from .hist import (
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    StatisticKind,
    UndefinedStatisticError,
    MAX,
    MIN,
    MODE,
    SUPPORT,
    UNDEFINED,
    dhist,
    dsupp,
    eval_statistic,
    maxk,
    neighbors,
    parse_statistic,
    read_histogram,
    write_histogram,
)
from .transport import DiscreteDistribution, tv_distance, winf, winf_lossy
from .distortion import drmv, drop, move
from .mechanisms import (
    BucketSpec,
    MechParams,
    RngStream,
    mech_bucket,
    mech_buckethist,
    mech_hbs,
    mech_trlap,
    split_seed,
)
from .certificates import (
    AccuracyCert,
    DPCert,
    solve_q,
    trlap_delta,
    trlap_dp_cert,
)
from .audit import dp_delta_exact, flexible_error
from .bench import ExperimentConfig, run_experiment

__version__ = "0.1.0"

__all__ = [
    "AccuracyCert", "BucketSpec", "DPCert", "DiscreteDistribution",
    "DomainError", "ExperimentConfig", "Histogram", "MAX", "MIN", "MODE",
    "MechParams", "MetricSpace", "ParameterError", "RngStream",
    "StatisticKind", "SUPPORT", "UNDEFINED", "UndefinedStatisticError",
    "dhist", "dp_delta_exact", "drmv", "drop", "dsupp",
    "eval_statistic", "flexible_error", "maxk", "mech_bucket",
    "mech_buckethist", "mech_hbs", "mech_trlap", "move",
    "neighbors", "parse_statistic", "read_histogram", "run_experiment",
    "solve_q", "split_seed", "trlap_delta", "trlap_dp_cert", "tv_distance",
    "winf", "winf_lossy", "write_histogram",
]
