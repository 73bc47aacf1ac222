"""Command-line front end.

Subcommands:
  bench run        run a configured experiment and write the CSV
  mech run         run one mechanism once on a histogram file
  audit dp         exact tight-delta audit of the noise stage vs its certificate
  audit flex       flexible error of a release under a drop budget
  transport winf   lossy worst-case transport distance between two distributions

Every command is deterministic given its --seed.  Exit codes: 0 success,
1 certificate violation (audit commands), 2 usage/parameter errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from fractions import Fraction

from .audit import AuditInstance, dp_delta_exact, flexible_error, trlap_pmf_factory
from .bench import (
    DEFAULT_DELTA,
    DEFAULT_SANPOINTS_ROUNDS,
    DEFAULT_SEED,
    FLAG_NO_CERT,
    MECHANISMS,
    check_releasable,
    derive_mech_params,
    read_config,
    release,
    run_experiment,
    write_csv,
)
from .certificates import (
    buckethist_accuracy_cert,
    hbs_accuracy_cert,
    trlap_delta,
    trlap_dp_cert,
)
from .hist import (
    DomainError,
    Histogram,
    MetricSpace,
    ParameterError,
    check_points,
    parse_statistic,
    read_histogram,
)
from .mechanisms import UNDEFINED, MechParams, RngStream, mech_hbs
from .transport import DiscreteDistribution, winf_lossy


def _read_input_histogram(args) -> Histogram:
    space = None
    if args.bound is not None:
        space = MetricSpace(1, float(args.bound))
    return read_histogram(args.input, space)


def _statistic(args):
    return parse_statistic(args.stat, k=getattr(args, "k", None))


# ---------------------------------------------------------------------------
# bench run


def _cmd_bench_run(args) -> int:
    cfg = read_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    # run before opening --out, so a run that fails leaves no file behind
    rows, meta = run_experiment(cfg, threads=args.threads)
    if args.out == "-":
        write_csv(rows, meta, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, meta, fh)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# mech run


def _cmd_mech_run(args) -> int:
    for option, value in (("--alpha", args.alpha), ("--beta", args.beta)):
        if value is not None and args.mech != "buckethist":
            raise ParameterError(f"{option} applies to --mech buckethist only")
    if not 0 < args.eps < math.inf:
        raise ParameterError("--eps must be finite and positive")
    if not 0 < args.delta < 1:
        raise ParameterError("--delta must lie in (0,1)")
    if args.beta is not None and not 0 < args.beta < math.inf:
        raise ParameterError("--beta must be finite and positive")
    if args.bound is not None and not 0 < args.bound < math.inf:
        raise ParameterError("--bound must be finite and positive")
    kind = _statistic(args)
    x = _read_input_histogram(args)
    rng = RngStream(args.seed)
    print(f"mechanism = {args.mech}")
    print(f"statistic = {kind}")
    print(f"input bars = {len(x)}  elements = {x.size}")
    check_releasable(args.mech, kind)
    bound = x.space.bound
    beta = args.beta if args.beta is not None else bound / 20
    if args.mech != "buckethist":
        _print_release(release(args.mech, kind, x, args.eps, args.delta, beta,
                               DEFAULT_SANPOINTS_ROUNDS, rng)[0])
        return 0

    if args.alpha is not None:
        params = MechParams(alpha=args.alpha, beta=beta, eps=args.eps, B=bound)
        flags = ()
    else:
        params, flags = derive_mech_params(bound, beta, args.delta, args.eps, x.size)
    print(f"params: alpha = {params.alpha:.12g}  beta = {params.beta:.12g}"
          f"  w = {params.w:.12g}  t = {params.t}  tau = {params.tau:.12g}")
    for flag in flags:
        print(f"flag: {flag}")
    _print_release(mech_hbs(kind, x, params, rng))
    if args.alpha is not None or FLAG_NO_CERT in flags:  # the closed form needs one q on both sides
        fixed = "--alpha" if args.alpha is not None else "the clamped alpha"
        print(f"CERT dp unavailable: {fixed} fixes tau, so the noise width tau*|x|"
              " differs between neighbouring inputs")
    else:
        try:
            print(trlap_dp_cert(args.eps, params.tau * x.size).line())
        except ParameterError as exc:
            print(f"CERT dp unavailable: {exc}")
    if FLAG_NO_CERT in flags:
        print("CERT accuracy unavailable: derived alpha >= 1 "
              "(the run clamps it just below 1)")
        return 0
    print(buckethist_accuracy_cert(params).line(), "(histogram release)")
    try:
        print(hbs_accuracy_cert(kind, params).line(), f"(statistic {kind})")
    except ParameterError as exc:
        print(f"CERT accuracy for {kind} unavailable: {exc}")
    return 0


def _print_release(released) -> None:
    if released is UNDEFINED:
        print("released = undefined")
    elif isinstance(released, frozenset):
        pts = sorted(released)
        print("released = {" + ", ".join(str(g) for g in pts) + "}")
    else:
        print(f"released = {released}")


# ---------------------------------------------------------------------------
# audit dp


def _cmd_audit_dp(args) -> int:
    n = args.n
    if n < 2:
        raise ParameterError("--n must be at least 2")
    space = MetricSpace(1, 2)
    instances = [
        ("single-bar", Histogram({0: n}, space), Histogram({0: n - 1}, space)),
        ("two-bar", Histogram({0: n - 1, 1: 1}, space), Histogram({0: n - 1}, space)),
    ]
    factory = trlap_pmf_factory(args.tau)
    try:
        eps_grid = [float(t) for t in args.eps_grid.split(",")]
    except ValueError:
        raise ParameterError(f"--eps-grid {args.eps_grid!r} is not a comma-separated"
                             " list of numbers") from None
    if not all(0 < eps < math.inf for eps in eps_grid):
        raise ParameterError("--eps-grid values must be finite and positive")
    if not math.isfinite(args.tol):
        raise ParameterError("--tol must be a finite number")
    violated = False
    for eps in eps_grid:
        bound = trlap_delta(eps, args.tau * n)
        for label, a, b in instances:
            inst = AuditInstance(x=a, x2=b, pmf_factory=factory)
            exact = dp_delta_exact(inst, eps)
            ok = exact <= bound + args.tol
            if not ok:
                violated = True
            print(f"AUDIT dp {label} eps={eps:.12g} tau={args.tau:.12g} n={n} "
                  f"delta_exact={exact:.12g} bound={bound:.12g} "
                  f"{'OK' if ok else 'VIOLATION'}")
    return 1 if violated else 0


# ---------------------------------------------------------------------------
# audit flex


def _cmd_audit_flex(args) -> int:
    if args.limit is not None and not math.isfinite(args.limit):
        raise ParameterError("--limit must be a finite number")
    kind = _statistic(args)
    x = _read_input_histogram(args)
    try:
        released = UNDEFINED if args.released == "undefined" else float(args.released)
    except ValueError:
        raise ParameterError(f"--released {args.released!r} is neither a number"
                             " nor 'undefined'") from None
    err = flexible_error(kind, x, released, args.budget)
    line = (f"AUDIT flex stat={kind} released={args.released} "
            f"budget={args.budget:.12g} flexible_error={err:.12g}")
    if args.limit is not None:
        ok = err <= args.limit + 1e-12
        print(f"{line} limit={args.limit:.12g} {'OK' if ok else 'VIOLATION'}")
        return 0 if ok else 1
    print(line)
    return 0


# ---------------------------------------------------------------------------
# transport winf


def _read_atoms(path: str) -> list[tuple[tuple, Fraction]]:
    atoms = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                point_tok, mass_tok = line.split()
                pt = tuple(float(Fraction(t)) for t in point_tok.split(","))
                mass = Fraction(mass_tok)
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(
                    f"{path}:{ln}: expected '<point> <mass>', got {raw!r}") from exc
            atoms.append((pt, mass))
    if not atoms:
        raise DomainError(f"{path}: no atoms")
    return atoms


def _cmd_transport_winf(args) -> int:
    pa, qa = _read_atoms(args.p), _read_atoms(args.q)
    dims = {len(pt) for pt, _ in pa + qa}
    if len(dims) != 1:
        raise DomainError("the two distributions have mixed point dimensions")
    bound = args.bound
    if bound is None:  # both sides must share one space
        bound = max(max(pt) for pt, _ in pa + qa) + 1
    space = MetricSpace(dims.pop(), float(bound))
    p, q = DiscreteDistribution(pa, space), DiscreteDistribution(qa, space)
    check_points(p.points() + q.points(), space)
    d = winf_lossy(p, q, args.gamma)
    print(f"winf gamma={args.gamma:.12g} distance={d:.12g}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="flexhist",
        description="Differentially private histogram statistics with "
                    "flexible accuracy guarantees.")
    sub = top.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="benchmark experiments")
    bench_sub = bench.add_subparsers(dest="subcommand", required=True)
    brun = bench_sub.add_parser("run", help="run a config and write CSV")
    brun.add_argument("--config", required=True)
    brun.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    brun.add_argument("--seed", type=int, default=None,
                      help="override the config's master seed")
    brun.add_argument("--threads", type=int, default=1,
                      help="accepted for compatibility and checked (>= 1); the runner is"
                           " serial, so it changes nothing: run one process per config"
                           " to use more cores")
    brun.set_defaults(func=_cmd_bench_run)

    mech = sub.add_parser("mech", help="single mechanism invocations")
    mech_sub = mech.add_subparsers(dest="subcommand", required=True)
    mrun = mech_sub.add_parser("run", help="run one mechanism on a histogram file")
    mrun.add_argument("--mech", required=True, choices=MECHANISMS)
    mrun.add_argument("--stat", required=True)
    mrun.add_argument("--k", type=int, default=None)
    mrun.add_argument("--input", required=True, help="histogram text file")
    mrun.add_argument("--bound", type=float, default=None,
                      help="domain bound B (default: max point + 1)")
    mrun.add_argument("--eps", type=float, required=True)
    mrun.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    mrun.add_argument("--seed", type=int, default=DEFAULT_SEED)
    mrun.add_argument("--beta", type=float, default=None,
                      help="buckethist output-error bound (default B/20)")
    mrun.add_argument("--alpha", type=float, default=None,
                      help="buckethist drop budget (default: derived from eps, delta)")
    mrun.set_defaults(func=_cmd_mech_run)

    audit = sub.add_parser("audit", help="ground-truth checks")
    audit_sub = audit.add_subparsers(dest="subcommand", required=True)
    adp = audit_sub.add_parser("dp", help="exact tight delta vs the closed-form bound")
    adp.add_argument("--tau", type=float, required=True)
    adp.add_argument("--eps-grid", required=True, help="comma-separated epsilons")
    adp.add_argument("--n", type=int, default=10, help="input size (small!)")
    adp.add_argument("--tol", type=float, default=1e-9)
    adp.set_defaults(func=_cmd_audit_dp)
    aflex = audit_sub.add_parser("flex", help="flexible error under a drop budget")
    aflex.add_argument("--stat", required=True)
    aflex.add_argument("--k", type=int, default=None)
    aflex.add_argument("--input", required=True)
    aflex.add_argument("--bound", type=float, default=None)
    aflex.add_argument("--released", required=True,
                       help="released value, or the word 'undefined'")
    aflex.add_argument("--budget", type=float, default=0.005)
    aflex.add_argument("--limit", type=float, default=None,
                       help="fail (exit 1) if the flexible error exceeds this")
    aflex.set_defaults(func=_cmd_audit_flex)

    transport = sub.add_parser("transport", help="transport distances")
    transport_sub = transport.add_subparsers(dest="subcommand", required=True)
    twinf = transport_sub.add_parser("winf", help="lossy worst-case transport distance")
    twinf.add_argument("--p", required=True, help="distribution file: '<point> <mass>' lines")
    twinf.add_argument("--q", required=True)
    twinf.add_argument("--gamma", type=float, required=True)
    twinf.add_argument("--bound", type=float, default=None)
    twinf.set_defaults(func=_cmd_transport_winf)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
