"""End-to-end command-line coverage through main(argv)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from flexhist.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

CFG = """
experiment = clidemo
statistic = max
bound = 20
generator = steps
steps = 150x2, 1x3
eps_grid = 1.0
mechanisms = buckethist, expmech
datasets = 1
runs = 2
delta = 2^-20
"""


@pytest.fixture
def hist_file(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("3 500\n7 300\n")
    return str(path)


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CFG)
    return str(path)


# ---------------------------------------------------------------------------
# bench run


def test_bench_run_to_file(tmp_path, cfg_file, capsys):
    out = tmp_path / "rows.csv"
    assert main(["bench", "run", "--config", cfg_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == f"wrote 2 rows to {out}"
    lines = out.read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0].startswith("experiment,mechanism,epsilon,")
    assert len(data) == 3  # header + one row per (mechanism, eps)
    assert data[1].startswith("clidemo,buckethist,1.0,")
    assert data[2].startswith("clidemo,expmech,1.0,")


def test_bench_run_stdout_matches_file_and_threads(tmp_path, cfg_file, capsys):
    assert main(["bench", "run", "--config", cfg_file, "--out", "-"]) == 0
    single = capsys.readouterr().out
    assert main(["bench", "run", "--config", cfg_file, "--out", "-",
                 "--threads", "3"]) == 0
    assert capsys.readouterr().out == single


def test_bench_run_seed_override_lands_in_metadata(cfg_file, capsys):
    assert main(["bench", "run", "--config", cfg_file, "--out", "-",
                 "--seed", "7"]) == 0
    assert "master_seed = 7" in capsys.readouterr().out


def test_bench_run_rejects_unreleasable_statistic_before_writing(tmp_path, capsys):
    cfg = tmp_path / "min.cfg"
    cfg.write_text(CFG.replace("statistic = max", "statistic = min")
                   .replace("expmech", "ptr"))
    out = tmp_path / "rows.csv"
    assert main(["bench", "run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "ptr cannot release statistic min" in capsys.readouterr().err
    assert not out.exists()


def test_bench_run_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CFG + "wat = 1\n")
    assert main(["bench", "run", "--config", str(bad), "--out", "-"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mech run


def test_mech_run_buckethist_with_certificates(hist_file, capsys):
    assert main(["mech", "run", "--mech", "buckethist", "--stat", "max",
                 "--input", hist_file, "--eps", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "mechanism = buckethist" in out
    assert "statistic = max" in out
    assert "input bars = 2  elements = 800" in out
    assert "params: alpha = " in out and " t = 10 " in out
    assert "flag:" not in out  # n = 800 is large enough to certify
    assert "released = " in out
    assert "CERT dp ε=1 δ=9.5367431640" in out  # delta solves back to 2^-20
    assert "(histogram release)" in out
    assert "(statistic max)" in out


def test_mech_run_buckethist_cert_lines_golden(hist_file, tmp_path, capsys):
    three = tmp_path / "three.txt"
    three.write_text("0 30\n1 30\n2 30\n")
    dp = "CERT dp ε=1 δ=9.53674316406e-07"
    acc = "CERT accuracy α=0.342778059882 β=0.4 γ=0 distortion=drop"
    low = "CERT accuracy α=0.0666666666667 β=0.5 γ=0 distortion=drop"
    expected = {
        (hist_file, "max --eps 1.0"): [
            dp, f"{acc} (histogram release)", f"{acc} (statistic max)"],
        (hist_file, "maxk --k 1 --eps 1.0"): [
            dp, f"{acc} (histogram release)", f"{acc} (statistic maxk(1))"],
        (hist_file, "mode --eps 1.0"): [
            dp, f"{acc} (histogram release)",
            "CERT accuracy for mode unavailable: no analytic bound for statistic mode"],
        # derived alpha < 1, but eps*tau*n is too small for the closed-form delta
        (str(three), "max --eps 0.01 --delta 0.5 --beta 0.5 --bound 3"): [
            "CERT dp unavailable: cert unavailable: eps*tau*n = 0.02 < 2",
            f"{low} (histogram release)", f"{low} (statistic max)"],
    }
    for (path, args), want in expected.items():
        assert main(["mech", "run", "--mech", "buckethist", "--input", path,
                     "--stat", *args.split()]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if l.startswith("CERT")] == want


def test_mech_run_fixed_alpha_prints_no_dp_certificate(tmp_path, capsys):
    path = tmp_path / "three.txt"
    path.write_text("0 30\n1 30\n2 30\n")
    # tau = 0.1 is fixed, so a neighbour of 89 elements sees q = 8.9, not 9,
    # and the closed-form delta 0.00965 understates the exact 0.0153
    assert main(["mech", "run", "--mech", "buckethist", "--stat", "max", "--eps", "1",
                 "--beta", "0.5", "--alpha", "0.3", "--bound", "3",
                 "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "params: alpha = 0.3  beta = 0.5  w = 1  t = 3  tau = 0.1" in lines
    assert [l for l in lines if l.startswith("CERT dp")] == [
        "CERT dp unavailable: --alpha fixes tau, so the noise width tau*|x| differs"
        " between neighbouring inputs"]
    assert "CERT accuracy α=0.3 β=0.5 γ=0 distortion=drop (statistic max)" in lines


def test_mech_run_clamped_alpha_prints_no_dp_certificate(tmp_path, capsys):
    path = tmp_path / "clamped.txt"
    path.write_text("0 30\n1 30\n2 5\n")
    # 65 elements derive alpha >= 1, which is clamped: tau is fixed at (1 - 2^-53)/3,
    # and the exact delta against [30, 29, 5] is 4.40e-05, not the closed form's 1.70e-05
    assert main(["mech", "run", "--mech", "buckethist", "--stat", "max", "--eps", "1",
                 "--beta", "0.5", "--bound", "3", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "flag: cert unavailable" in lines
    assert [l for l in lines if l.startswith("CERT")] == [
        "CERT dp unavailable: the clamped alpha fixes tau, so the noise width tau*|x|"
        " differs between neighbouring inputs",
        "CERT accuracy unavailable: derived alpha >= 1 (the run clamps it just below 1)"]


def test_mech_run_buckethist_tiny_input_flags(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("3 2\n7 1\n")
    assert main(["mech", "run", "--mech", "buckethist", "--stat", "max",
                 "--input", str(path), "--eps", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "flag: cert unavailable" in out
    assert "CERT dp unavailable:" in out
    # the clamped alpha certifies nothing, so no accuracy guarantee is printed
    assert "CERT accuracy unavailable: derived alpha >= 1" in out
    assert "CERT accuracy α=" not in out


def test_mech_run_buckethist_support_statistic(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("3 2\n7 1\n")
    # alpha = 0: no noise, so the release is exactly the bucketed support
    assert main(["mech", "run", "--mech", "buckethist", "--stat", "support",
                 "--input", str(path), "--eps", "1.0", "--alpha", "0"]) == 0
    out = capsys.readouterr().out
    assert "released = {(2.8,), (6.8,)}" in out  # w = 8/20 * 2 = 0.8
    assert "CERT dp unavailable:" in out  # tau = 0 certifies nothing


@pytest.mark.parametrize("alpha", [[], ["--alpha", "0.3"]])
def test_mech_run_buckethist_two_dimensional_support(tmp_path, capsys, alpha):
    # B = 8 and beta = 8/20: w = 0.8/sqrt(2) and t = ceil(8/w)^2 = 15^2; the run used
    # to print t = 10 (the 1-D count) and then fail on the bucket dimension
    path = tmp_path / "plane.txt"
    path.write_text("1,2 1\n4,5 1\n7,7 1\n")
    assert main(["mech", "run", "--mech", "buckethist", "--stat", "support",
                 "--input", str(path), "--eps", "1"] + alpha) == 0
    lines = capsys.readouterr().out.splitlines()
    params = next(l for l in lines if l.startswith("params:"))
    assert "  w = 0.565685424949  t = 225  " in params
    released = next(l for l in lines if l.startswith("released = "))
    assert released.count("(") == 3  # one cell centre per point: cells are narrower than 3
    if not alpha:  # 3 elements derive alpha >= 1
        assert "flag: cert unavailable" in lines


def test_mech_run_buckethist_rejects_an_empty_input(tmp_path, capsys):
    # the parameter derivation divided by |x| = 0: a ZeroDivisionError traceback, exit 1
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    assert main(["mech", "run", "--mech", "buckethist", "--stat", "max",
                 "--input", str(path), "--eps", "1"]) == 2
    captured = capsys.readouterr()
    assert "released" not in captured.out
    assert captured.err == "error: buckethist needs a non-empty histogram\n"


@pytest.mark.parametrize("option, value", [("--alpha", "0.3"), ("--beta", "7")])
@pytest.mark.parametrize("mech", ["expmech", "sanpoints"])
def test_mech_run_rejects_buckethist_options_for_other_mechanisms(hist_file, capsys, mech,
                                                                  option, value):
    assert main(["mech", "run", "--mech", mech, "--stat", "max", "--input", hist_file,
                 "--eps", "1.0", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing released
    assert f"error: {option} applies to --mech buckethist only" in captured.err


@pytest.mark.parametrize("mech, stat, error", [
    ("buckethist", "max", "max is defined on 1-D histograms only"),
    ("sanpoints", "mode", "mode is defined on 1-D histograms only"),
    ("expmech", "support", "expmech cannot release statistic support"),
])
def test_mech_run_rejects_before_printing(tmp_path, capsys, mech, stat, error):
    # buckethist printed its params: and flag: lines before failing
    path = tmp_path / "plane.txt"
    path.write_text("1,9 2\n5,0 1\n")
    assert main(["mech", "run", "--mech", mech, "--stat", stat, "--input", str(path),
                 "--eps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err


def test_mech_run_each_baseline(hist_file, capsys):
    for mech in ("expmech", "ptr", "smoothsens", "bnshist", "sanpoints"):
        assert main(["mech", "run", "--mech", mech, "--stat", "max",
                     "--input", hist_file, "--eps", "1.0"]) == 0
        assert "released = " in capsys.readouterr().out


def test_mech_run_undefined_release(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text("3 1\n")
    # count-1 bars never clear the suppression threshold at delta = 2^-20
    assert main(["mech", "run", "--mech", "bnshist", "--stat", "max",
                 "--input", path.as_posix(), "--eps", "1.0"]) == 0
    assert "released = undefined" in capsys.readouterr().out


def test_mech_run_rejects_points_above_the_bound(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("2 3\n7 4\n")
    assert main(["mech", "run", "--mech", "smoothsens", "--stat", "max",
                 "--input", str(path), "--eps", "1", "--bound", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: point 7 outside [0, 5)" in captured.err


def test_mech_run_rejects_negative_points(tmp_path, capsys):
    path = tmp_path / "negative.txt"
    path.write_text("-1 3\n2 4\n")
    assert main(["mech", "run", "--mech", "ptr", "--stat", "max", "--input", str(path),
                 "--eps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: point -1 outside [0, 3)" in captured.err


@pytest.mark.parametrize("mech", ["ptr", "smoothsens"])
def test_mech_run_baselines_reject_non_integer_points(tmp_path, capsys, mech):
    path = tmp_path / "half.txt"
    path.write_text("2.5 3\n4 4\n")
    assert main(["mech", "run", "--mech", mech, "--stat", "max", "--input", str(path),
                 "--eps", "1"]) == 2
    assert "error: baseline mechanisms need integer points in [0, 5), got 2.5" in (
        capsys.readouterr().err)


def test_mech_run_errors(hist_file, capsys):
    assert main(["mech", "run", "--mech", "expmech", "--stat", "maxk",
                 "--input", hist_file, "--eps", "1.0"]) == 2
    assert "maxk needs --k" in capsys.readouterr().err
    assert main(["mech", "run", "--mech", "expmech", "--stat", "max", "--k", "3",
                 "--input", hist_file, "--eps", "1.0"]) == 2
    assert "max takes no k" in capsys.readouterr().err
    assert main(["mech", "run", "--mech", "expmech", "--stat", "nope",
                 "--input", hist_file, "--eps", "1.0"]) == 2
    assert "unknown statistic" in capsys.readouterr().err
    assert main(["mech", "run", "--mech", "expmech", "--stat", "max",
                 "--input", "/does/not/exist", "--eps", "1.0"]) == 2
    assert "error:" in capsys.readouterr().err
    # each of these used to end in a ZeroDivisionError traceback
    for mech, flags, message in [
        ("ptr", ["--eps", "0"], "--eps must be finite and positive"),
        ("bnshist", ["--eps", "0"], "--eps must be finite and positive"),
        ("sanpoints", ["--eps", "0"], "--eps must be finite and positive"),
        ("ptr", ["--eps", "1", "--delta", "0"], "--delta must lie in (0,1)"),
        ("buckethist", ["--eps", "1", "--alpha", "0.5", "--beta", "inf"],
         "--beta must be finite and positive"),
        # these two ended in a ValueError and an OverflowError traceback
        ("buckethist", ["--eps", "1", "--bound", "inf"], "--bound must be finite and positive"),
        ("buckethist", ["--eps", "1", "--bound", "inf", "--beta", "1"],
         "--bound must be finite and positive"),
        ("ptr", ["--eps", "1", "--bound", "0"], "--bound must be finite and positive"),
    ]:
        assert main(["mech", "run", "--mech", mech, "--stat", "max",
                     "--input", hist_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing released
        assert f"error: {message}" in captured.err


@pytest.mark.parametrize("text, message", [
    ("3 9223372036854775808\n", "must be a non-negative integer below 2^63"),
    ("3 4611686018427387904\n5 4611686018427387904\n", "the limit is 2^63 - 1"),
    ("3 -1\n3 4\n", "line 1: count -1 is negative"),  # read as 3 elements at 3 before
])
def test_cli_rejects_counts_past_int64(tmp_path, capsys, text, message):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    for argv in (["mech", "run", "--mech", "ptr", "--eps", "1"],
                 ["audit", "flex", "--released", "3"]):
        assert main(argv + ["--stat", "max", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


# ---------------------------------------------------------------------------
# audit dp


def test_audit_dp_ok(capsys):
    assert main(["audit", "dp", "--tau", "0.5", "--eps-grid", "0.5,1.0",
                 "--n", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # two instances per epsilon
    assert all(line.endswith(" OK") for line in lines)
    assert lines[0].startswith("AUDIT dp single-bar eps=0.5 tau=0.5 n=10 ")
    assert lines[1].startswith("AUDIT dp two-bar eps=0.5 ")


def test_audit_dp_negative_tolerance_forces_violation(capsys):
    assert main(["audit", "dp", "--tau", "0.5", "--eps-grid", "1.0",
                 "--n", "10", "--tol", "-1"]) == 1
    assert "VIOLATION" in capsys.readouterr().out


def test_audit_dp_rejects_tiny_n(capsys):
    assert main(["audit", "dp", "--tau", "0.5", "--eps-grid", "1.0",
                 "--n", "1"]) == 2
    assert "at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--eps-grid", "0.5,x"], "--eps-grid '0.5,x' is not a comma-separated list of numbers"),
    (["--eps-grid", "0.5,"], "--eps-grid '0.5,' is not a comma-separated list of numbers"),
    (["--eps-grid", "inf"], "--eps-grid values must be finite and positive"),
    (["--eps-grid", "0.5,0"], "--eps-grid values must be finite and positive"),
    (["--eps-grid", "0.5", "--tol", "nan"], "--tol must be a finite number"),
])
def test_audit_dp_rejects_unusable_numbers(capsys, flags, message):
    # a bad epsilon ended in a traceback; a nan tolerance printed VIOLATION and exited 1
    assert main(["audit", "dp", "--tau", "0.5", "--n", "4", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_audit_dp_rejects_tau_the_mechanism_rejects(capsys):
    assert main(["audit", "dp", "--tau", "1.5", "--eps-grid", "1.0",
                 "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tau must be in (0,1)" in captured.err


# ---------------------------------------------------------------------------
# audit flex


@pytest.fixture
def flex_file(tmp_path):
    path = tmp_path / "flex.txt"
    path.write_text("1 1\n2 1\n3 1\n100 1\n")
    return str(path)


def test_audit_flex_reports_error(flex_file, capsys):
    assert main(["audit", "flex", "--stat", "max", "--input", flex_file,
                 "--bound", "101", "--released", "5", "--budget", "0.25"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ("AUDIT flex stat=max released=5 budget=0.25 "
                   "flexible_error=2")


def test_audit_flex_limit_gate(flex_file, capsys):
    ok = ["audit", "flex", "--stat", "max", "--input", flex_file,
          "--bound", "101", "--released", "5", "--budget", "0.25"]
    assert main(ok + ["--limit", "3"]) == 0
    assert capsys.readouterr().out.strip().endswith("limit=3 OK")
    assert main(ok + ["--limit", "1"]) == 1
    assert capsys.readouterr().out.strip().endswith("limit=1 VIOLATION")


def test_audit_flex_min(flex_file, capsys):
    assert main(["audit", "flex", "--stat", "min", "--input", flex_file,
                 "--bound", "101", "--released", "5", "--budget", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == (
        "AUDIT flex stat=min released=5 budget=0.5 flexible_error=2")


def test_audit_flex_budget_just_below_a_drop_count(tmp_path, capsys):
    path = tmp_path / "flex.txt"
    path.write_text("0 7\n9 3\n")
    # 0.29999999999 * 10 drops allow 2, which leaves a 9 in the data
    assert main(["audit", "flex", "--stat", "max", "--input", str(path),
                 "--released", "0", "--budget", "0.29999999999"]) == 0
    assert capsys.readouterr().out.strip() == (
        "AUDIT flex stat=max released=0 budget=0.29999999999 flexible_error=9")


def test_audit_flex_rejects_two_dimensional_input(tmp_path, capsys):
    path = tmp_path / "flex2d.txt"
    path.write_text("1,9 2\n5,0 1\n")
    assert main(["audit", "flex", "--stat", "max", "--input", str(path),
                 "--released", "5", "--budget", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max is defined on 1-D histograms only" in captured.err


@pytest.mark.parametrize("released", ["nan", "inf", "-inf", "1e999", "abc", ""])
def test_audit_flex_rejects_values_that_are_not_finite_numbers(flex_file, capsys, released):
    # nan printed VIOLATION and exited 1; inf printed flexible_error=inf and exited 0
    assert main(["audit", "flex", "--stat", "max", "--input", flex_file,
                 f"--released={released}", "--limit", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("limit", ["nan", "inf", "-inf"])
def test_audit_flex_rejects_a_limit_that_is_not_a_finite_number(flex_file, capsys, limit):
    # nan printed VIOLATION and exited 1
    assert main(["audit", "flex", "--stat", "max", "--input", flex_file,
                 "--released", "5", f"--limit={limit}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --limit must be a finite number" in captured.err


def test_audit_flex_undefined_release_scores_the_range(flex_file, capsys):
    assert main(["audit", "flex", "--stat", "max", "--input", flex_file,
                 "--bound", "101", "--released", "undefined"]) == 0
    assert "flexible_error=101" in capsys.readouterr().out


@pytest.mark.parametrize("budget", ["nan", "5", "1", "-0.1"])
def test_audit_flex_undefined_release_checks_the_budget(flex_file, capsys, budget):
    # an undefined release used to skip the check: budget=nan printed an error and exited 0
    assert main(["audit", "flex", "--stat", "max", "--input", flex_file,
                 "--released", "undefined", "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: drop budget must be in [0,1)" in captured.err


def test_audit_flex_rejects_support_even_when_undefined(tmp_path, capsys):
    # an undefined support release used to print flexible_error=100 and exit 0
    path = tmp_path / "five.txt"
    path.write_text("5 2\n")
    for released in ("undefined", "5"):
        assert main(["audit", "flex", "--stat", "support", "--input", str(path),
                     "--bound", "100", "--released", released]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: no flexible-error scoring for statistic support" in captured.err


# ---------------------------------------------------------------------------
# transport winf


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_transport_winf_point_masses(tmp_path, capsys):
    p = _write(tmp_path, "p.txt", "0 1\n")
    q = _write(tmp_path, "q.txt", "1 1\n")
    assert main(["transport", "winf", "--p", p, "--q", q, "--gamma", "0"]) == 0
    assert capsys.readouterr().out.strip() == "winf gamma=0 distance=1"
    assert main(["transport", "winf", "--p", p, "--q", q, "--gamma", "1"]) == 0
    assert capsys.readouterr().out.strip() == "winf gamma=1 distance=0"


def test_transport_winf_fraction_masses(tmp_path, capsys):
    p = _write(tmp_path, "p.txt", "0 1/2\n1 1/2\n")
    q = _write(tmp_path, "q.txt", "0 1\n")
    assert main(["transport", "winf", "--p", p, "--q", q, "--gamma", "0.5"]) == 0
    assert "distance=0" in capsys.readouterr().out
    assert main(["transport", "winf", "--p", p, "--q", q, "--gamma", "0.25",
                 "--bound", "10"]) == 0
    assert "distance=1" in capsys.readouterr().out


def test_transport_winf_errors(tmp_path, capsys):
    p = _write(tmp_path, "p.txt", "0,1 1\n")
    q = _write(tmp_path, "q.txt", "0 1\n")
    assert main(["transport", "winf", "--p", p, "--q", q, "--gamma", "0"]) == 2
    assert "mixed point dimensions" in capsys.readouterr().err
    bad = _write(tmp_path, "bad.txt", "0 one\n")
    assert main(["transport", "winf", "--p", bad, "--q", q, "--gamma", "0"]) == 2
    assert "expected '<point> <mass>'" in capsys.readouterr().err
    empty = _write(tmp_path, "empty.txt", "# nothing\n")
    assert main(["transport", "winf", "--p", empty, "--q", q, "--gamma", "0"]) == 2
    assert "no atoms" in capsys.readouterr().err
    assert main(["transport", "winf", "--p", q, "--q", q, "--gamma", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err
    wide = _write(tmp_path, "wide.txt", "7 1/2\n-3 1/2\n")
    assert main(["transport", "winf", "--p", wide, "--q", q, "--gamma", "0"]) == 2
    assert "error: point -3 outside [0, 8)^1" in capsys.readouterr().err
    assert main(["transport", "winf", "--p", wide, "--q", q, "--gamma", "0",
                 "--bound", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: point -3 outside [0, 5)^1" in captured.err


# ---------------------------------------------------------------------------
# fresh interpreters


def _python(*args, timeout=60):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_import_does_not_load_scipy():
    done = _python("-c", "import sys, flexhist, flexhist.cli; print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


GENERATOR_CFG = """
experiment = gen
statistic = max
bound = 100
eps_grid = 1.0
mechanisms = buckethist
datasets = 1
runs = 1
"""


def _override(base: str, lines: str) -> str:
    """base with its lines for the keys that lines sets taken out, then lines."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    return "".join(line + "\n" for line in base.splitlines()
                   if line.split("=")[0].strip() not in keys) + lines


@pytest.mark.parametrize("lines", [
    "generator = cauchy\ncauchy_scale = nan\n",  # drew forever
    "generator = poisson\npoisson_mean = -5\n",  # numpy traceback, empty CSV
    "generator = cauchy\nzero_last = 150\n",     # emptied bars 50-99 only
    "generator = cauchy\nmedian = 1e12\ncauchy_scale = 1\n",  # drew forever
    "generator = poisson\nbars = 150\n",  # failed in the run, after opening --out
    # ValueError or OverflowError tracebacks, exit 1
    "generator = poisson\nbound = abc\n",
    "generator = poisson\nruns = 1.5\n",
    "generator = poisson\neps_grid = 0.1, x\n",
    "generator = poisson\nbeta =\n",
    "generator = poisson\ndelta = 10^400\n",
    # steps blocks: an OverflowError traceback, or a run that exited 0
    "generator = steps\nsteps = 1" + "0" * 400 + "x1\n",
    "generator = steps\nsteps = -5x10\n",
    "generator = steps\nsteps = 3x-2\n",
    "generator = steps\nsteps = 5x2\nscale = 2e18\n",  # a count of 10^19
])
def test_bench_run_rejects_bad_generator_parameters_before_work(tmp_path, lines):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(_override(GENERATOR_CFG, lines))
    out = tmp_path / "rows.csv"
    done = _python("-m", "flexhist.cli", "bench", "run", "--config", str(cfg),
                   "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    "beta = inf\n",  # ZeroDivisionError
    "scale = inf\n",  # OverflowError
    # these failed only mid-run, after the datasets were generated
    "beta = 0\n", "beta = -1\n", "beta = nan\n", "eps_grid = inf\n",
    "mechanisms = sanpoints\nsanpoints_rounds = 0\n",
    # released counts past int64: a wrong 0.000000 row
    "mechanisms = sanpoints\neps_grid = 1e-300\n",
])
def test_bench_run_rejects_bad_values_without_writing(tmp_path, capsys, lines):
    cfg = tmp_path / "values.cfg"
    cfg.write_text(_override(GENERATOR_CFG, "generator = poisson\n" + lines))
    out = tmp_path / "rows.csv"
    assert main(["bench", "run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out.exists()
