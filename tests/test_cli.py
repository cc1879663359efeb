"""End-to-end tests of the command-line interface."""

import inspect
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from saddleprox import __version__
from saddleprox import cli, core
from saddleprox.cli import main, parse_config_file
from saddleprox.pgm import read_pgm
from saddleprox.schedules import potts_steps


def run_cli(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def parse_kv(text):
    table = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            table[key.strip("# ")] = value
    return table


def read_csv(path):
    header, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            header.append(line[2:])
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


# ---------------------------------------------------------------------------
# steps.
# ---------------------------------------------------------------------------


def test_steps_linear_unit_example(capsys):
    rc, out, _ = run_cli([
        "steps", "linear", "--lambda-y", "0", "--rk", "1", "--mu", "0",
        "--gtilde-g", "1", "--gtilde-f", "1", "--lambda-x", "0", "--lyx", "0",
    ], capsys)
    assert rc == 0
    kv = parse_kv(out)
    assert kv["regime"] == "linear"
    assert float(kv["tau_max"]) == pytest.approx(1.0, abs=0)
    assert float(kv["tau"]) == pytest.approx(1.0, abs=0)
    assert float(kv["sigma"]) == pytest.approx(1.0, abs=0)
    assert float(kv["omega"]) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_steps_constant_applies_safety_factor(capsys):
    rc, out, _ = run_cli([
        "steps", "constant", "--rk", "1", "--lambda-x", "0.2", "--lambda-y", "1",
        "--lyx", "1", "--rho-y", "0.1", "--delta", "0.1", "--mu", "0.1",
    ], capsys)
    assert rc == 0
    kv = parse_kv(out)
    assert float(kv["tau_sup"]) == pytest.approx(0.2, rel=1e-15)
    assert float(kv["safety"]) == 0.99
    tau = float(kv["tau"])
    assert tau == pytest.approx(0.99 * 0.2, rel=1e-15)
    assert float(kv["sigma"]) == pytest.approx(1.0 / (tau / 0.9 + 1.0), rel=1e-12)
    assert float(kv["omega"]) == 1.0
    # All sixteen problem constants are echoed.
    for field in ("r_k", "lambda_x", "lambda_y", "l_yx", "rho_x", "rho_y",
                  "theta_x", "theta_y", "xi_x", "xi_y", "gamma_g", "gamma_f",
                  "gtg", "gtf", "delta", "mu"):
        assert field in kv


def test_steps_accelerated_reports_initial_step(capsys):
    rc, out, _ = run_cli([
        "steps", "accelerated", "--rk", "1", "--lambda-x", "0.5",
        "--gtilde-g", "0.6", "--delta", "0.1", "--mu", "0.3",
    ], capsys)
    assert rc == 0
    kv = parse_kv(out)
    assert float(kv["tau0_max"]) == pytest.approx(0.2, rel=1e-15)
    assert float(kv["tau"]) == pytest.approx(0.2, rel=1e-15)
    # sigma respects the per-iteration cap at tau0, not just the product cap.
    assert float(kv["sigma"]) == pytest.approx(1.0 / (0.2 / 0.7), rel=1e-12)


def test_steps_potts_matches_library_calculator(capsys):
    rc, out, _ = run_cli(["steps", "potts", "--alpha", "1", "--gamma", "1e-3"],
                         capsys)
    assert rc == 0
    kv = parse_kv(out)
    trip, c = potts_steps(1.0, 1e-3, 1)
    assert float(kv["tau"]) == pytest.approx(trip.tau, rel=1e-15)
    assert float(kv["sigma"]) == pytest.approx(trip.sigma, rel=1e-15)
    assert float(kv["omega"]) == pytest.approx(trip.omega, rel=1e-15)
    assert float(kv["gtf"]) == pytest.approx(c.gtf, rel=1e-15)

    rc, out, _ = run_cli(["steps", "potts", "--p", "inf"], capsys)
    assert rc == 0
    trip_inf, _ = potts_steps(1.0, 1e-3, math.inf)
    assert float(parse_kv(out)["tau"]) == pytest.approx(trip_inf.tau, rel=1e-15)


def test_steps_check_48_reports_conditions(capsys):
    rc, out, _ = run_cli(["steps", "potts", "--check-48", "5"], capsys)
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("check48:")]
    assert len(lines) == 5
    assert all(" = pass (margin " in l for l in lines)
    names = {l.split(" = ")[0][len("check48:"):] for l in lines}
    assert names == {"coupling-omega", "dual-step", "primal-step",
                     "primal-convexity", "dual-convexity"}


def test_steps_infeasible_constants_exit_one(capsys):
    rc, _, err = run_cli(["steps", "potts", "--gtilde-g", "1.0"], capsys)
    assert rc == 1
    assert "steps:" in err


def test_steps_unknown_regime_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["steps", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# potts.
# ---------------------------------------------------------------------------


def test_potts_preset_echoed_verbatim(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    rc, out, _ = run_cli([
        "potts", "--synthetic", "8", "8", "1", "--iters", "3",
        "--preset", "paper-p1", "--out-prefix", prefix,
    ], capsys)
    assert rc == 0
    assert "tau = 0.00104085" in out
    assert "sigma = 1.04085" in out
    assert "omega = 0.9948" in out
    header, columns, rows = read_csv(tmp_path / "run_log.csv")
    assert header[0] == "saddleprox %s" % __version__
    assert "command = potts" in header
    assert "preset = paper-p1" in header
    assert columns == ["iter", "objective", "step_norm"]
    assert len(rows) == 3
    img, _ = read_pgm(tmp_path / "run_denoised.pgm")
    assert img.shape == (8, 8)
    assert not (tmp_path / "run_reference.pgm").exists()


def test_potts_pinf_preset(tmp_path, capsys):
    prefix = str(tmp_path / "pi")
    rc, out, _ = run_cli([
        "potts", "--synthetic", "8", "8", "1", "--iters", "2", "--p", "inf",
        "--preset", "paper-pinf", "--out-prefix", prefix,
    ], capsys)
    assert rc == 0
    assert "tau = 0.000551922" in out
    assert "sigma = 0.551922" in out
    assert "omega = 0.99724" in out


def test_potts_reference_run_adds_error_column(tmp_path, capsys):
    prefix = str(tmp_path / "ref")
    rc, _, _ = run_cli([
        "potts", "--synthetic", "8", "8", "2", "--noise-sigma", "0",
        "--n-shapes", "1", "--iters", "1500", "--reference-iters", "6000",
        "--log-stride", "100", "--out-prefix", prefix,
    ], capsys)
    assert rc == 0
    header, columns, rows = read_csv(tmp_path / "ref_log.csv")
    assert columns == ["iter", "objective", "step_norm", "err_sq_vs_reference"]
    errs = [float(r[3]) for r in rows]
    assert all(e >= 0 and math.isfinite(e) for e in errs)
    assert errs[-1] < 0.1 * errs[0]
    assert (tmp_path / "ref_reference.pgm").exists()


def test_potts_runs_are_byte_identical(tmp_path, capsys):
    argv = ["potts", "--synthetic", "12", "10", "7", "--iters", "25",
            "--reference-iters", "50", "--log-stride", "5"]
    outs = []
    for name in ("a", "b"):
        prefix = str(tmp_path / name)
        rc, _, _ = run_cli(argv + ["--out-prefix", prefix], capsys)
        assert rc == 0
        outs.append({
            "log": (tmp_path / (name + "_log.csv")).read_bytes(),
            "img": (tmp_path / (name + "_denoised.pgm")).read_bytes(),
            "ref": (tmp_path / (name + "_reference.pgm")).read_bytes(),
        })
    assert outs[0] == outs[1]


# One pass and two passes of ``potts --reference-iters`` write the same bytes.
ONE_PASS_ARGV = {
    "potts-64-cli": ["--synthetic", "64", "64", "1", "--p", "inf", "--n-shapes", "1",
                     "--noise-sigma", "0", "--reference-iters", "600", "--iters", "400",
                     "--log-stride", "50"],
    "readme-paper-pinf": ["--input", "{noisy}", "--p", "inf", "--preset", "paper-pinf",
                          "--iters", "50", "--reference-iters", "60", "--log-stride", "5"],
    "ref-before-iters-p1": ["--synthetic", "20", "16", "4", "--iters", "130",
                            "--reference-iters", "60", "--log-stride", "50"],
    "ref-kept-before-iters-pinf": ["--synthetic", "20", "16", "4", "--p", "inf",
                                   "--iters", "100", "--reference-iters", "70",
                                   "--log-stride", "7"],
    "ref-equals-iters-pinf": ["--synthetic", "20", "16", "4", "--p", "inf",
                              "--iters", "100", "--reference-iters", "100",
                              "--log-stride", "7"],
    "ref-equals-iters-1-p1": ["--synthetic", "9", "7", "2", "--iters", "1",
                              "--reference-iters", "1"],
    "ref-after-iters-p1": ["--synthetic", "20", "16", "5", "--iters", "40",
                           "--reference-iters", "90", "--log-stride", "7"],
}


def _potts_outputs(argv, workdir, monkeypatch, capsys):
    """The files and stdout of ``potts argv`` run in ``workdir``, and the
    number of steps it made."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    real_step = core.step
    monkeypatch.setattr(core, "step", counted)
    rc, out, _ = run_cli(["potts"] + argv + ["--out-prefix", "run"], capsys)
    monkeypatch.setattr(core, "step", real_step)
    assert rc == 0
    files = {name: (workdir / name).read_bytes()
             for name in ("run_log.csv", "run_denoised.pgm", "run_reference.pgm")}
    return files, out, len(calls)


@pytest.mark.parametrize("name", sorted(ONE_PASS_ARGV))
def test_one_pass_reference_writes_the_bytes_of_two_passes(tmp_path, monkeypatch,
                                                           capsys, name):
    noisy = tmp_path / "noisy.pgm"
    assert run_cli(["gen-image", "--n1", "24", "--n2", "20", "--seed", "7",
                    "--n-shapes", "3", "--noise-sigma", "0.05", "--out", str(noisy)],
                   capsys)[0] == 0
    argv = [a.format(noisy=noisy) for a in ONE_PASS_ARGV[name]]
    one = _potts_outputs(argv, tmp_path / "one", monkeypatch, capsys)
    monkeypatch.setattr(core, "_COPY_BUDGET", 0)
    two = _potts_outputs(argv, tmp_path / "two", monkeypatch, capsys)
    ref_iters, iters = (int(argv[argv.index(flag) + 1])
                        for flag in ("--reference-iters", "--iters"))
    assert (one[2], two[2]) == (max(ref_iters, iters), ref_iters + iters)
    assert one[:2] == two[:2]


@pytest.mark.parametrize("ref_iters, iters", [(600, 400), (40, 130)])
def test_one_pass_reference_makes_max_iterations(tmp_path, monkeypatch, capsys,
                                                 ref_iters, iters):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    real_step = core.step
    monkeypatch.setattr(core, "step", counted)
    argv = ["potts", "--synthetic", "6", "5", "3", "--p", "inf",
            "--reference-iters", str(ref_iters), "--iters", str(iters),
            "--log-stride", "50", "--out-prefix", str(tmp_path / "run")]
    assert run_cli(argv, capsys)[0] == 0
    assert len(calls) == max(ref_iters, iters)
    monkeypatch.setattr(core, "_COPY_BUDGET", 0)
    del calls[:]
    assert run_cli(argv, capsys)[0] == 0
    assert len(calls) == ref_iters + iters


def test_potts_requires_an_image_source(capsys):
    rc, _, err = run_cli(["potts", "--iters", "1"], capsys)
    assert rc == 2
    assert "required" in err


def test_potts_unknown_preset_is_usage_error(tmp_path, capsys):
    rc, _, err = run_cli([
        "potts", "--synthetic", "4", "4", "0", "--preset", "nope",
        "--out-prefix", str(tmp_path / "x"),
    ], capsys)
    assert rc == 2
    assert "unknown preset" in err


def test_potts_infeasible_flags_exit_one(tmp_path, capsys):
    rc, _, err = run_cli([
        "potts", "--synthetic", "4", "4", "0", "--gtilde-g", "2.0",
        "--out-prefix", str(tmp_path / "x"),
    ], capsys)
    assert rc == 1
    assert "infeasible" in err


@pytest.mark.parametrize("dynamic_range", ["0.1", "1e-300"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_potts_divergence_exits_one_with_one_line(tmp_path, capsys, p, dynamic_range):
    # At a small --dynamic-range the calculator's steps assume image
    # gradients far below the synthetic image's, and the iterates overflow.
    rc, _, err = run_cli([
        "potts", "--synthetic", "16", "16", "0", "--iters", "200", "--p", p,
        "--dynamic-range", dynamic_range, "--out-prefix", str(tmp_path / "run"),
    ], capsys)
    assert rc == 1
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("saddleprox potts: the iteration diverged")
    assert not list(tmp_path.glob("run_*"))


def test_potts_reads_pgm_input(tmp_path, capsys):
    src = str(tmp_path / "in.pgm")
    rc, _, _ = run_cli(["gen-image", "--n1", "6", "--n2", "9", "--seed", "3",
                        "--out", src], capsys)
    assert rc == 0
    prefix = str(tmp_path / "from_file")
    rc, _, _ = run_cli(["potts", "--input", src, "--iters", "2",
                        "--out-prefix", prefix], capsys)
    assert rc == 0
    img, _ = read_pgm(tmp_path / "from_file_denoised.pgm")
    assert img.shape == (6, 9)


def test_potts_malformed_pgm_input_exits_two_with_one_line(tmp_path, capsys):
    src = tmp_path / "bad.pgm"
    src.write_bytes(b"P2\n2 2\n255\n1 2 x 4\n")
    rc, _, err = run_cli(["potts", "--input", str(src), "--out-prefix",
                          str(tmp_path / "run")], capsys)
    assert rc == 2
    assert err.splitlines()[-1] == ("saddleprox potts: non-numeric or oversized "
                                    "sample in %s" % src)


def test_potts_non_ascii_input_is_escaped_in_headers(tmp_path, capsys):
    src = str(tmp_path / "\u00e9.pgm")
    rc, _, _ = run_cli(["gen-image", "--n1", "5", "--n2", "5", "--out", src], capsys)
    assert rc == 0
    rc, _, err = run_cli(["potts", "--input", src, "--iters", "2",
                          "--out-prefix", str(tmp_path / "run")], capsys)
    assert rc == 0, err
    echo = ("input = %s" % (tmp_path / "\\xe9.pgm")).encode("ascii")
    log = (tmp_path / "run_log.csv").read_bytes()
    assert log.isascii() and echo in log
    assert echo in (tmp_path / "run_denoised.pgm").read_bytes()


# ---------------------------------------------------------------------------
# nash.
# ---------------------------------------------------------------------------


def test_nash_distance_table(tmp_path, capsys):
    out_path = tmp_path / "dist.csv"
    rc, _, _ = run_cli(["nash", "--sizes", "15,31", "--iters", "8",
                        "--out", str(out_path)], capsys)
    assert rc == 0
    header, columns, rows = read_csv(out_path)
    assert "command = nash" in header
    assert columns == ["iter", "dist_n15", "dist_n31"]
    assert [r[0] for r in rows] == [str(i) for i in range(1, 9)]
    first = [float(v) for v in rows[0][1:]]
    assert first[0] == pytest.approx(first[1], rel=0.05)
    last = [float(v) for v in rows[-1][1:]]
    assert max(last) <= 1e-12


def test_nash_writes_to_a_device(capsys):
    rc, out, _ = run_cli(["nash", "--sizes", "7", "--iters", "2",
                          "--out", os.devnull], capsys)
    assert rc == 0
    assert "wrote %s" % os.devnull in out


def test_nash_runs_are_byte_identical(tmp_path, capsys):
    blobs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc, _, _ = run_cli(["nash", "--sizes", "15", "--iters", "5",
                            "--out", str(path)], capsys)
        assert rc == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# verify.
# ---------------------------------------------------------------------------


def test_verify_suite_all_pass(capsys):
    rc, out, _ = run_cli(["verify"], capsys)
    assert rc == 0
    lines = [l for l in out.splitlines() if "," in l]
    assert len(lines) >= 8
    for line in lines:
        name, status, margin = line.split(",")
        assert status == "pass"
        assert float(margin) >= 0.0


def test_verify_seed_does_not_break_the_suite(capsys):
    rc, out, _ = run_cli(["verify", "--seed", "3"], capsys)
    assert rc == 0
    assert all(",pass," in l for l in out.splitlines() if "," in l)


def test_verify_only_selects_a_single_check(capsys):
    rc, out, _ = run_cli(["verify", "--only", "adjoint"], capsys)
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith("adjoint,pass,")


def test_verify_unknown_check_is_usage_error(capsys):
    rc, _, err = run_cli(["verify", "--only", "bogus"], capsys)
    assert rc == 2
    assert "no check named" in err


# ---------------------------------------------------------------------------
# gen-image and configuration files.
# ---------------------------------------------------------------------------


def test_gen_image_deterministic_and_readable(tmp_path, capsys):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    for path in (a, b):
        rc, _, _ = run_cli(["gen-image", "--n1", "16", "--n2", "12",
                            "--seed", "9", "--out", str(path)], capsys)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    img, maxval = read_pgm(a)
    assert img.shape == (16, 12)
    assert maxval == 65535
    text = a.read_bytes()
    assert b"# command = gen-image" in text
    assert b"# seed = 9" in text


def test_config_file_fills_unset_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment configuration\n"
        "alpha = 2.0\n"
        "gamma = 5e-3   # inline comment\n"
        "iters = 3\n"
        "out-prefix = %s\n" % (tmp_path / "cfgrun"))
    rc, out, _ = run_cli(["potts", "--config", str(cfg),
                          "--synthetic", "6", "6", "0"], capsys)
    assert rc == 0
    header, _, rows = read_csv(tmp_path / "cfgrun_log.csv")
    assert "alpha = 2.0" in header
    assert "gamma = 0.005" in header
    assert len(rows) == 3


def test_explicit_flags_override_config_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 2.0\niters = 3\nout-prefix = %s\n"
                   % (tmp_path / "over"))
    rc, _, _ = run_cli(["potts", "--config", str(cfg), "--alpha", "3.0",
                        "--synthetic", "6", "6", "0"], capsys)
    assert rc == 0
    header, _, _ = read_csv(tmp_path / "over_log.csv")
    assert "alpha = 3.0" in header
    assert "alpha = 2.0" not in header


def test_config_file_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["potts", "--config", str(cfg), "--synthetic", "4", "4", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_config_parser_normalizes_key_spelling(tmp_path):
    cfg = tmp_path / "keys.cfg"
    cfg.write_text("log-stride = 2\nnoise_sigma = 0.0\n")
    table = parse_config_file(str(cfg))
    assert table == {"log_stride": "2", "noise_sigma": "0.0"}
    bad = tmp_path / "broken.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))


def test_config_synthetic_matches_flag(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "syn.cfg"
    cfg.write_text("synthetic = 8 8 0\niters = 5\n")
    outs = []
    for name, argv in (("flag", ["--synthetic", "8", "8", "0", "--iters", "5"]),
                       ("file", ["--config", str(cfg)])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        rc, out, _ = run_cli(["potts"] + argv + ["--out-prefix", "run"], capsys)
        assert rc == 0
        outs.append((out, (tmp_path / name / "run_log.csv").read_bytes(),
                     (tmp_path / name / "run_denoised.pgm").read_bytes()))
    assert outs[0] == outs[1]


POTTS_4X4 = ["potts", "--synthetic", "4", "4", "0", "--out-prefix", "{tmp}/run"]
NASH_7 = ["nash", "--sizes", "7", "--iters", "1", "--out", "{tmp}/run_nash.csv"]
WITH_CONFIG = POTTS_4X4 + ["--config", "{tmp}/run.cfg"]


@pytest.mark.parametrize("argv, config, needle", [
    (POTTS_4X4 + ["--p", "2"], None, "--p"),
    (WITH_CONFIG, "alpha = x\n", "--alpha"),
    (WITH_CONFIG, "iters = 2.5\n", "--iters"),
    (WITH_CONFIG, "iters 3\n", "run.cfg:1: expected key = value"),
    (POTTS_4X4 + ["--config", "{tmp}/missing.cfg"], None, "missing.cfg"),
    (["nash", "--sizes", "abc"], None, "--sizes"),
    (["nash", "--sizes", "1"], None, "--sizes"),
    (["nash", "--sizes", "7,15,7", "--iters", "1", "--out", "{tmp}/run_nash.csv"], None,
     "--sizes"),
    (["potts", "--synthetic", "8", "8", "x"], None, "--synthetic"),
    (POTTS_4X4 + ["--iters", "0"], None, "--iters"),
    (POTTS_4X4 + ["--log-stride", "0"], None, "--log-stride"),
    (POTTS_4X4 + ["--iters", "0", "--reference-iters", "3000"], None, "--iters"),
    (POTTS_4X4 + ["--reference-iters", "-5"], None, "--reference-iters"),
    (["potts", "--synthetic", "16", "16", "-2"], None, "--synthetic"),
    (POTTS_4X4 + ["--n-shapes", "-1"], None, "--n-shapes"),
    (["nash", "--iters", "0"], None, "--iters"),
    (["steps", "potts", "--check-48", "-1"], None, "--check-48"),
    (["verify", "--seed", "-1"], None, "--seed"),
    (["gen-image", "--seed", "-1", "--out", "{tmp}/x.pgm"], None, "--seed"),
    (["gen-image", "--n1", "0", "--out", "{tmp}/x.pgm"], None, "n1"),
    (["gen-image", "--maxval", "70000", "--out", "{tmp}/x.pgm"], None, "maxval"),
    (NASH_7 + ["--tau", "-1", "--sigma", "0"], None, "--tau"),
    (NASH_7 + ["--tau", "nan"], None, "--tau"),
    (NASH_7 + ["--omega", "-2"], None, "--omega"),
    (POTTS_4X4 + ["--noise-sigma", "nan"], None, "--noise-sigma"),
    (["gen-image", "--noise-sigma", "-1", "--out", "{tmp}/run_x.pgm"], None,
     "--noise-sigma"),
    (["steps", "potts", "--delta", "nan"], None, "--delta"),
    (WITH_CONFIG, "alpha = inf\n", "--alpha"),
    (["nash", "--sizes", "7", "--iters", "1", "--out", "{tmp}/no/run.csv"], None,
     "no/run.csv"),
    (["potts", "--synthetic", "4", "4", "0", "--iters", "1",
      "--out-prefix", "{tmp}/no/run"], None, "no/run_log.csv"),
    (["steps", "linear", "--config", "{tmp}/run.cfg"], "regime = potts\n", "'regime'"),
    (WITH_CONFIG, "func = cmd_nash\n", "'func'"),
    (["steps", "constant", "--tau", "-1"], None, "--tau"),
    (["steps", "accelerated", "--tau0", "0"], None, "--tau0"),
    (["steps", "constant", "--safety", "-1"], None, "--safety"),
    (POTTS_4X4 + ["--alpha", "-1"], None, "--alpha"),
    (["steps", "potts", "--alpha", "0"], None, "--alpha"),
    (POTTS_4X4 + ["--gamma", "0"], None, "--gamma"),
    (["steps", "potts", "--gamma", "-0.001"], None, "--gamma"),
    (POTTS_4X4 + ["--dynamic-range", "0"], None, "--dynamic-range"),
    (["steps", "potts", "--gamma-bar", "-10"], None, "--gamma-bar"),
    (["steps", "linear", "--rk", "-1", "--gtilde-g", "1", "--gtilde-f", "1"], None,
     "--rk"),
    (POTTS_4X4 + ["--input", "{tmp}/x.pgm"], None, "--input"),
    (["potts", "--input", "{tmp}/x.pgm", "--config", "{tmp}/run.cfg",
      "--out-prefix", "{tmp}/run"], "synthetic = 4 4 0\n", "--input"),
    (["steps", "constant", "--lambda-x", "1", "--mu", "1"], None, "--mu"),
    (POTTS_4X4 + ["--mu", "2"], None, "--mu"),
    (["steps", "potts", "--delta", "0"], None, "--delta"),
    (["steps", "potts", "--delta", "1e300"], None, "--delta"),
    (["steps", "constant"], None, "give --tau"),
    (["steps", "linear", "--gtilde-g", "1", "--gtilde-f", "1", "--rk", "0"], None,
     "give --tau"),
    (["steps", "accelerated", "--gtilde-g", "1"], None, "give --tau0"),
    (["steps", "constant", "--tau", "1", "--rk", "0"], None, "--rk"),
    (POTTS_4X4 + ["--dynamic-range", "1e300"], None, "--dynamic-range"),
    (["steps", "potts", "--p", "inf", "--dynamic-range", "1e77"], None,
     "--dynamic-range"),
    (["steps", "linear", "--rk", "1e300", "--gtilde-g", "1", "--gtilde-f", "1"], None,
     "--rk"),
    (["steps", "constant", "--rk", "1e300", "--tau", "1"], None, "--rk"),
    (["steps", "accelerated", "--rk", "1e300", "--gtilde-g", "1"], None, "--rk"),
    (["steps", "linear", "--rk", "1", "--lambda-y", "1e300", "--gtilde-g", "1",
      "--gtilde-f", "1"], None, "--lambda-y"),
    (["steps", "constant", "--rk", "1e-200", "--tau", "1"], None, "--rk 1e-200"),
    (["steps", "accelerated", "--rk", "1e-200", "--gtilde-g", "1", "--tau0", "1"], None,
     "--rk 1e-200"),
    (["steps", "constant", "--rk", "1e-160", "--tau", "1"], None, "--rk 1e-160"),
    (["verify", "--only", ""], None, "no check named ''"),
    (POTTS_4X4 + ["--preset", ""], None, "unknown preset ''"),
    (["steps", "constant", "--gtilde-f", "-10", "--gtilde-g", "-10", "--lambda-x", "1",
      "--check-48", "3"], None, "--gtilde-f"),
    (["steps", "potts", "--gtilde-g", "-1"], None, "--gtilde-g"),
    (["steps", "potts", "--gtilde-f", "-1"], None, "--gtilde-f"),
    (["steps", "accelerated", "--gtilde-g", "-1"], None, "--gtilde-g"),
    (["steps", "linear", "--gtilde-f", "-1", "--gtilde-g", "1"], None, "--gtilde-f"),
    (POTTS_4X4 + ["--gtilde-g", "-1"], None, "--gtilde-g"),
    (POTTS_4X4 + ["--gtilde-f", "-1"], None, "--gtilde-f"),
    (WITH_CONFIG, "config = nope.cfg\n", "'config'"),
], ids=["p-2", "cfg-alpha-x", "cfg-iters-2.5", "cfg-no-equals", "cfg-missing",
        "sizes-abc", "sizes-1", "sizes-repeated", "synthetic-x", "iters-0",
        "log-stride-0",
        "iters-0-before-reference", "reference-iters-neg", "synthetic-seed-neg",
        "n-shapes-neg", "nash-iters-0", "check-48-neg", "verify-seed-neg",
        "gen-image-seed-neg", "n1-0", "maxval-70000", "nash-tau-neg",
        "nash-tau-nan", "nash-omega-neg", "noise-sigma-nan", "gen-image-noise-neg",
        "delta-nan", "cfg-alpha-inf", "nash-out-missing-dir", "potts-out-missing-dir",
        "cfg-regime", "cfg-func", "steps-tau-neg", "steps-tau0-0",
        "steps-safety-neg", "potts-alpha-neg", "steps-alpha-0", "potts-gamma-0",
        "steps-gamma-neg", "potts-dynamic-range-0", "steps-gamma-bar-neg",
        "steps-rk-neg", "input-and-synthetic", "cfg-synthetic-and-input",
        "steps-mu-1", "potts-mu-2", "steps-delta-0", "steps-delta-1e300",
        "steps-constant-tau-unbounded", "steps-linear-tau-unbounded",
        "steps-accelerated-tau0-unbounded", "steps-constant-sigma-unbounded",
        "potts-dynamic-range-1e300", "steps-dynamic-range-1e77",
        "steps-linear-rk-1e300", "steps-constant-rk-1e300",
        "steps-accelerated-rk-1e300", "steps-linear-lambda-y-1e300",
        "steps-constant-rk-1e-200", "steps-accelerated-rk-1e-200",
        "steps-constant-rk-1e-160", "verify-only-empty", "potts-preset-empty",
        "steps-gtilde-f-neg", "steps-gtilde-g-neg", "steps-potts-gtilde-f-neg",
        "steps-accelerated-gtilde-g-neg", "steps-linear-gtilde-f-neg",
        "potts-gtilde-g-neg", "potts-gtilde-f-neg", "cfg-config"])
def test_invalid_input_exits_two_with_one_line(tmp_path, capsys, argv, config,
                                               needle):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    try:
        rc = main([a.format(tmp=tmp_path) for a in argv])
    except SystemExit as exc:
        rc = exc.code
    _, err = capsys.readouterr()
    assert rc == 2
    assert needle in err.splitlines()[-1]
    assert not list(tmp_path.glob("run_*"))


SWEEP_BASES = {
    "potts": ["potts", "--synthetic", "4", "4", "0", "--iters", "2"],
    "nash": ["nash", "--sizes", "3", "--iters", "1"],
    "steps": ["steps", "potts"],
    "verify": ["verify", "--only", "adjoint"],
    "gen-image": ["gen-image", "--n1", "4", "--n2", "4"],
}


def _run_sweep(argvs, capsys):
    """The (argv, exit code, stderr) of each argv."""
    runs = []
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        runs.append((argv, rc, capsys.readouterr()[1]))
    return runs


def _sweep_failures(runs):
    """The runs that exit outside {0, 1, 2}, print a traceback, or exit 2
    without ending in the subcommand's one-line message."""
    failures = []
    for argv, rc, err in runs:
        lines = err.splitlines()
        if (rc not in (0, 1, 2) or "Traceback" in err or rc == 2 and not (
                lines and lines[-1].startswith("saddleprox %s:" % argv[0]))):
            failures.append((argv, rc, err))
    return failures


SWEEP_VALUES = ["0", "-1", "1e300", "-1e300", "1e-300", "nan", "inf", "",
                "b\u00e9zier-\u03c0.pgm"]


@pytest.mark.filterwarnings("ignore:constants outside the standard range")
def test_no_single_flag_value_ends_in_a_traceback(tmp_path, monkeypatch, capsys):
    # Each flag of each subcommand, given each of these values, exits 0, 1
    # or 2, and exit 2 ends in the subcommand's one-line message.
    monkeypatch.chdir(tmp_path)
    _, commands = cli.build_parser()
    assert sorted(commands) == sorted(SWEEP_BASES)
    argvs = [SWEEP_BASES[name] + [flag] + [value] * (action.nargs or 1)
             for name, command in commands.items()
             for flag, action in command.flags.items() if flag not in ("-h", "--help")
             for value in SWEEP_VALUES]
    assert not _sweep_failures(_run_sweep(argvs, capsys))


# Flags that take a size or a count get small integers in the sweep below.
SMALL_INT_FLAGS = ("--iters", "--reference-iters", "--check-48", "--synthetic")


@pytest.mark.filterwarnings("ignore:constants outside the standard range")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_several_flag_values_end_in_a_traceback(tmp_path, monkeypatch, capsys):
    # 300 seeded argv, each giving 2-4 distinct flags of one subcommand at
    # once, hold to the same exit rules as single flags.
    monkeypatch.chdir(tmp_path)
    rng = random.Random(0)
    _, commands = cli.build_parser()
    values = SWEEP_VALUES + ["1", "0.5"]
    argvs = []
    for _ in range(300):
        name = rng.choice(sorted(commands))
        command = commands[name]
        base = (["steps", rng.choice(["constant", "accelerated", "linear", "potts"])]
                if name == "steps" else SWEEP_BASES[name])
        flags = sorted(set(command.flags) - {"-h", "--help", "--config"})
        argv = list(base)
        for flag in rng.sample(flags, rng.randint(2, min(4, len(flags)))):
            pool = ["0", "1", "2", "8"] if flag in SMALL_INT_FLAGS else values
            nargs = command.flags[flag].nargs or 1
            argv += [flag] + [rng.choice(pool) for _ in range(nargs)]
        argvs.append(argv)
    assert not _sweep_failures(_run_sweep(argvs, capsys))


# Valid values for the sweep below: for each flag without a default or
# whose default makes a large run, and a few more.  Any other flag draws
# its default, or 0.5 if that is a float.
SWEEP_VALID = {
    "--synthetic": ["4 4 0", "5 3 2"], "--input": ["in.pgm"], "--p": ["1", "inf"],
    "--iters": ["1", "3"], "--reference-iters": ["0", "4"], "--log-stride": ["1", "2"],
    "--check-48": ["0", "2"], "--sizes": ["3", "4"], "--n1": ["3"], "--n2": ["5"],
    "--seed": ["0", "3"], "--maxval": ["255", "65535"], "--mu": ["0.1"],
    "--gtilde-g": ["0", "1"], "--gtilde-f": ["0", "1"], "--tau": ["0.1"],
    "--tau0": ["0.1"], "--preset": ["paper-p1", "paper-pinf"],
    "--only": ["grad-potts-pinf", "three-point-m1", "poisson-roundtrip"],
}
# Each steps regime with the flags it needs to run.
STEPS_BASES = {
    "constant": ["--tau", "0.1"],
    "accelerated": ["--gtilde-g", "1", "--tau0", "0.1"],
    "linear": ["--gtilde-g", "1", "--gtilde-f", "1", "--lambda-y", "1", "--mu", "0.1"],
    "potts": [],
}


def _mostly_valid_argvs(rng, commands, count):
    """``count`` argv of 2-4 flags of one subcommand with valid values, at
    most one of which draws from the values of the sweeps above instead."""
    argvs = []
    for _ in range(count):
        name = rng.choice(sorted(commands))
        command = commands[name]
        base = SWEEP_BASES[name]
        if name == "steps":
            regime = rng.choice(sorted(STEPS_BASES))
            base = ["steps", regime] + STEPS_BASES[regime]
        flags = sorted(set(command.flags) - {"-h", "--help", "--config"})
        chosen = rng.sample(flags, rng.randint(2, min(4, len(flags))))
        if "--input" in chosen:  # the base's --synthetic would exclude it
            base = ["potts", "--iters", "2"]
        bad = rng.randrange(3 * len(chosen))
        argv = list(base)
        for i, flag in enumerate(chosen):
            action = command.flags[flag]
            if i == bad:
                argv += [flag] + [rng.choice(SWEEP_VALUES + ["1", "0.5"])
                                  for _ in range(action.nargs or 1)]
                continue
            pool = SWEEP_VALID.get(flag) or (
                [repr(action.default), "0.5"] if isinstance(action.default, float)
                else [str(action.default)])
            argv += [flag] + rng.choice(pool).split()
        argvs.append(argv)
    return argvs


@pytest.mark.filterwarnings("ignore:constants outside the standard range")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mostly_valid_several_flag_values_reach_the_command(tmp_path, monkeypatch,
                                                            capsys):
    # Most of these argv get past the parser and into the command, where
    # the same exit rules hold.
    monkeypatch.chdir(tmp_path)
    cli.write_pgm("in.pgm", np.full((5, 4), 0.5))
    _, commands = cli.build_parser()
    runs = _run_sweep(_mostly_valid_argvs(random.Random(1), commands, 300), capsys)
    assert not _sweep_failures(runs)
    assert sum(rc in (0, 1) for _, rc, _ in runs) >= len(runs) / 2


@pytest.mark.parametrize("write", [
    lambda path: cli.write_csv(path, ["cfg"], ["a", "b"], [[1, 0.5], [2, 0.25]]),
    lambda path: cli.write_pgm(path, np.eye(3), maxval=255),
    lambda path: cli.write_pgm(path, np.eye(3), maxval=65535),
], ids=["csv", "pgm-8bit", "pgm-16bit"])
def test_outputs_are_rewritten_in_place(tmp_path, monkeypatch, write):
    path = tmp_path / "out"
    write(path)
    fresh = path.read_bytes()
    path.write_bytes(b"stale tail " * 1000)
    flags = []
    real_open = os.open

    def recording_open(file, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(file, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    write(path)
    assert flags and not any(f & os.O_TRUNC for f in flags)
    assert path.read_bytes() == fresh


def test_benchmark_tracer_records_every_layer_and_restores_it(tmp_path, monkeypatch,
                                                             capsys):
    # bench/tracing.py wraps methods in their class bodies; a method moved
    # elsewhere breaks the traced benchmark, and this catches it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    def attrs():
        return [inspect.getattr_static(owner, attr)
                for owner, attr, _, _ in tracing.targets()]

    before = attrs()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rcs = [cli.main(["potts", "--synthetic", "8", "8", "0", "--reference-iters",
                             "2", "--iters", "3", "--out-prefix", str(tmp_path / "run")]),
                   cli.main(["nash", "--sizes", "7", "--iters", "2",
                             "--out", str(tmp_path / "nash.csv")])]
    finally:
        tracer.uninstall()
    assert rcs == [0, 0]
    assert {t[2] for t in tracing.targets()} <= {span[0] for span in tracer.spans}
    assert all(a is b for a, b in zip(before, attrs()))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "saddleprox %s" % __version__


def test_module_entry_point_runs_in_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "saddleprox.cli", "steps", "linear",
         "--rk", "1", "--mu", "0.1", "--gtilde-g", "1", "--gtilde-f", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tau_max" in proc.stdout
