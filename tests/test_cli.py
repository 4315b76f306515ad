import ast
import itertools
import json
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sde_oracle
import spectrum_oracle
from rscycle import cli, cyclic
from rscycle.cyclic import classify_case, cyclic_spacing
from rscycle.model import (CertificateError, FeedbackSpec, Population, RegionParams,
                           max_isolated_clusters)
from rscycle.returnmap import as_piecewise
from rscycle.simulate import (_CHUNK, _KIND_OF_CODE, EventKind, EventRecord, NoiseSpec,
                              SimulationError, _Run, _Slice, simulate_exact, simulate_sde)


def run_cli(args):
    return cli.main(args)


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


SMALL_SWEEP = {"points": 3, "n": 40, "cycles": 3.0}


def exact_reference(payload, seed=3):
    """simulate_exact on the inputs `rscycle simulate --seed seed` builds
    from the config payload: its region, its linear feedback, and its cells,
    drawn as np.sort(default_rng(seed).random(n)) or the initial list."""
    cfg = {**cli._DEFAULTS["simulate"], **payload}
    initial = cfg["initial"]
    if initial == "random":
        phases = np.sort(np.random.default_rng(seed).random(cfg["n"]))
    else:
        phases = np.array(initial, dtype=float)
    return simulate_exact(Population(phases), RegionParams(s=cfg["s"], r=cfg["r"]),
                          FeedbackSpec.linear(cfg["feedback"]["gamma"]), float(cfg["cycles"]))


def test_simulate_outputs_and_headers(tmp_path):
    out = tmp_path / "sim"
    cfg = write_config(tmp_path, "c.json", {"n": 5, "cycles": 1.0})
    assert run_cli(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    traj = exact_reference({"n": 5, "cycles": 1.0})
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t," + ",".join(f"phase_{i}" for i in range(5))
    # %.17g round-trips: the last row is the final state bit for bit
    last = np.array([float(v) for v in lines[-1].split(",")])
    assert len(lines) == len(traj.times) + 1
    assert last[0] == traj.times[-1]
    assert np.array_equal(last[1:], traj.states[-1])
    assert (out / "events.csv").read_text().splitlines()[0] == "t,kind,cell"
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["tool"] == "rscycle"
    assert meta["seed"] == 3
    assert len(meta["config_hash"]) == 64
    assert "timestamp" not in meta


def test_simulate_sde_engine(tmp_path):
    out = tmp_path / "sde"
    cfg = write_config(tmp_path, "c.json",
                       {"engine": "sde", "n": 8, "cycles": 1.0, "sample_every": 10})
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert not (out / "events.csv").exists()


def test_sweep_headers_and_verdicts(tmp_path):
    out = tmp_path / "sw"
    cfg = write_config(tmp_path, "c.json", SMALL_SWEEP)
    assert run_cli(["sweep-fig4", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "sweep_value,M,N,verdict"
    assert len(lines) == 4
    for line in lines[1:]:
        verdict = line.split(",")[3]
        assert verdict in ("none", "le_M", "ge_M_plus_1")


def test_sweep_deterministic_across_runs_and_threads(tmp_path):
    cfg = write_config(tmp_path, "c.json", SMALL_SWEEP)
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        assert run_cli(["sweep-fig4", "--config", cfg, "--seed", "9",
                        "--out", str(out), "--threads", threads]) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("gamma", [0.6, -0.6], ids=["pos", "neg"])
def test_sweep_matches_pointwise_reference(tmp_path, gamma, threads):
    # the block stepper against one Euler-Maruyama run per point
    payload = {"points": 5, "n": 60, "cycles": 4.0, "sigma": 1e-3, "gamma": gamma}
    cfg = write_config(tmp_path, "c.json", payload)
    assert run_cli(["sweep-fig4", "--config", cfg, "--seed", "4", "--out", str(tmp_path),
                    "--threads", threads]) == 0
    reference = sde_oracle.sweep_csv({**cli._DEFAULTS["sweep-fig4"], **payload}, 4)
    assert (tmp_path / "sweep.csv").read_bytes() == reference


def test_sweep_seed_changes_output(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"points": 2, "n": 60, "cycles": 2.0, "sigma": 0.05})
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli(["sweep-fig4", "--config", cfg, "--seed", "1", "--out", str(a)])
    run_cli(["sweep-fig4", "--config", cfg, "--seed", "2", "--out", str(b)])
    ma = json.loads((a / "metadata.json").read_text())
    mb = json.loads((b / "metadata.json").read_text())
    assert ma["seed"] != mb["seed"]
    assert ma["config_hash"] == mb["config_hash"]


def test_retmap_outputs(tmp_path):
    out = tmp_path / "rm"
    cfg = write_config(tmp_path, "c.json", {"grid": 50})
    assert run_cli(["retmap", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "return_map.csv").read_text().splitlines()
    assert lines[0] == "x,F(x),F2(x)"
    assert len(lines) == 51
    xs = np.linspace(0.0, 1.0, 50)
    F = as_piecewise(RegionParams(s=0.2, r=0.6), 0.5)
    column = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(column, F(xs))
    rep = json.loads((out / "fixed_points.json").read_text())
    interior = [p for p in rep["points"] if 0.01 < p["location"] < 0.99]
    assert len(interior) == 1
    assert abs(interior[0]["location"] - 0.48) < 1e-9
    agree = (out / "agreement.csv").read_text().splitlines()
    assert agree[0] == "x,F_analytic,F_numeric,abs_diff"
    worst = max(float(line.split(",")[3]) for line in agree[1:])
    assert worst < 1e-9


def test_commands_write_the_same_bytes_alone_and_in_sequence(tmp_path):
    # a command's work must not depend on the commands run before it: each
    # alone in a fresh process, then both in this one, in either order
    argv = {"retmap": ["retmap", "--config", write_config(tmp_path, "rm.json", {"grid": 40})],
            "cyclic": ["cyclic", "--config", write_config(tmp_path, "cy.json", {
                "k_min": 2, "k_max": 4, "beta_points": 7, "region_grid": 16})]}

    def files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    alone = {}
    for command, args in argv.items():
        out = tmp_path / f"alone-{command}"
        subprocess.run([sys.executable, "-m", "rscycle.cli", *args, "--out", str(out)], check=True)
        alone[command] = files(out)
    for order in (["retmap", "cyclic"], ["cyclic", "retmap"]):
        for command in order:
            out = tmp_path / f"{order[0]}-first-{command}"
            assert run_cli([*argv[command], "--out", str(out)]) == 0
            assert files(out) == alone[command]


def test_cyclic_builds_no_feedback_profile(tmp_path, monkeypatch):
    # every certificate replays on the speeds [1, 1 + beta, ...] of its
    # (k, beta): the default atlas makes and validates no FeedbackSpec
    made = []
    real = FeedbackSpec.__post_init__
    monkeypatch.setattr(FeedbackSpec, "__post_init__", lambda self: made.append(self) or real(self))
    assert run_cli(["cyclic", "--out", str(tmp_path)]) == 0
    assert made == []


def test_default_cyclic_emits_no_warning(tmp_path):
    # every spectrum row sits at its k's band midpoint, where k = M + 1, so
    # the one certification of every k warns no more than per-k calls did
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert run_cli(["cyclic", "--out", str(tmp_path)]) == 0
    assert [str(w.message) for w in record] == []


def test_cyclic_certifies_every_spectrum_row_in_one_call(tmp_path, monkeypatch):
    # the rows in (k, beta) order, one _certify call for all k, and no
    # spectrum report (whose root residuals the CLI never writes) is built
    calls = []
    real = cli._certify
    monkeypatch.setattr(cli, "_certify", lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(cyclic, "SpectrumReport", None)
    payload = {"k_min": 2, "k_max": 5, "beta_points": 4, "region_grid": 4}
    assert run_cli(["cyclic", "--config", write_config(tmp_path, "c.json", payload),
                    "--out", str(tmp_path / "cy")]) == 0
    betas = np.linspace(-0.5, 0.5, 4).tolist()
    [(s, r, k, beta)] = calls
    assert k.tolist() == [kk for kk in range(2, 6) for _ in betas]
    assert beta.tolist() == betas * 4
    half = [1.0 / (kk - 0.5) / 2.0 for kk in k.tolist()]  # |S| = |R| at the band midpoint
    assert s.tolist() == half and r.tolist() == [1.0 - h for h in half]


def test_cyclic_outputs(tmp_path):
    out = tmp_path / "cy"
    cfg = write_config(tmp_path, "c.json",
                       {"k_min": 2, "k_max": 3, "beta_points": 5, "region_grid": 12})
    assert run_cli(["cyclic", "--config", cfg, "--out", str(out)]) == 0
    spec = (out / "spectrum.csv").read_text().splitlines()
    assert spec[0] == "k,beta,case,d,spectral_radius,min_modulus"
    regions = (out / "regions.csv").read_text().splitlines()
    assert regions[0] == "r,s,k,case"
    assert all(line.split(",")[3] in ("I", "II", "III") for line in regions[1:])


def test_cyclic_spectrum_matches_the_per_row_oracle(tmp_path):
    # one stacked solve per k writes the bytes of one oracle spectrum per row
    payload = {"k_min": 2, "k_max": 6, "beta_lo": -0.9, "beta_hi": 0.7, "beta_points": 9,
               "region_grid": 6}
    out = tmp_path / "cy"
    assert run_cli(["cyclic", "--config", write_config(tmp_path, "c.json", payload),
                    "--out", str(out)]) == 0
    lines = ["k,beta,case,d,spectral_radius,min_modulus"]
    for k in range(2, 7):
        w = 1.0 / (k - 0.5)
        rp = RegionParams(s=w / 2.0, r=1.0 - w / 2.0)
        for beta in np.linspace(-0.9, 0.7, 9).tolist():
            case = classify_case(rp, k, beta)
            rep, _ = spectrum_oracle.spectrum(k, beta, case)
            lines.append("%d,%.17g,%s,%.17g,%.17g,%.17g" % (
                k, beta, case.value, cyclic_spacing(case, rp, k, beta),
                rep.spectral_radius, rep.min_modulus))
    assert (out / "spectrum.csv").read_text() == "\n".join(lines) + "\n"


def test_cyclic_regions_match_the_per_row_oracle(tmp_path):
    # each cell of the region grid, classified on its own, formatted per row
    g = 17
    payload = {"k_min": 2, "k_max": 2, "beta_points": 2, "region_grid": g}
    out = tmp_path / "cy"
    assert run_cli(["cyclic", "--config", write_config(tmp_path, "c.json", payload),
                    "--out", str(out)]) == 0
    lines = ["r,s,k,case"]
    grid = ((np.arange(g) + 0.5) / g).tolist()
    for r in grid:
        for s in grid:
            if 0.0 < s < r < 1.0:
                rp = RegionParams(s=s, r=r)
                k = max_isolated_clusters(rp) + 1
                lines.append("%.17g,%.17g,%d,%s" % (r, s, k, classify_case(rp, k, 1.0 / k).value))
    assert len(lines) > 100 and max(int(line.split(",")[2]) for line in lines[1:]) >= 10
    assert (out / "regions.csv").read_text() == "\n".join(lines) + "\n"


def test_pde_outputs(tmp_path):
    out = tmp_path / "pde"
    assert run_cli(["pde-steady", "--out", str(out)]) == 0
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "x,u,b,flux"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["on_r_level"] == pytest.approx(1.0 / 1.15)
    assert summary["flux_residual"] < 1e-13


def test_validation_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"s": 0.9, "r": 0.5})
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    # a feedback kind that is not a string is named, not looked up (a list is unhashable)
    capsys.readouterr()
    cfg = write_config(tmp_path, "kind.json", {"feedback": {"kind": ["linear"]}})
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: unknown feedback kind") and err.count("\n") == 1


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 2.0)], ids=["value-zero", "value-one"])
def test_sweep_value_not_above_one_exit_code(tmp_path, monkeypatch, capsys, threads, lo, hi):
    # |S| + |R| = 1/value must be < 1: value 0 (lo -1, hi 1, 2 points) would
    # divide by zero in a worker, and value 1 gives r = s; both are refused
    # before any worker starts, and nothing is written
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = write_config(tmp_path, "c.json",
                       {"n": 20, "points": 2, "cycles": 1.0, "lo": lo, "hi": hi})
    out = tmp_path / "x"
    assert run_cli(["sweep-fig4", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: sweep values must be > 1") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_zero_dt_exit_code(tmp_path, monkeypatch, capsys, threads):
    # dt is checked before the horizon is divided by it and before any worker
    # starts; it once raised ZeroDivisionError
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = write_config(tmp_path, "c.json", {"n": 20, "points": 2, "cycles": 1.0, "dt": 0})
    out = tmp_path / "x"
    assert run_cli(["sweep-fig4", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: dt must lie in") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("payload", [{"bins": 1}, {"occupancy_threshold": 0},
                                     {"lo": 1.0, "hi": 1.0 + 3e-10}],
                         ids=["one-bin", "zero-threshold", "middle-arc-too-short"])
def test_sweep_histogram_settings_checked_before_the_sweep(tmp_path, monkeypatch, capsys,
                                                           threads, payload):
    # the histogram count once refused these only after every point had run;
    # the first value, 1 + 1e-10, leaves a middle arc r - s of ~1e-10, below MIN_ARC
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_em_block", no_sweep)
    cfg = write_config(tmp_path, "c.json", {**SMALL_SWEEP, **payload})
    out = tmp_path / "x"
    assert run_cli(["sweep-fig4", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
def test_out_naming_a_file_exit_code(tmp_path, capsys, below):
    # mkdir raised FileExistsError or NotADirectoryError as a traceback
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert run_cli(["pde-steady", "--out", str(afile / below)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: cannot create output directory")
    assert err.count("\n") == 1
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command, payload", [
    ("simulate", {"does_not_exist": 1}),
    ("simulate", {"feedback": {"kind": "hill", "gamma": 0.5}}),
    ("simulate", {"feedback": {"kind": "linear", "gamma": 0.5, "bogus": 1}}),
    ("simulate", {"feedback": "linear"}),
    ("simulate", {"n": "abc"}),
    ("simulate", {"n": -1}),
    ("retmap", {"grid": -1}),
    ("simulate", {"n": 2.5}),
    ("sweep-fig4", {"points": 0}),
    ("pde-steady", {"grid": 0}),
    ("simulate", {"feedback": {"kind": "linear", "gamma": "x"}}),
    ("simulate", {"feedback": {"kind": "tabulated", "points": [["a", 1], [1, 0.5]]}}),
    ("simulate", {"initial": "foo"}),
    ("simulate", {"cycles": float("nan"), "n": 5}),
    ("simulate", {"engine": "sde", "sigma": float("nan"), "n": 5, "cycles": 1.0}),
    ("simulate", {"feedback": {"kind": "linear", "gamma": float("inf")}}),
    ("sweep-fig4", {"n": 50, "points": 3, "cycles": -5}),
    ("sweep-fig4", {"n": 50, "points": 3, "cycles": 0.001}),
    ("simulate", {"engine": "sde", "n": 5, "cycles": 0.001}),
    ("simulate", {"initial": [0.1, 0.2], "n": 50, "cycles": 1}),
    ("retmap", {"alpha": -0.97, "grid": 5}),
    ("retmap", {"alpha": 19.5, "grid": 5}),
    ("cyclic", {"beta_lo": -0.97, "region_grid": 4}),
    # arcs too short for the exact kernel's clocks once aborted the run (exit 4)
    ("simulate", {"s": 1e-300}),
    ("simulate", {"r": 0.9999999999999999}),
    ("retmap", {"r": 0.9999999999999999}),
    # -inf steps passed the step cap and ended in an OverflowError traceback
    ("sweep-fig4", {"cycles": -1e308}),
    ("simulate", {"engine": "sde", "cycles": -1e308}),
    # sigma 1e308 once filled trajectory.csv with nan (exit 0), and ran a whole sweep
    ("simulate", {"engine": "sde", "n": 5, "cycles": 1, "sigma": 1e308}),
    ("sweep-fig4", {"sigma": 1e308}),
    ("simulate", {"engine": "sde", "n": 5, "cycles": 1, "sigma": float("inf")}),
    # hi - lo overflows: numpy's RuntimeWarning once made a second line
    ("sweep-fig4", {"lo": -1e308, "hi": 1e308}),
], ids=["unknown-key", "feedback-missing-key", "feedback-unknown-key",
        "feedback-not-object", "non-number", "negative-count", "negative-grid",
        "fractional-count", "zero-points", "zero-grid", "feedback-value-not-number",
        "table-entry-not-number", "unknown-initial", "nan-cycles", "nan-sigma",
        "infinite-feedback-value", "sweep-negative-cycles", "sweep-horizon-below-one-step",
        "sde-horizon-below-one-step", "initial-length-not-n", "retmap-speed-below-window",
        "retmap-speed-above-window", "cyclic-speed-below-window", "simulate-s-arc-too-short",
        "simulate-r-arc-too-short", "retmap-r-arc-too-short", "sweep-cycles-minus-1e308",
        "sde-cycles-minus-1e308", "sde-sigma-1e308", "sweep-sigma-1e308", "sde-sigma-inf",
        "sweep-range-overflow"])
def test_unknown_config_key_exit_code(tmp_path, command, payload, capsys):
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "x"
    with warnings.catch_warnings():  # a warning would be one more line on stderr
        warnings.simplefilter("error")
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    # nothing is written, and --out is not made: retmap once wrote two files
    # before it checked alpha
    assert not out.exists()


@pytest.mark.parametrize("command, payload, key", [
    ("retmap", {"alpha": 19.5, "grid": 5}, "alpha"),
    ("retmap", {"alpha": -0.97, "grid": 5}, "alpha"),
    ("cyclic", {"beta_lo": -0.97, "region_grid": 4}, "beta"),
    # as_piecewise once refused it first, as a discontinuous map (exit 3)
    ("retmap", {"alpha": 1e308, "grid": 5}, "alpha"),
])
def test_speed_window_error_names_the_config_key(tmp_path, command, payload, key, capsys):
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "x"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"speed 1 + {key} = " in err
    assert ("beta" in err) == (key == "beta")
    assert not out.exists()


@pytest.mark.parametrize("command, payload", [
    ("sweep-fig4", {"n": 20, "points": 2, "cycles": 1e308}),
    ("simulate", {"engine": "sde", "n": 5, "cycles": 1e308}),
    ("sweep-fig4", {"n": 20, "points": 2, "dt": 1e-300}),
], ids=["sweep-cycles-overflow", "sde-cycles-overflow", "sweep-dt-never-ends"])
def test_step_count_above_the_cap_exits_2(tmp_path, command, payload, capsys):
    # the first two ended in an OverflowError traceback, the third asked for
    # ~1e302 steps and never ended
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "x"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: cycles / dt = ") and err.count("\n") == 1
    assert "above the cap of 10000000 steps per run" in err
    assert not out.exists()


@pytest.mark.parametrize("payload, named", [
    ({"sigma": 1e308, "dt": 5, "n": 4, "cycles": 1.0}, "sigma must lie in [0, 1], got 1e+308"),
    ({"dt": 5, "n": 4, "cycles": 1.0}, "dt must lie in (0, 0.1], got 5.0"),
    ({"cycles": 1e308}, "cycles = 1e+308 makes at least inf crossings, above the budget of "
                        "10000000 events per run"),
    ({"cycles": 1e9}, "cycles = 1000000000.0 makes at least 4.36364e+11 crossings"),
], ids=["exact-sigma-1e308", "exact-dt-5", "exact-cycles-1e308", "exact-cycles-1e9"])
def test_exact_simulate_config_is_refused_before_any_work(tmp_path, payload, named, capsys):
    # sigma and dt went unchecked on the exact engine and into metadata.json;
    # cycles 1e308 and 1e9 ran 11-13 s to the event budget, then exited 4
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "x"
    start = time.perf_counter()
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def _sized(tmp_path, command, payload, overrides=None):
    """The config `_load_config` makes of payload, or its one-line refusal."""
    try:
        return cli._load_config(write_config(tmp_path, "c.json", payload), command,
                                overrides or {})
    except cli.ValidationError as exc:
        assert "\n" not in str(exc)
        return str(exc)


@pytest.mark.parametrize("command, payload, named", [
    ("simulate", {"n": 10 ** 9}, "n = 1000000000 cells lies above the cap of 100000"),
    ("simulate", {"n": 10 ** 5 + 1, "initial": "uniform"}, "cap of 100000"),
    ("sweep-fig4", {"n": 10 ** 9}, "n = 1000000000 cells"),
    ("sweep-fig4", {"n": 10 ** 5, "points": 101}, "points * n = 10100000 phases"),
    ("sweep-fig4", {"n": 1, "points": 10 ** 9}, "points = 1000000000 sweep points lies above "
                                                "the cap of 2000"),
    ("sweep-fig4", {"n": 5000, "points": 2001}, "cap of 2000"),
    ("sweep-fig4", {"bins": 2401}, "bins = 2401 bins lies above the cap of 2400"),
    ("retmap", {"grid": 10 ** 9}, "grid = 1000000000 grid points lies above the cap of 20000"),
    ("pde-steady", {"grid": 20001}, "cap of 20000"),
    ("cyclic", {"region_grid": 2401}, "region_grid = 2401 cells a side lies above the cap of "
                                      "2400"),
    ("cyclic", {"beta_points": 1001}, "beta_points = 1001 betas lies above the cap of 1000"),
    ("cyclic", {"k_max": 161}, "k_max = 161 clusters lies above the cap of 160"),
    ("cyclic", {"beta_points": 20, "k_max": 51},
     "beta_points * (k_max - 1)**2 lies above the cap of 49000"),
], ids=["simulate-n-1e9", "simulate-n-above-cap", "sweep-n-1e9", "sweep-block-above-cap",
        "sweep-points-1e9", "sweep-points-above-cap", "sweep-bins-above-cap",
        "retmap-grid-1e9", "pde-grid-above-cap", "cyclic-region-grid-above-cap",
        "cyclic-beta-points-above-cap", "cyclic-k-max-above-cap", "cyclic-stack-above-cap"])
def test_population_above_its_cap_is_refused_by_the_validator(tmp_path, command, payload, named):
    # refused in _load_config, before any command allocates: n 10**9 asked
    # for 8 GB in its first line and was killed by the host with nothing printed
    assert named in _sized(tmp_path, command, payload)


def test_step_cap_admits_its_own_count(tmp_path):
    for command, payload in (("sweep-fig4", {}), ("simulate", {"engine": "sde", "n": 1})):
        cycles = 0.02 * 10 ** 7  # exactly the cap
        at_cap = _sized(tmp_path, command, {**payload, "dt": 0.02, "cycles": cycles})
        assert at_cap["cycles"] == cycles
        refused = _sized(tmp_path, command, {**payload, "dt": 0.02,
                                             "cycles": float(np.nextafter(cycles, np.inf))})
        assert refused.startswith("cycles / dt = 1e+07 steps lies above the cap")


def test_population_caps_admit_their_own_sizes(tmp_path):
    for command in cli._DEFAULTS:
        assert isinstance(cli._load_config(None, command, {}), dict)
    assert _sized(tmp_path, "simulate", {"n": 10 ** 5})["n"] == 10 ** 5
    assert _sized(tmp_path, "sweep-fig4", {"n": 10 ** 5, "points": 100})["points"] == 100
    paper = {"n": 5000, "points": 100, "cycles": 200.0}  # the --paper-scale overrides
    assert _sized(tmp_path, "sweep-fig4", {}, paper)["n"] == 5000
    for command, payload in [("sweep-fig4", {"n": 5000, "points": 2000, "bins": 2400}),
                             ("retmap", {"grid": 20000}), ("pde-steady", {"grid": 20000}),
                             ("cyclic", {"region_grid": 2400, "beta_points": 1000, "k_max": 8}),
                             ("cyclic", {"beta_points": 1, "k_max": 160}),
                             ("cyclic", {"beta_points": 20, "k_max": 50})]:  # 20 * 49**2 = 48020
        assert _sized(tmp_path, command, payload) == {**cli._DEFAULTS[command], **payload}


# The validator alone, on drawn configs: every known key of a command may
# take one of the malformed values a fuzz of the CLI used, a count up to
# 10**9, or a small valid value; no command runs.
_MALFORMED = [0, -1, 1e-300, 1e308, -1e308, 10 ** 9, 0.5, "x", [], {}, None, True,
              float("nan")]
_VALID = {
    "engine": st.sampled_from(["exact", "sde"]),
    "initial": st.one_of(st.sampled_from(["random", "uniform"]),
                         st.lists(st.floats(0.0, 0.99), min_size=1, max_size=3)),
    "feedback": st.builds(lambda g: {"kind": "linear", "gamma": g}, st.floats(-0.9, 0.9)),
    "s": st.floats(0.01, 0.45), "r": st.floats(0.55, 0.99), "cycles": st.floats(-1.0, 20.0),
    "sigma": st.floats(0.0, 0.05), "dt": st.floats(0.001, 0.1), "gamma": st.floats(-0.9, 0.9),
    "lo": st.floats(-1.0, 3.0), "hi": st.floats(1.0, 8.0), "alpha": st.floats(-0.9, 3.0),
    "beta_lo": st.floats(-0.9, 0.0), "beta_hi": st.floats(0.0, 0.9), "c": st.floats(0.0, 2.0),
    "occupancy_threshold": st.floats(0.0, 4.0),
}


@st.composite
def drawn_configs(draw):
    command = draw(st.sampled_from(sorted(cli._DEFAULTS)))
    keys = draw(st.lists(st.sampled_from(list(cli._DEFAULTS[command])), unique=True,
                         min_size=1, max_size=3))
    payload = {}
    for key in keys:
        valid = st.integers(0, 10 ** 9) | st.integers(1, 30) if key in cli._COUNTS else _VALID[key]
        payload[key] = draw(st.sampled_from(_MALFORMED) | valid)
    return command, payload


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "c.json"


def assert_accepted_or_refused_in_one_line(path, command, payload):
    """_load_config on payload raises ValidationError with one line, or
    returns the defaults updated with payload; any other exception, or a
    warning (which the CLI would print), fails."""
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = cli._load_config(str(path), command, {})
        except cli.ValidationError as exc:
            assert "\n" not in str(exc) and str(exc)
            return
    assert cfg == {**cli._DEFAULTS[command], **payload}


def test_validator_on_each_malformed_value_of_each_key(config_path):
    # the fuzz itself, on the validator alone: 13 values on every key
    for command, defaults in cli._DEFAULTS.items():
        for key in defaults:
            for value in _MALFORMED:
                assert_accepted_or_refused_in_one_line(config_path, command, {key: value})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(drawn=drawn_configs())
def test_validator_accepts_or_refuses_in_one_line(config_path, drawn):
    assert_accepted_or_refused_in_one_line(config_path, *drawn)


def test_every_count_has_a_row_and_no_command_body_raises():
    # each integer default is a count of _COUNTS; the command bodies and the
    # sweep worker raise no ValidationError: the validator holds every rule
    for defaults in cli._DEFAULTS.values():
        for key, value in defaults.items():
            assert isinstance(value, int) == (key in cli._COUNTS), key
    bodies = [node for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
              if isinstance(node, ast.FunctionDef)
              and (node.name.startswith("cmd_") or node.name == "_sweep_block")]
    assert len(bodies) == 6
    for body in bodies:
        for node in ast.walk(body):
            raises = isinstance(node, ast.Raise) and "ValidationError" in ast.dump(node)
            assert not raises, body.name


def test_sampled_values_cap(tmp_path):
    # (steps / sample_every + 1) * n: the start, each sample and the last
    # step; dt = 2**-4, so that cycles / dt is each step count exactly
    def sampled(steps, every, n):
        return _sized(tmp_path, "simulate", {"engine": "sde", "dt": 0.0625, "cycles": steps / 16,
                                             "sample_every": every, "n": n})

    assert isinstance(sampled(10 ** 4, 1, 5000), dict)  # a paper-scale trajectory, every step
    assert isinstance(sampled(2 ** 23 - 1, 1, 8), dict)  # exactly the cap
    assert isinstance(sampled(10 ** 7, 10 ** 4, 200), dict)
    assert isinstance(sampled(3068, 3, 2 ** 16), dict)  # sampled every 3rd: 1024 states
    for steps, every, n in ((2 ** 23, 1, 8), (10 ** 7, 1, 200), (3068, 3, 2 ** 16 + 1)):
        assert sampled(steps, every, n).startswith("(steps / sample_every + 1) * n = ")


def test_sde_trajectory_above_the_values_cap_exits_2(tmp_path, monkeypatch, capsys):
    # n 200 at the 10**7-step cap would write 2 * 10**9 values, ~40 GB of
    # trajectory.csv; the engine is replaced, so that a missing check fails
    # here instead of running it
    def not_refused(*args, **kwargs):
        raise AssertionError("the run was not refused")

    monkeypatch.setattr(cli, "_sde_run", not_refused)
    cfg = write_config(tmp_path, "c.json", {"engine": "sde", "n": 200, "cycles": 2e5})
    out = tmp_path / "x"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("validation error: (steps / sample_every + 1) * n = 2000000200 sampled "
                   "values lies above the cap of 67108864\n")
    assert not out.exists()


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command, key, named", [
    pytest.param("simulate", "n", "n = 1000000000 cells lies above the cap of 100000",
                 id="simulate"),
    pytest.param("sweep-fig4", "n", "n = 1000000000 cells lies above the cap of 100000",
                 id="sweep-fig4"),
    ("sweep-fig4", "bins", "bins = 1000000000 bins lies above the cap of 2400"),
    ("retmap", "grid", "grid = 1000000000 grid points lies above the cap of 20000"),
    ("pde-steady", "grid", "grid = 1000000000 grid points lies above the cap of 20000"),
    ("cyclic", "region_grid", "region_grid = 1000000000 cells a side lies above the cap of 2400"),
    ("cyclic", "beta_points", "beta_points = 1000000000 betas lies above the cap of 1000"),
    ("cyclic", "k_max", "k_max = 1000000000 clusters lies above the cap of 160"),
])
def test_population_above_its_cap_exits_2_before_any_file(tmp_path, command, key, named):
    # in a process limited to 2 GiB of address space, so that a missing cap
    # ends in a MemoryError (exit 1) instead of an 8 GB allocation; each
    # count but n did so at 10**9, and cyclic's region_grid left spectrum.csv
    cfg = write_config(tmp_path, "c.json", {key: 10 ** 9})
    out = tmp_path / "x"
    proc = subprocess.run([sys.executable, "-m", "rscycle.cli", command, "--config", cfg,
                           "--out", str(out)], capture_output=True, text=True,
                          preexec_fn=_limit_address_space, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"validation error: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, argv, named", [
    (None, ["simulate"], "cannot read config"),
    ("{bad", ["simulate"], "not valid JSON"),
    ("[1, 2]", ["simulate"], "JSON object"),
    ("{}", ["simulate", "--seed", "-1"], "seed"),
    ('{"k_min": 1}', ["cyclic"], "k_min"),
    ('{"k_min": 4, "k_max": 3, "region_grid": 2}', ["cyclic"], "k_max"),
], ids=["missing-config", "invalid-json", "config-not-object", "negative-seed",
        "k-min-below-two", "k-max-below-k-min"])
def test_bad_invocation_exit_code(tmp_path, text, argv, named, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert run_cli([*argv, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert named in err


def test_certificate_error_exit_code(tmp_path, monkeypatch):
    def boom(cfg, seed, out, threads):
        raise CertificateError("synthetic")

    monkeypatch.setitem(cli._COMMANDS, "pde-steady", boom)
    assert run_cli(["pde-steady", "--out", str(tmp_path / "x")]) == 3


def test_simulation_error_exit_code(tmp_path, monkeypatch, capsys):
    def boom(cfg, seed, out, threads):
        raise SimulationError("synthetic")

    monkeypatch.setitem(cli._COMMANDS, "simulate", boom)
    assert run_cli(["simulate", "--out", str(tmp_path / "x")]) == 4
    assert capsys.readouterr().err == "simulation aborted: synthetic\n"


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "script"
    proc = subprocess.run(
        [sys.executable, "-m", "rscycle.cli", "pde-steady", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert (out / "profile.csv").exists()


def test_paper_scale_flag_changes_config(tmp_path, monkeypatch):
    # the sweep itself is stubbed: a paper-scale run would take minutes
    monkeypatch.setitem(cli._COMMANDS, "sweep-fig4", lambda cfg, seed, out, threads: 0)
    cfg = write_config(tmp_path, "c.json", SMALL_SWEEP)
    for flag, n, points, cycles in ((["--paper-scale"], 5000, 100, 200.0), ([], 40, 3, 3.0)):
        out = tmp_path / f"ps{n}"
        assert run_cli(["sweep-fig4", "--config", cfg, "--out", str(out), *flag]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["config"]["n"], meta["config"]["points"], meta["config"]["cycles"]) == (
            n, points, cycles)


def test_sweep_horizon_below_one_step_exit_code_with_workers(tmp_path, monkeypatch, capsys):
    # refused while the config is read, before --out is made or any worker
    # starts, as with one process (the sweep-horizon-below-one-step id above)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = write_config(tmp_path, "c.json", {"n": 50, "points": 3, "cycles": 0.001})
    out = tmp_path / "x"
    assert run_cli(["sweep-fig4", "--config", cfg, "--out", str(out), "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert not out.exists()


def test_threads_clamped_to_cpu_count(tmp_path, monkeypatch):
    # the sweep is stubbed, so no worker pool is started
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "sweep-fig4",
                        lambda cfg, seed, out, threads: seen.append(threads) or 0)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    for threads in ("64", "2", "0"):
        assert run_cli(["sweep-fig4", "--out", str(tmp_path / "t"), "--threads", threads]) == 0
    assert seen == [3, 2, 1]


def test_only_cli_writes_files():
    # cli.py owns the artifact format; the library modules do no file I/O
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "cli.py":
            text = path.read_text()
            assert "open(" not in text and "savetxt(" not in text, path.name
    # and within cli.py, only the table writer and the JSON writer open a file
    # to write; a config is opened to read
    source = Path(cli.__file__).read_text()
    writers = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            for call in ast.walk(func):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "open":
                    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
                    if any(getattr(mode, "value", None) != "r" for mode in modes):
                        writers.add(func.name)
    assert writers == {"_write_table", "_write_json"}
    for name in ("savetxt(", "tofile(", "write_text(", "write_bytes("):
        assert name not in source, name


def test_import_does_not_load_multiprocessing():
    # only a sweep with more than one worker needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rscycle.cli; assert 'multiprocessing' not in sys.modules"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma takes 10-14 ms to import, about half of what retmap, cyclic
    # and pde-steady take together at their defaults; np.unique, for one,
    # imports it on its first call
    configs = {
        "simulate": {"n": 20, "cycles": 2.0},
        "sde": {"engine": "sde", "n": 20, "cycles": 2.0},
        "sweep-fig4": SMALL_SWEEP,
        "retmap": {"grid": 50},
        "cyclic": {"k_max": 3, "beta_points": 6, "region_grid": 12},
        "pde-steady": {"grid": 64},
    }
    runs = [["simulate" if name == "sde" else name,
             "--config", write_config(tmp_path, f"{name}.json", payload),
             "--seed", "1", "--out", str(tmp_path / name)] for name, payload in configs.items()]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "from rscycle.cli import main\n"
         "for argv in json.loads(sys.argv[1]):\n"
         "    assert main(argv) == 0, argv\n"
         "    assert 'numpy.ma' not in sys.modules, argv",
         json.dumps(runs)],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()


# The table writer against the per-row "%" formatting it replaced.

def reference_csv(header, table):
    fmt = ",".join(["%.17g"] * table.shape[1])
    return (header + "\n" + "".join(fmt % tuple(row) + "\n" for row in table)).encode()


def reference_lines(values):
    return b"".join(b"%.17g\n" % v for v in values.tolist())


def format_lines(values):
    return cli._format_g17(values, np.full(values.size, ord("\n"), np.uint8))


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "table.csv"


# A drawn value is 8 bytes: a sign bit, a 17-digit significand and one of 64
# decimal exponents.  40 exponents lie in the range formatted in numpy,
# [1e-5, 1e15); the others reach the subnormals and near the largest double,
# and -inf gives +-0.0.  One byte string per table draws several times faster
# than a float strategy per value.
_EXPONENTS = np.array([*range(-5, 15)] * 2 + [
    -6, -7, -10, -30, -100, -200, -300, -307, -308, -310, -315, -320, -323,
    15, 16, 17, 20, 30, 100, 200, 300, 306, 307, -np.inf])


@st.composite
def real_tables(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    size = 8 * rows * cols
    words = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), "<u8")
    digits = 10**16 + (words >> np.uint64(6)) % np.uint64(9 * 10**16)
    x = digits * 1e-16 * 10.0 ** _EXPONENTS[words & np.uint64(63)]
    return np.copysign(x, np.where(words >> np.uint64(63), -1.0, 1.0)).reshape(rows, cols)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(table=real_tables())
def test_real_writer_matches_per_row_format(table_path, table):
    # the table goes in as a vector and a block
    cli._write_table(table_path, "a,b", table[:, 0], table[:, 1:])
    assert table_path.read_bytes() == reference_csv("a,b", table)


# A mixed table: real vectors and 2-D blocks (exponents of _EXPONENTS, either
# sign, with -0.0, subnormals and values >= 1e15 among them), sequences of a
# few distinct reals (+-0.0 among them in half of the draws), counts of up to
# seven digits of either sign, and labels; one table in five spans more than
# _CHUNK_VALUES reals or _CHUNK_ROWS rows.
_SPECIAL_REALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e15, 3.5e16,
                           1.7976931348623157e308, -1e20, 1e-5, np.nextafter(1e-5, 0.0), -2.5])
_LABELS = ["I", "II", "III", "none", "le_M", "ge_M_plus_1"]


@st.composite
def mixed_tables(draw):
    kinds = draw(st.lists(st.sampled_from(["vector", "block", "grid", "count", "label"]),
                          min_size=1, max_size=6))
    widths = [draw(st.integers(2, 3)) if kind == "block" else 1 for kind in kinds]
    reals = sum(w for kind, w in zip(kinds, widths) if kind in ("vector", "block"))
    rows = draw(st.sampled_from([0, 1, 2, 9, cli._CHUNK_VALUES // max(1, reals) + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, fmt = [], []
    for kind, width in zip(kinds, widths):
        if kind == "count":
            counts = rng.integers(-10**7, 10**7, rows) // 10 ** rng.integers(0, 7, rows)
            columns.append(counts.tolist())
            fmt.append("%d")
        elif kind == "label":
            columns.append(rng.choice(_LABELS, rows).tolist())
            fmt.append("%s")
        elif kind == "grid":
            pool = [*rng.choice(_SPECIAL_REALS[2:], 2), *rng.random(2)]  # [2:]: no zero
            pool += [0.0, -0.0] if rng.random() < 0.5 else []
            columns.append(rng.choice(np.array(pool), rows).tolist())
            fmt.append("%.17g")
        else:
            x = (1.0 + rng.random((rows, width))) * 10.0 ** rng.choice(_EXPONENTS, (rows, width))
            x *= rng.choice([-1.0, 1.0], (rows, width))
            special = rng.random((rows, width)) < 0.1
            x[special] = rng.choice(_SPECIAL_REALS, special.sum())
            columns.append(x[:, 0] if kind == "vector" else x)
            fmt += ["%.17g"] * width
    return columns, ",".join(fmt)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(table=mixed_tables())
def test_table_writer_matches_per_row_format(table_path, table):
    columns, fmt = table
    cli._write_table(table_path, "h", *columns)
    cells = [(c[:, None] if c.ndim == 1 else c).tolist() if isinstance(c, np.ndarray)
             else [[v] for v in c] for c in columns]
    rows = ["".join(fmt % tuple(v for cell in row for v in cell) + "\n") for row in zip(*cells)]
    assert table_path.read_bytes() == ("h\n" + "".join(rows)).encode()


def half_way_ties(rng, count):
    """For each decimal exponent E in [-5, 14], float64 values exactly half
    way between two 17-digit decimals: j * 2**(E - 17) with j odd is
    (j * 5**(16 - E) / 2) * 10**(E - 16)."""
    for E in range(-5, 15):
        five = 5 ** (16 - E)
        lo, hi = -(-2 * 10 ** 16 // five), min(2 * 10 ** 17 // five, 2 ** 53)
        j = rng.integers(lo // 2, hi // 2, count) * 2 + 1
        yield E, np.ldexp(j.astype(float), E - 17)


def test_real_formatter_sweep_matches_per_value_format():
    rng = np.random.default_rng(2024)
    powers = np.array([float(f"1e{k}") for k in range(-10, 16)])
    near = [powers]
    for direction in (0.0, np.inf):
        step = powers
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    ties = []
    for E, values in half_way_ties(rng, 2000):
        for v in values[:20].tolist():  # 17 digits and a half, exactly
            scaled = Fraction(v) * Fraction(10) ** (16 - E)
            assert scaled.denominator == 2 and 10 ** 16 < scaled < 10 ** 17
        ties.append(values)
    # 64 ulps either side of 0.01, 0.1, 1 and 10: x * 1e17 lands on or next
    # to 1e16 or 1e17, where a value leaves the class of E = -1
    around = [np.array([0.01, 0.1, 1.0, 10.0])]
    for direction in (0.0, np.inf):
        step = around[0]
        for _ in range(64):
            step = np.nextafter(step, direction)
            around.append(step)
    edges = np.array([1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 1e-4,
                      9.9999999999999995e-08, 1e15, np.nextafter(1e15, 0.0), 1e14,
                      685186056114786.875, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308, -1e-5, np.inf, -np.inf, np.nan])
    values = np.concatenate([
        rng.random(250_000),
        rng.random(250_000) * 10.0 ** rng.integers(-12, 17, 250_000),
        10.0 ** rng.uniform(-12.0, 16.0, 250_000),
        np.arange(250_000) / 1024.0,
        *near, *ties, *around, edges,
    ])
    assert values.size >= 1_000_000
    chunks = [values[start:start + (1 << 14)] for start in range(0, values.size, 1 << 14)]
    chunks.append(0.01 + 0.089 * rng.random(1 << 14))  # E = -2 alone
    for k, chunk in enumerate(chunks):
        assert format_lines(chunk) == reference_lines(chunk), k


def sde_reference(payload, seed=3):
    """simulate_sde on the inputs `rscycle simulate --seed seed` builds from
    the config payload of the sde engine: its cells drawn as
    np.sort(rng.random(n)) from rng = default_rng(seed), and its noise drawn
    from that rng after them."""
    cfg = {**cli._DEFAULTS["simulate"], **payload}
    rng = np.random.default_rng(seed)
    return simulate_sde(Population(np.sort(rng.random(cfg["n"]))),
                        RegionParams(s=cfg["s"], r=cfg["r"]),
                        FeedbackSpec.linear(cfg["feedback"]["gamma"]),
                        NoiseSpec(sigma=cfg["sigma"], dt=cfg["dt"]), float(cfg["cycles"]),
                        seed=rng, sample_every=cfg["sample_every"])


@pytest.mark.parametrize("engine", ["exact", "sde"])
def test_trajectory_csv_matches_per_row_format(tmp_path, engine):
    payload = {"engine": engine, "n": 30, "cycles": 3.0}
    cfg = write_config(tmp_path, "c.json", payload)
    assert run_cli(["simulate", "--config", cfg, "--seed", "3", "--out", str(tmp_path)]) == 0
    traj = sde_reference(payload) if engine == "sde" else exact_reference(payload)
    header = "t," + ",".join(f"phase_{i}" for i in range(30))
    table = np.column_stack((traj.times, traj.states))
    assert (tmp_path / "trajectory.csv").read_bytes() == reference_csv(header, table)


# The streamed trajectory.csv of the exact engine against the table writer
# over simulate_exact's arrays.

def assert_streamed_trajectory(tmp_path, payload):
    """Run rscycle simulate on payload; check trajectory.csv byte for byte
    and return its row count."""
    out = tmp_path / "streamed"
    cfg = write_config(tmp_path, "c.json", payload)
    assert run_cli(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    traj = exact_reference(payload)
    header = "t," + ",".join(f"phase_{i}" for i in range(traj.states.shape[1]))
    cli._write_table(tmp_path / "reference.csv", header, traj.times, traj.states)
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    return len(traj.times)


@pytest.mark.parametrize("payload", [
    {"n": 1, "cycles": 3.0},
    {"n": 5, "cycles": 1e-14},
    {"n": 3, "cycles": 2.0},
    {"n": 3, "initial": [0.1, 0.1, 0.1], "cycles": 2.0},
    {"n": 4, "initial": [0.7, 0.1, 0.4, 0.95], "cycles": 3.0},
], ids=["one-cell", "two-rows", "below-one-block", "tie-start", "unsorted-initial"])
def test_streamed_trajectory_matches_the_table_writer(tmp_path, payload):
    rows = assert_streamed_trajectory(tmp_path, payload)
    assert rows < _CHUNK
    if payload["cycles"] == 1e-14:
        assert rows == 2


@pytest.mark.parametrize("stops, on_stop, rows", [
    (2 * _CHUNK - 2, False, 2 * _CHUNK),  # a horizon between stops: 1 + stops + 1 rows
    (2 * _CHUNK - 1, True, 2 * _CHUNK),  # a horizon on a batch (offset 0): 1 + stops rows
    (100, True, 101),
], ids=["two-blocks", "two-blocks-horizon-on-a-batch", "horizon-on-a-batch"])
def test_streamed_trajectory_at_block_and_horizon_edges(tmp_path, stops, on_stop, rows):
    times = np.unique([ev.time for ev in exact_reference({"n": 7, "cycles": 40.0}).events])
    cycles = times[stops - 1] if on_stop else (times[stops - 1] + times[stops]) / 2.0
    assert assert_streamed_trajectory(tmp_path, {"n": 7, "cycles": float(cycles)}) == rows


def traced_simulate(out, payload, seed=3):
    """rscycle simulate on payload into out, under tracemalloc: its traced peak in bytes."""
    out.mkdir()
    cfg = write_config(out, "c.json", payload)
    tracemalloc.start()
    try:
        assert run_cli(["simulate", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_never_holds_the_states(tmp_path):
    # the exact engine's rows stream into trajectory.csv block by block, so a
    # default run peaks below the size of its (K, n) states
    peak = traced_simulate(tmp_path / "out", {})
    K = (tmp_path / "out" / "trajectory.csv").read_bytes().count(b"\n") - 1
    n = cli._DEFAULTS["simulate"]["n"]
    assert K > 10 * _CHUNK
    assert peak < K * n * 8


def test_exact_simulate_keeps_at_most_64_bytes_per_event(tmp_path):
    # the run is kept as compact arrays, 25 bytes for a crossing alone in its
    # stop, not as per-stop tuples and event records (~240 bytes an event):
    # from 250 to 1000 cycles (14k to 58k events) the traced peak grows by at
    # most 64 bytes per extra event
    peaks, events = [], []
    for cycles in (250.0, 1000.0):
        out = tmp_path / str(cycles)
        peaks.append(traced_simulate(out, {"n": 20, "cycles": cycles}, seed=1))
        events.append((out / "events.csv").read_bytes().count(b"\n") - 1)
    assert events[1] > 3 * events[0] > 40000
    assert peaks[1] - peaks[0] <= 64 * (events[1] - events[0])


def test_sde_simulate_never_holds_its_samples(tmp_path):
    # every sample streams into trajectory.csv as it is drawn: 2001 samples
    # of 500 cells are 8 MB stacked, and the run peaks below that
    payload = {"engine": "sde", "n": 500, "cycles": 40.0, "sample_every": 1}
    peak = traced_simulate(tmp_path / "out", payload)
    K = (tmp_path / "out" / "trajectory.csv").read_bytes().count(b"\n") - 1
    assert K == 2001
    assert peak < K * 500 * 8


# events.csv against the per-row "%.17g,%s,%d" formatting it replaced.

def reference_events_csv(events):
    rows = "".join("%.17g,%s,%d\n" % (ev.time, ev.kind.value, ev.cell) for ev in events)
    return ("t,kind,cell\n" + rows).encode()


def test_events_csv_matches_per_row_format(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"n": 30, "cycles": 3.0})
    assert run_cli(["simulate", "--config", cfg, "--seed", "3", "--out", str(tmp_path)]) == 0
    events = exact_reference({"n": 30, "cycles": 3.0}).events
    assert len(events) > 100
    assert (tmp_path / "events.csv").read_bytes() == reference_events_csv(events)


def _events_csv(path, events, rows_per_slice=7):
    """events.csv of the run whose compact arrays hold events: each run of
    events with bitwise-equal times is one row, and the rows are cut into
    slices of rows_per_slice."""
    rows = [list(group) for _, group in itertools.groupby(events, key=lambda ev: ev.time.hex())]
    slices = []
    for first in range(0, max(len(rows), 1), rows_per_slice):
        part = rows[first:first + rows_per_slice]
        members = [ev for row in part for ev in row]
        slices.append(_Slice(np.array([row[0].time for row in part], dtype=float),
                             np.zeros(len(part)), np.array(list(map(len, part)), np.int32),
                             np.array([ev.cell for ev in members], np.int32),
                             np.array([_KIND_OF_CODE.index(ev.kind) for ev in members], np.int8)))
    cli.write_events_csv(_Run(0.0, slices, None, None, []), path)
    return path.read_bytes()


# times below 1e-5 are formatted one by one by "%.17g", the rest in numpy
_EVENT_TIMES = st.one_of(st.floats(0.0, 1e-5), st.floats(1e-5, 1e3),
                         st.sampled_from([0.0, 5e-324, 1e-7, np.nextafter(1e-5, 0.0), 1e-5]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(_EVENT_TIMES, st.sampled_from(list(EventKind)),
                               st.integers(0, 12345)), max_size=30))
def test_events_writer_matches_per_row_format(table_path, rows):
    events = [EventRecord(*row) for row in rows]
    assert _events_csv(table_path, events) == reference_events_csv(events)


def test_events_writer_spans_chunks(tmp_path):
    rng = np.random.default_rng(17)
    count = 2 * cli._CHUNK_VALUES + 5
    times = np.concatenate((rng.random(count - 100) * 50.0, rng.random(100) * 1e-6))
    kinds = tuple(EventKind)
    events = [EventRecord(t, kinds[k], c) for t, k, c in
              zip(times.tolist(), rng.integers(0, 3, count).tolist(), rng.integers(0, 2000, count).tolist())]
    for rows_per_slice in (1000, 7000, 20000):  # tables of whole slices, one or several
        got = _events_csv(tmp_path / "events.csv", events, rows_per_slice)
        assert got == reference_events_csv(events)
