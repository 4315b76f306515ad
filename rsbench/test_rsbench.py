"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest -q rsbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rscycle
import workloads
from rscycle import cli
from tracer import Tracer
from worker import load_reference, run_rep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# End-to-end metrics the one command prints, their units, and the workloads
# each applies to.
ALL = set(workloads.WORKLOADS)
EXPECTED_TABLE = {
    "wall_s": ("s", ALL),
    "setup_s": ("s", ALL),
    "events_per_s": ("1/s", {"exact-large", "simulate-cli"}),
    "cell_steps_per_s": ("1/s", {"sde-sweep"}),
    "grid_cells_per_s": ("1/s", {"section-atlas"}),
    "peak_rss_mb": ("MB", ALL),
    "output_mb": ("MB", {"simulate-cli", "sde-sweep", "section-atlas"}),
    "error_rate": ("ratio", ALL),
    "wall_raw_s": ("s", ALL),
    "setup_raw_s": ("s", ALL),
    "host_speed": ("ratio", ALL),
}

# Per-layer values that are counts and must repeat exactly for one seed.
COUNT_SUFFIXES = (".calls", ".events", ".batches", ".steps", ".bytes", ".segments_out",
                  ".replays_per_call", ".distinct_ratio", ".hits_per_call")


def test_workload_names_agree():
    import run
    names = tuple(w["name"] for w in SPEC["workloads"])
    assert names == workloads.WORKLOADS == run.WORKLOADS


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "rsbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = (float(value), unit)
    for name, (unit, applies) in EXPECTED_TABLE.items():
        if workload in applies:
            assert name in printed, f"{name} missing for {workload}"
            assert printed[name][1] == unit
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "section-atlas", "--seed", "0", "--seconds", "0",
                     "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cyclic.classify_case.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "exact-large", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _reverse_events(real):
    def corrupt(traj, path):
        real(traj, path)
        lines = Path(path).read_text().splitlines()
        Path(path).write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    return corrupt


def _wrap_past_one(real):
    def corrupt(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.states[-1, 0] = 1.0
        return traj
    return corrupt


# (workload, module, attribute, corruption of the real function)
CORRUPTIONS = [
    ("exact-large", rscycle, "simulate_exact", _wrap_past_one),
    ("simulate-cli", cli, "write_events_csv", _reverse_events),
    ("sde-sweep", cli, "count_clusters_histogram", lambda real: lambda *a, **k: 1),
    ("section-atlas", cli, "analytic_F_k2", lambda real: lambda *a, **k: real(*a, **k) + 1e-6),
]


@pytest.mark.parametrize("workload,module,attr,corruption", CORRUPTIONS)
def test_corrupted_output_counts_as_failure(tmp_path, monkeypatch, workload, module, attr,
                                            corruption):
    clean = run_rep(workload, 1, "smoke", tmp_path / "clean")
    assert clean["failed"] == 0, clean["problems"]
    monkeypatch.setattr(module, attr, corruption(getattr(module, attr)))
    rep = run_rep(workload, 1, "smoke", tmp_path / "corrupt")
    assert rep["failed"] > 0
    assert rep["failed"] / rep["attempted"] > 0


def test_reference_mismatch_counts_as_failure(tmp_path):
    seed = workloads.REFERENCE_SEED
    reference = load_reference("section-atlas", seed, "smoke")
    assert run_rep("section-atlas", seed, "smoke", tmp_path / "a", reference=reference)["failed"] == 0
    labels = reference["cyclic.regions.case"].copy()
    labels[0] = "III" if labels[0] != "III" else "I"
    doctored = dict(reference, **{"cyclic.regions.case": labels})
    rep = run_rep("section-atlas", seed, "smoke", tmp_path / "b", reference=doctored)
    assert rep["failed"] == 1
    assert any("cyclic.regions.case" in p for p in rep["problems"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_workload_has_one_root_span_and_repeatable_counts(tmp_path, workload):
    originals = (rscycle.simulate_exact, cli.main, rscycle.FeedbackSpec.__call__)
    counts = []
    for i in range(2):
        tracer = Tracer()
        rep = run_rep(workload, 2, "smoke", tmp_path / str(i), tracer=tracer)
        assert rep["failed"] == 0, rep["problems"]
        assert len(tracer.roots()) == 1
        assert tracer.roots()[0][2] == f"rsbench.{workload}"
        layers = tracer.layer_metrics()
        assert 0.0 < layers["trace.coverage"] <= 1.0
        counts.append({k: v for k, v in layers.items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert any(v for v in counts[0].values())
    assert (rscycle.simulate_exact, cli.main, rscycle.FeedbackSpec.__call__) == originals


def test_check_cells_catches_overtaking_across_the_wrap():
    initial = np.array([0.1, 0.5, 0.9])
    kinds = np.array([0, 1, 2])      # each cell's first crossing from its region
    cells = np.array([0, 1, 2])
    times = np.array([0.1, 0.2, 0.3])
    s, r = 0.25, 0.75
    assert workloads.check_cells(initial, np.array([0.3, 0.8, 0.05]), kinds, cells, times, s, r) == []
    # cell 2 wrapped and ran past cell 0: a lap ahead of the trailer
    problems = workloads.check_cells(initial, np.array([0.3, 0.8, 0.35]), kinds, cells, times, s, r)
    assert problems == ["cells overtook one another"]
