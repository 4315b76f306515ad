"""The library's contract: a public function returns a finite result or
raises ValidationError, CertificateError or SimulationError.

The property runs the calls of `tools/fuzz_library.py`, its value and array
tables on every argument of every entry point of `rscycle.__all__`, in one
child process under the fuzz's 2 GiB address-space limit and its per-call
time limit.  The regression table holds one row per defect that broke the
contract before each value rule was written once in the library.
"""

import importlib.util
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import rscycle
from rscycle import (Case, FeedbackSpec, NoiseSpec, Population, RegionParams, ValidationError,
                     analytic_F_k2, as_piecewise, build_A, classify_case, compose,
                     count_clusters_histogram, cyclic_solution, decompose, saturating_feedback,
                     simulate_exact, simulate_sde, spectrum, steady_profile,
                     verify_root_requirement)

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fuzz_library.py"
_SPEC = importlib.util.spec_from_file_location("fuzz_library", _PATH)
fuzz = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fuzz)

CALL_LIMIT = 5.0  # seconds per call


def test_every_public_name_is_an_entry_point_or_a_record():
    called = {name.split(".")[0] for name in fuzz.entry_points()}
    assert sorted(set(rscycle.__all__) - called) == sorted(fuzz.NOT_ENTRY_POINTS)
    assert called <= set(rscycle.__all__)


def test_every_entry_point_keeps_the_contract():
    names = list(fuzz.entry_points())
    rows = fuzz.run_child(names, CALL_LIMIT)
    assert len(rows) == sum(len(fuzz.calls(name)) for name in names)
    assert [row for row in rows if not row["outcome"].startswith(fuzz.KEPT)] == []
    # each base call returns, so every refusal is the value's own
    assert {row["entry"] for row in rows if row["argument"] is None and row["outcome"] == "ok"} \
        == set(names)


RP = RegionParams(s=0.25, r=0.75)
POP = Population([0.1, 0.35, 0.6, 0.85])
LINEAR = FeedbackSpec.linear(-0.6)
NAN, INF = math.nan, math.inf

# one row per defect: what each call did before its rule was the library's
DEFECTS = {
    # ran to max_events: ~60 s each here, ~30 s at n = 2
    "simulate_exact-duration-nan": lambda: simulate_exact(POP, RP, LINEAR, NAN),
    "simulate_exact-duration-inf": lambda: simulate_exact(POP, RP, LINEAR, INF),
    # ValueError from int(round(nan)), OverflowError from int(round(inf))
    "simulate_sde-duration-nan": lambda: simulate_sde(POP, RP, LINEAR, NoiseSpec(1e-3, 0.02), NAN),
    "simulate_sde-duration-inf": lambda: simulate_sde(POP, RP, LINEAR, NoiseSpec(1e-3, 0.02), INF),
    # ZeroDivisionError from 1 / k
    "saturating_feedback-k-0": lambda: saturating_feedback(0, 0.5),
    # TypeError from a float count
    "build_A-k-2.5": lambda: build_A(2.5, 0.3, Case.I),
    "spectrum-k-2.5": lambda: spectrum(2.5, 0.3, Case.I),
    "compose-times-2.5": lambda: compose(as_piecewise(RP, 0.5), 2.5),
    # MemoryError, or an 8 GB allocation without an address-space limit
    "count_clusters_histogram-bins-1e9": lambda: count_clusters_histogram(POP, 10 ** 9),
    "build_A-k-1e9": lambda: build_A(10 ** 9, 0.3, Case.I),
    # returned nan: a profile, a map value, slopes, and a count of 0
    "steady_profile-c-nan": lambda: steady_profile(NAN, RP, LINEAR),
    "analytic_F_k2-x1-nan": lambda: analytic_F_k2(NAN, RP, 0.5),
    "as_piecewise-alpha-nan": lambda: as_piecewise(RP, NAN),
    "count_clusters_histogram-threshold-nan": lambda: count_clusters_histogram(POP, 10, NAN),
    # returned inf: lambda**999 / (1 + beta) overflows, for a lambda no root reaches
    "verify_root_requirement-lambda-2": lambda: verify_root_requirement(2.0, 1000, -1.0 + 1e-15),
    # TypeError or ValueError: a comparison, float(), abs() or math.isfinite
    # met a value that is not a number before any rule did
    "RegionParams-s-x": lambda: RegionParams("x", 0.5),
    "RegionParams-r-string-number": lambda: RegionParams(0.25, "0.75"),
    "decompose-delta-x": lambda: decompose(POP, RP, "x"),
    "spectrum-beta-x": lambda: spectrum(3, "x", Case.I),
    "FeedbackSpec.linear-gamma-x": lambda: FeedbackSpec.linear("x"),
    "FeedbackSpec.hill-theta-None": lambda: FeedbackSpec.hill(0.6, None, 2.0),
    "saturating_feedback-beta-None": lambda: saturating_feedback(3, None),
    "verify_root_requirement-lambda-x": lambda: verify_root_requirement("x", 3, 0.3),
    "simulate_exact-max_events-x": lambda: simulate_exact(POP, RP, LINEAR, 1.0, max_events="x"),
    "simulate_sde-seed-x": lambda: simulate_sde(POP, RP, LINEAR, NoiseSpec(1e-3, 0.02), 1.0,
                                                seed="x"),
    "SteadyProfile.u-x-x": lambda: steady_profile(1.0, RP, LINEAR).u("x"),
    # TypeError from [] * s: the number rule let an empty list through
    "steady_profile-c-empty": lambda: steady_profile([], RP, LINEAR),
    # AttributeError and IndexError from a batch of objects or of no rows
    "classify_case-k-None": lambda: classify_case(RegionParams(0.15, 0.6), None, -0.3),
    "cyclic_solution-beta-empty": lambda: cyclic_solution(RegionParams(0.15, 0.6), 2, []),
}


@pytest.mark.parametrize("call", DEFECTS.values(), ids=DEFECTS.keys())
def test_each_defect_is_refused_in_the_library(call):
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        call()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("value, message", [
    (NAN, "x must be finite, got nan"),
    (np.array([0.5, INF]), "x must be finite, got inf"),
    ("a", "x must be a real number, got 'a'"),
])
def test_number_rule_names_the_first_value_that_fails(value, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        rscycle.model._check_number("x", value, array=True)


@pytest.mark.parametrize("value", [[0.5], np.array([0.5]), [], "0.5", None, b"1", 1j, [1, None]])
def test_number_rule_wants_one_real_number_unless_array(value):
    with pytest.raises(ValidationError, match="^x must be a real number, got "):
        rscycle.model._check_number("x", value)


@pytest.mark.parametrize("bounds, value, message", [
    ({"gt": 0.0}, -1.0, "d must be finite and > 0, got -1.0"),
    ({"ge": 0.0, "le": 1.0}, 2.0, "d must lie in [0, 1], got 2.0"),
    ({"gt": 0.0, "le": 0.1}, 0.0, "d must lie in (0, 0.1], got 0.0"),
    ({"gt": -1.0, "lt": 1.0}, 1.0, "d must lie in (-1, 1), got 1.0"),
])
def test_number_rule_states_its_range(bounds, value, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        rscycle.model._check_number("d", value, **bounds)


def test_count_rule_wants_an_int_that_is_not_a_bool():
    for value in (2.0, True, 1, np.float64(3.0)):
        with pytest.raises(ValidationError, match="^n must be an integer >= 2, got "):
            rscycle.model._check_count("n", value, 2, 10, "cells")
    rscycle.model._check_count("n", np.int64(10), 2, 10, "cells")
    with pytest.raises(ValidationError, match="^n = 11 cells lies above the cap of 10$"):
        rscycle.model._check_count("n", 11, 2, 10, "cells")
