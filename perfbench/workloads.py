"""Workload definitions and output checks for the specrf benchmark.

A workload is a tuple of `specrf` subcommand invocations ("cases").  Each
case names the subcommand, the config it runs at full (benchmark) size and at
tiny (self-test) size, and the CSV columns whose values the output check reads.
Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: relative tolerance of the reference comparison.  Exact reformulations
#: (merged duplicate features, dual solves, fused steps) move results by
#: 1e-15..1e-10 relative; a wrong answer moves them by far more than 1e-6.
REL_TOL = 1e-6

# The two acceptance-3 rate-recovery cases, at one repetition each.
_RATE_COMMON = {"n_grid": [500, 1000, 2000, 4000, 8000], "repetitions": 1,
                "n_test": 2000, "problem_seed": 0}
_RATE_TINY = {"n_grid": [100, 200, 400], "repetitions": 1, "d_max": 32,
              "n_test": 100}


@dataclass(frozen=True)
class Case:
    label: str
    command: str
    config: dict
    tiny_config: dict
    csv_name: str
    columns: tuple[str, ...]


def _rate_case(label: str, overrides: dict) -> Case:
    return Case(label, "rates", {**overrides, **_RATE_COMMON},
                {**overrides, **_RATE_TINY}, "rates.csv", ("excess_l2",))


WORKLOADS = {
    "rates": (
        _rate_case("r=0.5 b=1.0", {"r": 0.5, "b": 1.0, "d_max": 512, "R": 1.2,
                                   "noise_half_width": 1.0, "C_multiplier": 0.037,
                                   "M_multiplier": 2.0}),
        _rate_case("r=1.0 b=0.5", {"r": 1.0, "b": 0.5, "d_max": 32, "R": 0.5,
                                   "noise_half_width": 1.0, "C_multiplier": 0.037,
                                   "M_multiplier": 1.0}),
    ),
    "heatmap": (
        Case("defaults", "sweep-heatmap", {"repetitions": 3},
             {"problem": {"r": 1.5, "b": 1.0, "d_max": 8, "R": 2.0,
                          "noise_half_width": 0.1},
              "n_train": 100, "n_test": 100, "M_grid": [8, 16],
              "T_grid": [1, 4], "repetitions": 2},
             "heatmap.csv", ("mean_error",)),
    ),
    "ntk": (
        Case("defaults", "ntk-compare", {"repetitions": 2},
             {"grid_size": 6, "n_train": 10, "n_test": 10, "M_grid": [8, 16],
              "T": 4, "repetitions": 2},
             "ntk_compare.csv", ("median_discrepancy",)),
    ),
    "verify": (
        Case("E1-E9", "verify",
             {"problem": {"r": 0.5, "b": 1.0, "d_max": 64, "R": 1.0,
                          "noise_half_width": 0.3},
              "event_n": 200, "event_M": 200, "trials": 200},
             {"problem": {"r": 0.5, "b": 1.0, "d_max": 16, "R": 1.0,
                          "noise_half_width": 0.3},
              "trials": 50, "event_n": 50, "event_M": 50,
              "events": ["E2", "E6", "E7"], "grid_points": 20,
              "max_landweber_steps": 20},
             "verify_events.csv", ("violations", "lhs_q90")),
    ),
}


def write_config(case: Case, size: str, directory: Path) -> Path:
    path = directory / f"{case.command}.json"
    config = case.tiny_config if size == "tiny" else case.config
    path.write_text(json.dumps(config, sort_keys=True))
    return path


def read_values(case: Case, out: Path) -> list[float]:
    """The checked columns of the case's CSV, one column after the other."""
    with (out / case.csv_name).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(row[column]) for column in case.columns for row in rows]


def sanity_errors(case: Case, values: list[float]) -> list[str]:
    """Seed-independent checks: every error or statistic finite and positive,
    every violation count a nonnegative integer."""
    if not values:
        return [f"{case.csv_name} has no rows"]
    rows = len(values) // len(case.columns)
    errors = []
    for i, v in enumerate(values):
        column = case.columns[i // rows]
        if column == "violations":
            ok = math.isfinite(v) and v >= 0 and v == int(v)
        else:
            ok = math.isfinite(v) and v > 0
        if not ok:
            errors.append(f"{case.csv_name}: bad {column} {v!r}")
    return errors


def reference_errors(case: Case, values: list[float], expected: list[float]) -> list[str]:
    if len(values) != len(expected):
        return [f"{case.csv_name}: {len(values)} values, reference has {len(expected)}"]
    return [f"{case.csv_name} value {i}: {v!r} differs from reference {e!r} by more "
            f"than {REL_TOL:g} relative"
            for i, (v, e) in enumerate(zip(values, expected))
            if not math.isclose(v, e, rel_tol=REL_TOL, abs_tol=0.0)]


def load_reference() -> dict:
    """{workload: {seed (str): [values per case]}} for the full-size configs."""
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())
