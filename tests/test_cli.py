import concurrent.futures
import csv
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specrf import cli, conclab, dataio, estimator, neuralop, runtime, spectral


def run(command, tmp_path, config=None, seed=3, extra_args=()):
    out = tmp_path / command.replace("-", "_")
    args = [command, "--out", str(out), "--seed", str(seed), "--jobs", "1"]
    if config is not None:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config))
        args += ["--config", str(cfg_path)]
    args += list(extra_args)
    code = cli.main(args)
    return code, out


def assert_jobs_do_not_change_the_bytes(command, config, names, tmp_path):
    """The CSVs `names` of a `--jobs 1` run equal those of a `--jobs 2` run."""
    _, out1 = run(command, tmp_path, config)
    out2 = tmp_path / "pool"
    assert cli.main([command, "--out", str(out2), "--seed", "3", "--jobs", "2",
                     "--config", json.dumps(config)]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["environment"]["jobs"] == 2


def break_filters(monkeypatch):
    """Every filter becomes phi_lambda(t) = 2/lambda, whose |phi| lambda = 2
    breaks the E bound of the filter axioms."""
    monkeypatch.setattr(spectral, "_phi_array",
                        lambda filt, lam, t: np.full_like(t, 2.0 / lam))


TINY_PROBLEM = {"r": 0.5, "b": 1.0, "d_max": 32, "R": 1.0, "noise_half_width": 0.3}


class TestGen:
    def test_synthetic_dataset(self, tmp_path):
        code, out = run("gen", tmp_path, {"n": 40, "d_max": 16})
        assert code == 0
        header, body = dataio.load_results(out / "dataset.csv")
        assert header == ["u", "v"] and body.shape == (40, 2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "dataset.csv" in manifest["outputs"]

    def test_susy_fixture(self, tmp_path):
        code, out = run("gen", tmp_path, {"kind": "susy-fixture", "n": 30})
        assert code == 0
        ds = dataio.load_csv(out / "dataset.csv")
        assert ds.n == 30


class TestFit:
    def test_synthetic_fit(self, tmp_path):
        cfg = {"problem": TINY_PROBLEM, "n_train": 60, "n_test": 60,
               "M": 24, "T": 20}
        code, out = run("fit", tmp_path, cfg)
        assert code == 0
        header, body = dataio.load_results(out / "fit.csv")
        row = dict(zip(header, body[0]))
        assert row["test_risk"] > 0.0
        assert np.isfinite(row["excess_l2"])

    def test_csv_fit(self, tmp_path):
        fixture = tmp_path / "data.csv"
        dataio.make_susy_fixture(fixture, n=120, seed=0)
        cfg = {"csv": str(fixture), "n_train": 60, "n_test": 40, "M": 30,
               "filter": "tikhonov", "lambda": 0.3}
        # header row is not numeric: drop it first
        lines = fixture.read_text().splitlines()
        fixture.write_text("\n".join(lines[1:]) + "\n")
        code, out = run("fit", tmp_path, cfg)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "inputs_sha256" in manifest

    def test_fit_reads_the_csv_gen_writes(self, tmp_path):
        code, out = run("gen", tmp_path, {"kind": "susy-fixture", "n": 120})
        assert code == 0
        cfg = {"csv": str(out / "dataset.csv"), "n_train": 60, "n_test": 40, "M": 30,
               "filter": "tikhonov", "lambda": 0.3}
        code, _ = run("fit", tmp_path, cfg)
        assert code == 0

    @pytest.mark.parametrize("overrides,content,code,message", [
        ({"n_train": 100, "n_test": 100}, None, 3, "cannot split 50 rows"),
        ({"label_column": 40}, None, 3, "label column 40 out of range"),
        ({"feature_columns": [40]}, None, 3, "invalid feature columns: [40]"),
        ({"n_train": 1}, None, 3, "standardize needs at least 2 rows"),
        ({}, "1,2\n3,x\n", 4, "malformed cell at row 1, column 1"),
        ({}, "1,2,3\n4,5\n", 4, "row 1 has 2 cells"),
        ({}, "", 4, "contains no data rows"),
    ])
    def test_csv_the_config_does_not_fit_exits_3_and_a_bad_csv_4(
            self, overrides, content, code, message, tmp_path, capsys):
        """A config value the file refutes is a config error; a file that is
        not a numeric table is an input error.  Neither is exit 2."""
        path = tmp_path / "s.csv"
        if content is None:
            dataio.make_susy_fixture(path, n=50, seed=0)
        else:
            path.write_text(content)
        cfg = {"csv": str(path), "n_train": 30, "n_test": 20, **overrides}
        assert run("fit", tmp_path, cfg)[0] == code
        assert message in capsys.readouterr().err


class TestSweepHeatmap:
    CFG = {"problem": TINY_PROBLEM, "n_train": 80, "n_test": 80,
           "M_grid": [8, 16], "T_grid": [1, 4], "repetitions": 2}

    def test_grid_rows(self, tmp_path):
        code, out = run("sweep-heatmap", tmp_path, self.CFG)
        assert code == 0
        header, body = dataio.load_results(out / "heatmap.csv")
        assert body.shape[0] == 4  # |M_grid| x |T_grid|
        assert header[:2] == ["M", "T"]

    def test_singleton_grids_one_row(self, tmp_path):
        cfg = dict(self.CFG, M_grid=[8], T_grid=[4], repetitions=1)
        code, out = run("sweep-heatmap", tmp_path, cfg)
        assert code == 0
        _, body = dataio.load_results(out / "heatmap.csv")
        assert body.shape[0] == 1

    def test_svg_emitted(self, tmp_path):
        cfg = dict(self.CFG, svg=True)
        code, out = run("sweep-heatmap", tmp_path, cfg)
        assert code == 0
        svg = (out / "heatmap.svg").read_text()
        assert svg.startswith("<svg") and "rect" in svg

    def test_jobs_do_not_change_the_bytes(self, tmp_path):
        assert_jobs_do_not_change_the_bytes("sweep-heatmap", self.CFG, ["heatmap.csv"],
                                            tmp_path)

    def test_identity_activation_exits_3_before_any_cell(self, tmp_path, capsys):
        # sweep-heatmap runs tanh features only: an identity map's kappa is infinite
        code, out = run("sweep-heatmap", tmp_path, dict(self.CFG, activation="identity"))
        assert code == 3
        assert ("config error: unknown config key 'activation' for sweep-heatmap"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_jobs_do_not_change_the_bytes_on_the_low_rank_route(self, tmp_path, monkeypatch):
        """400 training inputs at M = 160 (400 x 480 designs) and T = 512 take
        the low-rank route (estimator._low_rank_descent) in every cell."""
        taken, real = [], estimator._low_rank_descent

        def spy(*args):
            out = real(*args)
            taken.append(out is not None)
            return out

        monkeypatch.setattr(estimator, "_low_rank_descent", spy)
        cfg = dict(self.CFG, n_train=400, n_test=100, M_grid=[160], T_grid=[1, 64, 512])
        assert_jobs_do_not_change_the_bytes("sweep-heatmap", cfg, ["heatmap.csv"], tmp_path)
        assert taken == [True, True]      # the serial run's two cells


class TestRates:
    def test_small_run_emits_slope(self, tmp_path):
        cfg = {"n_grid": [100, 200, 400], "repetitions": 2, "d_max": 32,
               "C_multiplier": 0.037, "M_multiplier": 1.0, "n_test": 200}
        code, out = run("rates", tmp_path, cfg)
        assert code == 0
        header, body = dataio.load_results(out / "rates.csv")
        assert body.shape[0] == 3
        s_header, s_body = dataio.load_results(out / "summary.csv")
        slope = dict(zip(s_header, s_body[0]))["slope"]
        assert -1.5 < slope < 0.5

    def test_small_n_flagged_not_dropped(self, tmp_path):
        cfg = {"n_grid": [3, 100, 200], "repetitions": 1, "d_max": 16,
               "n_test": 50}
        code, out = run("rates", tmp_path, cfg)
        assert code == 0
        header, body = dataio.load_results(out / "rates.csv")
        flags = body[:, header.index("meets_n0")]
        assert flags[0] == 0.0 and flags[1] == 1.0

    def test_pool_returns_results_in_item_order(self):
        # started largest first: 3, -2, -1, 1
        cells = [{"label": f"cell {x}", "x": x} for x in (-1, 3, -2, 1)]
        assert cli._pmap(operator.itemgetter("x"), cells, 2,
                         size=lambda cell: abs(cell["x"])) == [-1, 3, -2, 1]

    def test_pool_opens_no_more_workers_than_cells(self, monkeypatch):
        """The pool forks every worker at its first submit, so `_pmap` asks
        for no more than it has cells; a fake pool that maps serially
        records the request and starts no process."""
        opened = []

        class SerialPool:
            def __init__(self, max_workers, initializer):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cells = [{"label": f"cell {x}", "x": x} for x in (1, 2, 3)]
        assert cli._pmap(operator.itemgetter("x"), cells, 64,
                         size=lambda cell: cell["x"]) == [1, 2, 3]
        assert opened == [3]

    def test_jobs_do_not_change_the_bytes(self, tmp_path):
        # the pool starts the largest n first; rows still aggregate in cell order
        cfg = {"n_grid": [100, 200, 400], "repetitions": 2, "d_max": 32,
               "n_test": 100}
        assert_jobs_do_not_change_the_bytes("rates", cfg, ["rates.csv", "summary.csv"],
                                            tmp_path)


class TestVerify:
    CFG = {"problem": TINY_PROBLEM, "trials": 50, "event_n": 50, "event_M": 50,
           "events": ["E6", "E7"], "grid_points": 25,
           "max_landweber_steps": 25}

    def test_default_passes(self, tmp_path):
        code, out = run("verify", tmp_path, self.CFG)
        assert code == 0
        header, body = dataio.load_results(out / "verify_events.csv")
        rates = body[:, header.index("violation_rate")]
        assert np.all(rates <= 0.1)

    def test_broken_filter_exits_2(self, tmp_path, monkeypatch):
        break_filters(monkeypatch)
        code, out = run("verify", tmp_path, self.CFG)
        assert code == 2
        header, body = dataio.load_results(out / "verify_filters.csv")
        eflags = body[:, header.index("e_flag")]
        assert eflags.any()

    def test_failing_event_is_named(self, tmp_path, monkeypatch, capsys):
        real = conclab.simulate_event

        def fail_on_e7(event_id, *args, **kwargs):
            if event_id == "E7":
                raise FloatingPointError("overflow")
            return real(event_id, *args, **kwargs)

        monkeypatch.setattr(conclab, "simulate_event", fail_on_e7)
        code, _ = run("verify", tmp_path, self.CFG)
        assert code == 2
        assert "event E7 failed: overflow" in capsys.readouterr().err

    def test_event_config_error_exits_3(self, tmp_path, capsys):
        """Too few trials break the `trials` rule before the output directory
        is made, as every range rule does."""
        code, out = run("verify", tmp_path, dict(self.CFG, trials=10))
        assert code == 3
        assert (f"config error: trials must be >= {conclab.MIN_TRIALS}, got 10"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_delta_beyond_the_pinelis_range_exits_3(self, tmp_path, capsys):
        """The bound of E3-E9 holds only for delta < 1/2."""
        code, _ = run("verify", tmp_path, dict(self.CFG, delta=0.6))
        assert code == 3
        assert ("config error: delta must be in (0, 1/2) for events E6, E7, got 0.6"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("events,simulated", [(["E1", "E3"], []),
                                                  (["E1", "E2"], ["E1", "E2"])])
    def test_delta_is_checked_before_any_trial(self, events, simulated, tmp_path,
                                               monkeypatch):
        """delta = 0.6 is rejected before any event runs where an E3-E9 event is
        asked for, and E1 and E2, whose Bernstein bound needs only delta < 1,
        still run with it."""
        real, calls = conclab.simulate_event, []

        def spy(event_id, *args, **kwargs):
            calls.append(event_id)
            return real(event_id, *args, **kwargs)

        monkeypatch.setattr(conclab, "simulate_event", spy)
        code, out = run("verify", tmp_path, dict(self.CFG, events=events, delta=0.6))
        assert code == (0 if simulated else 3)
        assert calls == simulated
        if simulated:
            header, body = dataio.load_results(out / "verify_events.csv")
            assert body.shape[0] == len(simulated)

    def test_filter_rows_are_keyed_by_the_csv_header(self, tmp_path):
        """verify_filter_constants returns one row per lambda, ascending, with
        the columns of verify_filters.csv in its order."""
        _, out = run("verify", tmp_path, self.CFG)
        header, _ = dataio.load_results(out / "verify_filters.csv")
        lams = [0.5, 0.1, 1.0]
        rows = spectral.verify_filter_constants(spectral.tikhonov(), [0.2, 1.0], lams, [0.5])
        assert [list(row) for row in rows] == [header] * len(lams)
        assert [row["lambda"] for row in rows] == sorted(lams)

    def test_event_rows_are_the_csv_rows(self, tmp_path):
        """simulate_event, at the run's problem and event seeds, returns the
        rows of its verify_events.csv."""
        _, out = run("verify", tmp_path, self.CFG)
        header, body = dataio.load_results(out / "verify_events.csv")
        cfg = cli.load_config("verify", json.dumps(self.CFG), 3, False)
        problem, noise = cli._build_problem(cfg["problem"], cfg["seed"])
        seeds = cli._seeds(cfg["seed"], len(cfg["events"]))
        assert body.shape[0] == len(seeds)
        for values, eid, seed in zip(body, cfg["events"], seeds):
            row = conclab.simulate_event(eid, problem, noise, cfg["event_n"], cfg["event_M"],
                                         cfg["event_lambda"], cfg["delta"],
                                         trials=cfg["trials"], seed=seed)
            assert list(row) == header and row["event"] == eid
            assert [row[key] for key in header[1:]] == values[1:].tolist()

    @pytest.mark.parametrize("key,value", [("event_lambda", -1.0), ("event_n", 0),
                                           ("event_M", 0)])
    def test_event_range_exits_3(self, key, value, tmp_path, capsys):
        code, _ = run("verify", tmp_path, dict(self.CFG, events=["E1"], **{key: value}))
        assert code == 3
        assert f"config error: {key} must be positive" in capsys.readouterr().err


class TestNTKCompare:
    CFG = {"grid_size": 6, "n_train": 10, "n_test": 12, "M_grid": [8, 16],
           "T": 4, "repetitions": 2}

    def test_medians_emitted(self, tmp_path):
        code, out = run("ntk-compare", tmp_path, self.CFG)
        assert code == 0
        header, body = dataio.load_results(out / "ntk_compare.csv")
        assert body.shape[0] == 2

    def test_identity_single_step_tiny(self, tmp_path):
        cfg = dict(self.CFG, activation="identity", T=1, alpha=0.05)
        code, out = run("ntk-compare", tmp_path, cfg)
        assert code == 0
        header, body = dataio.load_results(out / "ntk_compare.csv")
        assert np.all(body[:, header.index("median_discrepancy")] <= 1e-10)

    def test_jobs_do_not_change_the_bytes(self, tmp_path):
        assert_jobs_do_not_change_the_bytes(
            "ntk-compare", self.CFG, ["ntk_compare.csv", "ntk_compare_detail.csv"],
            tmp_path)


class TestCLIContract:
    def test_unknown_config_key_exits_3(self, tmp_path):
        code, _ = run("rates", tmp_path, {"not_a_key": 1})
        assert code == 3

    @pytest.mark.parametrize("command,config,name", [
        ("fit", {"problem": {"rr": 2.0}}, "problem.rr"),
        ("verify", {"problem": {"r": 0.5, "d_mx": 16}}, "problem.d_mx"),
    ])
    def test_unknown_nested_config_key_exits_3(self, command, config, name,
                                               tmp_path, capsys):
        code, out = run(command, tmp_path, config)
        assert code == 3
        assert f"unknown config key '{name}'" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_config_layers_in_one_precedence_order(self, tmp_path, monkeypatch, capsys):
        """defaults < paper-scale sizes < config file < --seed < SPECRF_SEED."""
        monkeypatch.delenv("SPECRF_SEED", raising=False)
        scaled = {c: d["paper_scale"] for c, d in cli.DEFAULTS.items() if "paper_scale" in d}
        assert set(scaled) == {"sweep-heatmap", "rates", "ntk-compare"}
        for command, sizes in scaled.items():
            plain = cli.load_config(command, None, None, False)
            assert {k: plain[k] for k in sizes} == {k: cli.DEFAULTS[command][k] for k in sizes}
            paper = cli.load_config(command, None, None, True)
            assert {k: paper[k] for k in sizes} == sizes and "paper_scale" not in paper
            mine = dict.fromkeys(sizes, 7)
            cfg = cli.load_config(command, json.dumps(mine), None, True)
            assert {k: cfg[k] for k in sizes} == mine
        cfg = cli.load_config("sweep-heatmap", '{"repetitions": 3, "n_train": 200}', None, True)
        assert (cfg["repetitions"], cfg["n_train"], cfg["n_test"]) == (3, 200, 5000)
        assert cli.load_config("rates", '{"seed": 1}', None, True)["seed"] == 1
        assert cli.load_config("rates", '{"seed": 1}', 2, True)["seed"] == 2
        monkeypatch.setenv("SPECRF_SEED", "4")
        assert cli.load_config("rates", '{"seed": 1}', 2, True)["seed"] == 4
        # the sizes are not a config key
        code, out = run("sweep-heatmap", tmp_path, {"paper_scale": {"n_train": 40}},
                        extra_args=("--paper-scale",))
        assert code == 3
        assert "unknown config key 'paper_scale'" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_environment(self, tmp_path):
        code, out = run("gen", tmp_path, {"n": 10, "d_max": 16})
        assert code == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert env["jobs"] == 1 and env["nproc"] == runtime.usable_cpus()
        assert set(env) == {"python", "numpy", "blas", "blas_version", "blas_threads",
                            "blas_core", "operator_kernel", "jobs", "nproc"}
        assert env["blas_core"] == runtime.blas_core()
        assert env["operator_kernel"] == runtime.operator_kernel() in ("dsyrk", "matmul")
        if runtime.blas_threads() is None:
            pytest.skip("no OpenBLAS thread symbol in this numpy build")
        assert env["blas_threads"] == 1

    def test_jobs_default_to_the_cpus_of_the_affinity_mask(self, monkeypatch):
        """A process pinned to one CPU of a larger machine starts one worker and
        records one CPU, not os.cpu_count(); without an affinity call it counts
        every CPU."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert cli.build_parser().parse_args(["gen"]).jobs == 1
        assert runtime.environment(2)["nproc"] == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli.build_parser().parse_args(["gen"]).jobs == 8
        assert runtime.environment(2)["nproc"] == 8

    def test_manifest_records_timings(self, tmp_path):
        sizes = []
        for run_dir in ("first", "second"):
            (tmp_path / run_dir).mkdir()
            code, out = run("gen", tmp_path / run_dir, {"n": 10, "d_max": 16})
            assert code == 0
            sizes.append((out / "manifest.json").stat().st_size)
            timings = json.loads((out / "manifest.json").read_text())["timings"]
            assert set(timings) == {"load_config_s", "run_s", "total_s"}
            seconds = {name: float(value) for name, value in timings.items()}
            assert all(t >= 0.0 for t in seconds.values())
            assert seconds["total_s"] >= 0.99 * (seconds["load_config_s"] + seconds["run_s"])
        # the timings never change the manifest's size
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("config", [{"M_grid": [8, 9]}, {"M_grid": [1]}])
    def test_ntk_compare_odd_width_exits_3(self, config, tmp_path, capsys):
        code, out = run("ntk-compare", tmp_path, dict(TestNTKCompare.CFG, **config))
        assert code == 3
        assert "M_grid entries must be even" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_ntk_compare_empty_grid_exits_3(self, tmp_path, capsys):
        code, out = run("ntk-compare", tmp_path, dict(TestNTKCompare.CFG, grid_size=0))
        assert code == 3
        assert "grid_size must be >= 1" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command,config,module,name,label", [
        ("sweep-heatmap", TestSweepHeatmap.CFG, estimator, "fit_gd_path",
         "heatmap cell M=8 rep=1"),
        ("rates", {"n_grid": [100, 200, 400], "repetitions": 1, "d_max": 16, "n_test": 50},
         estimator, "fit_closed", "rates cell n=200 rep=0"),
        ("ntk-compare", TestNTKCompare.CFG, neuralop, "train_gd",
         f"ntk-compare cell M=8 seed="
         f"{np.random.SeedSequence(3).spawn(2)[1].generate_state(1)[0]}"),
    ])
    def test_failing_cell_is_named(self, command, config, module, name, label,
                                   tmp_path, monkeypatch, capsys):
        real, calls = getattr(module, name), []

        def fail_second_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("overflow")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, fail_second_call)
        code, out = run(command, tmp_path, config)
        assert code == 2
        assert f"error: {label} failed: overflow" in capsys.readouterr().err
        # the failed run still leaves a manifest: exit code, cell, environment
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2
        assert manifest["error"] == f"{label} failed: overflow"
        assert manifest["outputs"] == {}
        assert manifest["environment"] == runtime.environment(1)
        assert manifest["subcommand"] == command and manifest["seed"] == 3

    @pytest.mark.parametrize("exc", [estimator.EstimatorError("boom"), ZeroDivisionError("boom")])
    def test_failed_manifest_write_keeps_exit_2(self, exc, tmp_path, monkeypatch, capsys):
        """A failed check and an internal error both exit 2, also where the
        manifest of the failed run cannot be written."""
        def fail(*args, **kwargs):
            raise exc

        def unwritable(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(estimator, "fit_gd_path", fail)
        monkeypatch.setattr(dataio, "write_manifest", unwritable)
        code, out = run("sweep-heatmap", tmp_path, dict(TestSweepHeatmap.CFG, M_grid=[8]))
        assert code == 2
        assert "i/o error: manifest not written: disk full" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("exc,internal", [(ZeroDivisionError("boom"), True),
                                              (estimator.EstimatorError("boom"), False)])
    def test_unexpected_exception_is_an_internal_error(self, exc, internal, jobs, tmp_path,
                                                        monkeypatch, capsys):
        """A failed check of the program is an invariant violation; any other
        exception is an internal error, printed with the cell and a traceback
        (from a worker process too).  Both exit 2."""
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(estimator, "fit_gd_path", fail)
        code = cli.main(["sweep-heatmap", "--out", str(tmp_path), "--seed", "3",
                         "--jobs", jobs, "--config",
                         json.dumps(dict(TestSweepHeatmap.CFG, M_grid=[8]))])
        assert code == 2
        err = capsys.readouterr().err
        label = "heatmap cell M=8 rep=0 failed: boom"
        if internal:
            assert err.startswith(f"internal error: {label}\n")
            assert "Traceback" in err and "ZeroDivisionError: boom" in err
        else:
            assert err == f"error: {label}\n"

    @pytest.mark.parametrize("command,config,message", [
        ("sweep-heatmap", {"problem": {"d_max": 1}}, "problem.d_max must be >= 2"),
        ("verify", {"problem": {"d_max": 1}}, "problem.d_max must be >= 2"),
        ("gen", {"d_max": 1}, "d_max must be >= 2"),
        ("fit", {"problem": {"b": 1.5}}, "problem.b must be in (0, 1]"),
        ("rates", {"b": 0.0}, "b must be in (0, 1]"),
        ("fit", {"problem": {"r": 0.0}}, "problem.r must be positive"),
        ("rates", {"r": 0.2, "b": 0.5}, "rates needs 2r + b > 1"),
        ("gen", {"noise_half_width": -0.5}, "noise_half_width must be nonnegative"),
        ("verify", {"problem": {"noise_half_width": -0.5}},
         "problem.noise_half_width must be nonnegative"),
        ("ntk-compare", {"noise_half_width": -0.5}, "noise_half_width must be nonnegative"),
        ("fit", {"M": 0}, "M must be positive"),
        ("sweep-heatmap", {"alpha": 1.5}, "alpha must be in (0, 1]"),
        ("fit", {"alpha": 0.0}, "alpha must be in (0, 1]"),
        ("verify", {"landweber_alpha": 3.0}, "landweber_alpha must be in (0, 1]"),
        ("verify", {"grid_points": 0}, "grid_points must be positive"),
        ("verify", {"q_grid": [-1.0]}, "q_grid entries must be nonnegative"),
        ("verify", {"max_landweber_steps": 0}, "max_landweber_steps must be positive"),
        ("fit", {"filter": "tikhonov", "lambda": -0.5}, "lambda must be in (0, 1]"),
        ("fit", {"filter": "cutoff", "lambda": 2.0}, "lambda must be in (0, 1]"),
        ("rates", {"n_grid": [400, 800], "repetitions": 1, "d_max": 16, "n_test": 50},
         "rates needs at least 3 distinct n_grid sizes"),
        ("rates", {"n_grid": [400, 400, 400], "repetitions": 1, "d_max": 16, "n_test": 50},
         "rates needs at least 3 distinct n_grid sizes"),
        ("verify", {"events": []}, "events must be a nonempty list"),
        ("fit", {"row_limit": 0}, "row_limit must be a positive integer"),
        ("fit", {"label_column": -1}, "label_column must be nonnegative"),
        ("fit", {"rff_lengthscale": 0.0}, "rff_lengthscale must be positive"),
        ("fit", {"feature_columns": [1.5]}, "feature_columns must be a nonempty list"),
        ("fit", {"feature_columns": ["a"]}, "feature_columns must be a nonempty list"),
        ("sweep-heatmap", {"input_bound": -1.0}, "unknown config key 'input_bound'"),
        ("gen", {"kind": "bogus"}, "kind must be 'synthetic' or 'susy-fixture'"),
        ("gen", {"filename": ""}, "filename must be a file name, not a path"),
        # json.dumps writes Infinity, which json.loads reads back
        ("gen", {"R": float("inf"), "n": 5, "d_max": 16}, "R must be a number, got inf"),
        ("gen", {"filename": "."}, "filename must be a file name, not a path"),
        ("gen", {"filename": ".."}, "filename must be a file name, not a path"),
        ("gen", {"filename": "sub/x.csv"}, "filename must be a file name, not a path"),
        ("gen", {"filename": "../x.csv"}, "filename must be a file name, not a path"),
        ("gen", {"filename": "x\0.csv"}, "filename must be a file name, not a path"),
    ])
    def test_bad_problem_parameter_exits_3(self, command, config, message, tmp_path,
                                           capsys):
        code, out = run(command, tmp_path, config)
        assert code == 3
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config,flags,env", [
        ({"seed": -3}, [], None),
        ({}, ["--seed", "-1"], None),
        ({}, [], "-5"),
    ])
    def test_negative_seed_exits_3(self, config, flags, env, tmp_path, monkeypatch, capsys):
        """The seed from the config, from --seed and from SPECRF_SEED."""
        monkeypatch.delenv("SPECRF_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("SPECRF_SEED", env)
        out = tmp_path / "gen"
        code = cli.main(["gen", "--out", str(out), "--jobs", "1", "--config",
                         json.dumps(dict(config, n=10, d_max=16))] + flags)
        assert code == 3
        assert "config error: seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_every_key_has_a_type_and_every_rule_a_key(self):
        """A key whose default is None has a CHECKS rule (its only type
        check), and every rule names a key of some DEFAULTS block."""
        keys, nullable, blocks = set(), set(), list(cli.DEFAULTS.values())
        while blocks:
            block = blocks.pop()
            for key, default in block.items():
                keys.add(key)
                if default is None:
                    nullable.add(key)
                elif isinstance(default, dict):
                    blocks.append(default)
        assert nullable <= set(cli.CHECKS)
        assert set(cli.CHECKS) <= keys

    @pytest.mark.parametrize("command,key,repeated,distinct,name", [
        ("sweep-heatmap", "M_grid", [8, 16, 8], [8, 16], "heatmap.csv"),
        ("rates", "n_grid", [100, 200, 200, 400], [100, 200, 400], "rates.csv"),
    ])
    def test_grids_are_sets(self, command, key, repeated, distinct, name, tmp_path):
        base = {"sweep-heatmap": TestSweepHeatmap.CFG,
                "rates": {"repetitions": 1, "d_max": 16, "n_test": 50}}[command]
        outputs = []
        for i, grid in enumerate((repeated, distinct)):
            (tmp_path / str(i)).mkdir()
            code, out = run(command, tmp_path / str(i), dict(base, **{key: grid}))
            assert code == 0
            outputs.append((out / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_invalid_grid_exits_3(self, tmp_path):
        code, _ = run("rates", tmp_path, {"n_grid": []})
        assert code == 3

    def test_unreadable_config_exits_4(self, tmp_path):
        code = cli.main(["rates", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize("command,config", [
        ("fit", {"M": "abc"}),
        ("fit", {"M": 2.5}),
        ("fit", {"lambda": "x"}),
        ("fit", {"problem": {"r": "x"}}),
        ("fit", {"problem": 3}),
        ("rates", {"n_grid": [100, "a"]}),
        ("sweep-heatmap", {"svg": 1}),
        ("verify", {"events": "E1"}),
    ])
    def test_bad_config_type_exits_3(self, command, config, tmp_path, capsys):
        code, _ = run(command, tmp_path, config)
        assert code == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["bogus"], ["gen", "--seed", "x"], ["gen", "--bogus-flag"],
        ["gen", "--jobs", "-3"], ["gen", "--jobs", "0"], ["gen", "--jobs", "x"],
    ], ids=["unknown-command", "seed-not-an-integer", "unknown-flag",
            "jobs-negative", "jobs-zero", "jobs-not-an-integer"])
    def test_usage_error_exits_3_before_the_output_directory(self, args, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(args + ["--out", str(out), "--config", '{"n": 5, "d_max": 4}']) == 3
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage: specrf" in capsys.readouterr().out

    def test_unwritable_out_exits_4(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["gen", "--out", str(blocker / "sub"), "--config",
                         '{"n": 10, "d_max": 16}'])
        assert code == 4

    def test_inline_json_config(self, tmp_path):
        out = tmp_path / "gen"
        code = cli.main(["gen", "--out", str(out), "--config",
                         '{"kind": "susy-fixture", "n": 20}'])
        assert code == 0
        assert dataio.load_csv(out / "dataset.csv").n == 20
        assert cli.main(["gen", "--out", str(out), "--config", '{"n": ']) == 3

    def test_env_seed_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECRF_SEED", "777")
        code, out = run("gen", tmp_path, {"n": 10, "d_max": 16}, seed=1)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 777

    @pytest.mark.parametrize("command,config", [
        ("gen", {"n": 25, "d_max": 16}),
        ("verify", dict(TestVerify.CFG)),
        ("ntk-compare", dict(TestNTKCompare.CFG)),
        ("sweep-heatmap", dict(TestSweepHeatmap.CFG)),
        ("rates", {"n_grid": [100, 200, 400], "repetitions": 1, "d_max": 16,
                   "n_test": 50}),
    ])
    def test_byte_identical_reruns(self, command, config, tmp_path):
        code1, out1 = run(command, tmp_path, config)
        out2_dir = tmp_path / "second"
        out2_dir.mkdir()
        cfg_path = tmp_path / f"{command}.json"
        code2 = cli.main([command, "--out", str(out2_dir), "--seed", "3",
                          "--jobs", "1", "--config", str(cfg_path)])
        assert code1 == code2 == 0 or command == "verify" and code1 == code2
        for name in sorted(os.listdir(out1)):
            if name.endswith(".csv"):
                assert (out1 / name).read_bytes() == (out2_dir / name).read_bytes(), name


class TestPaper:
    @pytest.mark.parametrize("paper_scale", [False, True])
    @pytest.mark.parametrize("name", list(cli.PRESETS))
    def test_preset_loads(self, name, paper_scale):
        """A preset's own values survive --paper-scale."""
        command, overrides = cli.PRESETS[name]
        cfg = cli.load_config(command, json.dumps(overrides), None, paper_scale)
        for key, value in overrides.items():
            assert cfg[key] == (dict(cli.DEFAULTS[command][key], **value)
                                if isinstance(value, dict) else value)

    def test_leaves_no_temp_files(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        pythonpath = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=pythonpath)
        env.pop("SPECRF_SEED", None)
        proc = subprocess.run(
            [sys.executable, "-m", "specrf.cli", "paper", "--config",
             '{"experiments": ["verify"]}', "--out", str(tmp_path / "out"), "--jobs", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "verify" / "verify_events.csv").exists()
        assert list(tmp.iterdir()) == []

    @pytest.mark.parametrize("experiments", [["verify", "nope"], ["verify", "verify"], []])
    def test_bad_experiments_exit_3(self, experiments, tmp_path, capsys):
        code, out = run("paper", tmp_path, {"experiments": experiments})
        assert code == 3
        assert "config error: experiments must name distinct presets" in capsys.readouterr().err
        assert not out.exists()

    def test_every_preset_runs_and_the_first_failure_in_the_table_sets_the_code(
            self, tmp_path, monkeypatch):
        heat = dict(TestSweepHeatmap.CFG, M_grid=[8], n_train=40, n_test=40, repetitions=1)
        break_filters(monkeypatch)     # of the presets, only "broken" applies a filter
        monkeypatch.setattr(cli, "PRESETS", {
            "gen": ("gen", {"n": 10, "d_max": 16}),
            "heat": ("sweep-heatmap", heat),
            "broken": ("verify", TestVerify.CFG),
            "bad": ("rates", {"n_grid": [100, 200]}),
        })
        out = tmp_path / "paper"
        code = cli.main(["paper", "--out", str(out), "--seed", "5", "--jobs", "2",
                         "--paper-scale", "--config",
                         json.dumps({"experiments": ["bad", "broken", "heat", "gen"]})])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_codes"] == {"gen": 0, "heat": 0, "broken": 2, "bad": 3}
        assert manifest["exit_code"] == 2 and manifest["outputs"] == {}
        # each preset ran with this run's seed, --jobs and --paper-scale
        gen = json.loads((out / "gen" / "manifest.json").read_text())
        assert gen["seed"] == 5 and gen["environment"]["jobs"] == 2
        heat_cfg = json.loads((out / "heat" / "manifest.json").read_text())["config"]
        assert heat_cfg["repetitions"] == 1 and heat_cfg["n_train"] == 40
        assert (out / "broken" / "verify_filters.csv").exists()
        assert not (out / "bad").exists()


CHURN = """
import resource, sys
import numpy as np
from specrf import runtime
runtime.init_process()
def churn():
    arrays = [np.ones(12_800) for _ in range(15)]   # 1.5 MiB in 100 KiB arrays
    del arrays
churn()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


@pytest.mark.skipif(runtime._malloc_free() is None, reason="no C library malloc found")
def test_init_process_keeps_the_heap_top_resident():
    """A loop that allocates and frees 1.5 MiB of 100 KiB arrays at the top
    of the heap faults its pages in once after `runtime.init_process`, not on
    every pass (without it, about 5 000 minor faults over these 20 passes
    with glibc)."""
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHURN], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200


def test_serial_import_leaves_out_the_process_pool():
    """`import specrf.cli` does not import the process-pool module (nor
    multiprocessing): `_pmap` imports it when a pool runs, so serial
    processes do not pay for it at start-up."""
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, specrf.cli; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command, config", [
    ("verify", {k: v for k, v in TestVerify.CFG.items() if k != "events"}),
    ("ntk-compare", TestNTKCompare.CFG),
])
def test_runs_leave_out_numpy_ma(command, config, tmp_path):
    """A `verify` run (every event) and an `ntk-compare` run never import
    numpy.ma: the event quantiles and the width medians come from
    `runtime.quantile` and `runtime.median`, not np.quantile and np.median."""
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    argv = [command, "--out", str(tmp_path / "out"), "--jobs", "1",
            "--config", json.dumps(config)]
    code = (f"import sys, specrf.cli; code = specrf.cli.main({argv!r}); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 101, 1000])
def test_order_statistics_equal_numpy(n):
    """`runtime.quantile` and `runtime.median` return np.quantile's and
    np.median's bits on random arrays, with ties, and propagate a NaN."""
    rng = np.random.default_rng(n)
    for scale in (1e-6, 1.0, 1e6):
        values = rng.normal(size=n) * scale
        values[rng.integers(0, n, n // 3)] = values[0]
        for q in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            assert runtime.quantile(values, q) == float(np.quantile(values, q)), q
        assert runtime.median(values) == float(np.median(values))
    values[n // 2] = np.nan
    assert math.isnan(runtime.quantile(values, 0.5)) and math.isnan(runtime.median(values))


ROOT = Path(__file__).resolve().parents[1]


def benchmark_cases():
    """(workload, case) of every case of perfbench/workloads.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads, [(name, case) for name, cases in workloads.WORKLOADS.items()
                       for case in cases]


def run_tiny(case, casedir, env=None, tracer=None):
    """Run a benchmark case at its tiny size in a subprocess, under `tracer`
    (perfbench/trace_child.py with its spans file) when given."""
    workloads, _ = benchmark_cases()
    casedir.mkdir()
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    args = [case.command, "--config", str(workloads.write_config(case, "tiny", casedir)),
            "--seed", "0", "--out", str(casedir / "out"), "--jobs", "1"]
    prefix = ([str(ROOT / "perfbench" / "trace_child.py"), str(tracer), "--"] if tracer
              else ["-m", "specrf.cli"])
    proc = subprocess.run([sys.executable, *prefix, *args], capture_output=True, text=True,
                          env=dict(env or os.environ, PYTHONPATH=pythonpath), timeout=120)
    assert proc.returncode == 0, (case.label, proc.stderr)
    return casedir / "out"


def test_benchmark_trace_hooks_install(tmp_path):
    """perfbench/trace_child.py wraps the layers' functions by name
    (`spectral.eigensystem`, `DesignMatrix.cov`, the feature-map factories
    and more) and counts some of their arguments by name (`trials`,
    `n_steps`, `checkpoints`), which bind only when a wrapped function is
    called.  So the tracer runs every benchmark workload at its tiny size,
    each in a subprocess (nothing stays patched here), and each argument
    count it reads is positive."""
    counts = {}
    for index, (workload, case) in enumerate(benchmark_cases()[1]):
        spans = tmp_path / f"spans{index}.json"
        run_tiny(case, tmp_path / f"{workload}{index}", tracer=spans)
        for name, value in json.loads(spans.read_text())["counts"].items():
            counts[name] = counts.get(name, 0) + value
    for name in ("conclab.trials", "estimator.gd_steps", "neuralop.train_steps"):
        assert counts.get(name, 0) > 0, name


#: How far a float may move when the BLAS core changes, from a rounding-error
#: model fixed before any run.  Another core sums each inner product and
#: reduction in another order (other blocking, fused multiply-adds), and two
#: orders of an N-term sum differ by at most about 2 N u sum |x_i|, u = 2^-53
#: (Higham, "Accuracy and Stability of Numerical Algorithms", section 4.2).
#: No reduction of a tiny config is longer than N = 4096 terms (its largest
#: dimension is 400 inputs or 512 columns), and a solve, eigendecomposition,
#: descent or fitted slope amplifies a relative move by at most a condition
#: of 1e3: the tiny Tikhonov solves' (1 + lambda) / lambda is below 25, and
#: descents take at most 4 steps of size at most 1.
CORE_REL_TOL = 2 * 4096 * 1e3 * 2.0 ** -53
#: `discrepancy` is the RMS difference of two predictions that nearly agree,
#: so its relative move has no bound; each prediction, at most 10 in size on
#: the running means of ntk-compare's inputs, moves by at most CORE_REL_TOL
#: relative, and so the RMS of their difference by at most this much.
CORE_DISCREPANCY_ABS = 2 * 10 * CORE_REL_TOL


def core_differences(name, first, second):
    """The cells of two runs' CSV `name` that differ by more than the model
    allows: integer cells (in the first run) and text exactly, columns named
    *discrepancy absolutely, other floats relatively."""
    with (first / name).open(newline="") as fa, (second / name).open(newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    assert rows_a[0] == rows_b[0] and len(rows_a) == len(rows_b), name
    header, bad = rows_a[0], []
    for j, column in enumerate(header):
        cells = [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:])]
        integer = all(a.lstrip("-").isdigit() for a, _ in cells)
        for a, b in cells:
            try:
                x, y = float(a), float(b)
            except ValueError:
                x = y = None
            if x is None or integer:
                ok = a == b
            elif "discrepancy" in column:
                ok = abs(x - y) <= CORE_DISCREPANCY_ABS
            else:
                ok = math.isclose(x, y, rel_tol=CORE_REL_TOL, abs_tol=0.0)
            if not ok:
                bad.append((name, column, a, b))
    return bad


@pytest.mark.parametrize("workload,case", benchmark_cases()[1],
                         ids=lambda value: value if isinstance(value, str) else value.label)
def test_outputs_agree_across_blas_cores(workload, case, tmp_path):
    """Each benchmark case at its tiny size, run with OPENBLAS_CORETYPE unset
    and set to Prescott (numpy's OpenBLAS then loads other kernels): the
    same CSVs, equal integer and text cells and floats within the rounding
    model above.  Where both runs report one `blas_core` (another BLAS, or a
    CPU whose default is that core), there is nothing to compare."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    outs = [run_tiny(case, tmp_path / "default", env),
            run_tiny(case, tmp_path / "prescott", dict(env, OPENBLAS_CORETYPE="Prescott"))]
    cores = [json.loads((out / "manifest.json").read_text())["environment"]["blas_core"]
             for out in outs]
    if cores[0] == cores[1]:
        pytest.skip(f"both runs report blas_core {cores[0]!r}: no second core to compare")
    names = sorted(path.name for path in outs[0].glob("*.csv"))
    assert names == sorted(path.name for path in outs[1].glob("*.csv"))
    bad = [diff for name in names for diff in core_differences(name, *outs)]
    assert not bad, (workload, case.label, cores, bad[:5])
