"""Experiment driver: `specrf <subcommand> --config cfg.json --out dir`.

Subcommands
-----------
gen            emit a synthetic dataset CSV (or a SUSY-like CI fixture)
fit            fit one random-feature model and report its risks
sweep-heatmap  mean test error over an (M, T) grid, Figure-1 style
rates          schedule-driven excess-risk decay over a grid of sample sizes
verify         filter-axiom checks plus Monte Carlo concentration events
ntk-compare    width sweep of the operator-vs-kernel-GD discrepancy
paper          the paper's experiments (PRESETS), each into its own directory

Every run writes CSV artifacts plus a manifest JSON (config echo, seed,
output hashes, environment, exit code, per-stage wall times) into the output
directory.  A run that exits 2 on an error still writes one, with the error
message and no output hashes.
The seed precedence is SPECRF_SEED environment variable > --seed flag >
config file.  BLAS runs one thread per process, in the serial path and in
every --jobs worker.

Exit codes: 0 success, 2 invariant violation, 3 config error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import (__version__, conclab, dataio, estimator, features, neuralop, runtime,
               spectral, synthetic)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


class CellError(RuntimeError):
    """A unit of work (a cell or an event) failed one of the program's checks."""


# The program's own checks: an exception of these types flags a violated
# invariant (exit 2, `error: ...`).  Any other exception is an internal error
# (also exit 2, `internal error: ...` and its traceback).
CHECK_ERRORS = (CellError, conclab.ConcentrationConfigError, dataio.DataError,
                estimator.EstimatorError, features.FeatureError, neuralop.NeuralOpError,
                spectral.FilterDomainError, spectral.ScheduleError)


# ---------------------------------------------------------------------------
# configuration

# The paper's experiments, name -> (subcommand, config overrides); `specrf
# paper` runs them.  The rate cases' constants are frozen: the lambda
# multiplier cancels the log^3(2/delta) factor (1/log^3(20) ~ 0.037), and
# d_max, R and the noise make the statistical error dominate truncation and
# feature coverage over n in [500, 8000].
PRESETS: dict[str, tuple[str, dict]] = {
    "rates-r0.5-b1.0": ("rates", {"r": 0.5, "b": 1.0, "d_max": 512, "R": 1.2,
                                  "noise_half_width": 1.0, "C_multiplier": 0.037,
                                  "M_multiplier": 2.0}),
    "rates-r1.0-b0.5": ("rates", {"r": 1.0, "b": 0.5, "d_max": 32, "R": 0.5,
                                  "noise_half_width": 1.0, "C_multiplier": 0.037,
                                  "M_multiplier": 1.0}),
    "heatmap": ("sweep-heatmap", {"M_grid": [16, 32, 64, 128, 256, 380, 512, 1024, 1518],
                                  "T_grid": [1, 4, 16, 34, 64, 256, 1024], "svg": True}),
    "verify": ("verify", {"problem": {"d_max": 64}, "event_n": 400, "event_M": 400}),
    "ntk-compare": ("ntk-compare", {"M_grid": [64, 128, 256, 512, 1024]}),
}

DEFAULTS: dict[str, dict] = {
    "gen": {
        "seed": 0,
        "kind": "synthetic",          # or "susy-fixture"
        "n": 1000,
        "r": 0.5,
        "b": 1.0,
        "d_max": 256,
        "R": 1.0,
        "noise_half_width": 0.5,
        "filename": "dataset.csv",
    },
    "fit": {
        "seed": 0,
        "problem": {"r": 0.5, "b": 1.0, "d_max": 256, "R": 1.0,
                    "noise_half_width": 0.5},
        "csv": None,                  # optional input CSV instead of synthetic
        "label_column": 0,
        "feature_columns": None,
        "row_limit": None,
        "standardize": True,
        "n_train": 500,
        "n_test": 500,
        "M": 200,
        "filter": "landweber",        # tikhonov | landweber | cutoff
        "lambda": None,               # tikhonov/cutoff; defaults to 1/sqrt(n)
        "alpha": 0.5,
        "T": 100,
        "rff_lengthscale": 1.0,       # CSV inputs are fitted with RFF features
    },
    "sweep-heatmap": {
        "seed": 0,
        # smooth target learnable by the tanh tangent kernel, light noise
        "problem": {"r": 1.5, "b": 1.0, "d_max": 8, "R": 2.0,
                    "noise_half_width": 0.1},
        "n_train": 1000,
        "n_test": 1000,
        "M_grid": [16, 32, 64, 128, 256, 512],
        "T_grid": [1, 4, 16, 64, 256, 1024],
        "alpha": 0.5,
        "repetitions": 10,
        "use_lift": False,            # J(u) = (u, 1): p = d + 2
        "svg": False,
        "paper_scale": {"n_train": 5000, "n_test": 5000, "repetitions": 50},
    },
    "rates": {
        "seed": 0,
        "problem_seed": 0,    # target draw, decoupled from the run seed
        "r": 0.5,
        "b": 1.0,
        "d_max": 512,
        "R": 1.2,
        "noise_half_width": 1.0,
        "n_grid": [500, 1000, 2000, 4000, 8000],
        "n_test": 2000,
        "repetitions": 20,
        "delta": 0.1,
        # the theorem's free constants; defaults calibrated at desk scale
        # (C_multiplier ~ 1/log^3(2/delta) cancels the delta factor)
        "C_multiplier": 0.037,
        "M_multiplier": 2.0,
        "filter": "tikhonov",
        "paper_scale": {"repetitions": 50},
    },
    "verify": {
        "seed": 0,
        "grid_points": 100,
        "max_landweber_steps": 100,
        "landweber_alpha": 1.0,
        "q_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
        "problem": {"r": 0.5, "b": 1.0, "d_max": 32, "R": 1.0,
                    "noise_half_width": 0.3},
        "events": list(conclab.ALL_EVENTS),
        "event_n": 100,
        "event_M": 100,
        "event_lambda": 0.1,
        "delta": 0.1,
        "trials": 200,
    },
    "ntk-compare": {
        "seed": 0,
        "grid_size": 16,
        "n_train": 32,
        "n_test": 64,
        "M_grid": [64, 256, 1024],
        "alpha": 0.25,
        "T": 32,
        "repetitions": 10,
        "activation": "tanh",
        "tau": 1.0,
        "noise_half_width": 0.0,
        "paper_scale": {"repetitions": 50},
    },
    "paper": {
        "seed": 2024,
        "experiments": list(PRESETS),
    },
}


def load_config(command: str, path: str | None, seed_flag: int | None,
                paper_scale: bool) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS[command]))  # deep copy
    if path is not None:
        try:
            if path.lstrip().startswith("{"):   # inline JSON object
                user = json.loads(path)
            else:
                with open(path) as fh:
                    user = json.load(fh)
        except OSError as exc:
            raise IOError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            if isinstance(cfg.get(key), dict) and isinstance(value, dict):
                # paper_scale overrides top-level keys; other objects merge their own
                known = cfg if key == "paper_scale" else cfg[key]
                for sub in value:
                    if sub not in known:
                        raise ConfigError(
                            f"unknown config key '{key}.{sub}' for {command}")
                    if isinstance(known[sub], dict):   # replacing it would drop its other keys
                        raise ConfigError(f"{key}.{sub} cannot be set: paper_scale "
                                          f"overrides plain values, not objects")
                cfg[key].update(value)
            else:
                cfg[key] = value
    override = {}
    if seed_flag is not None:
        override["seed"] = seed_flag
    env_seed = os.environ.get("SPECRF_SEED")
    if env_seed is not None:
        try:
            override["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"SPECRF_SEED must be an integer: {env_seed!r}") from exc
    cfg.update(override)
    _check(cfg, DEFAULTS[command])
    scale = cfg.pop("paper_scale", {})
    if paper_scale:
        cfg.update(scale, **override)   # --seed and SPECRF_SEED outrank paper_scale too
    validate_config(command, cfg)
    return cfg


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def _same_type(value, example) -> bool:
    """JSON type check against a default: integers are numbers, booleans are
    not, and neither are Infinity and NaN, which json.loads accepts."""
    if isinstance(example, bool) or isinstance(value, bool):
        return isinstance(value, bool) and isinstance(example, bool)
    if isinstance(example, float):
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, type(example))


# key -> (holds, requirement): the rule for that key's value in every
# subcommand, under "problem" and "paper_scale" too.  `_check` compares the
# value's JSON type with its default's first; where the default is None, the
# rule alone checks the type.
CHECKS: dict[str, tuple] = {
    **dict.fromkeys(("seed", "problem_seed", "label_column", "noise_half_width"),
                    (lambda v: v >= 0, "must be nonnegative")),
    **dict.fromkeys(("n", "n_train", "n_test", "M", "T", "r", "R", "rff_lengthscale",
                     "C_multiplier", "M_multiplier", "grid_points", "max_landweber_steps",
                     "event_n", "event_M", "event_lambda", "trials"),
                    (lambda v: v > 0, "must be positive")),
    **dict.fromkeys(("repetitions", "grid_size"), (lambda v: v >= 1, "must be >= 1")),
    # the decay exponent b, and step sizes that keep every GD run inside the
    # design's unit-norm contract
    **dict.fromkeys(("b", "alpha", "landweber_alpha"),
                    (lambda v: 0 < v <= 1, "must be in (0, 1]")),
    **dict.fromkeys(("M_grid", "T_grid", "n_grid"),
                    (lambda v: len(v) > 0 and all(g >= 1 for g in v),
                     "must be a nonempty list of entries >= 1")),
    "d_max": (lambda v: v >= 2, "must be >= 2"),
    "delta": (lambda v: 0 < v < 1, "must be in (0, 1)"),
    "q_grid": (lambda v: all(q >= 0 for q in v), "entries must be nonnegative"),
    "kind": (lambda v: v in ("synthetic", "susy-fixture"),
             "must be 'synthetic' or 'susy-fixture'"),
    "activation": (lambda v: v in ("tanh", "identity"), "must be 'tanh' or 'identity'"),
    "events": (lambda v: len(v) > 0 and set(v) <= set(conclab.ALL_EVENTS),
               f"must be a nonempty list of {list(conclab.ALL_EVENTS)}"),
    "experiments": (lambda v: len(v) > 0 and len(set(v)) == len(v) and set(v) <= set(PRESETS),
                    f"must name distinct presets of {list(PRESETS)}"),
    "csv": (lambda v: v is None or isinstance(v, str), "must be a file path or null"),
    "feature_columns": (lambda v: v is None or isinstance(v, list) and len(v) > 0
                        and all(_same_type(c, 0) and c >= 0 for c in v),
                        "must be a nonempty list of column indices >= 0, or null"),
    "row_limit": (lambda v: v is None or _same_type(v, 0) and v >= 1,
                  "must be a positive integer or null"),
    # the filters are defined for lambda in (0, 1], the design's spectral range
    "lambda": (lambda v: v is None or _same_type(v, 0.0) and 0 < v <= 1,
               "must be in (0, 1] or null"),
}


def _check(cfg: dict, defaults: dict, prefix: str = "") -> None:
    """Raise ConfigError for a value whose JSON type differs from its
    default's or that breaks its CHECKS rule."""
    for key, value in cfg.items():
        default, name = defaults[key], prefix + key
        if default is not None and not _same_type(value, default):
            raise ConfigError(f"{name} must be {_TYPE_NAMES[type(default)]}, got {value!r}")
        if isinstance(default, list) and default and not all(
                _same_type(item, default[0]) for item in value):
            raise ConfigError(f"{name} entries must each be "
                              f"{_TYPE_NAMES[type(default[0])]}, got {value!r}")
        if isinstance(default, dict):
            # paper_scale entries override top-level keys, so check them as such
            _check(value, defaults if key == "paper_scale" else default, name + ".")
        elif key in CHECKS:
            holds, requirement = CHECKS[key]
            if not holds(value):
                raise ConfigError(f"{name} {requirement}, got {value!r}")


def validate_config(command: str, cfg: dict) -> None:
    """The rules that read more than one key or depend on the subcommand."""
    if command == "rates" and 2.0 * cfg["r"] + cfg["b"] <= 1.0:
        raise ConfigError(f"rates needs 2r + b > 1, got {2.0 * cfg['r'] + cfg['b']}")
    if command == "rates" and len(set(cfg["n_grid"])) < 3:
        raise ConfigError("rates needs at least 3 distinct n_grid sizes to fit a rate")
    # symmetric initialization pairs the hidden units
    if command == "ntk-compare" and any(m % 2 for m in cfg["M_grid"]):
        raise ConfigError("ntk-compare M_grid entries must be even and >= 2")
    if command == "rates" and cfg["filter"] not in ("tikhonov", "landweber"):
        raise ConfigError("rates filter must be 'tikhonov' or 'landweber'")
    if command == "fit" and cfg["filter"] not in ("tikhonov", "landweber", "cutoff"):
        raise ConfigError("fit filter must be tikhonov, landweber, or cutoff")
    if command == "verify" and cfg["delta"] >= 0.5:
        # the Pinelis bound holds only below 1/2, the Bernstein bound below 1
        pinelis = [e for e in cfg["events"] if e not in conclab.BERNSTEIN_EVENTS]
        if pinelis:
            raise ConfigError(f"delta must be in (0, 1/2) for events {', '.join(pinelis)}, "
                              f"got {cfg['delta']}")


def _activation(name: str) -> features.Activation:
    return features.tanh_act() if name == "tanh" else features.identity_act()


def _seeds(seed: int, k: int) -> list[int]:
    """k independent integer seeds spawned from `seed`."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]


def _build_problem(pcfg: dict, seed: int):
    spec = synthetic.spectrum_spec(b=pcfg["b"], d_max=int(pcfg["d_max"]))
    problem = synthetic.make_problem(spec, r=pcfg["r"], R=pcfg["R"], seed=seed)
    noise = synthetic.noise_model(problem, pcfg["noise_half_width"])
    return problem, noise


def _pmap(fn, items, jobs: int, size=None):
    """[fn(item) for item in items], on `jobs` worker processes set up as the
    serial one is (`runtime.init_process`); the results keep the order of
    `items`.  With `size`, the pool starts the items in decreasing
    size(item), so the largest does not start last and set the tail.  The
    pool module (with multiprocessing) is imported only when a pool runs,
    which keeps it out of the start-up of every serial process."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    order = list(range(len(items)))
    if size is not None:
        order.sort(key=lambda i: -size(items[i]))
    results = [None] * len(items)
    with ProcessPoolExecutor(max_workers=jobs, initializer=runtime.init_process) as pool:
        for i, result in zip(order, pool.map(fn, [items[i] for i in order])):
            results[i] = result
    return results


def _failure(label: str, exc: Exception) -> Exception:
    """`exc`, raised inside the unit of work `label`, renamed after the unit:
    a CellError where `exc` is one of the program's checks."""
    kind = CellError if isinstance(exc, CHECK_ERRORS) else RuntimeError
    return kind(f"{label} failed: {exc}")


def _run_cell(fn, cell: dict):
    """fn(cell), naming the cell by its "label" in the error if it fails."""
    try:
        return fn(cell)
    except Exception as exc:
        raise _failure(cell["label"], exc) from exc


# ---------------------------------------------------------------------------
# gen

def cmd_gen(cfg: dict, out: Path, flags: argparse.Namespace) -> tuple[int, list, dict]:
    path = out / cfg["filename"]
    if cfg["kind"] == "susy-fixture":
        dataio.make_susy_fixture(path, n=int(cfg["n"]), seed=cfg["seed"])
    else:
        problem, noise = _build_problem(cfg, cfg["seed"])
        U, V = synthetic.sample_dataset(problem, int(cfg["n"]), noise,
                                        seed=cfg["seed"] + 1)
        rows = [{"u": float(u), "v": float(v)} for u, v in zip(U, V)]
        dataio.save_results(rows, path)
    return EXIT_OK, [path], {}


# ---------------------------------------------------------------------------
# fit

def cmd_fit(cfg: dict, out: Path, flags: argparse.Namespace) -> tuple[int, list, dict]:
    seed = cfg["seed"]
    data_seed, test_seed, feat_seed = _seeds(seed, 3)
    oracle = None
    if cfg["csv"] is not None:
        try:
            ds = dataio.load_csv(cfg["csv"], label_column=cfg["label_column"],
                                 feature_columns=cfg["feature_columns"],
                                 row_limit=cfg["row_limit"])
            train, test = dataio.split(ds, int(cfg["n_train"]), int(cfg["n_test"]),
                                       seed=data_seed)
            if cfg["standardize"]:
                train, params = dataio.standardize(train)
                test = dataio.apply_standardize(test, params)
        except dataio.ParseError as exc:    # the file is not a numeric table
            raise IOError(f"cannot read {cfg['csv']}: {exc}") from exc
        except dataio.DataError as exc:     # the file refutes a config value
            raise ConfigError(str(exc)) from exc
        fmap = features.rff_map(train.inputs.shape[1], cfg["rff_lengthscale"])
        U_tr, V_tr = train.inputs, train.outputs
        U_te, V_te = test.inputs, test.outputs
        inputs_hash = dataio.file_sha256(cfg["csv"])
    else:
        problem, noise = _build_problem(cfg["problem"], seed)
        U_tr, V_tr = synthetic.sample_dataset(problem, int(cfg["n_train"]), noise,
                                              seed=data_seed)
        U_te, V_te = synthetic.sample_dataset(problem, int(cfg["n_test"]), noise,
                                              seed=test_seed)
        fmap = problem.feature_map
        oracle = problem.target
        inputs_hash = None

    fs = features.sample_features(fmap, int(cfg["M"]), seed=feat_seed)
    design = features.build_design(fs, U_tr)
    name = cfg["filter"]
    if name == "landweber":
        model = estimator.fit_gd(design, V_tr, cfg["alpha"], int(cfg["T"]))
    else:
        lam = cfg["lambda"] if cfg["lambda"] is not None else 1.0 / math.sqrt(len(U_tr))
        filt = spectral.tikhonov() if name == "tikhonov" else spectral.cutoff()
        model = estimator.fit_closed(design, V_tr, filt, lam)
    report = estimator.evaluate(model, U_te, V_te, oracle=oracle)
    train_report = estimator.evaluate(model, U_tr, V_tr, oracle=oracle)
    rows = [{
        "filter": name,
        "lambda": model.lam,
        "M": model.M,
        "train_risk": train_report.empirical_risk,
        "test_risk": report.empirical_risk,
        "excess_l2": report.excess_l2 if report.excess_l2 is not None else math.nan,
        "n_train": len(U_tr),
        "n_test": report.n_test,
    }]
    path = out / "fit.csv"
    dataio.save_results(rows, path)
    return EXIT_OK, [path], {"inputs_sha256": inputs_hash} if inputs_hash else {}


# ---------------------------------------------------------------------------
# sweep-heatmap

def _heatmap_cell(args: dict) -> list[dict]:
    """All T-grid errors for one (M, repetition): a single GD trajectory."""
    cfg = args["cfg"]
    problem, noise = _build_problem(cfg["problem"], cfg["seed"])
    data_seed, test_seed, feat_seed = _seeds(args["cell_seed"], 3)
    U_tr, V_tr = synthetic.sample_dataset(problem, int(cfg["n_train"]), noise, data_seed)
    U_te, V_te = synthetic.sample_dataset(problem, int(cfg["n_test"]), noise, test_seed)

    arch = features.OperatorArchitecture(
        features.tanh_act(), 1, d_y=1, use_lift=bool(cfg["use_lift"]))
    # J(u) = ((u,) u, 1) with |u| <= 1 on the synthetic input domain
    fmap = features.ntk_feature_map(arch, input_bound=math.sqrt(arch.d_k + arch.d_y + 1.0))
    fs = features.sample_features(fmap, args["M"], feat_seed)
    design = features.build_design(fs, U_tr.reshape(-1, 1))

    models = estimator.fit_gd_path(design, V_tr, cfg["alpha"], args["T_grid"])
    reports = estimator.evaluate_path(models, U_te.reshape(-1, 1), V_te)
    return [{"M": args["M"], "T": round(1.0 / (cfg["alpha"] * model.lam)),
             "rep": args["rep"], "error": rep.empirical_risk}
            for model, rep in zip(models, reports)]


def cmd_sweep_heatmap(cfg: dict, out: Path,
                      flags: argparse.Namespace) -> tuple[int, list, dict]:
    reps = int(cfg["repetitions"])
    m_grid, t_grid = sorted(set(cfg["M_grid"])), sorted(set(cfg["T_grid"]))
    cell_seeds = iter(_seeds(cfg["seed"], len(m_grid) * reps))
    cells = [{"cfg": cfg, "M": m, "rep": rep, "T_grid": t_grid,
              "cell_seed": next(cell_seeds), "label": f"heatmap cell M={m} rep={rep}"}
             for m in m_grid for rep in range(reps)]
    nested = _pmap(functools.partial(_run_cell, _heatmap_cell), cells, flags.jobs,
                   size=lambda cell: cell["M"])
    flat = [row for rows in nested for row in rows]
    summary = []
    for m in m_grid:
        for t in t_grid:
            errs = np.array([r["error"] for r in flat if r["M"] == m and r["T"] == t])
            summary.append({"M": m, "T": t, "mean_error": float(errs.mean()),
                            "std_error": float(errs.std(ddof=1)) if errs.size > 1 else 0.0})
    path = out / "heatmap.csv"
    dataio.save_results(summary, path)
    outputs = [path]
    if cfg["svg"]:
        svg_path = out / "heatmap.svg"
        _write_svg_heatmap(summary, svg_path)
        outputs.append(svg_path)
    return EXIT_OK, outputs, {}


def _write_svg_heatmap(rows: list[dict], path: Path, cell: int = 28) -> None:
    """Minimal SVG rendering with a fixed linear color ramp, for eyeballing."""
    ms = sorted({r["M"] for r in rows})
    ts = sorted({r["T"] for r in rows})
    lo = min(r["mean_error"] for r in rows)
    hi = max(r["mean_error"] for r in rows)
    span = hi - lo if hi > lo else 1.0
    w, h = len(ts) * cell + 60, len(ms) * cell + 40
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    for r in rows:
        x = 50 + ts.index(r["T"]) * cell
        y = 10 + ms.index(r["M"]) * cell
        frac = (r["mean_error"] - lo) / span
        shade = int(255 * (1.0 - frac))
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="rgb(255,{shade},{shade})"/>'
        )
    for i, m in enumerate(ms):
        parts.append(f'<text x="4" y="{10 + i * cell + cell // 2}" font-size="9">M={m}</text>')
    for j, t in enumerate(ts):
        parts.append(f'<text x="{50 + j * cell}" y="{h - 14}" font-size="9">T={t}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# rates

def _rates_cell(args: dict) -> dict:
    """Excess risk of one (n, repetition) fit at the rate schedule for n."""
    cfg = args["cfg"]
    problem, noise = _build_problem(cfg, cfg["problem_seed"])
    sched: synthetic.RateSchedule = args["schedule"]
    data_seed, test_seed, feat_seed = _seeds(args["cell_seed"], 3)
    U_tr, V_tr = synthetic.sample_dataset(problem, args["n"], noise, data_seed)
    U_te = synthetic.sample_inputs(int(cfg["n_test"]), test_seed)
    fs = features.sample_features(problem.feature_map, sched.M_n, feat_seed)
    design = features.build_design(fs, U_tr)
    # schedule lambdas live on the raw kernel scale; the design is
    # kappa-normalized, so divide by kappa^2 (exact for tikhonov)
    lam = min(1.0, sched.lambda_n / problem.kappa ** 2)
    if cfg["filter"] == "tikhonov":
        model = estimator.fit_closed(design, V_tr, spectral.tikhonov(), lam)
    else:
        # T unit GD steps are the Landweber filter at lambda = 1/T (acceptance
        # 2's identity): one eigh instead of tens of thousands of steps
        steps = max(1, round(1.0 / lam))
        model = estimator.fit_closed(design, V_tr, spectral.landweber(1.0), 1.0 / steps)
    report = estimator.evaluate(model, U_te, np.zeros_like(U_te), oracle=problem.target)
    return {"n": args["n"], "rep": args["rep"], "excess_l2": report.excess_l2}


def cmd_rates(cfg: dict, out: Path, flags: argparse.Namespace) -> tuple[int, list, dict]:
    mult = synthetic.ScheduleMultipliers(C=cfg["C_multiplier"], M=cfg["M_multiplier"], p=1)
    n_grid = sorted(set(cfg["n_grid"]))
    reps = int(cfg["repetitions"])
    schedules = {n: synthetic.rate_schedule(n, cfg["r"], cfg["b"], cfg["delta"], mult)
                 for n in n_grid}
    cell_seeds = iter(_seeds(cfg["seed"], len(n_grid) * reps))
    cells = [{"cfg": cfg, "n": n, "rep": rep, "schedule": schedules[n],
              "cell_seed": next(cell_seeds), "label": f"rates cell n={n} rep={rep}"}
             for n in n_grid for rep in range(reps)]
    rows = _pmap(functools.partial(_run_cell, _rates_cell), cells, flags.jobs,
                 size=lambda cell: cell["n"])

    per_n = []
    for n in n_grid:
        vals = np.array([r["excess_l2"] for r in rows if r["n"] == n])
        sched = schedules[n]
        per_n.append({"n": n, "excess_l2": float(vals.mean()),
                      "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                      "lambda_n": sched.lambda_n, "T_n": sched.T_n,
                      "M_n": sched.M_n, "meets_n0": sched.meets_n0})
    slope = synthetic.fit_rate([p["n"] for p in per_n],
                               [p["excess_l2"] for p in per_n])
    target = -cfg["r"] / (2.0 * cfg["r"] + cfg["b"])
    rates_path = out / "rates.csv"
    dataio.save_results(per_n, rates_path)
    summary_path = out / "summary.csv"
    dataio.save_results(
        [{"slope": slope, "target_slope": target, "r": cfg["r"], "b": cfg["b"],
          "repetitions": reps, "delta": cfg["delta"]}],
        summary_path,
    )
    return EXIT_OK, [rates_path, summary_path], {"slope": slope, "target_slope": target}


# ---------------------------------------------------------------------------
# verify

def cmd_verify(cfg: dict, out: Path, flags: argparse.Namespace) -> tuple[int, list, dict]:
    n_pts = int(cfg["grid_points"])
    grid = np.linspace(1.0 / n_pts, 1.0, n_pts)
    alpha = cfg["landweber_alpha"]
    landweber_lams = spectral.landweber_lambda_grid(alpha, int(cfg["max_landweber_steps"]))
    filter_rows = []
    for filt, lams in ((spectral.tikhonov(), grid),
                       (spectral.landweber(alpha), landweber_lams),
                       (spectral.cutoff(), grid)):
        qs = [q for q in cfg["q_grid"] if q <= filt.qualification]
        filter_rows += spectral.verify_filter_constants(filt, grid, lams, qs)
    filters_path = out / "verify_filters.csv"
    dataio.save_results(filter_rows, filters_path)

    problem, noise = _build_problem(cfg["problem"], cfg["seed"])
    event_rows = []
    for eid, eseed in zip(cfg["events"], _seeds(cfg["seed"], len(cfg["events"]))):
        try:
            event_rows.append(conclab.simulate_event(
                eid, problem, noise, int(cfg["event_n"]), int(cfg["event_M"]),
                cfg["event_lambda"], cfg["delta"], trials=int(cfg["trials"]), seed=eseed))
        except conclab.ConcentrationConfigError as exc:
            raise ConfigError(f"event {eid} failed: {exc}") from exc
        except Exception as exc:
            raise _failure(f"event {eid}", exc) from exc
    events_path = out / "verify_events.csv"
    dataio.save_results(event_rows, events_path)

    flagged = any(row[flag] for row in filter_rows
                  for flag in ("d_flag", "e_flag", "c0_flag", "cq_flag"))
    violated = any(row["violation_rate"] > cfg["delta"] for row in event_rows)
    return EXIT_VIOLATION if flagged or violated else EXIT_OK, [filters_path, events_path], {}


# ---------------------------------------------------------------------------
# ntk-compare

def _operator_dataset(n: int, n_x: int, noise_half_width: float, seed: int):
    """Random smooth input functions on n_x points of a uniform grid over
    [0, 1] and an integral-operator target: v(x_k) = running mean of u up to
    x_k."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, n_x)
    coeff = rng.normal(size=(n, 3))
    U = sum(
        coeff[:, k - 1][:, None] * np.cos(k * np.pi * grid)[None, :] / k
        for k in range(1, 4)
    )
    V = np.cumsum(U, axis=1) / np.arange(1, n_x + 1)
    if noise_half_width > 0:
        V = V + rng.uniform(-noise_half_width, noise_half_width, size=V.shape)
    return U[:, :, None], V


def _ntk_cell(args: dict) -> dict:
    """The operator-vs-kernel discrepancy of one (width, seed) cell, with the
    architecture and data rebuilt from the config where the cell runs."""
    cfg = args["cfg"]
    n_x = int(cfg["grid_size"])
    U_tr, V_tr = _operator_dataset(
        int(cfg["n_train"]), n_x, cfg["noise_half_width"], cfg["seed"] + 1)
    U_te, _ = _operator_dataset(int(cfg["n_test"]), n_x, 0.0, cfg["seed"] + 2)
    arch = features.OperatorArchitecture(_activation(cfg["activation"]), n_x, d_y=1)
    return neuralop.compare_cell(arch, U_tr, V_tr, U_te, args["M"], args["seed"],
                                 cfg["alpha"], int(cfg["T"]), tau=cfg["tau"])


def cmd_ntk_compare(cfg: dict, out: Path, flags: argparse.Namespace) -> tuple[int, list, dict]:
    seeds = _seeds(cfg["seed"], int(cfg["repetitions"]))
    cells = [{"cfg": cfg, "M": m, "seed": seed,
              "label": f"ntk-compare cell M={m} seed={seed}"}
             for m in sorted(set(cfg["M_grid"])) for seed in seeds]
    rows = _pmap(functools.partial(_run_cell, _ntk_cell), cells, flags.jobs,
                 size=lambda cell: cell["M"])
    medians = neuralop.median_discrepancies(rows)
    summary = [{"M": m, "median_discrepancy": med, "seeds": len(seeds)}
               for m, med in medians.items()]
    path = out / "ntk_compare.csv"
    dataio.save_results(summary, path)
    detail_path = out / "ntk_compare_detail.csv"
    dataio.save_results(rows, detail_path)
    return EXIT_OK, [path, detail_path], {}


# ---------------------------------------------------------------------------
# paper

def cmd_paper(cfg: dict, out: Path, flags: argparse.Namespace) -> tuple[int, list, dict]:
    """Every selected preset, in table order, as its own run of `main` into
    `out/<name>/` (so each keeps its subcommand's config checks and writes its
    own manifest), with this run's seed, --jobs and --paper-scale.  Exits with
    the first nonzero preset code; the manifest records every preset's code."""
    codes = {}
    for name, (command, overrides) in PRESETS.items():
        if name in cfg["experiments"]:
            argv = [command, "--config", json.dumps(overrides), "--out", str(out / name),
                    "--seed", str(cfg["seed"]), "--jobs", str(flags.jobs)]
            codes[name] = main(argv + (["--paper-scale"] if flags.paper_scale else []))
    code = next((c for c in codes.values() if c != EXIT_OK), EXIT_OK)
    # the presets' outputs share file names (both rate cases write rates.csv),
    # so their hashes stay in the presets' own manifests
    return code, [], {"exit_codes": codes}


# ---------------------------------------------------------------------------
# entry point

# Each command takes its config, the output directory and the parsed flags,
# writes its outputs into `out` and returns (exit code, output paths, extra
# manifest entries); `main` writes the manifest.
COMMANDS = {
    "gen": cmd_gen,
    "fit": cmd_fit,
    "sweep-heatmap": cmd_sweep_heatmap,
    "rates": cmd_rates,
    "verify": cmd_verify,
    "ntk-compare": cmd_ntk_compare,
    "paper": cmd_paper,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specrf", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None,
                        help="JSON config file, or an inline JSON object "
                             "such as '{\"n\": 100}'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--jobs", type=int, default=runtime.usable_cpus(),
                        help="worker processes for the cells of sweep-heatmap, "
                             "rates and ntk-compare (default: the CPUs this "
                             "process may run on), each "
                             "with one BLAS thread; outputs do not depend on it. "
                             "gen, fit and verify run serially and ignore it; "
                             "paper passes it on to each preset")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's sample sizes and repetition counts")
    return parser


def _timings(*marks: tuple[str, float]) -> dict:
    """Wall times in seconds as fixed-width strings, so a manifest has the
    same size on every run."""
    return {name: f"{seconds:.4e}" for name, seconds in marks}


def main(argv=None) -> int:
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
    # The import-time heap lives until exit.  Frozen, it is left out of every
    # later collection, the interpreter's last one at exit included: a
    # `verify` process then exits 8-11 ms after main returns, not 29-40 ms.
    gc.freeze()
    runtime.init_process()
    cfg = out = None
    try:
        cfg = load_config(args.command, args.config, args.seed, args.paper_scale)
        loaded = time.perf_counter()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        code, outputs, extra = COMMANDS[args.command](cfg, out, args)
        done = time.perf_counter()
        timings = _timings(("load_config_s", loaded - start), ("run_s", done - loaded),
                           ("total_s", done - start))
        dataio.write_manifest(out / "manifest.json", cfg, cfg["seed"], outputs,
                              extra={"version": __version__, "subcommand": args.command,
                                     "exit_code": code, "timings": timings, **extra},
                              environment=runtime.environment(args.jobs))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CHECK_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        failure = exc
    except Exception as exc:
        # the chain holds the failing cell's own traceback, also from a worker
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)
        failure = exc
    if out is not None:
        _write_failure_manifest(out, cfg, args, failure, start)
    return EXIT_VIOLATION


def _write_failure_manifest(out: Path, cfg: dict, args, failure: Exception,
                            start: float) -> None:
    """The manifest of a run that exits 2: its exit code, the failure's
    message (which names the failing cell) and the environment, with no
    output hashes.  A failed write is reported and leaves the exit code."""
    try:
        dataio.write_manifest(
            out / "manifest.json", cfg, cfg["seed"], [],
            extra={"version": __version__, "subcommand": args.command,
                   "exit_code": EXIT_VIOLATION, "error": str(failure),
                   "timings": _timings(("total_s", time.perf_counter() - start))},
            environment=runtime.environment(args.jobs))
    except OSError as exc:
        print(f"i/o error: manifest not written: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
