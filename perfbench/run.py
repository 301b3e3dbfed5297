"""Benchmark of the `specrf` subcommands, run from outside the program.

    python3 perfbench/run.py --workload rates --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Each run of a workload starts its `specrf` subcommands in fresh processes with
the benchmark seed as `--seed`, BLAS pinned to one thread and the sources
under src/ on PYTHONPATH, and checks every run's outputs (exit code 0,
byte-identical CSVs across runs of one seed, sanity checks, and the stored
reference values of perfbench/reference.json where the seed has them).

--trace 0  end-to-end metrics of untraced runs at --jobs 2: medians of the
           wall time, CPU time and peak RSS of the runs made in --seconds,
           and the median set-up time of several import-and-config processes.
--trace 1  per-layer metrics of runs at --jobs 1 traced by
           perfbench/trace_child.py, alternated with untraced --jobs 1 runs
           that give the tracing overhead.

The script prints the environment, one line per metric with its unit, and as
its last line one JSON object {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload in turn and names each metric
"<workload>.<metric>".  Exit code 0 when the benchmark ran (whatever the
outputs), 2 when it could not run, for instance without src/specrf.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Case, load_reference, read_values, \
    reference_errors, sanity_errors, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

JOBS = 2                    # the untraced runs' --jobs: the 2 cores measured on
BLAS_THREADS = 1            # so the program never has more threads than cores
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PER_RUN = 3           # set-up processes before each workload run; setup_s is their median
MIN_RUNS = 2                # byte-identity needs two runs of one seed
LIMIT_S = 160.0             # a workload's processes still alive this long after its start are killed

CLI_CODE = "import sys; from specrf.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_CODE = (
    "import sys, time\n"
    "from specrf import cli\n"
    "cli.load_config(sys.argv[1], sys.argv[2], int(sys.argv[3]), False)\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)
ENV_CODE = r"""
import ctypes, json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
for path in libs:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SELF_TIMED = (
    "features.evaluate", "features.build_design", "features.cov",
    "spectral.eigensystem", "spectral.apply_filter", "spectral.verify_filter_constants",
    "estimator.fit_closed", "estimator.fit_gd", "estimator.fit_gd_path",
    "estimator.evaluate", "estimator.predict_batch",
    "neuralop.train_gd", "neuralop.forward", "conclab.simulate_event",
    "synthetic.sample_dataset", "synthetic.make_problem",
    "dataio.save_results", "dataio.write_manifest",
)
CALL_COUNTED = ("features.evaluate", "spectral.eigensystem", "neuralop.forward")
SHAPE_COUNTS = {  # computed from array shapes and arguments, not measured
    "features.design_entries": "count", "features.design_bytes": "B",
    "spectral.eigh_dim3": "count", "estimator.gd_steps": "count",
    "neuralop.train_steps": "count", "conclab.trials": "count",
    "dataio.bytes_written": "B",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed output check)."""


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str


@dataclass
class Rep:
    """One run of a workload: every case once."""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mib: float = 0.0
    errors: list[str] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)
    trace: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SPECRF_SEED", None)  # it would override --seed
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], workdir: Path, deadline: float) -> Proc:
    """Run argv in its own process group and wait for it (and its pool, which
    it joins); kill the group at `deadline` (a perf_counter time)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=workdir, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        killer = threading.Timer(max(0.0, deadline - start), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(code=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mib=usage.ru_maxrss / 1024.0, stdout=out_path.read_text(),
                stderr=err_path.read_text(errors="replace"))


def environment(args, jobs: int) -> dict:
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        probe = spawn([sys.executable, "-c", ENV_CODE], Path(tmp), time.perf_counter() + 60)
    if probe.code != 0:
        raise BenchError(f"environment probe failed: {probe.stderr.strip()}")
    env = json.loads(probe.stdout)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env.update({"blas_threads_env": BLAS_THREADS, "jobs": jobs,
                "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "size": args.size})
    return env


def measure_setup(case: Case, size: str, seed: int, workdir: Path, deadline: float) -> float:
    config = write_config(case, size, workdir)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = spawn([sys.executable, "-c", SETUP_CODE, case.command, str(config), str(seed)],
                 workdir, deadline)
    if proc.code != 0:
        raise BenchError(f"set-up of {case.command} failed: {proc.stderr.strip()}")
    return float(proc.stdout) - start


def run_rep(workload: str, seed: int, size: str, jobs: int, traced: bool,
            workdir: Path, deadline: float, expected: list | None) -> Rep:
    rep = Rep()
    traces = []
    for index, case in enumerate(WORKLOADS[workload]):
        casedir = workdir / f"case{index}"
        shutil.rmtree(casedir, ignore_errors=True)
        (casedir / "out").mkdir(parents=True)
        config = write_config(case, size, casedir)
        args = [case.command, "--config", str(config), "--seed", str(seed),
                "--out", str(casedir / "out"), "--jobs", str(jobs)]
        spans = casedir / "spans.json"
        argv = ([sys.executable, str(HERE / "trace_child.py"), str(spans), "--", *args]
                if traced else [sys.executable, "-c", CLI_CODE, *args])
        proc = spawn(argv, casedir, deadline)
        rep.wall_s += proc.wall_s
        rep.cpu_s += proc.cpu_s
        rep.rss_mib = max(rep.rss_mib, proc.rss_mib)
        if proc.code != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            rep.errors.append(f"{case.command} [{case.label}] exited {proc.code}: {tail[0]}")
            continue
        try:
            values = read_values(case, casedir / "out")
        except (OSError, KeyError, ValueError) as exc:
            rep.errors.append(f"{case.command} [{case.label}]: unreadable output: {exc!r}")
            continue
        rep.errors += sanity_errors(case, values)
        if expected is not None:
            rep.errors += reference_errors(case, values, expected[index])
        for path in sorted((casedir / "out").glob("*.csv")):
            rep.outputs[f"{index}/{path.name}"] = path.read_bytes()
        if traced:
            traces.append((proc.wall_s, json.loads(spans.read_text())))
    if traced and not rep.errors:
        rep.trace = layer_metrics(traces)
    return rep


def layer_metrics(traces: list[tuple[float, dict]]) -> dict[str, float]:
    """Self times, call counts and shape counts of the traced processes of one
    run.  A span's self time is its duration minus its direct children's;
    cli.self_s is the processes' wall time minus all root spans."""
    self_s = dict.fromkeys(SELF_TIMED, 0.0)
    calls = dict.fromkeys(CALL_COUNTED, 0)
    counts: dict[str, float] = {}
    inclusive_event_s = 0.0
    unattributed = 0.0
    for wall, trace in traces:
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        unattributed += wall
        for index, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - child_s[index]
            if name in calls:
                calls[name] += 1
            if name == "conclab.simulate_event":
                inclusive_event_s += end - start
            if parent < 0:
                unattributed -= end - start
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    metrics = {f"{name}.self_s": value for name, value in self_s.items()}
    metrics.update({f"{name}.calls": value for name, value in calls.items()})
    metrics.update({name: counts.get(name, 0) for name in SHAPE_COUNTS})
    draws = counts.get("features.draws", 0)
    metrics["features.distinct_col_share"] = (
        counts.get("features.distinct_draws", 0) / draws if draws else 0.0)
    trials = counts.get("conclab.trials", 0)
    metrics["conclab.trial_ms"] = 1e3 * inclusive_event_s / trials if trials else 0.0
    metrics["cli.self_s"] = unattributed
    return metrics


PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    **SHAPE_COUNTS,
    "features.distinct_col_share": "ratio",
    "conclab.trial_ms": "ms",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_share": "ratio",
}
EXACT = set(SHAPE_COUNTS) | {f"{n}.calls" for n in CALL_COUNTED} | {
    "features.distinct_col_share"}


def check_identity(reps: list[Rep]) -> None:
    """Every run of one seed must write byte-identical CSVs; traced runs must
    repeat their shape counts exactly."""
    first = next((r for r in reps if not r.errors), None)
    first_trace = next((r.trace for r in reps if r.trace is not None), None)
    for rep in reps:
        if rep is first or rep.errors:
            continue
        for name in sorted(set(first.outputs) | set(rep.outputs)):
            if first.outputs.get(name) != rep.outputs.get(name):
                rep.errors.append(f"{name} differs between runs of one seed")
        if rep.trace is not None:
            rep.errors += [f"count {name} differs between traced runs: "
                           f"{rep.trace[name]} vs {first_trace[name]}"
                           for name in sorted(EXACT) if rep.trace[name] != first_trace[name]]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            workdir: Path) -> tuple[list[Rep], dict[str, float]]:
    start = time.perf_counter()
    deadline = start + LIMIT_S
    expected = load_reference().get(workload, {}).get(str(seed)) if size == "full" else None
    case = WORKLOADS[workload][0]
    measure_setup(case, size, seed, workdir, deadline)  # warm-up: byte-compiles src/
    if trace:
        return measure_traced(workload, seed, seconds, size, workdir, deadline, expected, start)
    setup: list[float] = []
    reps: list[Rep] = []
    last = 0.0
    # set-up processes are spread over the run, so both medians see the same load
    while len(reps) < MIN_RUNS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        setup += [measure_setup(case, size, seed, workdir, deadline)
                  for _ in range(SETUP_PER_RUN)]
        reps.append(run_rep(workload, seed, size, JOBS, False, workdir, deadline, expected))
        last = time.perf_counter() - began
    check_identity(reps)
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.rss_mib for r in reps),
    }
    return reps, metrics


def measure_traced(workload, seed, seconds, size, workdir, deadline, expected, start):
    """Traced and untraced --jobs 1 runs, alternated, starting with a traced one."""
    traced: list[Rep] = []
    plain: list[Rep] = []

    def one(is_traced: bool) -> None:
        rep = run_rep(workload, seed, size, 1, is_traced, workdir, deadline, expected)
        (traced if is_traced else plain).append(rep)

    one(True)
    one(False)
    one(True)
    while time.perf_counter() - start + plain[-1].wall_s + traced[-1].wall_s <= seconds:
        one(False)
        one(True)
    reps = traced + plain
    check_identity(reps)
    # all layer values come from one traced run, the one with the (lower) median
    # wall time, so that its self times and cli.self_s add up to trace.wall_s
    ok = sorted((r for r in traced if r.trace is not None and not r.errors),
                key=lambda r: r.wall_s)
    chosen = ok[(len(ok) - 1) // 2] if ok else None
    metrics = dict(chosen.trace) if chosen else dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics["trace.wall_s"] = chosen.wall_s if chosen else 0.0
    metrics["trace.untraced_wall_s"] = statistics.median(r.wall_s for r in plain)
    metrics["trace.overhead_share"] = (
        metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0)
    return reps, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time per workload; at least two runs are made")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the determinism-test configs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "specrf" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'specrf'}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        print("environment " + json.dumps(environment(args, 1 if args.trace else JOBS)))
        results, attempted, failed = {}, 0, 0
        for name in names:
            with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
                reps, metrics = measure(name, args.seed, args.seconds, bool(args.trace),
                                        args.size, Path(tmp))
            bad = [r for r in reps if r.errors]
            attempted += len(reps)
            failed += len(bad)
            for error in sorted({e for rep in bad for e in rep.errors}):
                print(f"{name} FAILED: {error}")
            print(f"{name} runs {len(reps)}, wall_s per run "
                  + " ".join(f"{r.wall_s:.3f}" for r in reps))
            print(f"{name} fail_rate {len(bad) / len(reps):.4g} ratio")
            for metric, unit in units.items():
                key = metric if args.workload != "all" else f"{name}.{metric}"
                results[key] = {"value": metrics[metric], "unit": unit}
                print(f"{name} {metric} {metrics[metric]:.6g} {unit}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
