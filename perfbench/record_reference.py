"""Record the reference output values the benchmark compares runs against.

    python3 perfbench/record_reference.py [--seeds 0-9]

Runs every workload once per seed at full size and writes
perfbench/reference.json: {workload: {seed: [values of each case's checked
CSV columns]}}.  Rerun it only when a change is meant to alter results, and
say so in the change.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from run import JOBS, RUNS_DIR, SRC, run_rep
from workloads import REFERENCE_PATH, WORKLOADS, read_values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, as 0-9")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    if not (SRC / "specrf" / "cli.py").is_file():
        print(f"no program sources at {SRC / 'specrf'}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    reference: dict = {}
    for name, cases in WORKLOADS.items():
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
                rep = run_rep(name, seed, "full", JOBS, False, Path(tmp),
                              time.perf_counter() + 170, None)
                if rep.errors:
                    print(f"{name} seed {seed}: {rep.errors}", file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[str(seed)] = [
                    read_values(case, Path(tmp) / f"case{i}" / "out")
                    for i, case in enumerate(cases)]
            print(f"{name} seed {seed}: {reference[name][str(seed)]}")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
