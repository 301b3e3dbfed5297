#!/usr/bin/env python3
"""Full verification pass: filter axioms on 100x100 grids plus Monte Carlo
checks of all nine concentration events.  Exit code 2 flags any violation."""
import argparse
import json
import sys
from pathlib import Path

from specrf import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/verify")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--trials", type=int, default=200)
    args = parser.parse_args()

    cfg = {
        "problem": {"r": 0.5, "b": 1.0, "d_max": 64, "R": 1.0,
                    "noise_half_width": 0.3},
        "event_n": 400,
        "event_M": 400,
        "trials": args.trials,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    code = cli.main(["verify", "--config", json.dumps(cfg), "--out", str(out),
                     "--seed", str(args.seed)])
    print(f"verify exit code {code}; reports in {out}/")
    return code


if __name__ == "__main__":
    sys.exit(main())
