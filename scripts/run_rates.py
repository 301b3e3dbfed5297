#!/usr/bin/env python3
"""Run the two rate-recovery experiments (excess risk vs sample size) and
print the fitted slopes against the theoretical targets.

Desk scale by default; pass --paper-scale for 50 repetitions.
"""
import argparse
import json
import sys
from pathlib import Path

from specrf import cli

CASES = {
    "r0.5-b1.0": {"r": 0.5, "b": 1.0, "d_max": 512, "R": 1.2,
                  "noise_half_width": 1.0, "C_multiplier": 0.037,
                  "M_multiplier": 2.0},
    "r1.0-b0.5": {"r": 1.0, "b": 0.5, "d_max": 32, "R": 0.5,
                  "noise_half_width": 1.0, "C_multiplier": 0.037,
                  "M_multiplier": 1.0},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/rates")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args()

    for label, overrides in CASES.items():
        out = Path(args.out) / label
        out.mkdir(parents=True, exist_ok=True)
        cfg = dict(overrides, problem_seed=0)
        cli_args = ["rates", "--config", json.dumps(cfg), "--out", str(out),
                    "--seed", str(args.seed), "--jobs", str(args.jobs)]
        if args.paper_scale:
            cli_args.append("--paper-scale")
        code = cli.main(cli_args)
        if code != 0:
            return code
        manifest = json.loads((out / "manifest.json").read_text())
        print(f"{label}: slope {manifest['slope']:+.4f} "
              f"(target {manifest['target_slope']:+.3f}) -> {out}/rates.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
