#!/usr/bin/env python3
"""Reproduce the (M, T) test-error heat map on the synthetic d=1 dataset.

Emits heatmap.csv plus an SVG rendering.  Desk scale by default (n=1000,
10 repetitions); --paper-scale switches to n=5000 and 50 repetitions.
"""
import argparse
import json
import sys
from pathlib import Path

from specrf import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/heatmap")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args()

    cfg = {
        "M_grid": [16, 32, 64, 128, 256, 380, 512, 1024, 1518],
        "T_grid": [1, 4, 16, 34, 64, 256, 1024],
        "svg": True,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cli_args = ["sweep-heatmap", "--config", json.dumps(cfg), "--out", str(out),
                "--seed", str(args.seed), "--jobs", str(args.jobs)]
    if args.paper_scale:
        cli_args.append("--paper-scale")
    code = cli.main(cli_args)
    if code == 0:
        print(f"wrote {out}/heatmap.csv and {out}/heatmap.svg")
    return code


if __name__ == "__main__":
    sys.exit(main())
