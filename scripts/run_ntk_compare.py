#!/usr/bin/env python3
"""Width sweep of the trained-operator vs kernel-GD discrepancy on a synthetic
operator task (random smooth inputs, running-mean target)."""
import argparse
import json
import sys
from pathlib import Path

from specrf import cli, dataio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/ntk-compare")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--activation", default="tanh",
                        choices=["tanh", "identity"])
    parser.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args()

    cfg = {"M_grid": [64, 128, 256, 512, 1024], "activation": args.activation}
    if args.activation == "identity":
        cfg.update({"T": 1, "alpha": 0.05})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cli_args = ["ntk-compare", "--config", json.dumps(cfg), "--out", str(out),
                "--seed", str(args.seed)]
    if args.paper_scale:
        cli_args.append("--paper-scale")
    code = cli.main(cli_args)
    if code == 0:
        header, body = dataio.load_results(out / "ntk_compare.csv")
        for row in body:
            print(f"M={int(row[0]):5d}  median discrepancy {row[1]:.3e}")
    return code


if __name__ == "__main__":
    sys.exit(main())
