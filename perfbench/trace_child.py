"""Run one `specrf` subcommand with a span around each layer's public functions.

    python3 perfbench/trace_child.py SPANS.json -- <specrf arguments>

The wrappers are installed from here, so no file of the program changes.
Every wrapped call records a span [name, start, end, parent index]; parent
is -1 for a call made outside any other wrapped call.  Counts computed from
argument and result shapes are recorded at the same boundaries.  Spans and
counts stay in memory and are written to SPANS.json when the subcommand
returns.  Run it at `--jobs 1` so that every span lands in this process.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from specrf import cli, conclab, dataio, estimator, features, neuralop, spectral, synthetic


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span named `name`; `count(tracer, arguments, result)`
        runs after the call with the bound arguments (defaults applied)."""
        signature = inspect.signature(fn) if count else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result

        return traced

    def timed_maps(self, factory):
        """Wrap a FeatureMap factory so each map it returns has a timed evaluate."""
        def make(*args, **kwargs):
            fmap = factory(*args, **kwargs)
            return dataclasses.replace(
                fmap, evaluate=self.wrap("features.evaluate", fmap.evaluate))
        return make


# Counts, all computed from array shapes and arguments rather than measured.

def _count_design(tr: Tracer, args: dict, design) -> None:
    entries = design.Z.shape[0] * design.Z.shape[1]
    tr.add("features.design_entries", entries)
    tr.add("features.design_bytes", entries * 8)  # float64
    samples = args["fs"].samples
    distinct = (len(np.unique(samples, axis=0)) if isinstance(samples, np.ndarray)
                else args["fs"].M)
    tr.add("features.distinct_draws", distinct)
    tr.add("features.draws", args["fs"].M)


def _count_eigh(tr: Tracer, args: dict, _result) -> None:
    tr.add("spectral.eigh_dim3", np.asarray(args["a"]).shape[0] ** 3)


def _count_path_steps(tr: Tracer, args: dict, _result) -> None:
    tr.add("estimator.gd_steps", max(int(t) for t in args["checkpoints"]))


def _counter(metric: str, argument: str):
    def count(tr: Tracer, args: dict, _result) -> None:
        tr.add(metric, int(args[argument]))
    return count


def _count_file(tr: Tracer, args: dict, _result) -> None:
    tr.add("dataio.bytes_written", os.path.getsize(args["path"]))


SPANNED = [
    (features, "build_design", _count_design),
    (spectral, "eigensystem", _count_eigh),
    (spectral, "apply_filter", None),
    (spectral, "verify_filter_constants", None),
    (estimator, "fit_closed", None),
    (estimator, "fit_gd", _counter("estimator.gd_steps", "n_steps")),
    (estimator, "fit_gd_path", _count_path_steps),
    (estimator, "evaluate", None),
    (estimator, "predict_batch", None),
    (synthetic, "sample_dataset", None),
    (synthetic, "make_problem", None),
    (neuralop, "train_gd", _counter("neuralop.train_steps", "n_steps")),
    (neuralop, "forward", None),
    (conclab, "simulate_event", _counter("conclab.trials", "trials")),
    (dataio, "save_results", _count_file),
    (dataio, "write_manifest", _count_file),
]
MAP_FACTORIES = ("discrete_map", "ntk_feature_map", "rff_map")


def install(tracer: Tracer) -> None:
    """Replace the layers' public functions by traced ones.  Callers look the
    functions up on their modules at call time, so internal calls are traced."""
    for module, attr, count in SPANNED:
        layer = module.__name__.rsplit(".", 1)[-1]
        setattr(module, attr, tracer.wrap(f"{layer}.{attr}", getattr(module, attr), count))
    features.DesignMatrix.cov = tracer.wrap("features.cov", features.DesignMatrix.cov)
    for attr in MAP_FACTORIES:
        setattr(features, attr, tracer.timed_maps(getattr(features, attr)))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_child.py SPANS.json -- <specrf arguments>", file=sys.stderr)
        return 3
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv[2:])
    Path(argv[0]).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
