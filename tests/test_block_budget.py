"""One byte budget, runtime.BLOCK_BYTES, sizes every streamed buffer.

A design's row chunks and column blocks, prediction rows, the neural
operator's row blocks and the tiles of `runtime.mirror_upper` are as large as
fit in the budget, and at least one input's rows, one draw's columns or one
(input, grid point) pair's preactivations.  Oracles: the triangle copied with
`np.triu`, and tracemalloc's peak of each pass beyond what the pass
returns.
"""
import math
import tracemalloc

import numpy as np
import pytest

from specrf import cli, features, neuralop, runtime
from test_column_gram import heatmap_design
from test_feature_rows import ntk_test_batch


@pytest.mark.parametrize("d", [1, 257, 1000])
def test_mirror_upper_matches_triu(d, monkeypatch):
    """At d = 1, 257 and 1000 the tiled copy is the upper triangle copied
    onto the lower, bit for bit, in the budget's tiles (256 wide) and in
    7-wide ones."""
    a = np.random.default_rng(d).normal(size=(d, d))
    expected = np.triu(a) + np.triu(a, 1).T
    for tile in (math.isqrt(runtime.per_block(16)), 7):
        monkeypatch.setattr(runtime, "BLOCK_BYTES", 16 * tile * tile)
        c = a.copy()
        runtime.mirror_upper(c)
        np.testing.assert_array_equal(c, expected)


def transient_peak(run):
    """Peak traced bytes of run() beyond what is still held when it returns
    (its result)."""
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


def heatmap_passes():
    """The streamed passes of the 1000 x 1536 heatmap design, each with the
    bytes of its unit: one input's rows or one draw's columns."""
    design, V = heatmap_design()
    fs = design.feature_set
    fs.distinct                                       # cached before tracing
    rows, dim = design.shape
    v, cs = design.stack_outputs(V), [np.ones(rows)] * 3
    theta = np.random.default_rng(9).normal(size=(dim, 4))
    row, column = 8 * dim, 8 * rows * design.p
    return {
        "normal_equations": (lambda: design.normal_equations(v), row),
        "gram": (lambda: design.gram(), column),
        "embed_adjoints": (lambda: design.embed_adjoints(cs), column),
        "predict_values": (lambda: features.predict_values(fs, theta, design.inputs,
                                                           design.kappa_scale), row),
    }


def ntk_passes():
    """The ntk-compare passes at width 1024: forward and one training step on
    its 32 x 16 training batch, predictions on its 64 x 16 test batch; the
    unit of the operator's passes is one pair's preactivations."""
    U, V = cli._operator_dataset(32, 16, 0.0, seed=1)
    arch = features.OperatorArchitecture(features.tanh_act(), 16, d_y=1)
    no = neuralop.init_symmetric(arch, 1024, tau=1.0, seed=3)
    U = arch.coerce_inputs(U)
    fs, U_te = ntk_test_batch()
    fs.distinct
    width = len(fs.distinct[1]) * fs.map.p
    theta = np.ones(width)
    return {
        "forward": (lambda: neuralop.forward(no, U), 8 * no.M),
        "train_step": (lambda: neuralop._risk_and_gradients(no, U, V), 8 * no.M),
        "ntk_predict_values": (lambda: features.predict_values(fs, theta, U_te, 1.0),
                               8 * fs.map.d_v * width),
    }


PASSES = {**dict.fromkeys(["normal_equations", "gram", "embed_adjoints", "predict_values"],
                          heatmap_passes),
          **dict.fromkeys(["forward", "train_step", "ntk_predict_values"], ntk_passes)}


@pytest.mark.parametrize("name", PASSES)
def test_streamed_passes_stay_within_the_budget(name):
    """Beyond what it returns or caches, a pass holds at most two buffers of
    the budget plus one unit each (its block and the map's work arrays, or
    the step's two work arrays), and an eighth more for arrays of the size
    of its inputs and outputs.  Blocks of 4 MiB, or the step's two whole
    (n * n_X, M) arrays, take these passes to 4.2-8.5 MB."""
    run, unit = PASSES[name]()[name]
    run()                                             # caches filled before tracing
    extra = transient_peak(run)
    bound = 2.25 * (runtime.BLOCK_BYTES + unit)
    assert extra < bound, (extra, bound)
