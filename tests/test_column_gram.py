"""Oracle tests for the operators summed by in-place rank-k updates.

`DesignMatrix.gram()` sums G = (1/n) sum_b Z_b Z_b^T over column blocks Z_b
of the design, the columns of a contiguous range of distinct draws built into
one reused buffer, and `embed_adjoints` maps dual coefficients back over the
same blocks, so a dual fit never holds Z.  Each block, and each row chunk of
Sigma_hat, is added into one triangle in place by `runtime.symmetric_update`
(BLAS dsyrk) and mirrored once.  The oracles are the products of the whole Z
and the np.matmul fallback of the update.
"""
import math
import tracemalloc

import numpy as np
import pytest

from specrf import estimator, features, neuralop, runtime
from test_dual_gd import forbid_primal_operator


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def heatmap_design(M=512, n=1000):
    """The sweep-heatmap design at its largest width: 1000 x 1536, dual."""
    arch = features.OperatorArchitecture(features.tanh_act(), 1, d_y=1,
                                         use_lift=False)
    fmap = features.ntk_feature_map(arch, input_bound=math.sqrt(3.0))
    fs = features.sample_features(fmap, M, seed=1)
    rng = np.random.default_rng(2)
    U = rng.uniform(0.0, 1.0, (n, 1))
    return features.build_design(fs, U), np.sin(3.0 * U[:, 0])


def ntk_design():
    """An ntk-compare tangent design: 32 inputs on a 16-point grid (d_v = 16),
    512 distinct draws of width 1024 x 4 summands."""
    arch = features.OperatorArchitecture(features.tanh_act(), 16, d_y=1)
    fs = neuralop.tangent_feature_set(neuralop.init_symmetric(arch, 1024, tau=1.0, seed=3))
    rng = np.random.default_rng(4)
    U, V = 0.5 * rng.normal(size=(32, 16, 1)), rng.normal(size=(32, 16))
    return features.build_design(fs, U, normalize=False), V


def rff_design():
    """Random Fourier features, 200 draws on 50 rows."""
    rng = np.random.default_rng(5)
    fs = features.sample_features(features.rff_map(2, lengthscale=0.6), 200, seed=6)
    U = rng.normal(size=(50, 2))
    return features.build_design(fs, U), np.sin(U[:, 0])


DESIGNS = {"heatmap": heatmap_design, "ntk": ntk_design, "rff": rff_design}


def column_blocks(design):
    """How many column blocks the budget makes: each holds as many distinct
    draws' columns as fit in runtime.BLOCK_BYTES, and at least one draw's."""
    per_block = max(1, runtime.BLOCK_BYTES // (8 * design.shape[0] * design.p))
    return math.ceil(design.M_distinct / per_block)


@pytest.mark.parametrize("name", DESIGNS)
def test_column_block_gram_matches_the_whole_design(name):
    design, _ = DESIGNS[name]()
    assert design.shape[1] > design.shape[0]
    assert len(list(design._column_blocks())) == column_blocks(design)
    gram = design.gram()
    assert "Z" not in vars(design)                  # summed without building Z
    assert gram.flags.c_contiguous
    np.testing.assert_array_equal(gram, gram.T)
    Z = design.Z
    assert rel(gram, Z @ Z.T / design.n) < 1e-14
    # the blocks are Z's columns, bit for bit
    np.testing.assert_array_equal(
        np.concatenate([block.copy() for _, block in design._column_blocks()], axis=1), Z)


@pytest.mark.parametrize("name", DESIGNS)
def test_embed_adjoints_match_the_whole_design(name):
    design, _ = DESIGNS[name]()
    rng = np.random.default_rng(7)
    cs = [rng.normal(size=design.shape[0]) for _ in range(3)]
    thetas = design.embed_adjoints(cs)
    assert "Z" not in vars(design)
    for c, theta in zip(cs, thetas):
        assert rel(theta, design.Z.T @ c / design.n) < 1e-14
    # one product per vector: its bits do not depend on the others in the pass
    np.testing.assert_array_equal(design.embed_adjoints(cs[2:])[0], thetas[2])


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("fallback", [False, True])
def test_symmetric_update_adds_to_the_upper_triangle(transpose, fallback, monkeypatch):
    if fallback:
        monkeypatch.setattr(runtime, "_dsyrk", lambda: None)
    rng = np.random.default_rng(8)
    a = rng.normal(size=(40, 30) if transpose else (30, 40))
    start = rng.normal(size=(30, 30))
    c = start.copy()
    runtime.symmetric_update(c, a, transpose)
    expected = start + (a.T @ a if transpose else a @ a.T)
    upper = np.triu_indices(30)
    np.testing.assert_allclose(c[upper], expected[upper], rtol=1e-14, atol=1e-13)
    runtime.mirror_upper(c)
    np.testing.assert_array_equal(c, c.T)
    with pytest.raises(ValueError):
        runtime.symmetric_update(np.asfortranarray(c), a, transpose)
    with pytest.raises(ValueError):
        runtime.symmetric_update(c, a[:, :-1] if transpose else a[:-1], transpose)


@pytest.mark.parametrize("route", ["primal", "dual"])
def test_dsyrk_matches_matmul_fallback(route, monkeypatch):
    """cov() over row chunks and gram() over column blocks, by dsyrk and by
    the np.matmul fallback, on the heatmap design (12 column blocks) and a
    narrower one (2 row chunks); both exactly symmetric."""
    design = heatmap_design(M=64, n=1000)[0] if route == "primal" else heatmap_design()[0]
    if route == "primal":
        assert math.ceil(design.n / design.chunk) == 2
    else:
        assert column_blocks(design) == 12
    form = design.cov if route == "primal" else design.gram
    assert runtime.operator_kernel() == "dsyrk"
    fast = form()
    monkeypatch.setattr(runtime, "_dsyrk", lambda: None)
    assert runtime.operator_kernel() == "matmul"
    assert runtime.environment(1)["operator_kernel"] == "matmul"
    slow = form()
    for op in (fast, slow):
        np.testing.assert_array_equal(op, op.T)
    assert rel(fast, slow) < 1e-14


def test_dual_fit_never_holds_the_design(monkeypatch):
    """A dual fit_gd_path on the 1000 x 1536 heatmap design, from building the
    design to the last snapshot, holds the Gram matrix and less than 3/4 of
    Z's bytes besides (one column block of about runtime.BLOCK_BYTES and the
    map's work arrays), so never Z itself, and never forms Sigma_hat."""
    design, V = heatmap_design()
    fs = design.feature_set
    fs.distinct                                       # cached before tracing
    forbid_primal_operator(monkeypatch, features.DesignMatrix)
    tracemalloc.start()
    try:
        design = features.build_design(fs, design.inputs)
        models = estimator.fit_gd_path(design, V, 0.5, [1, 4, 16, 64, 256, 1024])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows, dim = design.shape
    assert (rows, dim) == (1000, 1536)
    assert "Z" not in vars(design)
    assert len(models) == 6
    gram_bytes, z_bytes = rows * rows * 8, rows * dim * 8
    assert peak < gram_bytes + 0.75 * z_bytes, (peak, gram_bytes, z_bytes)


@pytest.mark.parametrize("name", DESIGNS)
def test_operators_agree_at_two_budgets(name, monkeypatch):
    """Sigma_hat and G summed at the budget and at a budget of 3 draws'
    columns or 3 inputs' rows (more blocks, summed in another order) agree to
    1e-14 relative; the smaller budget's blocks are Z's columns bit for bit,
    also rff's, whose samples form one array like every other map's."""
    design, _ = DESIGNS[name]()
    rows, dim = design.shape
    cov, gram, Z = design.cov(), design.gram(), design.Z
    monkeypatch.setattr(runtime, "BLOCK_BYTES", 3 * 8 * rows * design.p)
    assert len(list(design._column_blocks())) == math.ceil(design.M_distinct / 3) > 2
    assert rel(design.gram(), gram) < 1e-14
    np.testing.assert_array_equal(
        np.concatenate([block.copy() for _, block in design._column_blocks()], axis=1), Z)
    monkeypatch.setattr(runtime, "BLOCK_BYTES", 3 * 8 * design.d_v * dim)
    assert design.chunk == 3
    assert rel(design.cov(), cov) < 1e-14
