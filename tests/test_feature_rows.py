"""Feature rows are written once, in place.

`FeatureMap.evaluate(U, omegas, out)` writes its values straight into the row
layout (n, d_v, M, p) and `feature_rows` weights them there.  Oracles: the
rows equal, bit for bit, the transposed and weighted copy of the map's
(n, M, p, d_v) values that rows were built as before; the NTK values equal
the einsum they were built with before; and building the rows of an
`ntk-compare` test batch holds less than twice their bytes.
"""
import math
import tracemalloc

import numpy as np
import pytest

from specrf import cli, features, neuralop, runtime, synthetic
from test_merged_design import vector_omega_case
from test_normal_equations import chunk_inputs


def copied_rows(fs, U, kappa_scale, v_weight=1.0):
    """The rows as a transposed copy of evaluate's values times the weights."""
    omegas, counts = fs.distinct
    phi = fs.map.evaluate(U, omegas)                  # (n, M_distinct, p, d_v)
    n, m, p, d_v = phi.shape
    weights = math.sqrt(v_weight) / (kappa_scale * math.sqrt(fs.M)) * np.sqrt(counts)
    return np.transpose(phi, (0, 3, 1, 2)).reshape(n * d_v, m * p) \
        * np.outer(weights, np.ones(p)).reshape(-1)


def einsum_values(arch, U, omegas, deriv_scale):
    """The NTK map's (n, M, p, n_X) values as the einsum construction built them."""
    J, z = arch.preactivations(U, omegas)
    psi, dpsi = arch.activation.f_and_df(z)
    n, n_x, M = z.shape
    out = np.empty((n, M, 1 + arch.d_tilde, n_x))
    out[:, :, 0, :] = np.transpose(psi, (0, 2, 1))
    deriv = out[:, :, 1:, :]
    np.einsum("nxm,nxj->nmjx", dpsi, J, out=deriv)
    deriv *= deriv_scale
    return out


def synthetic_case():
    """Synthetic basis map; the distinct draws come in order of first
    appearance, not sorted."""
    problem = synthetic.make_problem(synthetic.spectrum_spec(b=1.0, d_max=32),
                                     r=0.5, R=1.0, seed=0)
    fs = features.sample_features(problem.feature_map, 40, seed=1)
    assert np.any(np.diff(fs.distinct[0]) < 0)
    U = synthetic.sample_inputs(70, seed=2)
    return fs, U, problem.kappa, 1.0


def rff_case():
    fs = features.sample_features(features.rff_map(3, lengthscale=0.7), 25, seed=3)
    U = np.random.default_rng(4).uniform(-1.0, 1.0, size=(30, 3))
    return fs, U, math.sqrt(2.0), 1.0


def ntk_arch(n_x):
    return features.OperatorArchitecture(features.tanh_act(), n_x, d_y=1)


def ntk_case(n_x):
    """Symmetric tangent features (every draw twice) with deriv_scale 0.5."""
    no = neuralop.init_symmetric(ntk_arch(n_x), 24, tau=1.0, seed=5)
    fs = neuralop.tangent_feature_set(no, deriv_scale=0.5)
    U = 0.5 * np.random.default_rng(6).normal(size=(20, n_x, 1))
    return fs, U, 1.0, fs.map.v_weight


def vector_omega_rows_case():
    fs, U, _, _, _ = vector_omega_case()
    return fs, U, fs.map.kappa, fs.map.v_weight


CASES = {
    "synthetic": synthetic_case,
    "rff": rff_case,
    "ntk-nx16": lambda: ntk_case(16),
    "ntk-nx1": lambda: ntk_case(1),
    "vector-omega": vector_omega_rows_case,
}


@pytest.mark.parametrize("name", CASES)
def test_rows_are_bit_identical_to_the_copied_construction(name):
    fs, U, kappa_scale, v_weight = CASES[name]()
    rows = features.feature_rows(fs, U, kappa_scale, v_weight)
    np.testing.assert_array_equal(rows, copied_rows(fs, U, kappa_scale, v_weight))
    buffer = np.full_like(rows, np.nan)
    written = features.feature_rows(fs, U, kappa_scale, v_weight, out=buffer)
    assert written is buffer
    np.testing.assert_array_equal(buffer, rows)


@pytest.mark.parametrize("n_x", [16, 1])
def test_ntk_values_match_the_einsum_construction(n_x):
    fs, U, _, _ = ntk_case(n_x)
    arch, omegas = ntk_arch(n_x), fs.distinct[0]
    for deriv_scale in (1.0, 0.5):
        phi = features.ntk_feature_map(arch, deriv_scale=deriv_scale).evaluate(U, omegas)
        np.testing.assert_array_equal(phi, einsum_values(arch, U, omegas, deriv_scale))


def test_design_across_the_chunk_boundary(monkeypatch):
    """1100 inputs take three assembly chunks (512, 512, 76) of Z and, at
    chunk 512, three prediction chunks through one row buffer; the
    predictions are the row-by-row dot products of the rows built at once."""
    arch = ntk_arch(1)
    fs = features.sample_features(features.ntk_feature_map(arch, input_bound=math.sqrt(3.0)),
                                  40, seed=7)
    U = np.random.default_rng(8).uniform(-1.0, 1.0, size=(1100, 1))
    design = features.build_design(fs, U)
    chunk_inputs(monkeypatch, design, 512)
    np.testing.assert_array_equal(design.Z, copied_rows(fs, U, design.kappa_scale))
    theta = np.random.default_rng(9).normal(size=(design.Z.shape[1], 3))
    expected = np.einsum("ij,kj->ik", copied_rows(fs, U, design.kappa_scale),
                         np.ascontiguousarray(theta.T))
    np.testing.assert_array_equal(features.predict_values(fs, theta, U, design.kappa_scale),
                                  expected.reshape(1100, 1, 3))


def ntk_test_batch():
    """The `ntk-compare` test batch at its largest default width: 64 inputs on
    16 grid points, symmetric width 1024 (512 distinct draws), 2048 columns."""
    U, _ = cli._operator_dataset(64, 16, 0.0, seed=2)
    arch = features.OperatorArchitecture(features.tanh_act(), 16, d_y=1)
    return neuralop.tangent_feature_set(neuralop.init_symmetric(arch, 1024, 1.0, seed=3)), U


def rates_test_batch():
    """2500 test inputs of the synthetic map of the first rate case (d_max 512)."""
    problem = synthetic.make_problem(synthetic.spectrum_spec(b=1.0, d_max=512),
                                     r=0.5, R=1.2, seed=0)
    fs = features.sample_features(problem.feature_map, 800, seed=1)
    return fs, synthetic.sample_inputs(2500, seed=2)


def rff_test_batch():
    """1000 inputs of `fit --csv`'s random Fourier map on 3 columns, 300 draws."""
    fs = features.sample_features(features.rff_map(3), 300, seed=10)
    return fs, np.random.default_rng(11).normal(size=(1000, 3))


@pytest.mark.parametrize("batch", [ntk_test_batch, rates_test_batch, rff_test_batch])
def test_predictions_do_not_depend_on_the_chunk(batch, monkeypatch):
    """Predictions are byte-identical at chunks of 1, 7 and 512 inputs and
    at the default chunk of runtime.BLOCK_BYTES of rows (4 inputs of the ntk
    batch, over 300 of the synthetic and rff ones), for one coefficient vector and for
    the stacked vectors of `evaluate_path`; a stacked column predicts what
    the vector alone does."""
    fs, U = batch()
    width = len(fs.distinct[1]) * fs.map.p
    row_bytes = 8 * fs.map.d_v * width                # one input's rows
    default = runtime.BLOCK_BYTES // row_bytes
    assert 1 < default < len(U) and default not in (7, 512)
    stacked = np.random.default_rng(12).normal(size=(width, 4))
    single = stacked[:, 0].copy()
    predictions = {}
    for name, theta in (("gemv", single), ("gemm", stacked)):
        predictions[name] = features.predict_values(fs, theta, U, 2.0)
        assert predictions[name].shape == (len(U), fs.map.d_v) + theta.shape[1:]
    for chunk in (1, 7, 512):
        monkeypatch.setattr(runtime, "BLOCK_BYTES", chunk * row_bytes)
        for name, theta in (("gemv", single), ("gemm", stacked)):
            np.testing.assert_array_equal(
                features.predict_values(fs, theta, U, 2.0), predictions[name])
    np.testing.assert_array_equal(predictions["gemm"][..., 0], predictions["gemv"])


def test_ntk_rows_hold_less_than_twice_their_bytes():
    """The `ntk-compare` test batch holds 16 MiB of rows.  Evaluating into a
    transposed block, copying it to rows and weighting a third copy peaked at
    3x the rows."""
    fs, U = ntk_test_batch()
    fs.distinct                                      # cached before tracing
    tracemalloc.start()
    try:
        rows = features.feature_rows(fs, U, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 16 * 2 ** 20
    assert peak < 2 * rows.nbytes


def test_evaluator_must_write_into_out():
    def copying(U, om, out=None):
        return np.ones((len(U), len(om), 1, 1))    # ignores `out`

    fmap = features.discrete_map([0.0], [1.0], copying, p=1, d_v=1, kappa=1.0)
    fs = features.sample_features(fmap, 2, seed=0)
    with pytest.raises(features.FeatureError, match="must write into"):
        features.feature_rows(fs, np.zeros(3), 1.0)


def test_row_buffer_must_fit():
    fs, U, kappa_scale, _ = rff_case()
    rows = features.feature_rows(fs, U, kappa_scale)
    for bad in (np.empty((rows.shape[0] + 1, rows.shape[1])),
                np.empty(rows.shape[::-1]).T):   # right shape, not C-contiguous
        with pytest.raises(features.FeatureError, match="row buffer"):
            features.feature_rows(fs, U, kappa_scale, out=bad)
