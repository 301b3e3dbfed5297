"""Oracle tests for merged duplicate draws.

A design holds one column block per distinct omega draw, weighted by
sqrt(count).  Each test assembles the unmerged design it replaces by hand, one
unit-weight block per raw draw, and checks that Z Z^T and the fitted
predictions agree.
"""
import math

import numpy as np
import pytest

from specrf import estimator, features, neuralop, spectral, synthetic

TOL = 1e-10


def unmerged_rows(fs, U, kappa_scale):
    """(len(U)*d_v, M*p) rows from every raw draw at scale 1/(kappa sqrt(M)),
    times sqrt(v_weight) as in the design."""
    phi = fs.map.evaluate(U, fs.samples)              # (n, M, p, d_v)
    n, m, p, d_v = phi.shape
    scale = math.sqrt(fs.map.v_weight) / (kappa_scale * math.sqrt(fs.M))
    return scale * np.transpose(phi, (0, 3, 1, 2)).reshape(n * d_v, m * p)


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def synthetic_case():
    """Synthetic basis map: 200 draws over 8 basis indices."""
    spec = synthetic.spectrum_spec(b=1.0, d_max=8)
    problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=0)
    noise = synthetic.noise_model(problem, 0.3)
    U, V = synthetic.sample_dataset(problem, 60, noise, seed=1)
    U_te, _ = synthetic.sample_dataset(problem, 40, noise, seed=2)
    fs = features.sample_features(problem.feature_map, 200, seed=3)
    return fs, U, V, U_te


def vector_omega_case():
    """discrete_map whose omegas are (frequency, phase) rows; p = d_v = 2."""
    rng = np.random.default_rng(4)
    omegas = np.column_stack([rng.uniform(1.0, 6.0, 6), rng.uniform(0.0, 3.0, 6)])

    def evaluate(U, om, out=None):
        arg = np.outer(np.asarray(U, float).reshape(-1), om[:, 0]) + om[:, 1]
        c, s = np.cos(arg), np.sin(arg)
        if out is None:
            out = np.empty((len(arg), 2, len(om), 2))    # (n, d_v, M, p)
        out[:, :, :, 0] = np.stack([c, s], 1)
        out[:, :, :, 1] = 0.5 * np.stack([s, -c], 1)
        return out.transpose(0, 2, 3, 1)

    fmap = features.discrete_map(omegas, np.full(6, 1 / 6), evaluate, p=2, d_v=2,
                                 kappa=1.0, v_weight=0.5)
    fs = features.sample_features(fmap, 120, seed=5)
    U, U_te = rng.uniform(-1.0, 1.0, 50), rng.uniform(-1.0, 1.0, 30)
    V = rng.normal(size=(50, 2))
    return fs, U, V, U_te


def tangent_case(deriv_scale=None):
    """Symmetric initialisation duplicates every row of B."""
    arch = features.OperatorArchitecture(features.tanh_act(), 4, d_y=1)
    no = neuralop.init_symmetric(arch, 16, tau=0.5, seed=6)
    fs = neuralop.tangent_feature_set(no, deriv_scale)
    rng = np.random.default_rng(7)
    U, U_te = 0.3 * rng.normal(size=(20, 4, 1)), 0.3 * rng.normal(size=(15, 4, 1))
    V = rng.normal(size=(20, 4))
    return fs, U, V, U_te


CASES = {"synthetic": synthetic_case, "vector-omega": vector_omega_case,
         "tangent": tangent_case}


@pytest.mark.parametrize("name", CASES)
def test_merged_design_matches_unmerged(name):
    fs, U, V, U_te = CASES[name]()
    design = features.build_design(fs, U)
    n, p = design.n, fs.map.p
    assert design.M_distinct < fs.M
    assert design.Z.shape == (n * fs.map.d_v, design.M_distinct * p)

    full = unmerged_rows(fs, U, design.kappa_scale)
    assert rel(design.Z @ design.Z.T, full @ full.T) <= TOL

    cov = full.T @ full / n
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.max() < 1.0, "fixture must satisfy the design contract"
    # half the top eigenvalue, away from every eigenvalue so the cutoff is stable
    lam = 0.5 * eigs.max()
    assert np.min(np.abs(eigs - lam)) > 1e-6 * lam
    v = math.sqrt(design.v_weight) * np.asarray(V, float).reshape(-1)
    rhs = full.T @ v / n
    rows_te = unmerged_rows(fs, U_te, design.kappa_scale) / math.sqrt(design.v_weight)

    def full_predictions(theta):
        return (rows_te @ theta).reshape(len(U_te), -1)

    for filt, lam in [(spectral.tikhonov(), lam), (spectral.landweber(0.5), 0.1),
                      (spectral.cutoff(), lam)]:
        model = estimator.fit_closed(design, V, filt, lam)
        expected = full_predictions(spectral.apply_filter(filt, lam, cov, rhs))
        assert rel(estimator.predict_batch(model, U_te), expected) <= TOL, filt.kind

    theta = np.zeros(full.shape[1])
    for _ in range(25):
        theta = theta - 0.5 * (cov @ theta - rhs)
    model = estimator.fit_gd(design, V, 0.5, 25)
    assert rel(estimator.predict_batch(model, U_te), full_predictions(theta)) <= TOL


def test_rff_design_unchanged():
    rng = np.random.default_rng(8)
    fs = features.sample_features(features.rff_map(3, lengthscale=0.8), 40, seed=9)
    U = rng.normal(size=(25, 3))
    design = features.build_design(fs, U)
    assert design.M_distinct == fs.M
    np.testing.assert_array_equal(design.Z, unmerged_rows(fs, U, design.kappa_scale))


def test_distinct_keeps_first_appearance_order():
    fmap = synthetic.make_problem(synthetic.spectrum_spec(1.0, 8), 0.5, 1.0, 0).feature_map
    fs = features.FeatureSet(fmap, np.array([3, 1, 3, 3, 2, 1]))
    omegas, counts = fs.distinct
    np.testing.assert_array_equal(omegas, [3, 1, 2])
    np.testing.assert_array_equal(counts, [3.0, 2.0, 1.0])
    assert fs.distinct is fs.distinct  # computed once per feature set


def test_frozen_summands_match_zeroed_unmerged_columns():
    """The tangent map at deriv_scale 0, compare_cell's twin of a frozen B,
    is the tangent design with its psi' columns zeroed: only the psi block
    (the a-direction) is left."""
    fs, U, _, _ = tangent_case()
    frozen, _, _, _ = tangent_case(deriv_scale=0.0)
    design = features.build_design(frozen, U)
    full = unmerged_rows(fs, U, 1.0)
    full[:, np.tile(np.arange(fs.map.p) > 0, fs.M)] = 0.0
    assert rel(design.Z @ design.Z.T, full @ full.T) <= TOL
    assert np.all(design.Z.reshape(len(design.Z), design.M_distinct, -1)[:, :, 1:] == 0)


def test_output_weight_training_matches_kernel_gd_exactly():
    # with B frozen the operator is linear in a, so GD on a is kernel GD on
    # the psi block at every step, for any activation
    arch = features.OperatorArchitecture(features.tanh_act(), 6, d_y=1)
    rng = np.random.default_rng(10)
    U, V = rng.normal(size=(8, 6, 1)), rng.normal(size=(8, 6))
    U_te = rng.normal(size=(12, 6, 1))
    rows = neuralop.compare_to_kernel_gd(arch, U, V, U_te, widths=[8, 64], alpha=0.25,
                                         n_steps=10, seeds=[0, 1], train_b=False)
    assert all(r["discrepancy"] <= 1e-12 for r in rows)
