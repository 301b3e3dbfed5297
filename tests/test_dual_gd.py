"""Oracle tests for gradient descent in the dual (Gram) coordinates.

When a design has more columns than rows, `estimator._descend` iterates
c_{t+1} = c_t - alpha (G c_t - v) on the Gram matrix G = Z Z^T / n and maps
back with theta = Z^T c / n.  Each test runs the primal loop
theta_{t+1} = theta_t - alpha (Sigma_hat theta_t - Z^T v / n), written out
here, and checks the iterates, and the risks of `fit_gd_path`'s iterates at
every step, against it.  Each step, on either route, is one np.matmul of
the operator with the iterate; on the primal route the loop does the
oracle's arithmetic, so it is checked against the oracle bit for bit.
A trajectory at least as long as a wide operator (LOW_RANK_MIN_WIDTH) on
a design of full rank instead takes the landweber closed form on the
operator's eigendecomposition; it is checked against the dense loop and the
oracle on one primal and one dual random Fourier design (the low-rank route,
which long trajectories on the NTK designs take, and the eigh route of
narrower operators are checked in test_low_rank_gd.py).  `dense_loop` is the
one way a test forces the loop.  The last test checks the one-pass checkpoint
evaluation against per-model `evaluate`.
"""
import math

import numpy as np
import pytest

from specrf import estimator, features, neuralop, spectral

TOL = 1e-10


def primal_oracle(design, outputs, alpha, n_steps):
    """Iterates theta_1..theta_T and the risks at theta_0..theta_T, from Z alone."""
    Z, n = design.Z, design.n
    v = design.stack_outputs(outputs)
    cov = Z.T @ Z / n
    rhs = Z.T @ v / n
    theta = np.zeros(Z.shape[1])
    thetas, risks = [], [0.5 * float(v @ v) / n]
    for _ in range(n_steps):
        theta = theta - alpha * (cov @ theta - rhs)
        thetas.append(theta)
        resid = Z @ theta - v
        risks.append(0.5 * float(resid @ resid) / n)
    return thetas, np.asarray(risks)


def path_risks(design, outputs, models):
    """The empirical risk 0.5 ||Z theta - v||^2 / n of each model, from its
    explicit residual."""
    Z, v = design.Z, design.stack_outputs(outputs)
    resid = Z @ np.stack([m.theta for m in models], axis=1) - v[:, None]
    return 0.5 * np.einsum("ij,ij->j", resid, resid) / design.n


def forbid_primal_operator(mp, design):
    """Fails the test if `design` (or, given the class, any design) forms
    Sigma_hat."""
    def no_cov(*args):
        raise AssertionError("the dual route formed Sigma_hat")

    for name in ("normal_equations", "cov"):
        mp.setattr(design, name, no_cov)


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def dense_loop(mp):
    """Sends every trajectory to the dense loop: no closed form."""
    mp.setattr(estimator, "closed_forms", lambda width, steps: ())


def ntk_case(M=64, n=40):
    """Normalized NTK design as in sweep-heatmap: M draws x 3 summands on n rows."""
    arch = features.OperatorArchitecture(features.tanh_act(), 1, d_y=1,
                                         use_lift=False)
    fmap = features.ntk_feature_map(arch, input_bound=math.sqrt(3.0))
    fs = features.sample_features(fmap, M, seed=1)
    rng = np.random.default_rng(2)
    U = rng.uniform(0.0, 1.0, (n, 1))
    V = np.sin(3.0 * U[:, 0]) + 0.1 * rng.normal(size=n)
    U_te = rng.uniform(0.0, 1.0, (600, 1))          # more than one 512-row chunk
    V_te = np.sin(3.0 * U_te[:, 0])
    return features.build_design(fs, U), V, U_te, V_te, 0.5


def tangent_case(n=8):
    """Unnormalized tangent design on a 4-point grid (d_v = 4): 16 distinct
    draws x 4 summands on the 4 n rows of n inputs."""
    arch = features.OperatorArchitecture(features.tanh_act(), 4, d_y=1)
    no = neuralop.init_symmetric(arch, 32, tau=0.5, seed=3)
    fs = neuralop.tangent_feature_set(no)
    rng = np.random.default_rng(4)
    U, U_te = 0.5 * rng.normal(size=(n, 4, 1)), 0.5 * rng.normal(size=(30, 4, 1))
    V, V_te = rng.normal(size=(n, 4)), rng.normal(size=(30, 4))
    design = features.build_design(fs, U)
    # ||Sigma_hat|| is not bounded by 1 without normalization; step inside 1/||Sigma_hat||
    alpha = min(1.0, 0.9 * design.n / np.linalg.norm(design.Z, 2) ** 2)
    return design, V, U_te, V_te, alpha


def rff_case(M, n):
    """Normalized random Fourier design of a 3-dimensional input at lengthscale
    0.3: M draws on n rows, of full numerical rank, so a long trajectory on it
    fails the certificate of the low-rank route and takes the eigendecomposition
    of its operator instead."""
    fs = features.sample_features(features.rff_map(3, 0.3), M, seed=1)
    rng = np.random.default_rng(2)
    U, U_te = rng.uniform(0.0, 1.0, (n, 3)), rng.uniform(0.0, 1.0, (300, 3))
    V = np.sin(U.sum(axis=1)) + 0.1 * rng.normal(size=n)
    return features.build_design(fs, U), V, U_te, np.sin(U_te.sum(axis=1)), 0.5


CASES = {"ntk-normalized": ntk_case, "tangent-unnormalized": tangent_case}
#: the same designs on more rows than columns, which descend on Sigma_hat:
#: 192 columns on 200 rows, 64 on 64
PRIMAL_CASES = {"ntk-normalized": lambda: ntk_case(n=200),
                "tangent-unnormalized": lambda: tangent_case(n=16)}


def operator_width(design):
    """The width of the operator `_descend` iterates on: cov() when it is
    no wider than the rows, else gram()."""
    rows, dim = design.shape
    return dim if dim <= rows else rows


@pytest.mark.parametrize("name", CASES)
def test_dual_fit_gd_matches_primal_oracle(name, monkeypatch):
    design, V, _, _, alpha = CASES[name]()
    rows, dim = design.shape
    assert dim > rows
    thetas, risks = primal_oracle(design, V, alpha, 40)
    forbid_primal_operator(monkeypatch, design)     # the dual route never forms Sigma_hat
    model = estimator.fit_gd(design, V, alpha, 40)
    assert estimator.closed_forms(rows, 40) == ()
    path = estimator.fit_gd_path(design, V, alpha, range(1, 41))
    assert rel(model.theta, thetas[-1]) < TOL
    np.testing.assert_allclose(path_risks(design, V, path), risks[1:], rtol=TOL, atol=0.0)


@pytest.mark.parametrize("name", CASES)
def test_dual_path_snapshots_match_primal_oracle(name, monkeypatch):
    design, V, _, _, alpha = CASES[name]()
    stops = [1, 3, 10, 40]
    thetas, _ = primal_oracle(design, V, alpha, stops[-1])
    forbid_primal_operator(monkeypatch, design)
    models = estimator.fit_gd_path(design, V, alpha, stops)
    for step, model in zip(stops, models):
        assert rel(model.theta, thetas[step - 1]) < TOL, step


@pytest.mark.parametrize("name", CASES)
def test_operators_are_exactly_symmetric(name):
    """np.linalg.eigh reads one triangle of cov() or gram(); both must be
    symmetric to the last bit, not just to rounding."""
    design, *_ = CASES[name]()
    for op in (design.cov(), design.gram()):
        assert op.flags.c_contiguous
        np.testing.assert_array_equal(op, op.T)


@pytest.mark.parametrize("route", ["primal", "dual"])
@pytest.mark.parametrize("name", CASES)
def test_dense_loop_matches_primal_oracle_bit_for_bit(name, route, monkeypatch):
    """1024 steps of fit_gd and fit_gd_path forced onto the dense loop.  On
    the primal route the loop does the oracle's arithmetic, so it gives the
    oracle's iterates bit for bit; on either route fit_gd gives the bits of
    the path's last stop."""
    design, V, _, _, alpha = (PRIMAL_CASES if route == "primal" else CASES)[name]()
    rows, dim = design.shape
    assert (dim <= rows) == (route == "primal")
    stops = [1, 16, 256, 1024]
    # narrow, so fit_gd_path would take eigh: these 1024 steps are forced
    # onto the dense loop
    assert operator_width(design) < estimator.LOW_RANK_MIN_WIDTH
    assert estimator.closed_forms(operator_width(design), stops[-1]) == ("eigh",)
    dense_loop(monkeypatch)
    single = estimator.fit_gd(design, V, alpha, stops[-1])
    path = estimator.fit_gd_path(design, V, alpha, stops)
    np.testing.assert_array_equal(single.theta, path[-1].theta)
    if route == "primal":
        thetas, _ = primal_oracle(design, V, alpha, stops[-1])
        for step, model in zip(stops, path):
            np.testing.assert_array_equal(model.theta, thetas[step - 1])


# wide enough for a closed form and of full rank, so the low-rank route
# declines them and 1024 steps take the eigendecomposition of the operator:
# 408 draws on 450 rows descend on the 408-wide cov(), 480 draws on 400 rows
# on the 400-wide gram()
REDUCED_CASES = {"primal": (408, 450), "dual": (480, 400)}
REDUCED_STOPS = [1, 4, 16, 64, 256, 1024]


def eigh_spy(monkeypatch):
    """Records the width of each matrix np.linalg.eigh decomposes."""
    real, calls = np.linalg.eigh, []

    def counted(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("route", REDUCED_CASES)
def test_reduced_route_matches_dense_loop_and_oracle(route, monkeypatch):
    design, V, _, _, alpha = rff_case(*REDUCED_CASES[route])
    rows, dim = design.shape
    assert (dim > rows) == (route == "dual")
    width = operator_width(design)
    assert width >= estimator.LOW_RANK_MIN_WIDTH and REDUCED_STOPS[-1] >= width
    calls = eigh_spy(monkeypatch)
    reduced = estimator.fit_gd_path(design, V, alpha, REDUCED_STOPS)
    single = estimator.fit_gd(design, V, alpha, REDUCED_STOPS[-1])
    assert calls == [width] * 2
    np.testing.assert_array_equal(single.theta, reduced[-1].theta)
    thetas, risks = primal_oracle(design, V, alpha, REDUCED_STOPS[-1])
    # the risks are taken along the dense loop
    dense_loop(monkeypatch)
    dense = estimator.fit_gd_path(design, V, alpha, range(1, REDUCED_STOPS[-1] + 1))
    assert len(calls) == 2
    np.testing.assert_allclose(path_risks(design, V, dense), risks[1:], rtol=TOL, atol=0.0)
    closed = estimator.fit_closed(design, V, spectral.landweber(alpha),
                                  1.0 / (alpha * REDUCED_STOPS[-1]))
    assert rel(reduced[-1].theta, closed.theta) < 1e-9
    for step, r in zip(REDUCED_STOPS, reduced):
        assert rel(r.theta, thetas[step - 1]) < TOL, step
        assert rel(r.theta, dense[step - 1].theta) < 1e-12, step


@pytest.mark.parametrize("name", CASES)
def test_path_evaluation_matches_per_model_evaluate(name):
    design, V, U_te, V_te, alpha = CASES[name]()
    models = estimator.fit_gd_path(design, V, alpha, [1, 4, 16, 64])
    one_pass = estimator.evaluate_path(models, U_te, V_te)
    for model, report in zip(models, one_pass):
        single = estimator.evaluate(model, U_te, V_te)
        assert report.n_test == single.n_test
        assert report.empirical_risk == pytest.approx(single.empirical_risk,
                                                      rel=1e-12, abs=0.0)
