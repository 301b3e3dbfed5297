"""Oracle tests for gradient descent in the dual (Gram) coordinates.

When a design has more columns than rows and no cached covariance,
`estimator._descend` iterates c_{t+1} = c_t - alpha (G c_t - v) on the Gram
matrix G = Z Z^T / n and maps back with theta = Z^T c / n.  Each test runs the
primal loop theta_{t+1} = theta_t - alpha (Sigma_hat theta_t - Z^T v / n),
written out here, and checks the iterates and risks against it.  Each step,
on either route, is one symmetric matrix-vector product
(`runtime.symmetric_step`); it is checked against its np.matmul fallback.
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

from specrf import estimator, features, neuralop, runtime, spectral

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


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def dense_loop(mp):
    """Sends every trajectory to the dense loop: no closed form."""
    mp.setattr(estimator, "closed_forms", lambda width, steps: ())


def ntk_case(M=64, n=40):
    """Normalized NTK design as in sweep-heatmap: M draws x 3 summands on n rows."""
    arch = features.OperatorArchitecture(features.tanh_act(), np.zeros(1), d_y=1,
                                         use_lift=False)
    fmap = features.ntk_feature_map(arch, input_bound=math.sqrt(3.0))
    fs = features.sample_features(fmap, M, seed=1)
    rng = np.random.default_rng(2)
    U = rng.uniform(0.0, 1.0, (n, 1))
    V = np.sin(3.0 * U[:, 0]) + 0.1 * rng.normal(size=n)
    U_te = rng.uniform(0.0, 1.0, (600, 1))          # more than one 512-row chunk
    V_te = np.sin(3.0 * U_te[:, 0])
    return features.build_design(fs, U), V, U_te, V_te, 0.5


def tangent_case():
    """Unnormalized tangent design on a 4-point grid (d_v = 4), with the psi'_1
    summand frozen: 16 distinct draws x 4 summands on 32 rows."""
    arch = features.OperatorArchitecture(features.tanh_act(), np.linspace(0, 1, 4), d_y=1)
    no = neuralop.init_symmetric(arch, 32, tau=0.5, seed=3)
    fs = neuralop.tangent_feature_set(no)
    rng = np.random.default_rng(4)
    U, U_te = 0.5 * rng.normal(size=(8, 4, 1)), 0.5 * rng.normal(size=(30, 4, 1))
    V, V_te = rng.normal(size=(8, 4)), rng.normal(size=(30, 4))
    summands = np.array([True, False, True, True])
    design = features.build_design(fs, U, normalize=False, summands=summands)
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


def operator_width(design):
    """The width of the operator `_descend` iterates on: cov() when it is
    cached or no wider than the rows, else gram()."""
    rows, dim = design.Z.shape
    return dim if design.cov_cached or dim <= rows else rows


@pytest.mark.parametrize("name", CASES)
def test_dual_fit_gd_matches_primal_oracle(name):
    design, V, _, _, alpha = CASES[name]()
    rows, dim = design.Z.shape
    assert dim > rows
    thetas, risks = primal_oracle(design, V, alpha, 40)
    model = estimator.fit_gd(design, V, alpha, 40, track_risk=True)
    assert not design.cov_cached          # the dual route never forms Sigma_hat
    assert rel(model.theta, thetas[-1]) < TOL
    np.testing.assert_allclose(model.train_risks, risks, rtol=TOL, atol=0.0)


@pytest.mark.parametrize("name", CASES)
def test_dual_path_snapshots_match_primal_oracle(name):
    design, V, _, _, alpha = CASES[name]()
    stops = [1, 3, 10, 40]
    thetas, _ = primal_oracle(design, V, alpha, stops[-1])
    models = estimator.fit_gd_path(design, V, alpha, stops)
    assert not design.cov_cached
    for step, model in zip(stops, models):
        assert rel(model.theta, thetas[step - 1]) < TOL, step


@pytest.mark.parametrize("name", CASES)
def test_cached_cov_keeps_primal_route(name, monkeypatch):
    """A design whose covariance is already formed descends on it instead: it
    never forms the Gram matrix, and its iterates and risks are the oracle's."""
    design, V, _, _, alpha = CASES[name]()
    thetas, risks = primal_oracle(design, V, alpha, 20)
    design.cov()

    def no_gram():
        raise AssertionError("the primal route formed the Gram matrix")

    monkeypatch.setattr(design, "gram", no_gram)
    model = estimator.fit_gd(design, V, alpha, 20, track_risk=True)
    assert rel(model.theta, thetas[-1]) < 1e-12
    np.testing.assert_allclose(model.train_risks, risks, rtol=1e-12, atol=0.0)
    # the np.matmul fallback does the oracle's arithmetic, so bit for bit
    monkeypatch.setattr(runtime, "_dsymv", lambda: None)
    model = estimator.fit_gd(design, V, alpha, 20, track_risk=True)
    np.testing.assert_array_equal(model.theta, thetas[-1])
    np.testing.assert_array_equal(model.train_risks, risks)


@pytest.mark.parametrize("name", CASES)
def test_operators_are_exactly_symmetric(name):
    """The GD step reads one triangle of cov() or gram(); both must be
    symmetric to the last bit, not just to rounding."""
    design, *_ = CASES[name]()
    for op in (design.cov(), design.gram()):
        assert op.flags.c_contiguous
        np.testing.assert_array_equal(op, op.T)


@pytest.mark.parametrize("route", ["primal", "dual"])
@pytest.mark.parametrize("name", CASES)
def test_symmetric_step_matches_matmul_fallback(name, route, monkeypatch):
    """1024 steps of fit_gd (with risks) and fit_gd_path on the symmetric
    kernel against the np.matmul fallback it replaces."""
    design, V, _, _, alpha = CASES[name]()
    if route == "primal":
        design.cov()
    stops = [1, 16, 256, 1024]
    # narrow, so fit_gd_path would take eigh: these 1024 steps are forced
    # onto the dense loop
    assert operator_width(design) < estimator.LOW_RANK_MIN_WIDTH
    assert estimator.closed_forms(operator_width(design), stops[-1]) == ("eigh",)
    dense_loop(monkeypatch)

    def fits():
        return (estimator.fit_gd(design, V, alpha, stops[-1], track_risk=True),
                estimator.fit_gd_path(design, V, alpha, stops))

    fast, fast_path = fits()
    monkeypatch.setattr(runtime, "_dsymv", lambda: None)
    assert runtime.gd_kernel() == "matmul"
    slow, slow_path = fits()
    assert design.cov_cached == (route == "primal")
    assert rel(fast.theta, slow.theta) < 1e-12
    np.testing.assert_allclose(fast.train_risks, slow.train_risks, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(fast_path[-1].theta, fast.theta)
    for step, f, s in zip(stops, fast_path, slow_path):
        assert rel(f.theta, s.theta) < 1e-12, step


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
    rows, dim = design.Z.shape
    assert (dim > rows) == (route == "dual")
    width = operator_width(design)
    assert width >= estimator.LOW_RANK_MIN_WIDTH and REDUCED_STOPS[-1] >= width
    calls = eigh_spy(monkeypatch)
    reduced = estimator.fit_gd_path(design, V, alpha, REDUCED_STOPS)
    single = estimator.fit_gd(design, V, alpha, REDUCED_STOPS[-1])
    assert calls == [width] * 2
    np.testing.assert_array_equal(single.theta, reduced[-1].theta)
    # the exact route caches the operator it decomposes, as the loop does
    assert design.cov_cached == (route == "primal")
    thetas, risks = primal_oracle(design, V, alpha, REDUCED_STOPS[-1])
    # the risks are taken along the dense loop
    tracked = estimator.fit_gd(design, V, alpha, REDUCED_STOPS[-1], track_risk=True)
    assert len(calls) == 2
    np.testing.assert_allclose(tracked.train_risks, risks, rtol=TOL, atol=0.0)
    closed = estimator.fit_closed(design, V, spectral.landweber(alpha),
                                  1.0 / (alpha * REDUCED_STOPS[-1]))
    assert rel(reduced[-1].theta, closed.theta) < 1e-9
    design = rff_case(*REDUCED_CASES[route])[0]   # without the cov() fit_closed cached
    dense_loop(monkeypatch)
    dense = estimator.fit_gd_path(design, V, alpha, REDUCED_STOPS)
    for step, r, d in zip(REDUCED_STOPS, reduced, dense):
        assert rel(r.theta, thetas[step - 1]) < TOL, step
        assert rel(r.theta, d.theta) < 1e-12, step


@pytest.mark.parametrize("route", REDUCED_CASES)
def test_reduced_route_leaves_cached_operators_intact(route):
    """The exact route reads the operator it decomposes without writing to
    it, so a cached one and the iterates are unchanged."""
    design, V, _, _, alpha = rff_case(*REDUCED_CASES[route])
    expected = estimator.fit_gd_path(design, V, alpha, REDUCED_STOPS)
    # a cached cov() would move the dual design to the primal route
    cached = [design.gram()] + ([design.cov()] if route == "primal" else [])
    before = [op.copy() for op in cached]
    models = estimator.fit_gd_path(design, V, alpha, REDUCED_STOPS)
    assert design.gram() is cached[0]
    assert design.cov_cached == (route == "primal")
    if route == "primal":
        assert design.cov() is cached[1]
    for op, copy in zip(cached, before):
        np.testing.assert_array_equal(op, copy)
    for model, e in zip(models, expected):
        np.testing.assert_array_equal(model.theta, e.theta)


@pytest.mark.parametrize("fallback", [False, True])
def test_symmetric_step_writes_the_gradient(fallback, monkeypatch):
    if fallback:
        monkeypatch.setattr(runtime, "_dsymv", lambda: None)
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(60, 50))
    a = Z.T @ Z / 60
    x, target, out = rng.normal(size=50), rng.normal(size=50), np.empty(50)
    step = runtime.symmetric_step(a, x, target, out)
    for _ in range(2):              # reads x as it is at each call
        step()
        expected = a @ x - target
        assert rel(out, expected) < 1e-14
        x += 1.0
    with pytest.raises(ValueError):
        runtime.symmetric_step(np.asfortranarray(a), x, target, out)
    with pytest.raises(ValueError):
        runtime.symmetric_step(a, x[:-1], target, out)


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
