"""Oracle tests for the streamed normal equations and the Tikhonov solve.

A design sums Sigma_hat = Z^T Z / n and S_hat^* v = Z^T v / n over chunks of
its rows without holding Z (`DesignMatrix.normal_equations`), and
`fit_closed` takes the Tikhonov filter by one linear solve
(`spectral.tikhonov_solve`) instead of an eigendecomposition.  The oracles
are the products of the whole Z and the eigh route of `spectral.apply_filter`.
"""
import tracemalloc

import numpy as np
import pytest

from specrf import cli, estimator, features, neuralop, runtime, spectral, synthetic
from specrf.estimator import EstimatorError, fit_closed
from specrf.spectral import FilterDomainError
from test_stateless_design import count_passes, probe_design

#: acceptance 2's bound on the relative difference of two exact routes
ROUTE_TOL = 1e-9


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def chunk_inputs(monkeypatch, design, k):
    """Size runtime.BLOCK_BYTES so that the design's row chunks hold k inputs."""
    monkeypatch.setattr(runtime, "BLOCK_BYTES", k * 8 * design.d_v * design.shape[1])
    assert design.chunk == k


def synthetic_case(n=1100, M=60, d_max=32):
    """Synthetic basis map on n inputs, fewer columns than rows."""
    problem = synthetic.make_problem(synthetic.spectrum_spec(b=1.0, d_max=d_max),
                                     r=0.5, R=1.0, seed=0)
    noise = synthetic.noise_model(problem, 0.3)
    U, V = synthetic.sample_dataset(problem, n, noise, seed=1)
    fs = features.sample_features(problem.feature_map, M, seed=2)
    return (lambda: features.build_design(fs, U)), V, 1e-3


def wide_case():
    """Random Fourier features, 200 columns on 50 rows."""
    rng = np.random.default_rng(3)
    fs = features.sample_features(features.rff_map(2, lengthscale=0.6), 200, seed=4)
    U = rng.normal(size=(50, 2))
    V = np.sin(U[:, 0]) + 0.1 * rng.normal(size=50)
    return (lambda: features.build_design(fs, U)), V, 1e-3


def tangent_case():
    """Unnormalized tangent design on a 4-point grid (d_v = 4), 70 inputs."""
    arch = features.OperatorArchitecture(features.tanh_act(), 4, d_y=1)
    fs = neuralop.tangent_feature_set(neuralop.init_symmetric(arch, 32, tau=0.5, seed=3))
    rng = np.random.default_rng(4)
    U, V = 0.5 * rng.normal(size=(70, 4, 1)), rng.normal(size=(70, 4))
    return (lambda: features.DesignMatrix(fs, U, normalize=False)), V, 1e-3


def rates_case():
    """The cell of the first rate case at n = 8000, the largest of its grid,
    at its schedule lambda, the smallest."""
    cfg = cli.load_config("rates", None, None, False)
    mult = synthetic.ScheduleMultipliers(C=cfg["C_multiplier"], M=cfg["M_multiplier"], p=1)
    sched = synthetic.rate_schedule(8000, cfg["r"], cfg["b"], cfg["delta"], mult)
    fits = []

    def recording(design, outputs, filt, lam):
        fits.append((design, outputs, filt, lam))
        return fit_closed(design, outputs, filt, lam)

    real = estimator.fit_closed
    estimator.fit_closed = recording
    try:
        cli._rates_cell({"cfg": cfg, "n": 8000, "rep": 0,
                         "schedule": sched, "cell_seed": 11})
    finally:
        estimator.fit_closed = real
    (design, V, filt, lam), = fits
    assert filt.kind == "tikhonov" and design.shape[0] == 8000 and design.shape[1] > 400
    return (lambda: design), V, lam


ROUTE_CASES = {"primal": synthetic_case, "wide": wide_case, "rates-n8000": rates_case}
STREAM_CASES = {"synthetic": synthetic_case, "wide": wide_case, "tangent": tangent_case}
#: inputs per row chunk of the streamed cases: three chunks of the synthetic
#: case's 1100 inputs, five of the tangent case's 70; the wide case's 50
#: inputs fit in one chunk of the budget
CHUNK_INPUTS = {"synthetic": 512, "tangent": 16}


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_tikhonov_solve_matches_the_eigh_route(name, monkeypatch):
    make, V, lam = ROUTE_CASES[name]()
    design = make()
    rows, dim = design.shape
    assert (dim > rows) == (name == "wide")
    v = design.stack_outputs(V)
    cov, rhs = design.normal_equations(v)
    expected = spectral.apply_filter(spectral.tikhonov(), lam, spectral.eigensystem(cov), rhs)

    def no_eigh(*args, **kwargs):
        raise AssertionError("the Tikhonov fit took an eigendecomposition")

    monkeypatch.setattr(spectral, "eigensystem", no_eigh)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    model = fit_closed(design, V, spectral.tikhonov(), lam)
    assert model.lam == lam
    assert rel(model.theta, expected) < ROUTE_TOL


@pytest.mark.parametrize("name", STREAM_CASES)
def test_streamed_operators_match_the_whole_design(name, monkeypatch):
    """Sigma_hat and S_hat^* v summed over chunks equal Z^T Z / n and
    Z^T v / n; cov() and a second normal_equations give the same bits, each
    into a new array."""
    make, V, _ = STREAM_CASES[name]()
    streamed = make()
    if name in CHUNK_INPUTS:
        chunk_inputs(monkeypatch, streamed, CHUNK_INPUTS[name])
    v = streamed.stack_outputs(V)
    cov, rhs = streamed.normal_equations(v)
    assert "Z" not in vars(streamed)            # summed without building Z
    np.testing.assert_array_equal(cov, cov.T)
    again, again_rhs = streamed.normal_equations(v)
    alone = streamed.cov()
    for new, old in ((again, cov), (again_rhs, rhs), (alone, cov)):
        assert new is not old
        np.testing.assert_array_equal(new, old)
    assert "Z" not in vars(streamed)

    Z = make().Z
    n = streamed.n
    assert rel(cov, Z.T @ Z / n) < 1e-12
    assert rel(rhs, Z.T @ v / n) < 1e-12


def test_primal_descent_does_not_build_the_design():
    make, V, _ = synthetic_case()
    design = make()
    model = estimator.fit_gd(design, V, 0.5, 20)
    assert "Z" not in vars(design)
    oracle = make()
    Z, v = oracle.Z, oracle.stack_outputs(V)
    cov, rhs, theta = Z.T @ Z / oracle.n, Z.T @ v / oracle.n, np.zeros(Z.shape[1])
    for _ in range(20):
        theta = theta - 0.5 * (cov @ theta - rhs)
    assert rel(model.theta, theta) < 1e-12


@pytest.mark.parametrize("filt", [spectral.tikhonov(), spectral.cutoff()],
                         ids=["tikhonov", "cutoff"])
def test_fit_closed_rejects_what_the_eigh_route_rejects(filt, monkeypatch):
    # tangent features of the identity activation are unbounded, so the
    # design is unnormalized; its spectrum reaches above 1
    arch = features.OperatorArchitecture(features.identity_act(), 1, d_y=1,
                                         use_lift=False)
    fs = features.sample_features(features.ntk_feature_map(arch), 30, seed=6)
    U = np.random.default_rng(5).normal(size=(40, 1))
    design = features.build_design(fs, U, normalize=False)
    assert np.linalg.eigvalsh(design.cov()).max() > 1.0 + spectral.POS_EIG_TOL
    with pytest.raises(FilterDomainError, match="above 1; rescale the design"):
        fit_closed(design, np.ones(40), filt, 0.1)
    # an all-zero design, over two chunks of 4 rows, is rejected from the
    # one pass that forms Sigma_hat
    zero = probe_design(np.zeros(7), 1, 1.0)
    chunk_inputs(monkeypatch, zero, 4)
    passes = count_passes(monkeypatch, zero)
    with pytest.raises(EstimatorError, match="identically zero"):
        fit_closed(zero, np.ones(7), filt, 0.5)
    assert passes == {"rows": 1, "columns": 0}
    # one nonzero entry in the last row of the last chunk is enough
    last = probe_design(np.append(np.zeros(6), 1.0), 1, 1.0)
    assert last.chunk == 4
    passes = count_passes(monkeypatch, last)
    assert fit_closed(last, np.ones(7), filt, 0.1).theta[0] > 0.0   # Sigma_hat = 1/7
    assert passes == {"rows": 1, "columns": 0}


def spectral_matrix(eigenvalues, seed=7):
    """Q diag(eigenvalues) Q^T for a random orthogonal Q, exactly symmetric."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigenvalues),) * 2))
    a = (q * eigenvalues) @ q.T
    return np.triu(a) + np.triu(a, 1).T


def test_tikhonov_solve_certifies_the_spectrum():
    """The Gershgorin bound and the Cholesky test only certify: a spectrum
    inside [-NEG_EIG_TOL, 1 + POS_EIG_TOL] whose row sums exceed 1 is
    solved, one outside is rejected with apply_filter's error, and the
    caller's array holds A + lambda I afterwards."""
    b = np.random.default_rng(8).normal(size=40)
    inside = np.linspace(0.0, 1.0, 40)
    a = spectral_matrix(inside)
    assert np.abs(a).sum(axis=1).max() > 1.0 + spectral.POS_EIG_TOL
    expected = spectral.apply_filter(spectral.tikhonov(), 0.01, a, b)
    work = a.copy()
    assert rel(spectral.tikhonov_solve(work, 0.01, b), expected) < ROUTE_TOL
    np.testing.assert_array_equal(np.diag(work), np.diag(a) + 0.01)
    # a round-off eigenvalue just below 0, inside the tolerance, is accepted;
    # apply_filter clamps it to 0, so the two differ by about its size
    a = spectral_matrix(np.append(inside[1:], -0.5 * spectral.NEG_EIG_TOL))
    expected = spectral.apply_filter(spectral.tikhonov(), 0.01, a, b)
    assert rel(spectral.tikhonov_solve(a.copy(), 0.01, b), expected) < 1e-7
    for bad, message in ((-10 * spectral.NEG_EIG_TOL, "negative eigenvalue"),
                         (1.0 + 1e-6, "above 1")):
        a = spectral_matrix(np.append(inside[1:-1], [bad, 0.5]))
        for route in (lambda: spectral.apply_filter(spectral.tikhonov(), 0.01, a, b),
                      lambda: spectral.tikhonov_solve(a.copy(), 0.01, b)):
            with pytest.raises(FilterDomainError, match=message):
                route()
    # only the Cholesky test sees a negative eigenvalue of a small spectrum
    a = spectral_matrix(np.append(np.linspace(0.0, 0.01, 39), -10 * spectral.NEG_EIG_TOL))
    assert np.abs(a).sum(axis=1).max() <= 1.0
    with pytest.raises(FilterDomainError, match="negative eigenvalue"):
        spectral.tikhonov_solve(a, 0.01, b)
    with pytest.raises(FilterDomainError, match="lambda"):
        spectral.tikhonov_solve(np.eye(3), 0.0, np.ones(3))


def test_tikhonov_fit_holds_less_than_half_the_design():
    """A Tikhonov fit on 4000 rows of the first rate case's map (from building
    the design to the solve) peaks below half the bytes Z would take: it
    holds one chunk of rows and the operator, not Z."""
    problem = synthetic.make_problem(synthetic.spectrum_spec(b=1.0, d_max=512),
                                     r=0.5, R=1.2, seed=0)
    noise = synthetic.noise_model(problem, 1.0)
    U, V = synthetic.sample_dataset(problem, 4000, noise, seed=1)
    fs = features.sample_features(problem.feature_map, 1500, seed=2)
    fs.distinct                                      # cached before tracing
    tracemalloc.start()
    try:
        design = features.build_design(fs, U)
        fit_closed(design, V, spectral.tikhonov(), 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows, dim = design.n * design.d_v, design.M_distinct * design.p
    assert rows == 4000 and dim > 400
    assert peak < 0.5 * rows * dim * 8, (peak, rows * dim * 8)
