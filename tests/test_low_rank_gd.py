"""Oracle tests for the certified low-rank route of long gradient descents.

A trajectory long enough for the tridiagonal route (`estimator.tridiagonal_route`)
first sketches the range of Z with a fixed Gaussian test matrix
(`DesignMatrix.range_factor`).  Where the residual ||Z - Q B||_F is at most
SKETCH_TOL ||Z||_F, every stop takes the landweber closed form on the SVD of B
and no operator is formed; elsewhere the fit falls back to the tridiagonal
route.  The NTK designs of a scalar input (sweep-heatmap, the plateau of
acceptance 4) take the route, and their predictions are checked against the
dense loop.  Full-rank designs (the cosine features of `rates`, the
`ntk-compare` tangent design) must fall back.  The closed form itself is
checked against the loop on an operator of exact low rank and a target
outside its range, where the null-space term carries the iterates.
"""
import math

import numpy as np
import pytest

from specrf import cli, estimator, features, neuralop, runtime, synthetic
from test_dual_gd import ntk_case

STOPS = [1, 4, 16, 64, 256, 1024]
TOL = 1e-12


def ntk_design(M, input_bound, feature_seed=1):
    """sweep-heatmap's NTK design at its default problem: M draws x 3 summands
    on 1000 training inputs, plus 500 test inputs and the step size."""
    problem, noise = cli._build_problem(cli.DEFAULTS["sweep-heatmap"]["problem"], 0)
    U, V = synthetic.sample_dataset(problem, 1000, noise, 5)
    U_te, _ = synthetic.sample_dataset(problem, 500, noise, 6)
    arch = features.OperatorArchitecture(features.tanh_act(), np.zeros(1), d_y=1,
                                         use_lift=False)
    fs = features.sample_features(features.ntk_feature_map(arch, input_bound=input_bound),
                                  M, feature_seed)
    return features.build_design(fs, U.reshape(-1, 1)), V, U_te.reshape(-1, 1), 0.5


def heatmap_primal():
    """M = 256: 1000 x 768, descends on the 768-wide Sigma_hat."""
    return ntk_design(256, math.sqrt(3.0))


def heatmap_dual():
    """M = 512: 1000 x 1536, descends on the 1000-wide Gram matrix."""
    return ntk_design(512, math.sqrt(3.0))


def plateau():
    """Acceptance 4's M* = ceil(4 sqrt(1000) 3) = 380 with its input bound:
    1000 x 1140, dual."""
    return ntk_design(math.ceil(4 * math.sqrt(1000) * 3), math.sqrt(2.0))


def cosine():
    """The first rate case's cosine features, 800 draws (411 distinct) on
    1000 inputs: 1000 x 411, primal, of full rank."""
    problem = synthetic.make_problem(synthetic.spectrum_spec(b=1.0, d_max=512),
                                     r=0.5, R=1.2, seed=0)
    noise = synthetic.noise_model(problem, 1.0)
    U, V = synthetic.sample_dataset(problem, 1000, noise, 1)
    U_te, _ = synthetic.sample_dataset(problem, 300, noise, 2)
    fs = features.sample_features(problem.feature_map, 800, seed=3)
    return features.build_design(fs, U), V, U_te, 0.5


def tangent():
    """ntk-compare's largest default width, M = 1024 (512 distinct draws x 4
    summands) on 32 inputs x 16 grid points, unnormalized: 512 x 2048, dual.
    Its certificate reads about 1e-11, above SKETCH_TOL."""
    grid, U, V = cli._operator_dataset(32, 16, 0.0, seed=1)
    _, U_te, _ = cli._operator_dataset(64, 16, 0.0, seed=2)
    arch = features.OperatorArchitecture(features.tanh_act(), grid, d_y=1)
    fs = neuralop.tangent_feature_set(neuralop.init_symmetric(arch, 1024, 1.0, seed=5))
    design = features.build_design(fs, arch.coerce_inputs(U), normalize=False)
    return design, V, arch.coerce_inputs(U_te), 0.25


LOW_RANK = {"heatmap-primal": heatmap_primal, "heatmap-dual": heatmap_dual,
            "plateau": plateau}
FULL_RANK = {"cosine": cosine, "tangent": tangent}


def route_spy(monkeypatch):
    """Records, for each call of the low-rank route, whether it was taken,
    and the test matrix each design was sketched with."""
    taken, omegas = [], []
    real_route, real_factor = estimator._low_rank_descent, features.DesignMatrix.range_factor

    def route(*args):
        out = real_route(*args)
        taken.append(out is not None)
        return out

    def factor(self, v, omega):
        omegas.append(omega.copy())
        return real_factor(self, v, omega)

    monkeypatch.setattr(estimator, "_low_rank_descent", route)
    monkeypatch.setattr(features.DesignMatrix, "range_factor", factor)
    return taken, omegas


def dense_path(design, V, alpha):
    """The same trajectory on the dense loop, no route of a long trajectory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "tridiagonal_route", lambda width, steps: False)
        return estimator.fit_gd_path(design, V, alpha, STOPS)


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def assert_predictions_agree(models, oracle, U_te):
    for step, m, o in zip(STOPS, models, oracle):
        assert rel(estimator.predict_batch(m, U_te), estimator.predict_batch(o, U_te)) < TOL, step


@pytest.mark.parametrize("name", LOW_RANK)
def test_low_rank_designs_take_the_route(name, monkeypatch):
    """The route is taken, forms no operator, predicts what the dense loop
    does at every stop, and gives the same bytes on every fit."""
    design, V, U_te, alpha = LOW_RANK[name]()
    rows, dim = design.shape
    width = dim if dim <= rows else rows
    assert estimator.tridiagonal_route(width, STOPS[-1])
    taken, omegas = route_spy(monkeypatch)

    def no_operator(*args, **kwargs):
        raise AssertionError("the low-rank route formed an operator")

    with pytest.MonkeyPatch.context() as mp:
        for name_ in ("gram", "normal_equations", "cov"):
            mp.setattr(design, name_, no_operator)
        mp.setattr(runtime, "tridiagonalize", no_operator)
        models = estimator.fit_gd_path(design, V, alpha, STOPS)
        again = estimator.fit_gd_path(design, V, alpha, STOPS)
        single = estimator.fit_gd(design, V, alpha, STOPS[-1])
    assert taken == [True] * 3
    # one test matrix for every fit, drawn from a fixed seed
    for omega in omegas:
        np.testing.assert_array_equal(omega, omegas[0])
    assert omegas[0].shape == (dim, estimator.SKETCH_RANK)
    for m, a in zip(models, again):
        np.testing.assert_array_equal(m.theta, a.theta)
    np.testing.assert_array_equal(single.theta, models[-1].theta)
    assert_predictions_agree(models, dense_path(design, V, alpha), U_te)


def test_designs_of_one_width_share_the_test_matrix(monkeypatch):
    """Two designs of the same width, from different feature seeds, are
    sketched with the same test matrix."""
    taken, omegas = route_spy(monkeypatch)
    for seed in (1, 2):
        design, V, _, alpha = ntk_design(128, math.sqrt(3.0), feature_seed=seed)
        estimator.fit_gd(design, V, alpha, STOPS[-1])
    assert taken == [True, True]
    np.testing.assert_array_equal(omegas[0], omegas[1])


@pytest.mark.parametrize("name", FULL_RANK)
def test_full_rank_designs_fall_back(name, monkeypatch):
    """The certificate fails, the fit takes the tridiagonal route, and its
    predictions are the dense loop's."""
    design, V, U_te, alpha = FULL_RANK[name]()
    if runtime.gd_reduction() is None:
        pytest.skip("no LAPACK dsytrd/dormtr in this numpy build")
    taken, _ = route_spy(monkeypatch)
    real, calls = runtime.tridiagonalize, []

    def counted(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(runtime, "tridiagonalize", counted)
    models = estimator.fit_gd_path(design, V, alpha, STOPS)
    assert taken == [False]
    rows, dim = design.shape
    assert calls == [dim if dim <= rows else rows]
    assert_predictions_agree(models, dense_path(design, V, alpha), U_te)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_closed_form_matches_the_loop(alpha):
    """On A = V diag(lam) V^T of rank 12 in dimension 60, with lam in [0, 1]
    (0 and 1 included) and a target mostly outside the range of V, the closed
    form equals the loop x <- x - alpha (A x - target) at every stop."""
    rng = np.random.default_rng(7)
    v = np.linalg.qr(rng.normal(size=(60, 12)))[0]
    lam = np.concatenate([[0.0, 1.0, 1e-9], rng.uniform(0.0, 1.0, 9)])
    a = (v * lam) @ v.T
    target = rng.normal(size=60)
    stops = [1, 2, 7, 64, 300]
    iterates = estimator._landweber_iterates(np.ascontiguousarray(v.T), lam, target,
                                             alpha, stops)
    x = np.zeros(60)
    for step in range(1, stops[-1] + 1):
        x = x - alpha * (a @ x - target)
        if step in stops:
            assert rel(iterates[stops.index(step)], x) < TOL, step


def test_path_models_against_single_fits():
    """fit_gd_path's models are fit_gd's bytes where both fits take one
    route, and agree to 1e-12 where they do not: on a path that reaches the
    low-rank route, its first stops are fitted on the dense loop by fit_gd."""
    design, V, _, _, alpha = ntk_case(136, 450)
    stops = [1, 16, 1024]
    path = estimator.fit_gd_path(design, V, alpha, stops)
    singles = [estimator.fit_gd(design, V, alpha, step) for step in stops]
    np.testing.assert_array_equal(path[-1].theta, singles[-1].theta)
    for p, s in zip(path[:-1], singles[:-1]):
        assert rel(p.theta, s.theta) < TOL
    short = estimator.fit_gd_path(design, V, alpha, stops[:-1])
    for p, s in zip(short, singles):
        np.testing.assert_array_equal(p.theta, s.theta)
