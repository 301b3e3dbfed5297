"""Oracle tests for the closed forms of long gradient descents.

A trajectory of at least LOW_RANK_MIN_STEPS on an operator at least
LOW_RANK_MIN_WIDTH wide first sketches the range of Z with a fixed Gaussian
test matrix (`DesignMatrix.range_factor`).  Where the residual ||Z - Q B||_F
is at most SKETCH_TOL ||Z||_F, every stop takes the landweber closed form on
the eigendecomposition of the k x k matrix B B^T / n and no operator is
formed, also where the trajectory is shorter than the operator is wide;
elsewhere a trajectory at least that long takes the same closed form on the
operator's eigendecomposition, as a trajectory of at least
EIGH_STEPS_PER_COLUMN steps per column does on a narrower operator.  The NTK
designs of a scalar input (sweep-heatmap, the plateau of acceptance 4) take
the low-rank route, and their predictions are checked against the dense loop.
Full-rank designs (the cosine features of `rates`, the `ntk-compare` tangent
design) must fall back, and ntk-compare's own fits (T = 32) must keep the
loop.  Narrow long trajectories, primal and dual, on NTK and random Fourier
designs take eigh and are checked against the loop, and a route census checks
that every cell of the desk sweep-heatmap defaults takes a closed form.  The
k x k form itself is checked against the loop on a design of exact low rank,
and the eigh form on an operator with a null space.  The widest paper-scale
heatmap cell is checked under the opt-in `paper` marker (`pytest -m paper`).
"""
import math

import numpy as np
import pytest

from specrf import cli, estimator, features, neuralop, synthetic
from test_dual_gd import dense_loop, eigh_spy, ntk_case, operator_width, primal_oracle, \
    rff_case

STOPS = [1, 4, 16, 64, 256, 1024]
TOL = 1e-12


def ntk_design(M, input_bound, feature_seed=1, n=1000):
    """sweep-heatmap's NTK design at its default problem: M draws x 3 summands
    on n training inputs, plus 500 test inputs and the step size."""
    problem, noise = cli._build_problem(cli.DEFAULTS["sweep-heatmap"]["problem"], 0)
    U, V = synthetic.sample_dataset(problem, n, noise, 5)
    U_te, _ = synthetic.sample_dataset(problem, 500, noise, 6)
    arch = features.OperatorArchitecture(features.tanh_act(), 1, d_y=1,
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


def heatmap_short():
    """M = 512 on 1500 inputs: 1500 x 1536, descends on the 1500-wide Gram
    matrix, wider than the 1024 steps of STOPS."""
    return ntk_design(512, math.sqrt(3.0), n=1500)


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
    U, V = cli._operator_dataset(32, 16, 0.0, seed=1)
    U_te, _ = cli._operator_dataset(64, 16, 0.0, seed=2)
    arch = features.OperatorArchitecture(features.tanh_act(), 16, d_y=1)
    fs = neuralop.tangent_feature_set(neuralop.init_symmetric(arch, 1024, 1.0, seed=5))
    design = features.build_design(fs, arch.coerce_inputs(U), normalize=False)
    return design, V, arch.coerce_inputs(U_te), 0.25


LOW_RANK = {"heatmap-primal": heatmap_primal, "heatmap-dual": heatmap_dual,
            "heatmap-short": heatmap_short, "plateau": plateau}
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

    def factor(self, omega):
        omegas.append(omega.copy())
        return real_factor(self, omega)

    monkeypatch.setattr(estimator, "_low_rank_descent", route)
    monkeypatch.setattr(features.DesignMatrix, "range_factor", factor)
    return taken, omegas


def dense_path(design, V, alpha):
    """The same trajectory on the dense loop, no closed form."""
    with pytest.MonkeyPatch.context() as mp:
        dense_loop(mp)
        return estimator.fit_gd_path(design, V, alpha, STOPS)


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def assert_predictions_agree(models, oracle, U_te):
    for step, m, o in zip(STOPS, models, oracle):
        assert rel(estimator.predict_batch(m, U_te), estimator.predict_batch(o, U_te)) < TOL, step


@pytest.mark.parametrize("name", LOW_RANK)
def test_low_rank_designs_take_the_route(name, monkeypatch):
    """The route is taken, whether or not the trajectory is as long as the
    operator is wide, forms no operator, predicts what the dense loop does at
    every stop, and gives the same bytes on every fit."""
    design, V, U_te, alpha = LOW_RANK[name]()
    rows, dim = design.shape
    width = dim if dim <= rows else rows
    assert width >= estimator.LOW_RANK_MIN_WIDTH
    assert STOPS[-1] >= estimator.LOW_RANK_MIN_STEPS
    assert (STOPS[-1] < width) == (name == "heatmap-short")
    taken, omegas = route_spy(monkeypatch)

    def no_operator(*args, **kwargs):
        raise AssertionError("the low-rank route formed an operator")

    real_eigh = np.linalg.eigh

    def small_eigh(a):
        # only the k x k matrix B B^T / n is decomposed
        if a.shape[0] > estimator.SKETCH_RANK:
            no_operator()
        return real_eigh(a)

    with pytest.MonkeyPatch.context() as mp:
        for name_ in ("gram", "normal_equations", "cov"):
            mp.setattr(design, name_, no_operator)
        mp.setattr(np.linalg, "eigh", small_eigh)
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
    """The certificate fails, the fit takes the closed form on the operator's
    eigendecomposition, and its predictions are the dense loop's."""
    design, V, U_te, alpha = FULL_RANK[name]()
    taken, _ = route_spy(monkeypatch)
    calls = eigh_spy(monkeypatch)
    models = estimator.fit_gd_path(design, V, alpha, STOPS)
    assert taken == [False]
    rows, dim = design.shape
    assert calls == [dim if dim <= rows else rows]
    assert_predictions_agree(models, dense_path(design, V, alpha), U_te)


NTK_COMPARE_WIDTHS = sorted(set(cli.DEFAULTS["ntk-compare"]["M_grid"])
                            | set(cli.PRESETS["ntk-compare"][1]["M_grid"]))


@pytest.mark.parametrize("M", NTK_COMPARE_WIDTHS)
def test_ntk_compare_fits_stay_on_the_loop(M, monkeypatch):
    """ntk-compare's tangent fits (T = 32, below LOW_RANK_MIN_STEPS) never
    sketch Z and take no closed form, at every width of its default and paper
    grids: the two passes, or an eigh, would cost more than the 32 steps they
    replace."""
    cfg = cli.load_config("ntk-compare", None, None, False)
    assert cfg["T"] < estimator.LOW_RANK_MIN_STEPS
    fits, routes = [], []
    real_fit, real_routes = estimator.fit_gd, estimator.closed_forms

    def fit(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    def closed_forms(width, steps):
        routes.append(real_routes(width, steps))
        return routes[-1]

    def no_sketch(*args):
        raise AssertionError("an ntk-compare fit sketched Z")

    monkeypatch.setattr(estimator, "fit_gd", fit)
    monkeypatch.setattr(estimator, "closed_forms", closed_forms)
    monkeypatch.setattr(features.DesignMatrix, "range_factor", no_sketch)
    row = cli._ntk_cell({"cfg": cfg, "M": M, "seed": 0})
    assert len(fits) == 1 and math.isfinite(row["discrepancy"])
    assert routes == [()]


def test_every_desk_heatmap_cell_takes_a_closed_form(monkeypatch):
    """Route census of the sweep-heatmap defaults: the fits narrower than
    LOW_RANK_MIN_WIDTH take eigh, the wider ones the low-rank route, which
    certifies on every one; none runs the loop."""
    cfg = cli.load_config("sweep-heatmap", None, None, False)
    taken, _ = route_spy(monkeypatch)
    routes, real_routes = [], estimator.closed_forms

    def closed_forms(width, steps):
        routes.append((width, real_routes(width, steps)))
        return routes[-1][1]

    monkeypatch.setattr(estimator, "closed_forms", closed_forms)
    for M in cfg["M_grid"]:
        cli._heatmap_cell({"cfg": cfg, "M": M, "rep": 0, "T_grid": sorted(cfg["T_grid"]),
                           "cell_seed": M})
    assert len(routes) == len(cfg["M_grid"])
    for width, route in routes:
        if width < estimator.LOW_RANK_MIN_WIDTH:
            assert route == ("eigh",), width
        else:
            assert route[0] == "low-rank", width
    assert {width for width, _ in routes} == {48, 96, 192, 384, 768, 1000}
    # the low-rank route certifies wherever it is tried
    assert taken == [True] * 3


# sweep-heatmap's M = 64 NTK design (192 columns) and a random Fourier design
# of full rank (240 columns), each on more rows (primal) and fewer (dual)
NARROW = {"ntk-primal": (ntk_case, 64, 300), "ntk-dual": (ntk_case, 64, 150),
          "rff-primal": (rff_case, 240, 300), "rff-dual": (rff_case, 240, 150)}


@pytest.mark.parametrize("name", NARROW)
def test_narrow_long_paths_take_eigh(name, monkeypatch):
    """A trajectory of at least EIGH_STEPS_PER_COLUMN steps per column on an
    operator narrower than LOW_RANK_MIN_WIDTH takes one eigh of it, never
    sketches Z, and matches the dense loop to 1e-12 at every stop."""
    case, M, n = NARROW[name]
    design, V, _, _, alpha = case(M, n)
    width = operator_width(design)
    assert (width == n) == name.endswith("dual")
    assert width < estimator.LOW_RANK_MIN_WIDTH
    assert STOPS[-1] >= estimator.EIGH_STEPS_PER_COLUMN * width
    taken, _ = route_spy(monkeypatch)
    calls = eigh_spy(monkeypatch)
    models = estimator.fit_gd_path(design, V, alpha, STOPS)
    assert calls == [width] and taken == []
    for step, m, d in zip(STOPS, models, dense_path(design, V, alpha)):
        assert rel(m.theta, d.theta) < TOL, step


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_closed_form_matches_the_loop(alpha):
    """On A = V diag(lam) V^T of rank 12 in dimension 60, V square, with lam
    in [0, 1] (0 and 1 included) and a target mostly outside the range of A,
    the closed form equals the loop x <- x - alpha (A x - target) at every
    stop: on the null space of A, phi_T(0) = alpha T carries the iterates."""
    rng = np.random.default_rng(7)
    v = np.linalg.qr(rng.normal(size=(60, 60)))[0]
    lam = np.concatenate([[0.0, 1.0, 1e-9], rng.uniform(0.0, 1.0, 9), np.zeros(48)])
    a = (v * lam) @ v.T
    target = rng.normal(size=60)
    stops = [1, 2, 7, 64, 300]
    iterates = estimator._landweber_iterates(v, lam, target, alpha, stops)
    x = np.zeros(60)
    for step in range(1, stops[-1] + 1):
        x = x - alpha * (a @ x - target)
        if step in stops:
            assert rel(iterates[stops.index(step)], x) < TOL, step


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_low_rank_form_matches_the_loop(alpha):
    """On a random Fourier design of exact rank 12 (300 rows of 12 distinct
    inputs, 240 columns), fewer than the SKETCH_RANK sketch columns, so that
    B B^T / n has a null space, and outputs mostly outside the range of Z,
    the k x k form certifies and equals the loop at every stop."""
    rng = np.random.default_rng(3)
    fs = features.sample_features(features.rff_map(3, 0.3), 240, seed=1)
    U = rng.uniform(0.0, 1.0, (12, 3))[rng.integers(0, 12, 300)]
    design = features.build_design(fs, U)
    V = rng.normal(size=300)
    assert design.shape == (300, 240) and np.linalg.matrix_rank(design.Z) == 12
    stops = [1, 2, 7, 64, 300]
    iterates = estimator._low_rank_descent(design, V, alpha, stops)
    assert iterates is not None
    thetas, _ = primal_oracle(design, V, alpha, stops[-1])
    for step, theta in zip(stops, iterates):
        assert rel(theta, thetas[step - 1]) < TOL, step


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


@pytest.mark.paper
def test_widest_paper_heatmap_cell_takes_the_route(monkeypatch):
    """The paper-scale heatmap's widest cell, M = 1518 on 5000 inputs (5000 x
    4554, primal), certifies, and predicts what 1024 dense steps do at every
    stop.  Opt-in (`pytest -m paper`): the dense loop forms a 166 MB
    Sigma_hat and the test takes about 10 s."""
    n = cli.DEFAULTS["sweep-heatmap"]["paper_scale"]["n_train"]
    design, V, U_te, alpha = ntk_design(max(cli.PRESETS["heatmap"][1]["M_grid"]),
                                        math.sqrt(3.0), n=n)
    assert design.shape == (5000, 4554)
    taken, _ = route_spy(monkeypatch)
    models = estimator.fit_gd_path(design, V, alpha, STOPS)
    assert taken == [True]
    assert_predictions_agree(models, dense_path(design, V, alpha), U_te)
