import numpy as np
import pytest

from specrf import cli, estimator, features, spectral, synthetic
from specrf.estimator import (
    EstimatorError,
    evaluate,
    fit_closed,
    fit_gd,
    fit_gd_path,
    predict_batch,
)


def problem_design(n=40, M=16, d_max=32, seed=0, noise_width=0.3, r=0.5, b=1.0):
    spec = synthetic.spectrum_spec(b=b, d_max=d_max)
    problem = synthetic.make_problem(spec, r=r, R=1.0, seed=seed)
    noise = synthetic.noise_model(problem, noise_width)
    U, V = synthetic.sample_dataset(problem, n, noise, seed=seed + 1)
    fs = features.sample_features(problem.feature_map, M, seed=seed + 2)
    return problem, features.build_design(fs, U), U, V


def constant_evaluate(value):
    """Evaluator of the constant feature `value` (p = d_v = 1)."""
    def evaluate(U, om, out=None):
        if out is None:
            out = np.empty((len(U), 1, len(om), 1))
        out.fill(value)
        return out.transpose(0, 2, 3, 1)
    return evaluate


def constant_design(n=1):
    fmap = features.discrete_map(
        [0.0], [1.0],
        constant_evaluate(1.0),
        p=1, d_v=1, kappa=1.0,
    )
    fs = features.sample_features(fmap, 1, seed=0)
    return features.build_design(fs, np.zeros(n))


class TestFitClosed:
    def test_scalar_tikhonov(self):
        design = constant_design()
        model = fit_closed(design, np.array([2.0]), spectral.tikhonov(), 1.0)
        assert model.theta[0] == pytest.approx(1.0)  # 2 / (1 + 1)

    def test_zero_outputs_give_zero_theta(self):
        _, design, U, _ = problem_design()
        for filt, lam in [
            (spectral.tikhonov(), 0.3),
            (spectral.landweber(0.5), 1.0 / (0.5 * 10)),
            (spectral.cutoff(), 0.3),
        ]:
            model = fit_closed(design, np.zeros(len(U)), filt, lam)
            assert np.all(model.theta == 0.0)

    def test_rejects_bad_lambda(self):
        design = constant_design()
        with pytest.raises(EstimatorError):
            fit_closed(design, np.array([1.0]), spectral.tikhonov(), 0.0)
        with pytest.raises(EstimatorError):
            fit_closed(design, np.array([1.0]), spectral.tikhonov(), 1.5)

    def test_rejects_zero_design(self):
        fmap = features.discrete_map(
            [0.0], [1.0],
            constant_evaluate(0.0),
            p=1, d_v=1, kappa=1.0,
        )
        fs = features.sample_features(fmap, 2, seed=0)
        design = features.build_design(fs, np.zeros(3))
        with pytest.raises(EstimatorError):
            fit_closed(design, np.ones(3), spectral.tikhonov(), 0.5)


class TestFitGD:
    def test_single_step_is_scaled_adjoint(self):
        _, design, _, V = problem_design()
        model = fit_gd(design, V, alpha=0.5, n_steps=1)
        _, rhs = design.normal_equations(design.stack_outputs(V))
        np.testing.assert_allclose(model.theta, 0.5 * rhs, atol=1e-14)

    def test_rejects_zero_steps_and_bad_alpha(self):
        _, design, _, V = problem_design()
        with pytest.raises(EstimatorError):
            fit_gd(design, V, alpha=0.5, n_steps=0)
        with pytest.raises(EstimatorError):
            fit_gd(design, V, alpha=1.5, n_steps=3)

    @pytest.mark.parametrize("fit", [
        lambda design, V: fit_closed(design, V, spectral.tikhonov(), 0.5),
        lambda design, V: fit_gd(design, V, alpha=0.5, n_steps=3),
    ], ids=["closed", "gd"])
    def test_rejects_outputs_of_the_wrong_length(self, fit):
        """One output too few is a FeatureError, which the CLI reports as a
        bad input, not numpy's reshape error."""
        _, design, _, V = problem_design()
        with pytest.raises(features.FeatureError, match="length") as raised:
            fit(design, V[:-1])
        assert isinstance(raised.value, cli.CHECK_ERRORS)

    def test_closed_form_equivalence_50_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(5, 101))
            M = int(rng.integers(2, 51))
            _, design, _, V = problem_design(
                n=n, M=M, d_max=16, seed=trial, noise_width=0.5)
            steps = int(rng.integers(2, 60))
            alpha = 0.5
            gd = fit_gd(design, V, alpha, steps)
            closed = fit_closed(
                design, V, spectral.landweber(alpha), 1.0 / (alpha * steps))
            scale = max(1.0, float(np.max(np.abs(closed.theta))))
            assert np.max(np.abs(gd.theta - closed.theta)) / scale < 1e-9

    @pytest.mark.parametrize("M", [16, 32, 128])
    def test_closed_form_matches_gd_on_a_heatmap_design(self, M):
        # a sweep-heatmap cell at its defaults: NTK features of 1000 inputs,
        # many eigenvalues far below 1/(alpha T), where the Landweber filter
        # must not cancel
        spec = synthetic.spectrum_spec(b=1.0, d_max=8)
        problem = synthetic.make_problem(spec, r=1.5, R=2.0, seed=0)
        noise = synthetic.noise_model(problem, 0.1)
        U, V = synthetic.sample_dataset(problem, 1000, noise, seed=1)
        arch = features.OperatorArchitecture(features.tanh_act(), 1, d_y=1,
                                             use_lift=False)
        fmap = features.ntk_feature_map(arch, input_bound=np.sqrt(3.0))
        design = features.build_design(features.sample_features(fmap, M, seed=2),
                                       U.reshape(-1, 1))
        gd = fit_gd(design, V, 0.5, 1024).theta
        closed = fit_closed(design, V, spectral.landweber(0.5), 1.0 / 512).theta
        assert np.linalg.norm(closed - gd) / np.linalg.norm(gd) < 1e-10

    def test_training_risk_monotone(self):
        _, design, _, V = problem_design(n=60, M=24, seed=9)
        path = fit_gd_path(design, V, 1.0, range(1, 41))
        v = design.stack_outputs(V)
        resid = [v] + [design.Z @ model.theta - v for model in path]
        risks = [0.5 * float(r @ r) / design.n for r in resid]
        diffs = np.diff(risks)
        assert np.all(diffs <= 1e-12)

    def test_gd_path_matches_individual_fits(self):
        _, design, _, V = problem_design(n=30, M=10, seed=4)
        path = fit_gd_path(design, V, 0.5, [1, 5, 12])
        for model in path:
            steps = round(1.0 / (0.5 * model.lam))
            direct = fit_gd(design, V, 0.5, steps)
            np.testing.assert_array_equal(model.theta, direct.theta)

    def test_seed_determinism(self):
        a = problem_design(seed=5)[1]
        b = problem_design(seed=5)[1]
        va = fit_gd(a, np.ones(40), 0.5, 7).theta
        vb = fit_gd(b, np.ones(40), 0.5, 7).theta
        np.testing.assert_array_equal(va, vb)


class TestPredictEvaluate:
    def test_zero_theta_predicts_zero(self):
        _, design, _, _ = problem_design()
        model = fit_closed(design, np.zeros(40), spectral.tikhonov(), 0.5)
        assert np.all(predict_batch(model, [0.3]) == 0.0)

    def test_training_predictions_match_design_rows(self):
        _, design, U, V = problem_design(n=20, M=8, seed=2)
        model = fit_gd(design, V, 0.5, 20)
        stacked = design.Z @ model.theta / np.sqrt(design.v_weight)
        preds = predict_batch(model, U)[:, 0]
        np.testing.assert_allclose(preds, stacked, atol=1e-12)

    def test_constant_feature_hand_assembled(self):
        design = constant_design(n=3)
        model = fit_closed(design, np.full(3, 2.0), spectral.tikhonov(), 1.0)
        # Z column is the constant 1 (kappa = 1, M = 1): prediction = theta
        assert predict_batch(model, [0.0])[0, 0] == pytest.approx(model.theta[0])

    def test_perfect_model_zero_risk(self):
        _, design, U, V = problem_design(n=25, M=10, seed=3)
        model = fit_gd(design, V, 0.5, 30)
        preds = predict_batch(model, U)[:, 0]
        report = evaluate(model, U, preds)
        assert report.empirical_risk == pytest.approx(0.0, abs=1e-20)

    def test_constant_zero_model_risk_half(self):
        _, design, U, _ = problem_design(n=30)
        model = fit_closed(design, np.zeros(30), spectral.tikhonov(), 0.5)
        outputs = np.ones(30)
        report = evaluate(model, U, outputs)
        assert report.empirical_risk == pytest.approx(0.5)

    def test_zero_model_excess_matches_target_norm(self):
        problem, design, U, _ = problem_design(n=30, seed=6)
        model = fit_closed(design, np.zeros(30), spectral.tikhonov(), 0.5)
        n_test = 4000
        U_test = np.random.default_rng(10).uniform(size=n_test)
        report = evaluate(model, U_test, np.zeros(n_test), oracle=problem.target)
        target_norm = np.linalg.norm(problem.source.coefficients)
        assert abs(report.excess_l2 - target_norm) < 3.0 / np.sqrt(n_test)

    def test_empty_test_set_rejected(self):
        _, design, _, V = problem_design()
        model = fit_gd(design, V, 0.5, 5)
        with pytest.raises(EstimatorError):
            evaluate(model, np.zeros(0), np.zeros(0))


class TestFilterPathProperties:
    def test_tikhonov_theta_norm_monotone_in_lambda(self):
        _, design, _, V = problem_design(n=50, M=20, seed=8)
        lams = np.linspace(0.01, 1.0, 25)
        norms = [
            np.linalg.norm(fit_closed(design, V, spectral.tikhonov(), lam).theta)
            for lam in lams
        ]
        assert np.all(np.diff(norms) <= 1e-12)

    def test_cutoff_interpolation_limit(self):
        _, design, _, _ = problem_design(n=30, M=12, seed=12)
        eig = spectral.eigensystem(design.cov())
        lam = 0.5 * float(eig.eigenvalues[eig.eigenvalues > 1e-12].min())
        lam = max(lam, 1e-12)
        # outputs in the range of the sampling operator: v = Z theta*
        theta_star = np.random.default_rng(13).normal(size=design.Z.shape[1])
        v = design.Z @ theta_star
        model = fit_closed(design, v / np.sqrt(design.v_weight), spectral.cutoff(), lam)
        resid = np.linalg.norm(design.Z @ model.theta - v) / np.linalg.norm(v)
        assert resid <= 1e-6


def test_landweber_rates_cell_is_the_gd_closed_form(monkeypatch):
    """`rates` with filter landweber fits its T = round(1/lambda) unit GD
    steps as the Landweber filter at lambda = 1/T from one eigh.  On the
    first rate case at n = 500 (over 20 000 steps) that closed form agrees
    with fit_gd to acceptance 2's 1e-9 relative and records the same lambda."""
    cfg = cli.load_config("rates", '{"filter": "landweber"}', None, False)
    mult = synthetic.ScheduleMultipliers(C=cfg["C_multiplier"], M=cfg["M_multiplier"], p=1)
    sched = synthetic.rate_schedule(500, cfg["r"], cfg["b"], cfg["delta"], mult)
    fits = []

    def recording(design, outputs, filt, lam):
        model = fit_closed(design, outputs, filt, lam)
        fits.append((design, outputs, filt, model))
        return model

    monkeypatch.setattr(estimator, "fit_closed", recording)
    cli._rates_cell({"cfg": cfg, "n": 500, "rep": 0,
                     "schedule": sched, "cell_seed": 11})
    (design, V, filt, closed), = fits
    steps = round(1.0 / closed.lam)
    assert filt.kind == "landweber" and filt.step_size == 1.0 and steps > 20_000
    gd = fit_gd(design, V, 1.0, steps)
    assert gd.lam == closed.lam
    scale = max(1.0, float(np.max(np.abs(closed.theta))))
    assert float(np.max(np.abs(gd.theta - closed.theta))) / scale < 1e-9
