import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrf import estimator, features, neuralop, synthetic
from specrf.features import (
    FeatureError,
    FeatureSet,
    OperatorArchitecture,
    UnsupportedOracleError,
    build_design,
    discrete_map,
    gaussian_kernel,
    identity_act,
    kernel_approx,
    kernel_exact,
    ntk_feature_map,
    rff_map,
    sample_features,
    tanh_act,
)


def ones_evaluate(U, om, out=None):
    """Constant feature 1 for every input and draw (p = d_v = 1)."""
    if out is None:
        out = np.empty((len(U), 1, len(om), 1))
    out.fill(1.0)
    return out.transpose(0, 2, 3, 1)


def sign_map():
    """Scalar linear features phi(u, w) = w*u over Omega = {+1, -1}."""

    def evaluate(U, omegas, out=None):
        U = np.asarray(U, float).reshape(-1)
        if out is None:
            out = np.empty((U.size, 1, len(omegas), 1))
        np.multiply(U[:, None], np.asarray(omegas, float)[None, :], out=out[:, 0, :, 0])
        return out.transpose(0, 2, 3, 1)

    return discrete_map([1.0, -1.0], [0.5, 0.5], evaluate, p=1, d_v=1, kappa=1.0)


class TestSampling:
    def test_singleton_support(self):
        fmap = discrete_map(
            [2.0], [1.0],
            ones_evaluate,
            p=1, d_v=1, kappa=1.0,
        )
        fs = sample_features(fmap, 7, seed=0)
        assert np.all(np.asarray(fs.samples) == 2.0)

    def test_determinism(self):
        fmap = sign_map()
        a = sample_features(fmap, 50, seed=123)
        b = sample_features(fmap, 50, seed=123)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_binomial_frequency(self):
        fs = sample_features(sign_map(), 10_000, seed=5)
        freq = np.mean(np.asarray(fs.samples) == 1.0)
        assert abs(freq - 0.5) < 0.02

    def test_rejects_zero_m(self):
        with pytest.raises(FeatureError):
            sample_features(sign_map(), 0, seed=0)


class TestKernels:
    def test_sign_map_reproduces_linear_kernel(self):
        fmap = sign_map()
        fs = FeatureSet(fmap, np.array([1.0, -1.0]))
        for u, u2 in [(0.3, 0.5), (1.0, -2.0), (0.0, 4.0)]:
            assert kernel_approx(fs, u, u2)[0, 0] == pytest.approx(u * u2)
            assert kernel_exact(fmap, u, u2)[0, 0] == pytest.approx(u * u2)

    def test_gram_psd_at_diagonal(self):
        fs = sample_features(sign_map(), 20, seed=1)
        k = kernel_approx(fs, 0.7, 0.7)
        assert k[0, 0] >= 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), u=st.floats(-2, 2), u2=st.floats(-2, 2))
    def test_symmetry(self, seed, u, u2):
        fs = sample_features(sign_map(), 11, seed=seed)
        k12 = kernel_approx(fs, u, u2)
        k21 = kernel_approx(fs, u2, u)
        np.testing.assert_array_equal(k12, k21.T)

    def test_exact_oracle_requires_finite_support(self):
        with pytest.raises(UnsupportedOracleError):
            kernel_exact(rff_map(2), np.zeros(2), np.ones(2))

    def test_rff_matches_gaussian_kernel(self):
        # mean over 200 seeds of K_M at M = 1000 vs the closed form
        fmap = rff_map(2, lengthscale=1.0)
        u, u2 = np.array([0.2, -0.4]), np.array([0.9, 0.1])
        vals = [
            kernel_approx(sample_features(fmap, 1000, seed=s), u, u2)[0, 0]
            for s in range(200)
        ]
        assert abs(np.mean(vals) - gaussian_kernel(u, u2, 1.0)) < 0.05

    def test_finite_rank_kernel_exact(self):
        spec = synthetic.spectrum_spec(b=1.0, d_max=16)
        problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=0)
        u, u2 = 0.3, 0.8
        expected = float(
            np.sum(spec.eigenvalues * problem.basis([u])[0] * problem.basis([u2])[0])
        )
        got = kernel_exact(problem.feature_map, u, u2)[0, 0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_convergence_slope(self):
        # ||K_M - K||_HS over the finite-rank problem decays like M^(-1/2)
        spec = synthetic.spectrum_spec(b=1.0, d_max=32)
        problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=0)
        mu = spec.eigenvalues
        ms = [16, 64, 256, 1024]
        mean_err = []
        for m in ms:
            errs = []
            for seed in range(100):
                fs = sample_features(problem.feature_map, m, seed=seed)
                nu = synthetic.lm_eigenvalues(problem, fs)
                errs.append(np.linalg.norm(nu - mu))
            mean_err.append(np.mean(errs))
        slope = synthetic.fit_rate(ms, mean_err)
        assert abs(slope + 0.5) < 0.15


class TestBoundedness:
    def test_feature_norm_bound_monte_carlo(self):
        rng = np.random.default_rng(7)
        # (map, lower end of its input range, input shape)
        maps = [
            (sign_map(), 0.0, 25),
            (rff_map(3, lengthscale=0.7), -1.0, (25, 3)),
            (synthetic.make_problem(
                synthetic.spectrum_spec(1.0, 24), 0.5, 1.0, seed=1
            ).feature_map, 0.0, 25),
        ]
        for fmap, low, shape in maps:
            fs = sample_features(fmap, 40, seed=3)
            U = rng.uniform(low, 1.0, size=shape)
            phi = fmap.evaluate(U, fs.samples)  # (n, M, p, d_v)
            sq = np.sum(phi ** 2, axis=(2, 3)) * fmap.v_weight
            assert np.max(sq) <= fmap.kappa ** 2 + 1e-9
            k = kernel_approx(fs, U[0], U[1])
            assert np.linalg.norm(k) * fmap.v_weight <= fmap.kappa ** 2 + 1e-9

    def test_ntk_bound_with_declared_input_bound(self):
        arch = OperatorArchitecture(tanh_act(), 6, d_y=1)
        fmap = ntk_feature_map(arch, input_bound=math.sqrt(3.0))
        fs = sample_features(fmap, 30, seed=2)
        U = np.random.default_rng(0).uniform(-1, 1, size=(20, 6, 1))
        phi = fmap.evaluate(U, fs.samples)
        sq = np.sum(phi ** 2, axis=(2, 3)) * fmap.v_weight
        assert np.max(sq) <= fmap.kappa ** 2 + 1e-9


class TestDesign:
    def test_scalar_case(self):
        fmap = discrete_map(
            [0.0], [1.0],
            ones_evaluate,
            p=1, d_v=1, kappa=1.0,
        )
        fs = sample_features(fmap, 1, seed=0)
        design = build_design(fs, np.array([0.5]))
        np.testing.assert_allclose(design.Z, [[1.0]])
        np.testing.assert_allclose(design.cov(), [[1.0]])

    def test_cov_norm_bounded_on_random_instances(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            fmap = rff_map(2, lengthscale=0.5 + rng.uniform())
            fs = sample_features(fmap, int(rng.integers(1, 30)), seed=seed)
            design = build_design(fs, rng.normal(size=(int(rng.integers(1, 40)), 2)))
            top = np.linalg.eigvalsh(design.cov()).max()
            assert top <= 1.0 + 1e-9

    def test_design_rows_match_predictions(self):
        spec = synthetic.spectrum_spec(b=1.0, d_max=8)
        problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=3)
        fs = sample_features(problem.feature_map, 12, seed=4)
        U = np.random.default_rng(5).uniform(size=9)
        design = build_design(fs, U)
        theta = np.random.default_rng(6).normal(size=design.Z.shape[1])
        stacked = (design.Z @ theta).reshape(9, 1)
        preds = features.predict_values(fs, theta, U)
        np.testing.assert_allclose(
            stacked / math.sqrt(design.v_weight), preds, atol=1e-12
        )

    def test_cov_matches_independent_assembly(self):
        fs = sample_features(sign_map(), 6, seed=8)
        U = np.random.default_rng(9).normal(size=5)
        design = build_design(fs, U)
        width = design.Z.shape[1]
        acc = np.zeros((width, width))
        for u in U:
            row = features.feature_rows(fs, np.array([u]), design.kappa_scale, design.v_weight)
            acc += row.T @ row
        np.testing.assert_allclose(design.cov(), acc / 5, atol=1e-12)

    def test_empty_inputs_rejected(self):
        fs = sample_features(sign_map(), 3, seed=0)
        with pytest.raises(FeatureError):
            build_design(fs, np.zeros(0))

    @pytest.mark.parametrize("case", ["bounded-synthetic", "identity-ntk", "tangent"])
    def test_scale_follows_the_map(self, case):
        """A design divides its rows by kappa where the map is bounded, else
        by 1, and predictions use the same rows."""
        rng = np.random.default_rng(7)
        if case == "bounded-synthetic":
            problem = synthetic.make_problem(synthetic.spectrum_spec(b=1.0, d_max=8),
                                             r=0.5, R=1.0, seed=3)
            fs, U = sample_features(problem.feature_map, 12, seed=4), rng.uniform(size=9)
        elif case == "identity-ntk":
            arch = OperatorArchitecture(identity_act(), 1, d_y=1, use_lift=False)
            fs, U = sample_features(ntk_feature_map(arch), 4, seed=0), rng.normal(size=(3, 1))
        else:
            arch = OperatorArchitecture(tanh_act(), 4, d_y=1)
            fs = neuralop.tangent_feature_set(neuralop.init_symmetric(arch, 8, 0.5, seed=1))
            U = rng.normal(size=(6, 4, 1))
        kappa = fs.map.kappa
        scale = kappa if case == "bounded-synthetic" else 1.0
        assert math.isfinite(kappa) == (case == "bounded-synthetic")
        assert build_design(fs, U).kappa_scale == scale
        theta = rng.normal(size=len(fs.distinct[1]) * fs.map.p)
        model = estimator.RFModel(fs, theta, lam=0.1)
        np.testing.assert_allclose(
            estimator.predict_batch(model, U),
            (features.feature_rows(fs, U, scale) @ theta).reshape(len(U), fs.map.d_v),
            rtol=1e-12, atol=1e-12)


#: sigma' as a function of z, the oracle for `Activation.f_and_df`
DERIVATIVES = {"tanh": lambda z: 1.0 / np.cosh(z) ** 2, "identity": np.ones_like}


class TestNTKMap:
    @pytest.mark.parametrize("act", [tanh_act(), identity_act()], ids=["tanh", "identity"])
    def test_f_and_df_matches_f_and_df_separately(self, act):
        z = np.linspace(-20.0, 20.0, 801)
        fz, dfz = act.f_and_df(z)
        np.testing.assert_array_equal(fz, act.f(z))
        np.testing.assert_allclose(dfz, DERIVATIVES[act.name](z), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("act", [tanh_act(), identity_act()], ids=["tanh", "identity"])
    def test_f_and_df_in_place_is_bit_identical(self, act):
        z = np.linspace(-20.0, 20.0, 801)
        fz, dfz = act.f_and_df(z)
        f_out, z_in = np.empty_like(z), z.copy()
        f_in_place, df_in_place = act.f_and_df(z_in, out=(f_out, z_in))
        assert f_in_place is f_out and df_in_place is z_in
        np.testing.assert_array_equal(f_out, fz)
        np.testing.assert_array_equal(z_in, dfz)

    def test_identity_activation_gaussian_limit(self):
        # E[psi psi + sum_j psi'_j psi'_j] = 2 <J(u), J(u2)> pointwise for sigma = id
        arch = OperatorArchitecture(identity_act(), 3, d_y=1)
        fmap = ntk_feature_map(arch)
        rng = np.random.default_rng(1)
        u, u2 = rng.normal(size=(3, 1)), rng.normal(size=(3, 1))
        j1, j2 = arch.j_features(u[None])[0], arch.j_features(u2[None])[0]
        expected = 2.0 * j1 @ j2.T
        fs = sample_features(fmap, 200_000, seed=2)
        got = features.kernel_approx(fs, u, u2)
        np.testing.assert_allclose(got, expected, atol=0.1)

    def test_p_equals_d_plus_2_without_lift(self):
        arch = OperatorArchitecture(tanh_act(), 1, d_y=4, use_lift=False)
        assert ntk_feature_map(arch).p == 4 + 2

    def test_derivative_features_match_finite_differences(self):
        # psi'_j(u) = d/d(b_j) sigma(<b, J(u)>) = sigma'(<b, J>) J^(j)
        arch = OperatorArchitecture(tanh_act(), 5, d_y=1)
        fmap = ntk_feature_map(arch)
        fs = sample_features(fmap, 6, seed=3)
        b = np.asarray(fs.samples)               # (M, d_tilde)
        rng = np.random.default_rng(4)
        u = rng.normal(size=(5, 1))
        J = arch.j_features(u[None])[0]          # (n_X, d_tilde)
        phi = fmap.evaluate(u[None], fs.samples)[0]  # (M, p, n_X)
        step = 1e-6
        act = arch.activation
        for j in range(arch.d_tilde):
            plus, minus = b.copy(), b.copy()
            plus[:, j] += step
            minus[:, j] -= step
            fd = (act.f(J @ plus.T) - act.f(J @ minus.T)) / (2 * step)  # (n_X, M)
            analytic = phi[:, 1 + j, :]          # (M, n_X)
            rel = np.abs(fd.T - analytic) / np.maximum(np.abs(fd.T), 1e-8)
            assert np.max(rel) < 1e-5

    def test_deriv_scale_scales_only_the_derivative_block(self):
        arch = OperatorArchitecture(tanh_act(), 5, d_y=1)
        fs = sample_features(ntk_feature_map(arch), 6, seed=3)
        U = np.random.default_rng(5).normal(size=(4, 5, 1))
        phi = ntk_feature_map(arch).evaluate(U, fs.samples)          # (n, M, p, n_X)
        scaled = ntk_feature_map(arch, deriv_scale=0.3).evaluate(U, fs.samples)
        np.testing.assert_array_equal(scaled[:, :, 0], phi[:, :, 0])
        np.testing.assert_array_equal(scaled[:, :, 1:], 0.3 * phi[:, :, 1:])
