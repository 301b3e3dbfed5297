import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrf import features, runtime, synthetic
from specrf.synthetic import (
    ScheduleMultipliers,
    SyntheticError,
    effective_dimension,
    fit_rate,
    make_problem,
    noise_model,
    rate_schedule,
    sample_dataset,
    sample_inputs,
    spectrum_spec,
)


class TestProblemConstruction:
    def test_rejects_tiny_rank(self):
        with pytest.raises(SyntheticError):
            spectrum_spec(b=1.0, d_max=1)

    def test_warns_outside_easy_regime(self):
        spec = spectrum_spec(b=0.5, d_max=8)
        with pytest.warns(UserWarning):
            make_problem(spec, r=0.2, R=1.0, seed=0)

    def test_eigenvalues_strictly_decreasing(self):
        spec = spectrum_spec(b=0.7, d_max=50)
        assert np.all(np.diff(spec.eigenvalues) < 0)
        assert np.all(spec.eigenvalues > 0)

    def test_capacity_bound_holds_for_stored_cb(self):
        spec = spectrum_spec(b=1.0, d_max=128)
        for lam in np.logspace(-3, 0, 40):
            assert effective_dimension(spec.eigenvalues, lam) <= spec.c_b * lam ** (-spec.b)

    def test_rank_one_limit_is_deterministic(self):
        # with d_max = 2 and a spectrum collapsed by hand the map stays exact;
        # the rank-1 construction itself requires d_max >= 2, so check the
        # exact-kernel identity instead of a singleton support
        spec = spectrum_spec(b=1.0, d_max=2)
        problem = make_problem(spec, r=0.5, R=1.0, seed=0)
        u, u2 = 0.2, 0.9
        k = features.kernel_exact(problem.feature_map, u, u2)[0, 0]
        expected = float(np.sum(
            spec.eigenvalues * problem.basis([u])[0] * problem.basis([u2])[0]))
        assert k == pytest.approx(expected, rel=1e-12)

    def test_basis_orthonormal_under_uniform(self):
        spec = spectrum_spec(b=1.0, d_max=6)
        problem = make_problem(spec, r=0.5, R=1.0, seed=1)
        n_mc = 40_000
        U = np.random.default_rng(2).uniform(size=n_mc)
        E = problem.basis(U)
        gram = E.T @ E / n_mc
        assert np.max(np.abs(gram - np.eye(6))) < 3.0 / math.sqrt(n_mc) * 2.0

    def test_rkhs_norm_identity_at_half(self):
        spec = spectrum_spec(b=1.0, d_max=64)
        problem = make_problem(spec, r=0.5, R=2.0, seed=3)
        rkhs_sq = problem.source.rkhs_norm_sq(spec.eigenvalues)
        assert rkhs_sq == pytest.approx(np.sum(problem.source.h ** 2), rel=1e-10)
        assert math.sqrt(rkhs_sq) <= 2.0 + 1e-12

    def test_h_on_the_r_sphere(self):
        spec = spectrum_spec(b=1.0, d_max=32)
        problem = make_problem(spec, r=0.7, R=1.5, seed=4)
        assert np.linalg.norm(problem.source.h) == pytest.approx(1.5)


#: inputs per `_cos_table` block at K = 512, the largest K tested, with the
#: budget TestCosineKernel sets
BLOCK = 256
LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def kernel_inputs(n, seed=0):
    """n uniform inputs, the first just below 1 and the second at 0."""
    U = np.random.default_rng(seed).uniform(size=n)
    U[0] = np.nextafter(1.0, 0.0)
    if n > 1:
        U[1] = 0.0
    return U


def kernel_table(U, K):
    """cos(pi k u) for k = 1..K, shape (K, n), assembled from the kernel's blocks."""
    table = np.empty((K, U.size))
    for rows, block in synthetic._cos_blocks(U, K):
        table[:, rows] = block
    return table


def direct_table(U, K):
    return np.cos(np.pi * np.outer(np.arange(1, K + 1), U))


class TestCosineKernel:
    @pytest.fixture(autouse=True)
    def blocks_of_block_inputs(self, monkeypatch):
        """Size runtime.BLOCK_BYTES so that a K = 512 table takes BLOCK inputs."""
        monkeypatch.setattr(runtime, "BLOCK_BYTES", 16 * 512 * BLOCK)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("K", [1, 2, 100, 512])
    def test_table_matches_direct_cosines(self, n, K):
        U = kernel_inputs(n)
        np.testing.assert_allclose(kernel_table(U, K), direct_table(U, K), rtol=0, atol=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="long double is double here: no more precise reference")
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("K", [1, 2, 100, 512])
    def test_table_error_at_most_the_direct_routes(self, n, K):
        U = kernel_inputs(n)
        ref = np.cos(LONG_PI * np.outer(np.arange(1, K + 1, dtype=np.longdouble),
                                        U.astype(np.longdouble)))
        kernel_err = float(np.max(np.abs(kernel_table(U, K) - ref)))
        direct_err = float(np.max(np.abs(direct_table(U, K) - ref)))
        # at K = 2 the direct argument pi*(2u) is fl(pi*u) doubled exactly, a
        # single rounding, while cos^2 - sin^2 adds two roundings of products
        # of size <= 1; from K = 3 on the direct route's error is the larger
        assert kernel_err <= direct_err + 2 * np.finfo(float).eps

    @pytest.mark.parametrize("K", [2, 100, 512])
    def test_tables_do_not_depend_on_the_block(self, K, monkeypatch):
        """The table and the basis of 1000 inputs are bit-identical in blocks
        of 37, 128, 256 and 1000 inputs.  The target is a BLAS product over
        each block, which may sum a column in another order."""
        U = kernel_inputs(1000)
        problem = make_problem(spectrum_spec(b=1.0, d_max=K), r=0.5, R=1.2, seed=0)
        results = []
        for block in (37, 128, 256, 1000):
            monkeypatch.setattr(runtime, "BLOCK_BYTES", 16 * K * block)
            assert len(list(synthetic._cos_blocks(U, K))) == math.ceil(1000 / block)
            results.append((kernel_table(U, K), problem.basis(U), problem.target(U)))
        (table, basis, target), *others = results
        for other_table, other_basis, other_target in others:
            np.testing.assert_array_equal(other_table, table)
            np.testing.assert_array_equal(other_basis, basis)
            np.testing.assert_allclose(other_target, target, rtol=0,
                                       atol=1e-14 * np.abs(target).max())

    def test_feature_map_on_unsorted_distinct_indices(self):
        spec = spectrum_spec(b=1.0, d_max=512)
        fmap = make_problem(spec, r=0.5, R=1.0, seed=0).feature_map
        draws = np.array([37, 5, 5, 200, 0, 511, 37, 63, 5])
        omegas, _ = features.FeatureSet(fmap, draws).distinct
        assert list(omegas) == [37, 5, 200, 0, 511, 63]
        U = kernel_inputs(BLOCK + 1)
        for subset in (omegas, omegas[[3, 1]]):    # the second needs K = 6 only
            got = fmap.evaluate(U, subset)
            assert got.shape == (U.size, subset.size, 1, 1)
            weights = math.sqrt(2.0) * np.sqrt(512 * spec.eigenvalues[subset])
            np.testing.assert_allclose(got[:, :, 0, 0] / weights,
                                       np.cos(np.pi * np.outer(U, subset + 1)),
                                       rtol=0, atol=1e-12)

    def test_basis_and_target_agree(self):
        problem = make_problem(spectrum_spec(b=1.0, d_max=512), r=0.5, R=1.2, seed=0)
        U = kernel_inputs(2 * BLOCK + 3)
        basis = problem.basis(U)
        np.testing.assert_allclose(basis, math.sqrt(2.0) * direct_table(U, 512).T,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(problem.target(U), basis @ problem.source.coefficients,
                                   rtol=0, atol=1e-13)


class TestSampling:
    def setup_method(self):
        self.spec = spectrum_spec(b=1.0, d_max=16)
        self.problem = make_problem(self.spec, r=0.5, R=1.0, seed=0)

    def test_noiseless_outputs_equal_target(self):
        noise = noise_model(self.problem, 0.0)
        U, V = sample_dataset(self.problem, 50, noise, seed=1)
        np.testing.assert_array_equal(V, self.problem.target(U))

    def test_noise_mean_near_zero(self):
        noise = noise_model(self.problem, 1.0)
        U, V = sample_dataset(self.problem, 100_000, noise, seed=2)
        eps = V - self.problem.target(U)
        assert abs(np.mean(eps)) < 0.01

    def test_seed_behavior(self):
        noise = noise_model(self.problem, 0.5)
        u1, v1 = sample_dataset(self.problem, 20, noise, seed=3)
        u2, v2 = sample_dataset(self.problem, 20, noise, seed=3)
        u3, _ = sample_dataset(self.problem, 20, noise, seed=4)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(v1, v2)
        assert not np.array_equal(u1, u3)

    def test_sample_inputs_are_the_dataset_inputs(self):
        noise = noise_model(self.problem, 0.5)
        U, _ = sample_dataset(self.problem, 20, noise, seed=5)
        np.testing.assert_array_equal(sample_inputs(20, 5), U)

    def test_noise_moment_bound(self):
        # E|v|^l <= (1/2) l! Z^(l-2) Q^2 via exact uniform-noise moments at the
        # worst-case mean g = ||G||_inf
        noise = noise_model(self.problem, 0.7)
        g = self.problem.target_sup_bound()
        s = noise.half_width
        for ell in (2, 3, 4, 5):
            moment = sum(
                math.comb(ell, k) * g ** (ell - k) * s ** k / (k + 1)
                for k in range(ell + 1)
            )
            bound = 0.5 * math.factorial(ell) * noise.Z ** (ell - 2) * noise.Q ** 2
            assert moment <= bound


class TestEffectiveDimension:
    def test_single_eigenvalue(self):
        assert effective_dimension(np.array([1.0]), 1.0) == pytest.approx(0.5)

    def test_three_eigenvalues(self):
        assert effective_dimension(np.array([1.0, 0.5, 0.25]), 0.5) == pytest.approx(1.5)

    def test_large_lambda_trace_bound(self):
        spec = spectrum_spec(b=1.0, d_max=64)
        lam = 1e3
        assert effective_dimension(spec.eigenvalues, lam) <= np.sum(spec.eigenvalues) / lam

    def test_strictly_decreasing_in_lambda(self):
        spec = spectrum_spec(b=0.8, d_max=32)
        lams = np.linspace(1e-3, 1.0, 50)
        vals = [effective_dimension(spec.eigenvalues, lam) for lam in lams]
        assert np.all(np.diff(vals) < 0)

    def test_rejects_nonpositive_lambda(self):
        spec = spectrum_spec(b=1.0, d_max=4)
        with pytest.raises(SyntheticError):
            effective_dimension(spec.eigenvalues, 0.0)


class TestSchedules:
    def test_exponent_half_at_well_specified(self):
        sched = rate_schedule(10_000, r=0.5, b=1.0)
        # M_n = p * log(n) * n^0.5 for r = 1/2, b = 1
        assert sched.M_n == math.ceil(math.log(10_000) * 10_000 ** 0.5)

    def test_exponent_two_thirds_misspecified(self):
        n = 8000
        sched = rate_schedule(n, r=0.25, b=1.0)
        assert sched.M_n == math.ceil(math.log(n) * n ** (2.0 / 3.0))

    def test_n0_value(self):
        sched = rate_schedule(100, r=0.5, b=1.0)
        assert sched.n0 == pytest.approx(math.exp(2.0))
        assert sched.meets_n0

    def test_lambda_clamped_to_unit_interval(self):
        sched = rate_schedule(2, r=0.5, b=1.0)
        assert sched.lambda_n == 1.0 and sched.T_n == 1

    def test_monotonicity_in_n(self):
        mult = ScheduleMultipliers(C=0.05)
        lams, ms = [], []
        for n in [500, 1000, 2000, 4000, 8000]:
            s = rate_schedule(n, 0.5, 1.0, multipliers=mult)
            lams.append(s.lambda_n)
            ms.append(s.M_n)
        assert np.all(np.diff(lams) < 0)
        assert np.all(np.diff(ms) > 0)

    def test_feature_count_exponents_per_case(self):
        # exponents at b = 1: 2/3 for r = 1/4 (first case), 1/2 for r = 1/2,
        # 2/3 for r = 1 (middle case); the well-specified point is the minimum
        for n in (1000, 5000):
            m_quarter = rate_schedule(n, 0.25, 1.0).M_n
            m_half = rate_schedule(n, 0.5, 1.0).M_n
            m_one = rate_schedule(n, 1.0, 1.0).M_n
            assert m_one >= m_half
            assert m_quarter >= m_half

    def test_rejects_hard_regime(self):
        with pytest.raises(SyntheticError):
            rate_schedule(100, r=0.2, b=0.5)


class TestFitRate:
    def test_exact_power_law(self):
        ns = np.array([100, 200, 400, 800, 1600])
        errors = 3.0 * ns ** (-0.5)
        assert fit_rate(ns, errors) == pytest.approx(-0.5, abs=1e-12)

    def test_constant_errors(self):
        assert fit_rate([10, 100, 1000], [2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(SyntheticError):
            fit_rate([10, 20, 30], [1.0, -1.0, 0.5])
        with pytest.raises(SyntheticError):
            fit_rate([10, 20], [1.0, 0.5])

    @settings(max_examples=20, deadline=None)
    @given(
        slope=st.floats(-1.0, -0.1),
        scale=st.floats(0.1, 10.0),
    )
    def test_recovers_planted_slope(self, slope, scale):
        ns = np.array([50, 100, 200, 400])
        errors = scale * ns ** slope
        assert fit_rate(ns, errors) == pytest.approx(slope, abs=1e-9)


class TestLMEigenvalues:
    def test_counting_formula(self):
        spec = spectrum_spec(b=1.0, d_max=8)
        problem = make_problem(spec, r=0.5, R=1.0, seed=0)
        fmap = problem.feature_map
        fs = features.FeatureSet(fmap, np.array([0, 0, 3]))
        nu = synthetic.lm_eigenvalues(problem, fs)
        expected = np.zeros(8)
        expected[0] = 8 * spec.eigenvalues[0] * 2 / 3
        expected[3] = 8 * spec.eigenvalues[3] * 1 / 3
        np.testing.assert_allclose(nu, expected, rtol=1e-12)

    def test_mean_spectrum_matches_population(self):
        spec = spectrum_spec(b=1.0, d_max=16)
        problem = make_problem(spec, r=0.5, R=1.0, seed=0)
        acc = np.zeros(16)
        n_draws = 300
        for seed in range(n_draws):
            fs = features.sample_features(problem.feature_map, 64, seed=seed)
            acc += synthetic.lm_eigenvalues(problem, fs)
        np.testing.assert_allclose(acc / n_draws, spec.eigenvalues, atol=0.05)
