import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrf import spectral
from specrf.spectral import (
    FilterDomainError,
    ScheduleError,
    apply_filter,
    cutoff,
    eigensystem,
    filter_value,
    landweber,
    residual_value,
    tikhonov,
    verify_filter_constants,
)


def gd_iterations(a, b, alpha, steps):
    """Independent oracle: explicit gradient descent theta <- theta - alpha(A theta - b)."""
    theta = np.zeros_like(b)
    for _ in range(steps):
        theta = theta - alpha * (a @ theta - b)
    return theta


def random_psd_unit(rng, dim):
    """Random symmetric PSD matrix with spectrum inside [0, 1]."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    vals = rng.uniform(0.0, 1.0, size=dim)
    return (q * vals) @ q.T


class TestFilterValues:
    def test_tikhonov_unit_sum(self):
        assert filter_value(tikhonov(), 0.25, 0.75) == pytest.approx(1.0)

    def test_landweber_single_step(self):
        lw = landweber(1.0)
        for t in (0.1, 0.5, 1.0):
            assert filter_value(lw, 1.0, t) == pytest.approx(1.0)

    def test_cutoff_below_threshold(self):
        assert filter_value(cutoff(), 0.5, 0.25) == 0.0

    def test_domain_errors(self):
        for bad_t in (0.0, -0.5):
            with pytest.raises(FilterDomainError):
                filter_value(tikhonov(), 0.5, bad_t)
        with pytest.raises(FilterDomainError):
            filter_value(tikhonov(), 0.0, 0.5)
        with pytest.raises(FilterDomainError):
            filter_value(tikhonov(), 1.5, 0.5)

    def test_landweber_schedule_error(self):
        with pytest.raises(ScheduleError):
            filter_value(landweber(1.0), 0.3, 0.5)  # 1/0.3 is not an integer


    @pytest.mark.parametrize("t", [1e-13, 1e-9, 1e-6])
    def test_landweber_small_t_keeps_its_digits(self, t):
        # phi(t) = alpha * sum_{k<T} (1 - alpha t)^k: T terms near alpha, no cancellation
        alpha, steps = 0.5, 1024
        exact = alpha * sum((1.0 - alpha * t) ** k for k in range(steps))
        value = filter_value(landweber(alpha), 1.0 / (alpha * steps), t)
        assert value == pytest.approx(exact, rel=1e-12)


FILTERS = {"tikhonov": tikhonov, "cutoff": cutoff,
           "landweber": landweber, "landweber-0.5": lambda: landweber(0.5)}


@pytest.mark.parametrize("make", FILTERS.values(), ids=FILTERS.keys())
def test_a_filter_is_its_kind(make):
    """A filter holds its kind and step size only: rebuilt or pickled, it
    equals itself."""
    filt = make()
    assert filt == make()
    assert pickle.loads(pickle.dumps(filt)) == filt


def test_qualification_and_c_q_follow_the_kind():
    assert tikhonov().qualification == 1.0
    assert landweber(0.5).qualification == cutoff().qualification == math.inf
    assert landweber(0.5).c_q(2.0) == 16.0      # (q / alpha)^q
    assert landweber(0.5).c_q(0.0) == 1.0
    assert tikhonov().c_q(1.0) == cutoff().c_q(3.0) == 1.0


class TestResiduals:
    def test_tikhonov(self):
        assert residual_value(tikhonov(), 0.25, 0.75) == pytest.approx(0.25)

    def test_landweber_two_steps(self):
        assert residual_value(landweber(1.0), 0.5, 0.5) == pytest.approx(0.25)

    def test_cutoff_exact_inversion(self):
        assert residual_value(cutoff(), 0.5, 0.75) == 0.0
        assert residual_value(cutoff(), 0.5, 0.25) == 1.0

    @given(
        kind=st.sampled_from(["tikhonov", "cutoff"]),
        lam=st.floats(0.01, 1.0),
        t=st.floats(0.001, 1.0),
    )
    def test_complementarity(self, kind, lam, t):
        filt = tikhonov() if kind == "tikhonov" else cutoff()
        total = t * filter_value(filt, lam, t) + residual_value(filt, lam, t)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(steps=st.integers(1, 200), t=st.floats(0.001, 1.0))
    def test_complementarity_landweber(self, steps, t):
        filt = landweber(1.0)
        lam = 1.0 / steps
        total = t * filter_value(filt, lam, t) + residual_value(filt, lam, t)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestApplyFilter:
    def test_diagonal_case(self):
        out = apply_filter(tikhonov(), 0.25, np.diag([1.0, 0.25]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.8, 2.0], rtol=1e-12)

    def test_identity_case(self):
        out = apply_filter(tikhonov(), 1.0, np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [0.5, 1.0, 1.5], rtol=1e-12)

    def test_landweber_matches_gd_iterations(self):
        rng = np.random.default_rng(0)
        a = random_psd_unit(rng, 5)
        b = rng.normal(size=5)
        out = apply_filter(landweber(0.5), 1.0 / (0.5 * 20), a, b)
        np.testing.assert_allclose(out, gd_iterations(a, b, 0.5, 20), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(2, 8),
        steps=st.integers(1, 1000),
        alpha=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    )
    def test_landweber_gd_equivalence_property(self, seed, dim, steps, alpha):
        steps = max(steps, math.ceil(1.0 / alpha))  # keep lambda = 1/(alpha T) <= 1
        rng = np.random.default_rng(seed)
        a = random_psd_unit(rng, dim)
        b = rng.normal(size=dim)
        closed = apply_filter(landweber(alpha), 1.0 / (alpha * steps), a, b)
        iterated = gd_iterations(a, b, alpha, steps)
        np.testing.assert_allclose(closed, iterated, rtol=1e-9, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), lam=st.floats(0.01, 1.0))
    def test_tikhonov_identity(self, seed, lam):
        rng = np.random.default_rng(seed)
        a = random_psd_unit(rng, 6)
        b = rng.normal(size=6)
        x = apply_filter(tikhonov(), lam, a, b)
        np.testing.assert_allclose((a + lam * np.eye(6)) @ x, b, rtol=1e-8)

    def test_cutoff_idempotence_on_retained_subspace(self):
        rng = np.random.default_rng(3)
        a = random_psd_unit(rng, 6)
        eig = eigensystem(a)
        lam = float(np.median(eig.eigenvalues))
        b = rng.normal(size=6)
        once = apply_filter(cutoff(), lam, eig, b)
        # applying cutoff to (A @ once) inverts A again on the retained subspace
        twice = apply_filter(cutoff(), lam, eig, a @ once)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_multiple_right_hand_sides(self):
        rng = np.random.default_rng(4)
        a = random_psd_unit(rng, 5)
        b = rng.normal(size=(5, 3))
        out = apply_filter(tikhonov(), 0.1, a, b)
        for j in range(3):
            np.testing.assert_allclose(
                out[:, j], apply_filter(tikhonov(), 0.1, a, b[:, j]), rtol=1e-12
            )

    def test_rejects_asymmetric(self):
        with pytest.raises(FilterDomainError):
            apply_filter(tikhonov(), 0.5, np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(FilterDomainError):
            apply_filter(tikhonov(), 0.5, np.eye(3), np.ones(2))

    def test_rejects_spectrum_above_one(self):
        with pytest.raises(FilterDomainError):
            apply_filter(tikhonov(), 0.5, 2.0 * np.eye(2), np.ones(2))

    def test_clamps_roundoff_negatives(self):
        a = np.diag([0.5, -5e-11])
        out = apply_filter(cutoff(), 0.25, a, np.ones(2))
        np.testing.assert_allclose(out, [2.0, 0.0], atol=1e-12)


class TestEigenSystem:
    def test_orthogonality_and_reconstruction(self):
        rng = np.random.default_rng(11)
        a = random_psd_unit(rng, 12)
        eig = eigensystem(a)
        v = eig.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(12))) < 1e-10
        err = np.linalg.norm(eig.reconstruct() - a, 2)
        assert err <= 1e-8 * np.linalg.norm(a, 2)
        assert np.all(np.diff(eig.eigenvalues) <= 0)


FLAGS = ("d_flag", "e_flag", "c0_flag", "cq_flag")


def passed(rows):
    return not any(row[flag] for row in rows for flag in FLAGS)


def column(rows, key):
    return np.array([row[key] for row in rows])


class TestVerifyConstants:
    T_GRID = np.linspace(0.01, 1.0, 100)
    LAM_GRID = np.linspace(0.01, 1.0, 100)
    Q_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_tikhonov_passes(self):
        rows = verify_filter_constants(tikhonov(), self.T_GRID, self.LAM_GRID, self.Q_GRID)
        assert passed(rows)
        assert np.all(column(rows, "sup_t_phi") <= 1.0)
        assert np.all(column(rows, "sup_phi_lam") <= 1.0)
        assert np.all(column(rows, "sup_residual") <= 1.0)

    def test_landweber_passes(self):
        lams = spectral.landweber_lambda_grid(1.0, 100)
        rows = verify_filter_constants(
            landweber(1.0), self.T_GRID, lams, [0.5, 1.0, 2.0, 4.0]
        )
        assert passed(rows)
        assert np.all(column(rows, "sup_t_phi") <= 1.0 + 1e-12)
        assert np.all(column(rows, "sup_residual") <= 1.0 + 1e-12)

    def test_cutoff_passes(self):
        rows = verify_filter_constants(cutoff(), self.T_GRID, self.LAM_GRID, self.Q_GRID)
        assert passed(rows)

    def test_broken_filter_raises_e_flag(self, monkeypatch):
        # phi_lambda(t) = 2/lambda: |phi| lambda = 2 breaks the E bound
        monkeypatch.setattr(spectral, "_phi_array",
                            lambda filt, lam, t: np.full_like(t, 2.0 / lam))
        rows = verify_filter_constants(tikhonov(), self.T_GRID, self.LAM_GRID, [])
        assert not passed(rows)
        assert column(rows, "e_flag").any()

    def test_rejects_bad_grid(self):
        with pytest.raises(FilterDomainError):
            verify_filter_constants(tikhonov(), [0.0, 0.5], [0.5], [0.5])
        with pytest.raises(FilterDomainError):
            verify_filter_constants(tikhonov(), [0.5], [1.5], [0.5])
        with pytest.raises(FilterDomainError):
            verify_filter_constants(tikhonov(), [0.5], [0.5], [2.0])  # q > nu
