import math

import numpy as np
import pytest

from specrf import features, neuralop
from specrf.features import OperatorArchitecture, identity_act, tanh_act
from specrf.neuralop import (
    NeuralOpError,
    compare_to_kernel_gd,
    empirical_ntk,
    forward,
    init_symmetric,
    median_discrepancies,
    tangent_feature_set,
    train_gd,
)


def make_arch(n_x=8, d_y=1, activation=None):
    return OperatorArchitecture(
        activation or tanh_act(), np.linspace(0.0, 1.0, n_x), d_y=d_y
    )


def random_functions(rng, n, n_x, d_y=1):
    return rng.normal(size=(n, n_x, d_y))


class TestInitialization:
    def test_zero_at_init_over_random_inputs(self):
        arch = make_arch()
        rng = np.random.default_rng(0)
        for m in (2, 16, 128):
            no = init_symmetric(arch, m, tau=1.0, seed=1)
            U = random_functions(rng, 20, arch.n_x)
            assert np.max(np.abs(forward(no, U))) <= 1e-12

    def test_tau_zero_network_identically_zero(self):
        arch = make_arch()
        no = init_symmetric(arch, 8, tau=0.0, seed=2)
        U = random_functions(np.random.default_rng(1), 5, arch.n_x)
        assert np.all(forward(no, U) == 0.0)

    def test_seed_determinism(self):
        arch = make_arch()
        a = init_symmetric(arch, 10, tau=1.0, seed=7)
        b = init_symmetric(arch, 10, tau=1.0, seed=7)
        np.testing.assert_array_equal(a.B, b.B)
        np.testing.assert_array_equal(a.a, b.a)

    def test_rejects_odd_width(self):
        with pytest.raises(NeuralOpError):
            init_symmetric(make_arch(), 7, tau=1.0, seed=0)

    def test_two_neuron_cancellation_identity_activation(self):
        arch = make_arch(activation=identity_act())
        no = init_symmetric(arch, 2, tau=1.0, seed=3)
        u = np.random.default_rng(2).normal(size=(arch.n_x, 1))
        np.testing.assert_allclose(forward(no, u), np.zeros(arch.n_x), atol=1e-15)

    def test_output_linear_in_single_weight(self):
        arch = make_arch()
        no = init_symmetric(arch, 8, tau=1.0, seed=4)
        u = np.random.default_rng(3).normal(size=(arch.n_x, 1))
        eps = 0.37
        perturbed = no.a.copy()
        perturbed[3] += eps
        bumped = neuralop.replace(no, a=perturbed)
        z = arch.j_features(u[None])[0] @ no.B[3]
        expected = forward(no, u) + eps / math.sqrt(no.M) * arch.activation.f(z)
        np.testing.assert_allclose(forward(bumped, u), expected, atol=1e-12)


class TestTraining:
    def test_zero_targets_keep_theta_fixed(self):
        arch = make_arch()
        no = init_symmetric(arch, 16, tau=1.0, seed=0)
        rng = np.random.default_rng(1)
        U = random_functions(rng, 6, arch.n_x)
        record = train_gd(no, U, np.zeros((6, arch.n_x)), alpha=0.5, n_steps=25)
        assert record.drift_budget <= 1e-12
        assert record.final_risk <= 1e-25

    def test_gradients_match_finite_differences(self):
        step = 1e-6
        for seed in range(10):
            rng = np.random.default_rng(seed)
            arch = make_arch(n_x=4)
            no = init_symmetric(arch, 6, tau=1.0, seed=seed)
            # move off the symmetric point so gradients are generic
            no = neuralop.replace(
                no,
                a=no.a + 0.3 * rng.normal(size=no.M),
                B=no.B + 0.3 * rng.normal(size=no.B.shape),
            )
            U = random_functions(rng, 3, arch.n_x)
            V = rng.normal(size=(3, arch.n_x))
            risk, grad_a, grad_b = neuralop._risk_and_gradients(
                no, arch.coerce_inputs(U), V.astype(float))

            def risk_at(a_vec, b_mat):
                probe = neuralop.replace(no, a=a_vec, B=b_mat)
                return neuralop._risk(probe, arch.coerce_inputs(U), V)

            assert risk == risk_at(no.a, no.B)

            for m in (0, no.M - 1):
                ap, am = no.a.copy(), no.a.copy()
                ap[m] += step
                am[m] -= step
                fd = (risk_at(ap, no.B) - risk_at(am, no.B)) / (2 * step)
                assert abs(fd - grad_a[m]) / max(abs(fd), 1e-10) < 1e-5
            for m, j in [(0, 0), (no.M - 1, arch.d_tilde - 1)]:
                bp, bm = no.B.copy(), no.B.copy()
                bp[m, j] += step
                bm[m, j] -= step
                fd = (risk_at(no.a, bp) - risk_at(no.a, bm)) / (2 * step)
                assert abs(fd - grad_b[m, j]) / max(abs(fd), 1e-10) < 1e-5

    def test_small_step_descends(self):
        arch = make_arch()
        no = init_symmetric(arch, 32, tau=1.0, seed=5)
        rng = np.random.default_rng(6)
        U = random_functions(rng, 10, arch.n_x)
        V = rng.normal(size=(10, arch.n_x))
        record = train_gd(no, U, V, alpha=1e-3, n_steps=100)
        assert len(record.risks) == 100 + 1
        assert record.risks[-1] <= record.risks[0]

    def test_rejects_empty_dataset_and_bad_step(self):
        arch = make_arch()
        no = init_symmetric(arch, 4, tau=1.0, seed=0)
        with pytest.raises(NeuralOpError):
            train_gd(no, np.zeros((0, arch.n_x, 1)), np.zeros((0, arch.n_x)), 0.1, 3)
        with pytest.raises(NeuralOpError):
            train_gd(no, np.zeros((2, arch.n_x, 1)), np.zeros((2, arch.n_x)), -0.1, 3)


class TestNTKConsistency:
    def test_matches_feature_map_kernel(self):
        arch = make_arch(n_x=6)
        no = init_symmetric(arch, 24, tau=1.0, seed=8)
        fs = tangent_feature_set(no, deriv_scale=1.0)
        rng = np.random.default_rng(9)
        for _ in range(5):
            u, u2 = rng.normal(size=(2, arch.n_x, 1))
            k_net = empirical_ntk(no, u, u2)
            k_map = features.kernel_approx(fs, u, u2)
            assert np.max(np.abs(k_net - k_map)) < 1e-10

    def test_symmetric_psd_at_diagonal(self):
        arch = make_arch(n_x=5)
        no = init_symmetric(arch, 16, tau=1.0, seed=10)
        u = np.random.default_rng(11).normal(size=(arch.n_x, 1))
        k = empirical_ntk(no, u, u)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(k)) >= -1e-10

    def test_invariant_under_neuron_duplication(self):
        arch = make_arch(n_x=4)
        no = init_symmetric(arch, 8, tau=1.0, seed=12)
        doubled = neuralop.replace(
            no,
            a=np.concatenate([no.a, no.a]),
            B=np.vstack([no.B, no.B]),
        )
        rng = np.random.default_rng(13)
        u, u2 = rng.normal(size=(2, arch.n_x, 1))
        np.testing.assert_allclose(
            empirical_ntk(no, u, u2), empirical_ntk(doubled, u, u2), atol=1e-12
        )


class TestKernelGDComparison:
    def setup_method(self):
        self.rng = np.random.default_rng(20)
        self.arch_id = make_arch(n_x=6, activation=identity_act())
        self.arch_tanh = make_arch(n_x=6)
        self.U = random_functions(self.rng, 8, 6)
        self.V = self.rng.normal(size=(8, 6))
        self.U_test = random_functions(self.rng, 12, 6)

    def test_identity_single_step_is_exact(self):
        # one GD step from symmetric init: the tangent features are exactly
        # the parameter gradient, so both paths coincide to round-off
        rows = compare_to_kernel_gd(
            self.arch_id, self.U, self.V, self.U_test,
            widths=[4, 16, 64], alpha=0.5, n_steps=1, seeds=[0, 1],
        )
        assert all(r["discrepancy"] <= 1e-12 for r in rows)

    def test_identity_multi_step_deviation_shrinks_with_width(self):
        # beyond one step the product parametrization is no longer linear in
        # theta: the deviation is genuinely nonzero and decays with width
        # the identity tangent kernel has covariance norm ~ 5.7 on this data,
        # so the stable step regime is alpha << 0.2
        rows = compare_to_kernel_gd(
            self.arch_id, self.U, self.V, self.U_test,
            widths=[8, 512], alpha=0.05, n_steps=16, seeds=[3],
        )
        small, large = rows[0]["discrepancy"], rows[1]["discrepancy"]
        assert small > 1e-10
        assert large < small

    def test_tanh_medians_decrease_with_width(self):
        rows = compare_to_kernel_gd(
            self.arch_tanh, self.U, self.V, self.U_test,
            widths=[16, 64, 256], alpha=0.25, n_steps=16,
            seeds=list(range(5)),
        )
        med = median_discrepancies(rows)
        assert med[16] > med[64] > med[256]

    def test_linear_activation_equivalence_invariant(self):
        # matching alpha, T, initialization-derived features: exact at T = 1
        rows = compare_to_kernel_gd(
            self.arch_id, self.U, self.V, self.U_test,
            widths=[32], alpha=1.0, n_steps=1, seeds=[5],
        )
        assert rows[0]["discrepancy"] <= 1e-8
