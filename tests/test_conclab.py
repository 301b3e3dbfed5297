import json
import math

import numpy as np
import pytest

from specrf import cli, features, synthetic
from specrf.conclab import (
    ALL_EVENTS,
    BERNSTEIN_EVENTS,
    ConcentrationConfigError,
    bernstein_bound,
    event_rhs,
    pinelis_bound,
    simulate_event,
)


@pytest.fixture(scope="module")
def small_problem():
    spec = synthetic.spectrum_spec(b=1.0, d_max=24)
    problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=17)
    noise = synthetic.noise_model(problem, 0.3)
    return problem, noise


def simulate(eid, problem, noise, trials, seed, **overrides):
    params = dict(n=100, M=100, lam=0.1, delta=0.1)
    params.update(overrides)
    return simulate_event(eid, problem, noise, trials=trials, seed=seed, **params)


class TestBernstein:
    def test_beta_one_value(self):
        got = bernstein_bound(1.0, 1.0, 1.0, 1, 4.0 / math.e)
        assert got == pytest.approx(2.0 / 3.0 + math.sqrt(2.0), rel=1e-12)

    def test_sample_size_scaling_of_sqrt_term(self):
        m = 25
        b1 = bernstein_bound(1.0, 1.0, 1.0, m, 0.1)
        b4 = bernstein_bound(1.0, 1.0, 1.0, 4 * m, 0.1)
        beta = math.log(4.0 / 0.1)
        sqrt_term = math.sqrt(2.0 * beta / m)
        linear_term = 2.0 * beta / (3.0 * m)
        assert b1 - b4 == pytest.approx(0.5 * sqrt_term + 0.75 * linear_term, rel=1e-12)

    def test_monotone_in_delta(self):
        assert bernstein_bound(1, 1, 2, 10, 0.05) > bernstein_bound(1, 1, 2, 10, 0.2)

    def test_rejects_trace_below_norm(self):
        with pytest.raises(ConcentrationConfigError):
            bernstein_bound(1.0, 2.0, 1.0, 10, 0.1)


class TestPinelis:
    def test_reference_value(self):
        got = pinelis_bound(1.0, 1.0, 100, 0.1)
        assert got == pytest.approx(0.22 * math.log(20.0), rel=1e-12)

    def test_large_n_decay(self):
        assert pinelis_bound(1.0, 1.0, 10 ** 8, 0.1) <= 1e-3

    def test_zero_variance_term(self):
        n, delta = 50, 0.2
        assert pinelis_bound(3.0, 0.0, n, delta) == pytest.approx(
            (6.0 / n) * math.log(2.0 / delta))

    def test_rejects_large_delta(self):
        with pytest.raises(ConcentrationConfigError):
            pinelis_bound(1.0, 1.0, 10, 0.5)


class TestEventRHS:
    """event_rhs at the population spectrum mu, which a data event reads as
    its nu, so both sides of a shared formula see the same spectrum."""

    def rhs(self, eid, small_problem, n=100, M=100, lam=0.1, delta=0.1):
        problem, noise = small_problem
        return event_rhs(eid, problem, noise, n, M, lam, delta,
                         nu=problem.spectrum.eigenvalues)

    def test_e7_reference_value(self, small_problem):
        k2 = small_problem[0].feature_map.kappa ** 2
        assert self.rhs("E7", small_problem) == pytest.approx(
            pinelis_bound(k2, k2, 100, 0.1), rel=1e-12)

    @pytest.mark.parametrize("feature_event,data_event", [("E2", "E1"), ("E5", "E3"),
                                                          ("E6", "E7")])
    def test_shared_formula_at_equal_sizes(self, small_problem, feature_event, data_event):
        # a feature event with M features is its data twin with n = M inputs
        assert (self.rhs(feature_event, small_problem, n=1, M=77, delta=0.2)
                == self.rhs(data_event, small_problem, n=77, M=1, delta=0.2))

    def test_missing_parameter_is_config_error(self, small_problem):
        # a data event's bound reads the spectrum of L_M at its feature draw
        problem, noise = small_problem
        with pytest.raises(ConcentrationConfigError, match="E1 needs the spectrum nu"):
            event_rhs("E1", problem, noise, 10, 10, 0.1, 0.1)

    def test_unknown_event(self, small_problem):
        with pytest.raises(ConcentrationConfigError):
            self.rhs("E10", small_problem)

    @pytest.mark.parametrize("eid", ALL_EVENTS)
    def test_delta_beyond_one_half_is_refused_outside_the_bernstein_events(
            self, small_problem, eid, tmp_path):
        """The Pinelis bound needs delta < 1/2 and the Bernstein bound only
        delta < 1: at delta = 0.6 event_rhs raises, and verify exits 3, for
        exactly the events outside BERNSTEIN_EVENTS."""
        refused = eid not in BERNSTEIN_EVENTS
        if refused:
            with pytest.raises(ConcentrationConfigError):
                self.rhs(eid, small_problem, delta=0.6)
        else:
            assert self.rhs(eid, small_problem, delta=0.6) > 0.0
        cfg = {"problem": {"d_max": 16}, "events": [eid], "delta": 0.6, "trials": 50,
               "event_n": 50, "event_M": 50, "grid_points": 10, "max_landweber_steps": 10}
        code = cli.main(["verify", "--out", str(tmp_path), "--jobs", "1",
                         "--config", json.dumps(cfg)])
        assert (code == 3) == refused


class TestSimulate:
    def test_all_events_hold_at_design_delta(self, small_problem):
        problem, noise = small_problem
        for eid in ALL_EVENTS:
            row = simulate(eid, problem, noise, trials=60, seed=5)
            assert row["violation_rate"] <= 0.1, eid
            assert row["rhs"] > 0.0
            assert row["trials"] == 60

    def test_rank_one_deterministic_features_give_zero_lhs(self):
        # singleton support: every feature draw is the same basis function, so
        # nu == mu exactly and the E6 left-hand side vanishes in every trial
        spec = synthetic.SpectrumSpec(b=1.0, d_max=1, eigenvalues=np.array([1.0]),
                                      c_b=1.0)
        problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=3)
        noise = synthetic.noise_model(problem, 0.1)
        row = simulate("E6", problem, noise, trials=50, seed=1, M=16)
        assert row["lhs_max"] == 0.0
        assert row["violations"] == 0

    def test_violation_counts_consistent(self, small_problem):
        problem, noise = small_problem
        row = simulate("E7", problem, noise, trials=50, seed=9)
        assert 0 <= row["violations"] <= row["trials"]
        assert row["violation_rate"] == row["violations"] / row["trials"]

    def test_rejects_too_few_trials(self, small_problem):
        problem, noise = small_problem
        with pytest.raises(ConcentrationConfigError):
            simulate("E7", problem, noise, trials=10, seed=0)

    def test_e6_e7_median_scaling(self, small_problem):
        # doubling M (resp. n) shrinks the median LHS by roughly 1/sqrt(2)
        problem, noise = small_problem
        for eid, key in (("E6", "M"), ("E7", "n")):
            med = {}
            for size in (100, 200):
                row = simulate(eid, problem, noise, trials=200, seed=11, **{key: size})
                med[size] = row["lhs_q50"]
            ratio = med[200] / med[100]
            assert 0.5 <= ratio <= 1.2 / math.sqrt(2.0)

    def test_dual_lhs_implementations_agree(self, small_problem):
        # basis-coefficient shortcut vs dense assembly from raw features
        problem, noise = small_problem
        mu = problem.spectrum.eigenvalues
        d = problem.d_max
        rng = np.random.default_rng(23)
        for trial in range(20):
            m = int(rng.integers(20, 80))
            fs = features.sample_features(
                problem.feature_map, m, seed=int(rng.integers(0, 2 ** 31)))
            # path A: counting formula
            nu = synthetic.lm_eigenvalues(problem, fs)
            hs_fast = float(np.linalg.norm(nu - mu))
            # path B: dense operator assembled from feature coefficient vectors
            idx = np.asarray(fs.samples, dtype=int)
            lm = np.zeros((d, d))
            for i in idx:
                coeff = np.zeros(d)
                coeff[i] = math.sqrt(d * mu[i])
                lm += np.outer(coeff, coeff)
            lm /= m
            hs_dense = float(np.linalg.norm(lm - np.diag(mu), "fro"))
            assert abs(hs_fast - hs_dense) < 1e-8

    def test_sigma_dual_implementations_agree(self, small_problem):
        problem, noise = small_problem
        rng = np.random.default_rng(29)
        fs = features.sample_features(problem.feature_map, 40, seed=31)
        U = rng.uniform(size=60)
        z = features.feature_rows(fs, U, 1.0)      # one column per distinct draw
        width = z.shape[1]
        gram = z.T @ z / len(U)
        dense = np.zeros((width, width))
        for j in range(len(U)):
            dense += np.outer(z[j], z[j])
        dense /= len(U)
        assert np.max(np.abs(gram - dense)) < 1e-12
        # population covariance from the closed form vs Monte Carlo mean
        pop = np.diag(synthetic.lm_eigenvalues(problem, fs)[fs.distinct[0]])
        u_mc = np.random.default_rng(37).uniform(size=200_000)
        z_mc = features.feature_rows(fs, u_mc, 1.0)
        mc = z_mc.T @ z_mc / len(u_mc)
        assert np.max(np.abs(mc - pop)) < 0.05
