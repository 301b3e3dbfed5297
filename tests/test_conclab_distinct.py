"""Oracle tests for the data events in distinct-draw coordinates.

`conclab` evaluates E1, E3, E7 and E8 on `features.feature_rows` (one column
per distinct basis index, weighted by sqrt(count/M)), where Sigma_M is
diagonal.  Each test writes the raw M-draw formulas it replaces (one column
per draw, the dense Sigma_M, an eigh-based (Sigma_M + lambda)^{-1/2}) and
checks that every left-hand side agrees.
"""
import math

import numpy as np
import pytest

from specrf import conclab, features, synthetic

TOL = 1e-10
EVENTS = ("E1", "E3", "E7", "E8")
LAM = 0.1


@pytest.fixture(scope="module")
def problem_noise():
    spec = synthetic.spectrum_spec(b=1.0, d_max=64)
    problem = synthetic.make_problem(spec, r=0.5, R=1.0, seed=11)
    return problem, synthetic.noise_model(problem, 0.3)


def feature_set(problem, M, seed, duplicates):
    fs = features.sample_features(problem.feature_map, M, seed=seed)
    assert (len(fs.distinct[1]) < M) == duplicates
    return fs


# (M, feature seed, whether draws repeat): 200 draws over 64 indices, and 8
# draws that happen to be distinct
DRAWS = [(200, 3, True), (8, 2, False)]


def raw_operators(problem, fs, lam):
    """Dense Sigma_M over the raw draws (entries where the sampled indices
    match) and (Sigma_M + lambda)^{-1/2} from its eigendecomposition."""
    idx = np.asarray(fs.samples, dtype=int)
    mu = problem.spectrum.eigenvalues
    same = idx[:, None] == idx[None, :]
    sigma_pop = (problem.d_max / fs.M) * np.sqrt(np.outer(mu[idx], mu[idx])) * same
    vals, vecs = np.linalg.eigh(sigma_pop)
    w_half = (vecs / np.sqrt(np.clip(vals, 0.0, None) + lam)) @ vecs.T
    return sigma_pop, w_half


def raw_lhs(eid, fs, operators, U, eps):
    """The event's left-hand side in the raw coordinates, one column per draw."""
    sigma_pop, w_half = operators
    n = len(U)
    z = fs.map.evaluate(U, fs.samples)[:, :, 0, 0] / math.sqrt(fs.M)
    if eid == "E8":
        return float(np.linalg.norm(w_half @ (z.T @ eps / n)))
    delta_m = z.T @ z / n - sigma_pop
    if eid == "E7":
        return float(np.linalg.norm(delta_m, "fro"))
    if eid == "E1":
        return float(np.max(np.abs(np.linalg.eigvalsh(w_half @ delta_m @ w_half))))
    return float(np.linalg.norm(w_half @ delta_m, "fro"))  # E3


def draw_inputs(eid, rng, n, noise):
    """The draws one trial makes, in its order: inputs, then noise for E8."""
    U = rng.uniform(0.0, 1.0, size=n)
    eps = (rng.uniform(-noise.half_width, noise.half_width, size=n)
           if eid == "E8" else None)
    return U, eps


@pytest.mark.parametrize("M,seed,duplicates", DRAWS)
@pytest.mark.parametrize("eid", EVENTS)
def test_trial_lhs_matches_raw_coordinates(problem_noise, eid, M, seed, duplicates):
    problem, noise = problem_noise
    fs = feature_set(problem, M, seed, duplicates)
    _, fixed = conclab._data_setup(problem, fs, LAM)
    D = len(fs.distinct[1])
    assert fixed["sigma_pop"].shape == (D, D)
    operators = raw_operators(problem, fs, LAM)
    n = 120
    for trial in range(5):
        lhs = conclab._trial_lhs(eid, problem, noise, n, M, LAM, fixed,
                                 np.random.default_rng(100 + trial))
        U, eps = draw_inputs(eid, np.random.default_rng(100 + trial), n, noise)
        expected = raw_lhs(eid, fs, operators, U, eps)
        assert abs(lhs - expected) <= TOL * expected


@pytest.mark.parametrize("eid", EVENTS)
def test_simulate_event_matches_raw_trials(problem_noise, eid):
    """End to end: the same feature draw and trial draws as simulate_event,
    replayed in raw coordinates, give the same quantiles."""
    problem, noise = problem_noise
    row = conclab.simulate_event(eid, problem, noise, n=80, M=200, lam=LAM, delta=0.1,
                                 trials=50, seed=7)

    feature_seed, trial_seed = np.random.SeedSequence(7).spawn(2)
    fs = features.sample_features(problem.feature_map, 200,
                                  int(feature_seed.generate_state(1)[0]))
    assert len(fs.distinct[1]) < 200
    operators = raw_operators(problem, fs, LAM)
    rng = np.random.default_rng(trial_seed)
    lhs = np.array([raw_lhs(eid, fs, operators, *draw_inputs(eid, rng, 80, noise))
                    for _ in range(50)])
    for key, q in (("lhs_q50", 0.5), ("lhs_q90", 0.9)):
        expected = float(np.quantile(lhs, q))
        assert abs(row[key] - expected) <= TOL * expected
    assert row["violations"] == int(np.sum(lhs > row["rhs"]))
