"""Concentration bound formulas and Monte Carlo verification of the events
E1-E9 on the finite-rank synthetic problem, where all population operators
are explicit matrices in the eigenbasis.

The feature map of the synthetic problem samples basis indices, so the
sampled kernel operator L_M is diagonal with entries nu_i = d mu_i c_i / M.
Data events work in the distinct-draw coordinates of `features.feature_rows`
(one column per distinct index, at most d_max of them), where the population
covariance Sigma_M = diag(nu) and every operator is a small dense matrix.
Each event resamples exactly the randomness it concerns (data for
E1/E3/E7/E8/E9, features for E2/E4/E5/E6) and compares the left-hand norm
against the closed-form right-hand side.
"""
from __future__ import annotations

import math

import numpy as np

from . import runtime, synthetic
from .features import FeatureSet, feature_rows, sample_features
from .synthetic import NoiseModel, SyntheticProblem

__all__ = [
    "bernstein_bound",
    "pinelis_bound",
    "event_rhs",
    "simulate_event",
    "DATA_EVENTS",
    "FEATURE_EVENTS",
    "ALL_EVENTS",
    "BERNSTEIN_EVENTS",
    "MIN_TRIALS",
]

DATA_EVENTS = ("E1", "E3", "E7", "E8", "E9")
FEATURE_EVENTS = ("E2", "E4", "E5", "E6")
ALL_EVENTS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9")
#: the events with an operator Bernstein bound, which holds for delta < 1; the
#: Pinelis bound of the others needs delta < 1/2
BERNSTEIN_EVENTS = ("E1", "E2")
#: the fewest Monte Carlo trials an event's violation rate is estimated from
MIN_TRIALS = 50


class ConcentrationConfigError(ValueError):
    pass


def bernstein_bound(B: float, v_opnorm: float, v_trace: float, m: int, delta: float) -> float:
    """Operator Bernstein: 2 B beta / (3m) + sqrt(2 ||V|| beta / m) with
    beta = log(4 tr(V) / (||V|| delta))."""
    if min(B, v_opnorm, v_trace, delta) <= 0 or m < 1:
        raise ConcentrationConfigError("bernstein_bound needs positive arguments")
    if v_trace < v_opnorm:
        raise ConcentrationConfigError("trace must dominate the operator norm")
    # the probabilistic statement needs delta < 1; the formula itself is
    # evaluated for any delta keeping beta positive
    beta = math.log(4.0 * v_trace / (v_opnorm * delta))
    if beta <= 0.0:
        raise ConcentrationConfigError("delta too large: beta would be nonpositive")
    return 2.0 * B * beta / (3.0 * m) + math.sqrt(2.0 * v_opnorm * beta / m)


def pinelis_bound(B: float, V: float, n: int, delta: float) -> float:
    """Hilbert-space mean concentration: (2B/n + 2V/sqrt(n)) log(2/delta),
    valid for delta < 1/2."""
    if B < 0 or V < 0 or n < 1:
        raise ConcentrationConfigError("pinelis_bound needs nonnegative B, V and n >= 1")
    if not 0.0 < delta < 0.5:
        raise ConcentrationConfigError("delta must be in (0, 1/2)")
    return (2.0 * B / n + 2.0 * V / math.sqrt(n)) * math.log(2.0 / delta)


def event_rhs(event_id: str, problem: SyntheticProblem, noise: NoiseModel, n: int,
              M: int, lam: float, delta: float, nu: np.ndarray | None = None) -> float:
    """Closed-form right-hand side of the event's bound: the operator
    Bernstein bound for BERNSTEIN_EVENTS, the Hilbert-space (Pinelis) bound,
    which needs delta < 1/2, for the rest.

    A feature event reads the population spectrum mu and the M features; a
    data event reads `nu`, the spectrum of L_M at its fixed feature draw, and
    the n inputs.  N(lambda) and the operator norm come from that spectrum,
    so E1/E2, E3/E5 and E6/E7 each share one formula."""
    if event_id in FEATURE_EVENTS:
        spectrum, m = problem.spectrum.eigenvalues, M
    elif event_id in DATA_EVENTS:
        if nu is None:
            raise ConcentrationConfigError(f"{event_id} needs the spectrum nu of L_M")
        spectrum, m = nu, n
    else:
        raise ConcentrationConfigError(f"unknown event id {event_id!r}")
    norm = float(np.max(spectrum))
    if norm == 0.0:
        raise ConcentrationConfigError("sampled operator is zero; increase M")
    n_eff = synthetic.effective_dimension(spectrum, lam)
    kappa = problem.feature_map.kappa
    k2 = kappa ** 2
    if event_id in BERNSTEIN_EVENTS:
        v_norm = k2 / lam          # p k^2 / lambda at the synthetic map's p = 1
        return bernstein_bound(2.0 * k2 / lam, v_norm,
                               v_norm * k2 * (n_eff + 1.0) / norm, m, delta)
    if event_id in ("E3", "E5"):
        return pinelis_bound(kappa / math.sqrt(lam), math.sqrt(k2 * n_eff), m, delta)
    if event_id in ("E6", "E7"):
        return pinelis_bound(k2, k2, m, delta)
    if event_id == "E4":
        return pinelis_bound(2.0 * k2 / lam, math.sqrt(k2 * n_eff / lam), m, delta)
    q = noise.Q
    if event_id == "E8":
        return pinelis_bound(2.0 * q * noise.Z * kappa / math.sqrt(lam),
                             2.0 * q * math.sqrt(n_eff), m, delta)
    # E9: F*_lambda is the tikhonov estimator, whose D constant is 1
    source = problem.source
    c_krd = 2.0 * kappa ** (2.0 * source.r + 1.0) * source.R
    sup_f = c_krd * lam ** (-max(0.0, 0.5 - source.r))
    b_lam = 4.0 * (q ** 2 + sup_f ** 2)
    v_lam = math.sqrt(2.0) * (q + sup_f) * math.sqrt(_pop_err_sq(problem, nu, lam))
    return pinelis_bound(b_lam, v_lam, m, delta)


# ---------------------------------------------------------------------------
# exact operators of the synthetic problem

def _pop_err_sq(problem: SyntheticProblem, nu: np.ndarray, lam: float) -> float:
    """||G_rho - S_M F*_lambda||^2_{L2} for the tikhonov F*_lambda =
    S_M^* phi_lambda(L_M) G_rho, whose residual factor in basis direction i
    is r_lambda(nu_i) = lambda / (nu_i + lambda) (valid for spectra beyond 1,
    where t/(t+lam) <= 1 keeps D = 1)."""
    return float(np.sum((problem.source.coefficients * (lam / (nu + lam))) ** 2))


def _data_setup(problem: SyntheticProblem, fs: FeatureSet,
                lam: float) -> tuple[np.ndarray, dict]:
    """The spectrum nu of L_M at a data event's fixed feature draw `fs`, and
    the operators its trials compare against.

    Trials work in the distinct-draw coordinates of `features.feature_rows`
    (one column per distinct basis index, weighted by sqrt(count/M)), where
    Sigma_M = diag(nu[omegas]) and (Sigma_M + lambda)^{-1/2} is a vector.
    Every norm and spectrum the events read equals its value in the raw
    M-draw coordinates: those operators are P X P^T for the 0/1 duplication
    matrix P, which has the norms and spectrum of C^{1/2} X C^{1/2}, C the
    diagonal of counts."""
    nu = synthetic.lm_eigenvalues(problem, fs)
    sigma = nu[np.asarray(fs.distinct[0], dtype=int)]
    g = problem.source.coefficients
    return nu, {"fs": fs, "sigma_pop": np.diag(sigma),
                "w_half": 1.0 / np.sqrt(sigma + lam),
                # coefficients of G_rho - S_M F*_lambda (E9)
                "fstar_resid": g - nu / (nu + lam) * g,
                "pop_err_sq": _pop_err_sq(problem, nu, lam)}


def _trial_lhs(eid: str, problem: SyntheticProblem, noise: NoiseModel, n: int, M: int,
               lam: float, fixed: dict, rng: np.random.Generator) -> float:
    """The event's left-hand side at one draw of its randomness from `rng`."""
    mu = problem.spectrum.eigenvalues
    if eid in FEATURE_EVENTS:
        fs = sample_features(problem.feature_map, M,
                             int(rng.integers(0, 2 ** 63 - 1)))
        nu = synthetic.lm_eigenvalues(problem, fs)
        diff = nu - mu
        if eid == "E2":
            return float(np.max(np.abs(diff) / (mu + lam)))
        if eid == "E4":
            return float(np.linalg.norm(diff / (mu + lam)))
        if eid == "E5":
            return float(np.max(np.abs(diff) / np.sqrt(mu + lam)))
        return float(np.linalg.norm(diff))  # E6

    U = rng.uniform(0.0, 1.0, size=n)
    if eid == "E9":
        resid = problem.basis(U) @ fixed["fstar_resid"]
        return float(abs(np.mean(resid ** 2) - fixed["pop_err_sq"]))

    z = feature_rows(fixed["fs"], U, 1.0)
    if eid == "E8":
        eps = rng.uniform(-noise.half_width, noise.half_width, size=n)
        return float(np.linalg.norm(fixed["w_half"] * (z.T @ eps / n)))
    delta_m = z.T @ z / n - fixed["sigma_pop"]
    if eid == "E7":
        return float(np.linalg.norm(delta_m, "fro"))
    w_half = fixed["w_half"]
    if eid == "E1":
        return float(np.max(np.abs(np.linalg.eigvalsh(w_half[:, None] * delta_m * w_half))))
    return float(np.linalg.norm(w_half[:, None] * delta_m, "fro"))  # E3


def simulate_event(
    event_id: str,
    problem: SyntheticProblem,
    noise: NoiseModel,
    n: int,
    M: int,
    lam: float,
    delta: float,
    trials: int = 200,
    seed: int = 0,
) -> dict:
    """Monte Carlo check that the event holds with probability >= 1 - delta,
    at n inputs, M features and a positive lambda.

    For data events the feature draw is fixed (from `seed`) and the inputs /
    noise are resampled per trial; for feature events the features are
    resampled.  Population quantities are computed exactly from the
    finite-rank problem.  Returns the event's row of `verify_events.csv`.
    """
    if trials < MIN_TRIALS:
        raise ConcentrationConfigError(f"need at least {MIN_TRIALS} trials")
    if lam <= 0:
        raise ConcentrationConfigError(f"lambda must be positive, got {lam}")
    feature_seed, trial_seed = np.random.SeedSequence(seed).spawn(2)
    nu, fixed = None, {}
    if event_id in DATA_EVENTS:
        fs = sample_features(
            problem.feature_map, M, int(feature_seed.generate_state(1)[0]))
        nu, fixed = _data_setup(problem, fs, lam)

    rhs = event_rhs(event_id, problem, noise, n, M, lam, delta, nu)
    rng = np.random.default_rng(trial_seed)
    lhs = np.empty(trials)
    for t in range(trials):
        lhs[t] = _trial_lhs(event_id, problem, noise, n, M, lam, fixed, rng)
    violations = int(np.sum(lhs > rhs))
    return {
        "event": event_id, "trials": trials, "violations": violations,
        "violation_rate": violations / trials, "rhs": rhs,
        "lhs_q50": runtime.quantile(lhs, 0.5), "lhs_q90": runtime.quantile(lhs, 0.9),
        "lhs_max": float(np.max(lhs)),
    }
