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
from dataclasses import dataclass, replace

import numpy as np

from . import runtime, synthetic
from .features import FeatureSet, feature_rows, sample_features
from .synthetic import NoiseModel, SyntheticProblem

__all__ = [
    "EventSpec",
    "bernstein_bound",
    "pinelis_bound",
    "event_rhs",
    "simulate_event",
    "DATA_EVENTS",
    "FEATURE_EVENTS",
    "ALL_EVENTS",
]

DATA_EVENTS = ("E1", "E3", "E7", "E8", "E9")
FEATURE_EVENTS = ("E2", "E4", "E5", "E6")
ALL_EVENTS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9")


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


@dataclass(frozen=True)
class EventSpec:
    """Parameters of one concentration event: the experiment's (id, delta,
    lambda, n, M) and the population quantities its bound reads, which
    `simulate_event` computes from the problem and the noise.  Unset fields
    stay None; `event_rhs` names any its event needs."""

    event_id: str
    kappa: float
    delta: float
    lam: float | None = None
    n: int | None = None
    M: int | None = None
    n_eff_l: float | None = None       # N_L(lambda)
    n_eff_lm: float | None = None      # N_{L_M}(lambda)
    norm_l: float | None = None        # ||L||
    norm_lm: float | None = None       # ||L_M||
    q_bound: float | None = None       # Q of the moment assumption
    z_bound: float | None = None       # Z of the moment assumption
    r: float | None = None
    R: float | None = None
    pop_error: float | None = None     # ||G_rho - S_M F*_lambda||_{L2}

    def require(self, *names: str) -> None:
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise ConcentrationConfigError(
                f"{self.event_id} needs parameters: {', '.join(missing)}"
            )


def event_rhs(spec: EventSpec) -> float:
    """Closed-form right-hand side of the event's bound: the operator
    Bernstein bound for E1/E2, the Hilbert-space (Pinelis) bound for E3-E9,
    which needs delta < 1/2."""
    k2 = spec.kappa ** 2
    d = spec.delta
    eid = spec.event_id
    if eid == "E1":
        spec.require("lam", "n", "n_eff_lm", "norm_lm")
        v_norm = k2 / spec.lam
        return bernstein_bound(2.0 * k2 / spec.lam, v_norm,
                               v_norm * k2 * (spec.n_eff_lm + 1.0) / spec.norm_lm, spec.n, d)
    if eid == "E2":
        spec.require("lam", "M", "n_eff_l", "norm_l")
        v_norm = k2 / spec.lam     # p k^2 / lambda at the synthetic map's p = 1
        return bernstein_bound(2.0 * k2 / spec.lam, v_norm,
                               v_norm * k2 * (spec.n_eff_l + 1.0) / spec.norm_l, spec.M, d)
    if eid == "E3":
        spec.require("lam", "n", "n_eff_lm")
        return pinelis_bound(spec.kappa / math.sqrt(spec.lam),
                             math.sqrt(k2 * spec.n_eff_lm), spec.n, d)
    if eid == "E4":
        spec.require("lam", "M", "n_eff_l")
        return pinelis_bound(2.0 * k2 / spec.lam,
                             math.sqrt(k2 * spec.n_eff_l / spec.lam), spec.M, d)
    if eid == "E5":
        spec.require("lam", "M", "n_eff_l")
        return pinelis_bound(spec.kappa / math.sqrt(spec.lam),
                             math.sqrt(k2 * spec.n_eff_l), spec.M, d)
    if eid == "E6":
        spec.require("M")
        return pinelis_bound(k2, k2, spec.M, d)
    if eid == "E7":
        spec.require("n")
        return pinelis_bound(k2, k2, spec.n, d)
    if eid == "E8":
        spec.require("lam", "n", "n_eff_lm", "q_bound", "z_bound")
        q = spec.q_bound
        return pinelis_bound(2.0 * q * spec.z_bound * spec.kappa / math.sqrt(spec.lam),
                             2.0 * q * math.sqrt(spec.n_eff_lm), spec.n, d)
    if eid == "E9":
        spec.require("lam", "n", "r", "R", "pop_error", "q_bound")
        # F*_lambda is the tikhonov estimator, whose D constant is 1
        c_krd = 2.0 * spec.kappa ** (2.0 * spec.r + 1.0) * spec.R
        mis = max(0.0, 0.5 - spec.r)
        sup_f = c_krd * spec.lam ** (-mis)
        b_lam = 4.0 * (spec.q_bound ** 2 + sup_f ** 2)
        v_lam = math.sqrt(2.0) * (spec.q_bound + sup_f) * spec.pop_error
        return pinelis_bound(b_lam, v_lam, spec.n, d)
    raise ConcentrationConfigError(f"unknown event id {spec.event_id!r}")


# ---------------------------------------------------------------------------
# exact operators of the synthetic problem

def _opnorm_sym(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def _fstar_quantities(problem: SyntheticProblem, nu: np.ndarray, lam: float):
    """Ideal-estimator residual coefficients for the tikhonov F*_lambda =
    S_M^* phi_lambda(L_M) G_rho: residual factor r_lambda(nu_i) per basis
    direction (valid for spectra beyond 1, where t/(t+lam) <= 1 keeps D = 1)."""
    g = problem.source.coefficients
    resid_factor = lam / (nu + lam)
    smoothed = nu / (nu + lam) * g      # coefficients of S_M F*_lambda
    pop_err_sq = float(np.sum((g * resid_factor) ** 2))
    return smoothed, pop_err_sq


def _data_setup(spec: EventSpec, problem: SyntheticProblem,
                fs: FeatureSet) -> tuple[EventSpec, dict]:
    """Fill in the population quantities of a data event for the fixed
    feature draw `fs`, and the operators its trials compare against.

    Trials work in the distinct-draw coordinates of `features.feature_rows`
    (one column per distinct basis index, weighted by sqrt(count/M)), where
    Sigma_M = diag(nu[omegas]) and (Sigma_M + lambda)^{-1/2} is a vector.
    Every norm and spectrum the events read equals its value in the raw
    M-draw coordinates: those operators are P X P^T for the 0/1 duplication
    matrix P, which has the norms and spectrum of C^{1/2} X C^{1/2}, C the
    diagonal of counts."""
    nu = synthetic.lm_eigenvalues(problem, fs)
    norm_lm = float(np.max(nu))
    if norm_lm == 0.0:
        raise ConcentrationConfigError("sampled operator is zero; increase M")
    n_eff_lm = float(np.sum(nu / (nu + spec.lam)))
    spec = replace(spec, n_eff_lm=n_eff_lm, norm_lm=norm_lm)
    sigma = nu[np.asarray(fs.distinct[0], dtype=int)]
    fixed = {"fs": fs, "sigma_pop": np.diag(sigma),
             "w_half": 1.0 / np.sqrt(sigma + spec.lam)}
    if spec.event_id == "E9":
        spec = replace(spec, r=problem.source.r, R=problem.source.R)
        smoothed, pop_err_sq = _fstar_quantities(problem, nu, spec.lam)
        fixed["fstar_smoothed"] = smoothed
        fixed["pop_err_sq"] = pop_err_sq
        spec = replace(spec, pop_error=math.sqrt(pop_err_sq))
    return spec, fixed


def _trial_lhs(
    spec: EventSpec,
    problem: SyntheticProblem,
    noise: NoiseModel,
    fixed: dict,
    rng: np.random.Generator,
) -> float:
    eid = spec.event_id
    mu = problem.spectrum.eigenvalues

    if eid in FEATURE_EVENTS:
        fs = sample_features(problem.feature_map, spec.M,
                             int(rng.integers(0, 2 ** 63 - 1)))
        nu = synthetic.lm_eigenvalues(problem, fs)
        diff = nu - mu
        if eid == "E2":
            return float(np.max(np.abs(diff) / (mu + spec.lam)))
        if eid == "E4":
            return float(np.linalg.norm(diff / (mu + spec.lam)))
        if eid == "E5":
            return float(np.max(np.abs(diff) / np.sqrt(mu + spec.lam)))
        return float(np.linalg.norm(diff))  # E6

    U = rng.uniform(0.0, 1.0, size=spec.n)
    if eid == "E9":
        smoothed = fixed["fstar_smoothed"]
        basis = problem.basis(U)
        resid = basis @ (problem.source.coefficients - smoothed)
        return float(abs(np.mean(resid ** 2) - fixed["pop_err_sq"]))

    z = feature_rows(fixed["fs"], U, 1.0)
    if eid == "E8":
        eps = rng.uniform(-noise.half_width, noise.half_width, size=spec.n)
        return float(np.linalg.norm(fixed["w_half"] * (z.T @ eps / spec.n)))
    delta_m = z.T @ z / spec.n - fixed["sigma_pop"]
    if eid == "E7":
        return float(np.linalg.norm(delta_m, "fro"))
    w_half = fixed["w_half"]
    if eid == "E1":
        return _opnorm_sym(w_half[:, None] * delta_m * w_half)
    if eid == "E3":
        return float(np.linalg.norm(w_half[:, None] * delta_m, "fro"))
    raise ConcentrationConfigError(f"unknown event id {eid!r}")


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
    if trials < 50:
        raise ConcentrationConfigError("need at least 50 trials")
    if event_id not in ALL_EVENTS:
        raise ConcentrationConfigError(f"unknown event id {event_id!r}")

    spec = EventSpec(
        event_id=event_id, kappa=problem.kappa, delta=delta, lam=lam, n=n, M=M,
        n_eff_l=synthetic.effective_dimension(problem.spectrum, lam),
        norm_l=float(problem.spectrum.eigenvalues[0]),
        q_bound=noise.Q, z_bound=noise.Z,
    )
    fixed: dict = {}
    root = np.random.SeedSequence(seed)
    feature_seed, trial_seed = root.spawn(2)
    if event_id in DATA_EVENTS:
        fs = sample_features(
            problem.feature_map, M, int(feature_seed.generate_state(1)[0]))
        spec, fixed = _data_setup(spec, problem, fs)

    rhs = event_rhs(spec)
    rng = np.random.default_rng(trial_seed)
    lhs = np.empty(trials)
    for t in range(trials):
        lhs[t] = _trial_lhs(spec, problem, noise, fixed, rng)
    violations = int(np.sum(lhs > rhs))
    return {
        "event": event_id, "trials": trials, "violations": violations,
        "violation_rate": violations / trials, "rhs": rhs,
        "lhs_q50": runtime.quantile(lhs, 0.5), "lhs_q90": runtime.quantile(lhs, 0.9),
        "lhs_max": float(np.max(lhs)),
    }
