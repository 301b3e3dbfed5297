"""Finite-rank ground-truth problems with controllable smoothness and capacity.

The kernel integral operator has eigenvalues mu_i = i^(-1/b) on the
trigonometric basis e_i(u) = sqrt(2) cos(pi i u) over Uniform[0, 1], truncated
at rank d_max.  The regression target is G_rho = L^r H with H drawn on the
R-sphere, so coefficients are g_i = mu_i^r h_i.  The feature map samples a
basis index uniformly and returns phi(u, i) = sqrt(d_max mu_i) e_i(u), whose
expectation kernel is exactly the truncated kernel.

The basis, the target and the feature map all evaluate cos(pi k u) through one
kernel, `_cos_table`: it evaluates cos(pi u) and sin(pi u) directly and fills
the higher frequencies by angle-addition doubling, on blocks of inputs whose
table and scratch rows fit in runtime.BLOCK_BYTES.

Also provides the parameter schedules (lambda_n, T_n, M_n, n_0) of the
minimax rate statement and a log-log slope fitter for rate experiments.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import features, runtime
from .features import FeatureMap, FeatureSet

__all__ = [
    "SpectrumSpec",
    "SourceTarget",
    "NoiseModel",
    "RateSchedule",
    "ScheduleMultipliers",
    "SyntheticProblem",
    "spectrum_spec",
    "make_problem",
    "noise_model",
    "sample_inputs",
    "sample_dataset",
    "effective_dimension",
    "rate_schedule",
    "fit_rate",
    "lm_eigenvalues",
]


class SyntheticError(ValueError):
    pass


#: reference grid on which the capacity constant c_b is certified
_CB_GRID = np.logspace(-3, 0, 61)


@dataclass(frozen=True)
class SpectrumSpec:
    """Eigenvalue decay mu_i = i^(-1/b), truncated at d_max, with the capacity
    constant c_b certified on a lambda grid in [1e-3, 1]."""

    b: float
    d_max: int
    eigenvalues: np.ndarray
    c_b: float


def effective_dimension(eigenvalues: np.ndarray, lam: float) -> float:
    """N(lambda) = sum_i mu_i / (mu_i + lambda) of the spectrum `eigenvalues`."""
    if lam <= 0:
        raise SyntheticError(f"lambda must be positive, got {lam}")
    return float(np.sum(eigenvalues / (eigenvalues + lam)))


def spectrum_spec(b: float, d_max: int) -> SpectrumSpec:
    if not 0.0 < b <= 1.0:
        raise SyntheticError(f"b must be in (0, 1], got {b}")
    if d_max < 2:
        raise SyntheticError(f"d_max must be >= 2, got {d_max}")
    idx = np.arange(1, d_max + 1, dtype=float)
    mu = idx ** (-1.0 / b)
    n_eff = np.array([effective_dimension(mu, lam) for lam in _CB_GRID])
    c_b = float(np.max(n_eff * _CB_GRID ** b)) * (1.0 + 1e-9)
    return SpectrumSpec(b=float(b), d_max=int(d_max), eigenvalues=mu, c_b=c_b)


@dataclass(frozen=True)
class SourceTarget:
    """Target coefficients g_i = mu_i^r h_i with ||h|| <= R."""

    r: float
    R: float
    h: np.ndarray
    coefficients: np.ndarray

    def rkhs_norm_sq(self, mu: np.ndarray) -> float:
        """||G||_H^2 = sum g_i^2 / mu_i (finite-rank formula)."""
        return float(np.sum(self.coefficients ** 2 / mu))


@dataclass(frozen=True)
class NoiseModel:
    """Bounded uniform output noise with certified moment constants.

    |noise| <= half_width almost surely; with Q = ||G_rho||_inf + half_width
    and Z = Q every output moment satisfies
    int ||v||^l rho(dv|u) <= (1/2) l! Z^(l-2) Q^2.
    """

    half_width: float
    Q: float
    Z: float


@dataclass(frozen=True)
class ScheduleMultipliers:
    """Free constants of the rate statement, exposed as user multipliers."""

    C: float = 1.0       # lambda_n multiplier
    M: float = 1.0       # feature-count multiplier (the paper's C-tilde)
    p: int = 1           # summand count of the feature map


@dataclass(frozen=True)
class RateSchedule:
    lambda_n: float
    T_n: int
    M_n: int
    n0: float
    meets_n0: bool


@dataclass(frozen=True)
class SyntheticProblem:
    spectrum: SpectrumSpec
    source: SourceTarget
    feature_map: FeatureMap = field(compare=False)

    @property
    def d_max(self) -> int:
        return self.spectrum.d_max

    def basis(self, U: np.ndarray) -> np.ndarray:
        """e_i(u) = sqrt(2) cos(pi i u), shape (n, d_max)."""
        U = np.asarray(U, dtype=float).reshape(-1)
        out = np.empty((U.size, self.d_max))
        for rows, table in _cos_blocks(U, self.d_max):
            np.multiply(table.T, math.sqrt(2.0), out=out[rows])
        return out

    def target(self, U: np.ndarray) -> np.ndarray:
        """G_rho evaluated at inputs, shape (n,), without forming the basis."""
        U = np.asarray(U, dtype=float).reshape(-1)
        weights = math.sqrt(2.0) * self.source.coefficients
        out = np.empty(U.size)
        for rows, table in _cos_blocks(U, self.d_max):
            out[rows] = weights @ table
        return out

    def target_sup_bound(self) -> float:
        """sup_u |G_rho(u)| <= sqrt(2) sum |g_i|."""
        return math.sqrt(2.0) * float(np.sum(np.abs(self.source.coefficients)))


def _cos_table(u: np.ndarray, K: int) -> np.ndarray:
    """cos(pi k u_j) for k = 1..K, shape (K, len(u)): row k-1 holds frequency k.

    Only cos(pi u) and sin(pi u) are evaluated directly.  With rows 1..m
    filled, one step fills rows m+1..2m from rows 1..m and row m by angle
    addition, cos(a + b) = cos a cos b - sin a sin b and
    sin(a + b) = sin a cos b + cos a sin b, so K frequencies take
    ceil(log2 K) vectorized steps.  The rounding error grows about linearly
    in k, as that of cos(pi k u) evaluated directly does.
    """
    a = np.pi * u
    cos = np.empty((K, u.size))
    np.cos(a, out=cos[0])
    if K == 1:
        return cos
    half = 1 << (K - 1).bit_length() - 1      # largest power of two below K
    sin = np.empty((half, u.size))            # the last step needs no sines
    tmp = np.empty((half, u.size))
    np.sin(a, out=sin[0])
    m = 1
    while m < K:
        step = min(m, K - m)
        cos_m, sin_m, t = cos[m - 1], sin[m - 1], tmp[:step]
        new = cos[m:m + step]
        np.multiply(cos[:step], cos_m, out=new)
        np.multiply(sin[:step], sin_m, out=t)
        new -= t
        if m + step < K:
            new = sin[m:m + step]
            np.multiply(sin[:step], cos_m, out=new)
            np.multiply(cos[:step], sin_m, out=t)
            new += t
        m += step
    return cos


def _cos_blocks(U: np.ndarray, K: int):
    """(rows, `_cos_table(U[rows], K)`) for consecutive blocks of the inputs,
    each table with its sine and scratch rows (about 2K rows in all) at most
    runtime.BLOCK_BYTES: 128 inputs at K = 512.  Each column of a table is
    computed from its input alone, so the tables do not depend on the block
    size."""
    block = runtime.per_block(16 * K)
    for start in range(0, U.size, block):
        rows = slice(start, min(start + block, U.size))
        yield rows, _cos_table(U[rows], K)


def _problem_feature_map(spec: SpectrumSpec) -> FeatureMap:
    d = spec.d_max
    mu = spec.eigenvalues
    scales = np.sqrt(d * mu)

    def evaluate(U: np.ndarray, omegas: np.ndarray, out=None) -> np.ndarray:
        U = np.asarray(U, dtype=float).reshape(-1)
        idx = np.asarray(omegas, dtype=int)        # basis indices, 0-based
        weights = scales[idx] * math.sqrt(2.0)
        if out is None:
            out = np.empty((U.size, 1, idx.size, 1))
        vals = out[:, 0, :, 0]                     # (n, M)
        for rows, table in _cos_blocks(U, int(idx.max()) + 1):
            np.multiply(table[idx].T, weights, out=vals[rows])
        return out.transpose(0, 2, 3, 1)

    omegas = np.arange(d)
    probs = np.full(d, 1.0 / d)
    kappa = math.sqrt(2.0 * d * mu[0])
    return features.discrete_map(omegas, probs, evaluate, p=1, d_v=1, kappa=kappa)


def make_problem(spec: SpectrumSpec, r: float, R: float, seed: int) -> SyntheticProblem:
    """Build the finite-rank problem; warns when 2r + b <= 1 (hard regime)."""
    if r <= 0 or R <= 0:
        raise SyntheticError("r and R must be positive")
    if 2.0 * r + spec.b <= 1.0:
        warnings.warn(
            f"2r + b = {2 * r + spec.b:.3f} <= 1: outside the easy learning regime",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    h = rng.normal(size=spec.d_max)
    h *= R / np.linalg.norm(h)
    coeffs = spec.eigenvalues ** r * h
    source = SourceTarget(r=float(r), R=float(R), h=h, coefficients=coeffs)
    return SyntheticProblem(spectrum=spec, source=source,
                            feature_map=_problem_feature_map(spec))


def noise_model(problem: SyntheticProblem, half_width: float) -> NoiseModel:
    if half_width < 0:
        raise SyntheticError("half_width must be nonnegative")
    q = problem.target_sup_bound() + float(half_width)
    return NoiseModel(half_width=float(half_width), Q=q, Z=q)


def sample_inputs(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """n inputs u ~ Uniform[0,1]: the inputs `sample_dataset` draws with the
    same seed, without computing targets.  A Generator is drawn from in place."""
    if n < 1:
        raise SyntheticError(f"n must be >= 1, got {n}")
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=n)


def sample_dataset(
    problem: SyntheticProblem, n: int, noise: NoiseModel, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(u_j, v_j) pairs with u ~ Uniform[0,1] and v = G_rho(u) + eps."""
    rng = np.random.default_rng(seed)
    U = sample_inputs(n, rng)
    V = problem.target(U)
    if noise.half_width > 0:
        V = V + rng.uniform(-noise.half_width, noise.half_width, size=n)
    return U, V


def _feature_exponent(r: float, b: float) -> float:
    if r < 0.5:
        return 1.0 / (2.0 * r + b)
    if r <= 1.0:
        return (1.0 + b * (2.0 * r - 1.0)) / (2.0 * r + b)
    return 2.0 * r / (2.0 * r + b)


def rate_schedule(
    n: int,
    r: float,
    b: float,
    delta: float = 0.1,
    multipliers: ScheduleMultipliers = ScheduleMultipliers(),
) -> RateSchedule:
    """Theorem schedules: lambda_n = C n^(-1/(2r+b)) log^3(2/delta) clamped to
    (0, 1], M_n = p C~ log(n) n^e(r,b), T_n = round(1/lambda_n), and the burn-in
    n_0 = exp((2r+b)/(2r+b-1))."""
    if n < 1:
        raise SyntheticError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise SyntheticError("delta must be in (0, 1)")
    s = 2.0 * r + b
    if s <= 1.0:
        raise SyntheticError(f"2r + b must exceed 1, got {s}")
    lam = multipliers.C * n ** (-1.0 / s) * math.log(2.0 / delta) ** 3
    lam = min(lam, 1.0)
    m_n = max(1, math.ceil(multipliers.p * multipliers.M * math.log(n)
                           * n ** _feature_exponent(r, b)))
    n0 = math.exp(s / (s - 1.0))
    return RateSchedule(lambda_n=lam, T_n=max(1, round(1.0 / lam)), M_n=m_n,
                        n0=n0, meets_n0=n >= n0)


def fit_rate(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.size < 3:
        raise SyntheticError("need at least 3 points to fit a rate")
    if np.any(ns <= 0) or np.any(errors <= 0):
        raise SyntheticError("rate fitting requires positive sizes and errors")
    slope, _ = np.polyfit(np.log(ns), np.log(errors), 1)
    return float(slope)


def lm_eigenvalues(problem: SyntheticProblem, fs: FeatureSet) -> np.ndarray:
    """Spectrum of the sampled kernel operator L_M in the basis coordinates.

    The synthetic features are scaled basis functions, so L_M is diagonal with
    entries nu_i = d_max mu_i c_i / M where c_i counts how often index i was
    drawn."""
    idx = np.asarray(fs.samples, dtype=int)
    counts = np.bincount(idx, minlength=problem.d_max).astype(float)
    return problem.d_max * problem.spectrum.eigenvalues * counts / fs.M
