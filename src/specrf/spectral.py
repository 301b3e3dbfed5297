"""Spectral regularization filters and matrix-function application.

A filter family phi_lambda maps the spectrum of a positive semidefinite
operator to estimator coefficients.  The three classical instances are

  tikhonov:   phi_lambda(t) = 1 / (t + lambda)
  landweber:  phi_lambda(t) = alpha * sum_{i<T} (1 - alpha*t)^i,  lambda = 1/(alpha*T)
  cutoff:     phi_lambda(t) = 1/t if t >= lambda else 0

together with the residual r_lambda(t) = 1 - t*phi_lambda(t).  Every filter
has the certified constants D = E = c0 = 1 (FILTER_D, FILTER_E, FILTER_C0)
and carries a qualification nu with constants c_q; `verify_filter_constants`
checks all of them empirically on grids.

All filters assume the operator spectrum has been rescaled into [0, 1]
(the design-matrix builder in `features` guarantees this).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SpectralFilter",
    "EigenSystem",
    "tikhonov",
    "landweber",
    "cutoff",
    "filter_value",
    "landweber_values",
    "residual_value",
    "apply_filter",
    "tikhonov_solve",
    "verify_filter_constants",
    "eigensystem",
]

#: eigenvalues below -NEG_EIG_TOL are rejected, above 1 + POS_EIG_TOL likewise
NEG_EIG_TOL = 1e-10
POS_EIG_TOL = 1e-9
#: `eigensystem` rejects max |a - a^T| above SYM_TOL max(1, max |a|)
SYM_TOL = 1e-10
#: landweber iteration count 1/(alpha*lambda) must be integral to this tolerance
SCHEDULE_TOL = 1e-9
#: the constants every filter is certified for: sup_t |t phi_lambda(t)| <= D,
#: sup_t |phi_lambda(t)| lambda <= E and sup_t |r_lambda(t)| <= c0
FILTER_D = FILTER_E = FILTER_C0 = 1.0


class FilterDomainError(ValueError):
    """Argument outside the filter's domain (t or lambda nonpositive, bad matrix)."""


class ScheduleError(ValueError):
    """Landweber lambda does not correspond to an integer iteration count."""


@dataclass(frozen=True)
class SpectralFilter:
    """A regularization family, "tikhonov", "landweber" or "cutoff", and its
    step size alpha in (0, 1] (landweber only).  The kind fixes the
    qualification nu and the constants c_q; D, E and c0 are the module
    constants FILTER_D, FILTER_E, FILTER_C0."""

    kind: str
    step_size: float = 1.0

    @property
    def qualification(self) -> float:
        """nu: 1 for tikhonov, unbounded for landweber and cutoff."""
        return 1.0 if self.kind == "tikhonov" else math.inf

    def c_q(self, q: float) -> float:
        """(q/alpha)^q for landweber at q > 0, else 1."""
        if self.kind == "landweber" and q > 0.0:
            return (q / self.step_size) ** q
        return 1.0


def tikhonov() -> SpectralFilter:
    """Tikhonov filter: qualification 1, all constants equal to 1."""
    return SpectralFilter(kind="tikhonov")


def landweber(step_size: float = 1.0) -> SpectralFilter:
    """Landweber (gradient descent) filter with step alpha = `step_size`.

    Unbounded qualification with c_q = (q/alpha)^q, c_0 = 1.  The recorded
    lambda of a T-step run is 1/(alpha*T).
    """
    if not 0.0 < step_size <= 1.0:
        raise FilterDomainError(f"landweber step size must be in (0, 1], got {step_size}")
    return SpectralFilter(kind="landweber", step_size=float(step_size))


def cutoff() -> SpectralFilter:
    """Spectral cutoff (truncated inversion): unbounded qualification, c_q = 1."""
    return SpectralFilter(kind="cutoff")


def _landweber_steps(filt: SpectralFilter, lam: float) -> int:
    raw = 1.0 / (filt.step_size * lam)
    steps = round(raw)
    if steps < 1 or abs(raw - steps) > SCHEDULE_TOL * max(1.0, raw):
        raise ScheduleError(
            f"landweber lambda={lam} gives 1/(alpha*lambda)={raw}, not an integer"
        )
    return steps


def landweber_values(alpha: float, steps: int, t: np.ndarray) -> np.ndarray:
    """The landweber filter of `steps` steps of size alpha over nonnegative t:
    alpha sum_{i<T} (1 - alpha t)^i = (1 - (1 - alpha t)^T) / t, alpha T at
    t = 0.  Below alpha t = 1 it is -expm1(T log1p(-alpha t)) / t, which
    keeps its digits when alpha t << 1/T, where the power form cancels."""
    t = np.asarray(t, dtype=float)
    out = np.full_like(t, alpha * steps)
    at = alpha * t
    small = (t != 0.0) & (at < 1.0)
    out[small] = -np.expm1(steps * np.log1p(-at[small])) / t[small]
    big = at >= 1.0
    out[big] = (1.0 - (1.0 - at[big]) ** steps) / t[big]
    return out


def _phi_array(filt: SpectralFilter, lam: float, t: np.ndarray) -> np.ndarray:
    """Vectorized phi_lambda over nonnegative t.

    phi at t=0 is the right limit: 1/lambda for tikhonov, alpha*T = 1/lambda
    for landweber (polynomial value at 0), 0 for cutoff.  Values of t above 1
    are evaluated by the same formulas; the filter axioms are only certified
    on (0, 1].
    """
    t = np.asarray(t, dtype=float)
    if filt.kind == "tikhonov":
        return 1.0 / (t + lam)
    if filt.kind == "landweber":
        return landweber_values(filt.step_size, _landweber_steps(filt, lam), t)
    if filt.kind == "cutoff":
        out = np.zeros_like(t)
        keep = t >= lam
        out[keep] = 1.0 / t[keep]
        return out
    raise FilterDomainError(f"unknown filter kind {filt.kind!r}")


def _check_scalar_args(lam: float, t: float) -> None:
    if not lam > 0.0:
        raise FilterDomainError(f"lambda must be positive, got {lam}")
    if lam > 1.0:
        raise FilterDomainError(f"lambda must be <= 1, got {lam}")
    if not t > 0.0:
        raise FilterDomainError(f"t must be positive, got {t}")


def filter_value(filt: SpectralFilter, lam: float, t: float) -> float:
    """Evaluate phi_lambda(t) for scalar t in (0, 1]."""
    _check_scalar_args(lam, t)
    return float(_phi_array(filt, lam, np.asarray([t]))[0])


def residual_value(filt: SpectralFilter, lam: float, t: float) -> float:
    """Evaluate r_lambda(t) = 1 - t*phi_lambda(t).

    For landweber the closed form (1 - alpha t)^T is used, which is exact.
    """
    _check_scalar_args(lam, t)
    if filt.kind == "landweber":
        steps = _landweber_steps(filt, lam)
        return float((1.0 - filt.step_size * t) ** steps)
    if filt.kind == "cutoff":
        return 0.0 if t >= lam else 1.0
    return 1.0 - t * filter_value(filt, lam, t)


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a symmetric PSD matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns are eigenvectors

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def eigensystem(a: np.ndarray) -> EigenSystem:
    """Symmetric eigendecomposition with the symmetry precondition enforced."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FilterDomainError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > SYM_TOL * scale:
        raise FilterDomainError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return EigenSystem(eigenvalues=vals[order], eigenvectors=vecs[:, order])


def _clamped_spectrum(vals: np.ndarray) -> np.ndarray:
    """Clamp round-off eigenvalues into [0, 1]; out-of-contract values raise."""
    if np.any(vals < -NEG_EIG_TOL):
        raise FilterDomainError(
            f"matrix has negative eigenvalue {vals.min():.3e} beyond tolerance"
        )
    if np.any(vals > 1.0 + POS_EIG_TOL):
        raise FilterDomainError(
            f"matrix has eigenvalue {vals.max():.6f} above 1; rescale the design"
        )
    return np.clip(vals, 0.0, 1.0)


def apply_filter(
    filt: SpectralFilter,
    lam: float,
    a: np.ndarray | EigenSystem,
    b: np.ndarray,
) -> np.ndarray:
    """Compute phi_lambda(A) @ b for symmetric PSD A with spectrum in [0, 1].

    `a` may be a precomputed EigenSystem, which lets callers sweep lambda
    without re-decomposing.  `b` may be a vector or a matrix of stacked
    right-hand sides.
    """
    if not 0.0 < lam <= 1.0:
        raise FilterDomainError(f"lambda must be in (0, 1], got {lam}")
    eig = a if isinstance(a, EigenSystem) else eigensystem(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.shape[0] != eig.eigenvectors.shape[0]:
        raise FilterDomainError(
            f"dimension mismatch: A is {eig.eigenvectors.shape[0]}, b has {b.shape[0]} rows"
        )
    vals = _clamped_spectrum(eig.eigenvalues)
    phi = _phi_array(filt, lam, vals)
    v = eig.eigenvectors
    proj = v.T @ b
    if b.ndim == 1:
        return v @ (phi * proj)
    return v @ (phi[:, None] * proj)


def tikhonov_solve(a: np.ndarray, lam: float, b: np.ndarray) -> np.ndarray:
    """phi_lambda(A) @ b = (A + lambda I)^{-1} b for the Tikhonov filter, by
    one linear solve instead of an eigendecomposition.

    `a` must be a C-contiguous float64 square array, exactly symmetric, that
    the caller owns: its diagonal is overwritten.  A is held to the contract
    of `apply_filter`, with the same FilterDomainError: a spectrum reaching
    below -NEG_EIG_TOL or above 1 + POS_EIG_TOL is rejected.  The top is
    certified by the largest absolute row sum (a Gershgorin bound), the
    bottom by a Cholesky factorization of A + NEG_EIG_TOL I; only where one
    of them fails are the eigenvalues computed, and they decide.  The result
    equals apply_filter's up to rounding and to its clamping of round-off
    eigenvalues into [0, 1].
    """
    if not 0.0 < lam <= 1.0:
        raise FilterDomainError(f"lambda must be in (0, 1], got {lam}")
    d = a.shape[0]
    if a.dtype != np.float64 or a.shape != (d, d) or not a.flags.c_contiguous:
        raise FilterDomainError("tikhonov_solve needs a C-contiguous float64 square matrix")
    if b.shape[0] != d:
        raise FilterDomainError(f"dimension mismatch: A is {d}, b has {b.shape[0]} rows")
    diagonal = a.reshape(-1)[::d + 1]          # a view: writes go into a
    base = diagonal.copy()
    certified = float(np.max(np.sum(np.abs(a), axis=1))) <= 1.0 + POS_EIG_TOL
    if certified:
        np.add(base, NEG_EIG_TOL, out=diagonal)
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            certified = False
        diagonal[:] = base
    if not certified:
        _clamped_spectrum(np.linalg.eigvalsh(a))
    np.add(base, lam, out=diagonal)
    return np.linalg.solve(a, b)


#: relative slack absorbing float round-off in the empirical suprema
_VERIFY_SLACK = 1e-9


def verify_filter_constants(
    filt: SpectralFilter,
    t_grid: Sequence[float],
    lam_grid: Sequence[float],
    q_grid: Sequence[float],
) -> list[dict]:
    """Check the filter axioms and qualification on finite grids.

    Returns one row per lambda, ascending: the empirical suprema
    sup_t |t phi_lambda(t)| (bound FILTER_D), sup_t |phi_lambda(t)| lambda
    (FILTER_E), sup_t |r_lambda(t)| (FILTER_C0) and
    max_q sup_t |r(t)| t^q / (c_q lambda^q) (bound 1), each with a flag set
    where it exceeds its bound.  Grids must lie in (0, 1]; q_grid must lie
    in [0, nu].
    """
    t = np.asarray(sorted(t_grid), dtype=float)
    lams = np.asarray(sorted(lam_grid), dtype=float)
    qs = np.asarray(sorted(q_grid), dtype=float)
    for name, grid in (("t_grid", t), ("lambda_grid", lams)):
        if grid.size == 0:
            raise FilterDomainError(f"{name} is empty")
        if grid.min() <= 0.0 or grid.max() > 1.0:
            raise FilterDomainError(f"{name} must lie in (0, 1]")
    if qs.size and (qs.min() < 0.0 or qs.max() > filt.qualification):
        raise FilterDomainError("q_grid must lie in [0, qualification]")

    def flag(sup: float, bound: float) -> int:
        return int(sup > bound * (1.0 + _VERIFY_SLACK))

    rows = []
    for lam in lams:
        phi = _phi_array(filt, float(lam), t)
        res = np.abs(1.0 - t * phi)
        sup_t_phi = float(np.max(np.abs(t * phi)))
        sup_phi_lam = float(np.max(np.abs(phi)) * lam)
        sup_res = float(np.max(res))
        worst_q = max((float(np.max(res * t ** q) / (filt.c_q(float(q)) * lam ** q))
                       for q in qs), default=0.0)
        rows.append({
            "kind": filt.kind, "lambda": float(lam), "sup_t_phi": sup_t_phi,
            "sup_phi_lam": sup_phi_lam, "sup_residual": sup_res,
            "worst_q_ratio": worst_q,
            "d_flag": flag(sup_t_phi, FILTER_D), "e_flag": flag(sup_phi_lam, FILTER_E),
            "c0_flag": flag(sup_res, FILTER_C0), "cq_flag": flag(worst_q, 1.0),
        })
    return rows


def landweber_lambda_grid(step_size: float, max_steps: int) -> np.ndarray:
    """Valid landweber lambdas 1/(alpha*T) for T = T_min..max_steps within (0, 1]."""
    alpha = float(step_size)
    t_min = max(1, math.ceil(1.0 / alpha - SCHEDULE_TOL))
    steps = np.arange(t_min, max(t_min, max_steps) + 1)
    return 1.0 / (alpha * steps)
