"""The random-feature spectral estimator and its gradient-descent twin.

fit_closed computes theta = phi_lambda(Sigma_hat) S_hat^* v from the normal
equations (Sigma_hat, S_hat^* v), which the design sums over chunks of its
rows without holding Z (`DesignMatrix.normal_equations`).  The Tikhonov
filter is the single inverse (Sigma_hat + lambda)^{-1}, so it takes one
linear solve (`spectral.tikhonov_solve`); the other filters take the
eigendecomposition of Sigma_hat.  fit_gd iterates

    theta_{t+1} = theta_t - alpha (Sigma_hat theta_t - S_hat^* v)

from zero, which is exactly the landweber filter at lambda = 1/(alpha T).

Every gradient-descent iterate lies in the range of Z^T (the identity
phi(A^*A) A^* = A^* phi(AA^*)): theta_t = Z^T c_t / n with

    c_{t+1} = c_t - alpha (G c_t - v),    G = (1/n) Z Z^T.

So the descent runs on whichever square operator is smaller: the primal
covariance Sigma_hat (M_distinct*p wide) when it is no wider than the n*d_v
rows, else the dual Gram matrix G, mapping c back to theta only at the
requested stopping times.  Both give the same iterates up to rounding.
Neither route holds Z: Sigma_hat is summed over chunks of its rows, G over
blocks of its columns, and theta = Z^T c / n comes from a second pass over
those column blocks (`DesignMatrix.gram`, `embed_adjoints`).  Each fit forms
its operator in one pass and owns it, leaving nothing on the design, and
each route reads "identically zero" off what its own pass formed (a zero
diagonal of Sigma_hat or G, or ||Z||_F = 0).

Each step is one np.matmul of the operator with the iterate, written into
work arrays reused for the whole descent; only the iterates at the stopping
times are copied out.  On the primal side that is the arithmetic of the
textbook iteration above, bit for bit.

A long trajectory takes the landweber filter in closed form instead of the
loop (`closed_forms`):

    operator width          steps T                          route
    >= LOW_RANK_MIN_WIDTH   >= LOW_RANK_MIN_STEPS            low-rank, if Z certifies
    >= LOW_RANK_MIN_WIDTH   >= width                         else eigh
    <  LOW_RANK_MIN_WIDTH   >= EIGH_STEPS_PER_COLUMN width   eigh
    any other                                                the loop

The low-rank form is a randomized range finder (Halko, Martinsson & Tropp
2011): a Gaussian test matrix of SKETCH_RANK = k columns, drawn from one fixed
seed, gives Z = Q B up to a residual from two passes over Z's column blocks
(`DesignMatrix.range_factor`).  Where ||Z - Q B||_F <= SKETCH_TOL ||Z||_F, as
for the NTK designs of a scalar input, every stop is

    theta_T = B^T U phi_T(Lambda) U^T w,   B B^T / n = U Lambda U^T,   w = Q^T v / n,

from the eigendecomposition of a k x k matrix, with no operator formed.  The
eigh form runs the same filter on the operator's own eigendecomposition
(np.linalg.eigh).  The routes agree to rounding; one route gives the same
bits for a stop whichever other stops share the trajectory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import features, spectral
from .features import DesignMatrix, FeatureSet
from .spectral import SpectralFilter

__all__ = [
    "RFModel",
    "RiskReport",
    "fit_closed",
    "fit_gd",
    "fit_gd_path",
    "predict_batch",
    "evaluate",
    "evaluate_path",
]


class EstimatorError(ValueError):
    pass


@dataclass(frozen=True)
class RFModel:
    """Fitted coefficients, the feature set they multiply and lambda.

    theta is indexed like the design's columns: one block of p coefficients
    per distinct omega draw of the feature set (`FeatureSet.distinct`), so it
    has length M_distinct * p, not M * p.  Predictions scale the rows as the
    design did, by the map's `scale`.
    """

    feature_set: FeatureSet
    theta: np.ndarray
    lam: float

    @property
    def M(self) -> int:
        return self.feature_set.M


@dataclass(frozen=True)
class RiskReport:
    empirical_risk: float
    excess_l2: float | None
    n_test: int


def _reject_degenerate(norm: float) -> None:
    """Rejects an identically zero design, told by a norm its fit has formed
    anyway: the largest diagonal entry of Sigma_hat or G (the largest squared
    column or row norm of Z, over n), or ||Z||_F.  A design whose squares
    all underflow to zero (every entry below about 1e-162) reads as zero too."""
    # all-zero designs indicate a broken feature pipeline, not a model to fit
    if norm == 0.0:
        raise EstimatorError("design matrix is identically zero")


def fit_closed(
    design: DesignMatrix,
    outputs: np.ndarray,
    filt: SpectralFilter,
    lam: float,
) -> RFModel:
    """Spectral estimator theta = phi_lambda(Sigma_hat) S_hat^* v.

    Sigma_hat and S_hat^* v come from one pass over the design's rows, into
    a Sigma_hat the fit owns.  The Tikhonov filter solves
    (Sigma_hat + lambda I) theta = S_hat^* v (`spectral.tikhonov_solve`),
    rejecting the designs whose spectrum the eigendecomposition would
    reject; the other filters apply phi_lambda through the eigendecomposition
    of Sigma_hat (`spectral.apply_filter`)."""
    if not 0.0 < lam <= 1.0:
        raise EstimatorError(f"lambda must be in (0, 1], got {lam}")
    cov, rhs = design.normal_equations(design.stack_outputs(outputs))
    _reject_degenerate(cov.diagonal().max())     # before the solve writes lambda there
    if filt.kind == "tikhonov":
        theta = spectral.tikhonov_solve(cov, lam, rhs)
    else:
        theta = spectral.apply_filter(filt, lam, cov, rhs)
    return RFModel(design.feature_set, theta, lam)


#: Columns k of the Gaussian test matrix of the low-rank route
#: (`_low_rank_descent`), drawn from SKETCH_SEED for every fit, so that the
#: bytes of a fit depend on its design alone.  At k = 40 every heatmap design
#: that takes the route certifies at 6e-16 to 1e-15 relative, at desk scale
#: (M = 128-512, n = 1000) and at paper scale (M up to 1518, n = 5000).
SKETCH_RANK = 40
SKETCH_SEED = 0
#: The largest relative residual ||Z - Q B||_F / ||Z||_F at which the
#: low-rank route is taken: about a hundred times the rounding of the
#: residual itself, which reads 5e-16 to 1e-15 on designs that Q captures.
SKETCH_TOL = 1e-13
#: The narrowest operator whose descent may take the low-rank route; a
#: wider one whose certificate fails takes eigh once the trajectory is at
#: least as long as the operator is wide (see `closed_forms`).
LOW_RANK_MIN_WIDTH = 384
#: The fewest steps that try the low-rank route.  Its two passes over Z cost
#: about 3 SKETCH_RANK products of Z with a vector, so a shorter trajectory
#: (the T = 32 of ntk-compare, the T = 34 of acceptance 4) stays on the loop.
LOW_RANK_MIN_STEPS = 2 * SKETCH_RANK
#: Below LOW_RANK_MIN_WIDTH, eigh of the operator replaces the loop from
#: this many steps per column.  Measured on one BLAS thread of a 2-vCPU VM,
#: numpy 2.4.6 (loop / eigh, ms, six stops):
#:
#:     width   T = 128        T = 512        T = 1024
#:        16   0.51 / 0.11    2.32 / 0.12    4.15 / 0.12
#:        48   0.54 / 0.31    2.15 / 0.37    4.32 / 0.32
#:        96   0.66 / 0.88    2.65 / 0.90    5.24 / 0.92
#:       192   0.95 / 3.53    3.71 / 3.56    7.84 / 3.93
#:       256   1.14 / 6.27    4.85 / 6.52    9.58 / 6.42
#:       320   1.53 / 10.5    6.18 / 10.1    11.7 / 10.2
#:
#: eigh wins from 1.1-3 steps per column, the most at the widest (at
#: 320-383 columns the two tie near three), so three keeps the gate on the
#: winning or tying side at every width.
EIGH_STEPS_PER_COLUMN = 3


def closed_forms(width: int, steps: int) -> tuple[str, ...]:
    """The closed forms that a trajectory of `steps` on an operator `width`
    wide tries, in order, before the dense loop: "low-rank"
    (`_low_rank_descent`, which may decline) and "eigh" (the operator's
    eigendecomposition)."""
    if width < LOW_RANK_MIN_WIDTH:
        return ("eigh",) if steps >= EIGH_STEPS_PER_COLUMN * width else ()
    return (("low-rank",) if steps >= LOW_RANK_MIN_STEPS else ()) + \
        (("eigh",) if steps >= width else ())


def _low_rank_descent(design: DesignMatrix, v: np.ndarray, alpha: float,
                      stops: list[int]) -> list[np.ndarray] | None:
    """The iterates of gradient descent at `stops` in closed form, or None
    where Z is not of numerically low rank.

    `design.range_factor` gives Z = Q B up to a residual, from two passes
    over Z's column blocks with a fixed Gaussian test matrix of SKETCH_RANK
    columns.  Where the residual is at most SKETCH_TOL ||Z||_F, Sigma_hat is
    B^T B / n up to the residual and S_hat^* v is B^T w, w = Q^T v / n.  The
    T-th iterate phi_T(Sigma_hat) S_hat^* v is then, by the identity
    phi(B^T B / n) B^T = B^T phi(B B^T / n),

        theta_T = B^T U phi_T(Lambda) U^T w,    B B^T / n = U Lambda U^T,

    with phi_T(lambda) = (1 - (1 - alpha lambda)^T) / lambda
    (`_landweber_iterates`): one eigh of a k x k matrix, no operator formed."""
    omega = np.random.default_rng(SKETCH_SEED).standard_normal(
        (design.shape[1], SKETCH_RANK))
    q, coef, residual, norm = design.range_factor(omega)
    _reject_degenerate(norm)
    if residual > SKETCH_TOL * norm:
        return None
    lam, vecs = np.linalg.eigh(coef @ coef.T / design.n)
    return [coef.T @ x for x in
            _landweber_iterates(vecs, lam, q.T @ v / design.n, alpha, stops)]


def _landweber_iterates(vecs: np.ndarray, lam: np.ndarray, target: np.ndarray,
                        alpha: float, stops: list[int]) -> list[np.ndarray]:
    """The iterates at `stops` of x <- x - alpha (A x - target) from x = 0,
    for A = V diag(lam) V^T given by a square orthonormal V = vecs:

        x_T = V phi_T(lam) V^T target.

    phi_T is the landweber filter (`spectral.landweber_values`).  Each stop
    is formed on its own, so its bits do not depend on the others."""
    proj = vecs.T @ target
    return [vecs @ (spectral.landweber_values(alpha, step, lam) * proj) for step in stops]


def _descend(design: DesignMatrix, outputs: np.ndarray, alpha: float,
             stops: list[int]) -> list[np.ndarray]:
    """Gradient descent from theta = 0 up to the last of the ascending
    iteration counts `stops`; returns the iterate at each stop.

    Iterates on cov() when dim <= rows, else on gram() in the dual
    coordinates c (theta = Z^T c / n), where the gradient G c - v is itself
    the residual Z theta - v.  The primal side takes Sigma_hat and S_hat^* v
    from one pass over the design's rows (`normal_equations`), the dual side
    G from one pass over its column blocks and the iterates at the stops
    from a second (`embed_adjoints`), so Z is never built.  Both operators
    are summed by in-place symmetric rank-k updates on one triangle, mirrored
    once, so they are exactly symmetric.

    A long trajectory takes a closed form (`closed_forms`): the low-rank one
    (`_low_rank_descent`), which forms no operator, where Z certifies as of
    low rank, else the landweber filter on the operator's eigendecomposition
    (np.linalg.eigh, `_landweber_iterates`).  Otherwise each step is
    x -= alpha (op @ x - target), in an iterate and a gradient allocated
    once per fit and updated in place, and the iterate is copied at each
    stop."""
    if not 0.0 < alpha <= 1.0:
        raise EstimatorError(f"step size must be in (0, 1], got {alpha}")
    v = design.stack_outputs(outputs)
    rows, dim = design.shape
    dual = dim > rows
    routes = closed_forms(rows if dual else dim, stops[-1])
    if "low-rank" in routes:
        snapshots = _low_rank_descent(design, v, alpha, stops)
        if snapshots is not None:
            return snapshots
    if dual:
        op, target = design.gram(), v
    else:
        op, target = design.normal_equations(v)
    _reject_degenerate(op.diagonal().max())
    if "eigh" in routes:
        lam, vecs = np.linalg.eigh(op)
        snapshots = _landweber_iterates(vecs, lam, target, alpha, stops)
    else:
        x = np.zeros_like(target)
        grad = np.empty_like(target)
        snapshots = []
        for step in range(1, stops[-1] + 1):
            np.matmul(op, x, out=grad)
            grad -= target
            grad *= alpha
            x -= grad
            while len(snapshots) < len(stops) and stops[len(snapshots)] == step:
                snapshots.append(x.copy())
    return design.embed_adjoints(snapshots) if dual else snapshots


def fit_gd(
    design: DesignMatrix,
    outputs: np.ndarray,
    alpha: float,
    n_steps: int,
) -> RFModel:
    """Gradient descent from theta = 0 on the empirical least-squares risk.

    Requires alpha in (0, 1] (the design contract keeps ||Sigma_hat|| <= 1).
    The recorded lambda is 1/(alpha * n_steps).  Runs on Sigma_hat or, when
    the design has more columns than rows, on the Gram matrix.  A long
    trajectory takes the closed form instead: on a certified low-rank factor
    of Z or on the operator's eigendecomposition (see `closed_forms`).
    """
    if n_steps < 1:
        raise EstimatorError(f"n_steps must be >= 1, got {n_steps}")
    theta, = _descend(design, outputs, alpha, [n_steps])
    return RFModel(design.feature_set, theta, 1.0 / (alpha * n_steps))


def fit_gd_path(
    design: DesignMatrix,
    outputs: np.ndarray,
    alpha: float,
    checkpoints,
) -> list[RFModel]:
    """One gradient-descent trajectory snapshotted at several stopping times.

    Returns a model per checkpoint (ascending iteration counts).  The route
    (see `_descend`) follows the last checkpoint, so a model's bytes equal
    those of fit_gd run to its count where both fits take one route, and
    agree with them to 1e-12 relative where they do not: a path that ends on
    a long trajectory forms its early checkpoints in closed form, which
    fit_gd to an early count runs on the dense loop.  In the dual
    (Gram) coordinates, theta is formed only at the checkpoints.
    """
    stops = sorted(int(t) for t in checkpoints)
    if not stops or stops[0] < 1:
        raise EstimatorError("checkpoints must be positive iteration counts")
    thetas = _descend(design, outputs, alpha, stops)
    return [RFModel(design.feature_set, theta, 1.0 / (alpha * step))
            for step, theta in zip(stops, thetas)]


def predict_batch(model: RFModel, U) -> np.ndarray:
    """Predictions (1/sqrt(M)) sum_{m,i} theta_mi phi_i(u, w_m) for a batch of
    inputs, scaled as the design's rows, shape (len(U), d_v), with the sum
    over M draws folded onto the distinct ones (`features.predict_values`)."""
    return features.predict_values(model.feature_set, model.theta, U)


def evaluate(model: RFModel, test_inputs, test_outputs, oracle=None) -> RiskReport:
    """`evaluate_path` of one model."""
    return evaluate_path([model], test_inputs, test_outputs, oracle)[0]


def evaluate_path(models: list[RFModel], test_inputs, test_outputs,
                  oracle=None) -> list[RiskReport]:
    """Empirical half-squared risk of each model on a test set, plus the
    excess L2 distance to the regression operator when an oracle evaluator
    is supplied.  The models share a feature set (one model, or those of one
    `fit_gd_path` trajectory), so the test inputs' feature rows are built
    once and multiply every model's coefficients together."""
    U = np.asarray(test_inputs, dtype=float)
    n_test = U.shape[0]
    if n_test == 0:
        raise EstimatorError("test set is empty")
    fs = models[0].feature_set
    preds = features.predict_values(fs, np.stack([m.theta for m in models], axis=1), U)
    v = np.asarray(test_outputs, dtype=float).reshape(n_test, fs.map.d_v)
    target = None if oracle is None else \
        np.asarray(oracle(U), dtype=float).reshape(n_test, fs.map.d_v)

    def mean_sq(pred, values):
        return float(np.mean(np.sum((pred - values) ** 2, axis=1) * fs.map.v_weight))

    return [RiskReport(0.5 * mean_sq(pred, v),
                       None if target is None else math.sqrt(mean_sq(pred, target)), n_test)
            for pred in np.moveaxis(preds, -1, 0)]
