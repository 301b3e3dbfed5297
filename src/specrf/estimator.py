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
covariance Sigma_hat (M_distinct*p wide) when it is cached already or no
wider than the n*d_v rows, else the dual Gram matrix G, mapping c back to
theta only at the requested stopping times.  Both give the same iterates up
to rounding.  Neither route holds Z: Sigma_hat is summed over chunks of its
rows, G over blocks of its columns, and theta = Z^T c / n comes from a second
pass over those column blocks (`DesignMatrix.gram`, `embed_adjoints`).

Either operator is exactly symmetric, so each step reads one triangle of it:
one BLAS dsymv on numpy's OpenBLAS (`runtime.symmetric_step`, np.matmul
where that symbol is missing), writing into work arrays reused for the whole
descent; only the iterates at the stopping times are copied out.

A long trajectory on an operator at least CLOSED_FORM_MIN_WIDTH wide takes
the landweber filter in closed form instead of the loop.  It first tries a
certified low-rank form: a randomized range finder (Halko, Martinsson & Tropp
2011) with a Gaussian test matrix of SKETCH_RANK columns, drawn from one fixed
seed, gives Z = Q B up to a residual from two passes over Z's column blocks
(`DesignMatrix.range_factor`).  Where ||Z - Q B||_F <= SKETCH_TOL ||Z||_F, as
for the NTK designs of a scalar input, the SVD of the k x width matrix B gives
Sigma_hat = V Lambda V^T and every stop is

    theta_T = V phi_T(Lambda) V^T r + alpha T (r - V V^T r),    r = S_hat^* v,

with no operator formed.  Where the certificate fails and the trajectory is at
least as long as the operator is wide, the same closed form runs on the
operator's eigendecomposition (np.linalg.eigh); a shorter one runs the loop.
The routes agree to rounding; one route gives the same bits for a stop
whichever other stops share the trajectory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import features, runtime, spectral
from .features import DesignMatrix, FeatureSet
from .spectral import SpectralFilter

__all__ = [
    "RFModel",
    "RiskReport",
    "fit_closed",
    "fit_gd",
    "fit_gd_path",
    "predict",
    "predict_batch",
    "evaluate",
    "evaluate_path",
]


class EstimatorError(ValueError):
    pass


@dataclass(frozen=True)
class RFModel:
    """Fitted coefficients plus the design metadata needed to predict.

    theta is indexed like the design's columns: one block of p coefficients
    per distinct omega draw of the feature set (`FeatureSet.distinct`), so it
    has length M_distinct * p, not M * p.
    """

    feature_set: FeatureSet
    theta: np.ndarray
    kappa_scale: float
    v_weight: float
    d_v: int
    filter_kind: str
    lam: float
    train_risks: np.ndarray | None = field(default=None, compare=False)
    summands: np.ndarray | None = field(default=None, compare=False)

    @property
    def M(self) -> int:
        return self.feature_set.M


@dataclass(frozen=True)
class RiskReport:
    empirical_risk: float
    excess_l2: float | None
    n_test: int


def _stacked_outputs(design: DesignMatrix, outputs: np.ndarray) -> np.ndarray:
    v = np.asarray(outputs, dtype=float)
    if v.ndim == 1 and v.shape[0] == design.n * design.d_v:
        return math.sqrt(design.v_weight) * v
    return design.stack_outputs(v)


def _reject_degenerate(design: DesignMatrix) -> None:
    # all-zero designs indicate a broken feature pipeline, not a model to fit
    if design.is_zero:
        raise EstimatorError("design matrix is identically zero")


def _model(design: DesignMatrix, theta: np.ndarray, filter_kind: str, lam: float,
           train_risks: np.ndarray | None = None) -> RFModel:
    return RFModel(
        feature_set=design.feature_set,
        theta=theta,
        kappa_scale=design.kappa_scale,
        v_weight=design.v_weight,
        d_v=design.d_v,
        filter_kind=filter_kind,
        lam=lam,
        train_risks=train_risks,
        summands=design.summands,
    )


def fit_closed(
    design: DesignMatrix,
    outputs: np.ndarray,
    filt: SpectralFilter,
    lam: float,
) -> RFModel:
    """Spectral estimator theta = phi_lambda(Sigma_hat) S_hat^* v.

    Sigma_hat and S_hat^* v come from one pass over the design's rows, into
    a Sigma_hat the fit owns and the design does not cache.  The Tikhonov
    filter solves (Sigma_hat + lambda I) theta = S_hat^* v
    (`spectral.tikhonov_solve`), rejecting the designs whose spectrum the
    eigendecomposition would reject; the other filters apply phi_lambda
    through the eigendecomposition of Sigma_hat (`spectral.apply_filter`)."""
    if not 0.0 < lam <= 1.0:
        raise EstimatorError(f"lambda must be in (0, 1], got {lam}")
    cov, rhs = design.normal_equations(_stacked_outputs(design, outputs), fresh=True)
    _reject_degenerate(design)
    if filt.kind == "tikhonov":
        theta = spectral.tikhonov_solve(cov, lam, rhs)
    else:
        theta = spectral.apply_filter(filt, lam, cov, rhs)
    return _model(design, theta, filt.kind, lam)


#: Columns k of the Gaussian test matrix of the low-rank route
#: (`_low_rank_descent`), drawn from SKETCH_SEED for every fit, so that the
#: bytes of a fit depend on its design alone.
SKETCH_RANK = 64
SKETCH_SEED = 0
#: The largest relative residual ||Z - Q B||_F / ||Z||_F at which the
#: low-rank route is taken: about a hundred times the rounding of the
#: residual itself, which reads 5e-16 to 8e-16 on designs that Q captures.
SKETCH_TOL = 1e-13
#: The narrowest operator whose descent may take a closed form (see
#: `_descend`).  Below it the loop is cheap: at width 192 and T = 1024 it
#: takes 18 ms on one BLAS thread, against 14 ms (low-rank) and 9 ms (eigh).
CLOSED_FORM_MIN_WIDTH = 384
#: The fewest steps that try the low-rank route.  Its two passes over Z cost
#: about 3 SKETCH_RANK products of Z with a vector.  Measured on one BLAS
#: thread on the heatmap designs 1000 x 768 and 1000 x 1536, the route ties
#: the loop at 32-64 steps and takes 0.57-0.67 of its time at 128, so a
#: shorter trajectory (the T = 32 of ntk-compare) stays on the loop.
LOW_RANK_MIN_STEPS = 2 * SKETCH_RANK


def _low_rank_descent(design: DesignMatrix, v: np.ndarray, alpha: float,
                      stops: list[int]) -> list[np.ndarray] | None:
    """The iterates of gradient descent at `stops` in closed form, or None
    where Z is not of numerically low rank.

    `design.range_factor` gives Z = Q B up to a residual, from two passes
    over Z's column blocks with a fixed Gaussian test matrix of SKETCH_RANK
    columns.  Where the residual is at most SKETCH_TOL ||Z||_F, the SVD
    B = U S V^T gives Sigma_hat = V Lambda V^T, Lambda = S^2 / n, up to the
    residual, and the T-th iterate is the landweber filter of Sigma_hat
    applied to r = S_hat^* v:

        theta_T = V phi_T(Lambda) V^T r + alpha T (r - V V^T r),

    with phi_T(lambda) = (1 - (1 - alpha lambda)^T) / lambda
    (`_landweber_iterates`).  No operator is formed."""
    omega = np.random.default_rng(SKETCH_SEED).standard_normal(
        (design.shape[1], SKETCH_RANK))
    coef, rhs, residual, norm = design.range_factor(v, omega)
    _reject_degenerate(design)
    if residual > SKETCH_TOL * norm:
        return None
    _, s, vt = np.linalg.svd(coef, full_matrices=False)
    return _landweber_iterates(vt, s * s / design.n, rhs, alpha, stops)


def _landweber_iterates(vt: np.ndarray, lam: np.ndarray, target: np.ndarray,
                        alpha: float, stops: list[int]) -> list[np.ndarray]:
    """The iterates at `stops` of x <- x - alpha (A x - target) from x = 0,
    for A = V diag(lam) V^T given by the orthonormal rows vt = V^T:

        x_T = V phi_T(lam) V^T target + alpha T (target - V V^T target).

    phi_T is the landweber filter (`spectral.landweber_values`); the second
    term is the part of the target outside the range of V, where A is zero
    and each step adds alpha times it.  Each stop is formed on its own, so
    its bits do not depend on the others."""
    proj = vt @ target
    null = target - vt.T @ proj
    return [vt.T @ (spectral.landweber_values(alpha, step, lam) * proj) + (alpha * step) * null
            for step in stops]


def _descend(design: DesignMatrix, outputs: np.ndarray, alpha: float, stops: list[int],
             track_risk: bool = False) -> tuple[list[np.ndarray], list[float]]:
    """Gradient descent from theta = 0 up to the last of the ascending
    iteration counts `stops`.  Returns the iterate at each stop and, with
    `track_risk`, the empirical risk before the first step and after each.

    Iterates on cov() when it is cached or dim <= rows, else on gram() in the
    dual coordinates c (theta = Z^T c / n), where the gradient G c - v is
    itself the residual Z theta - v.  The primal side takes Sigma_hat and
    S_hat^* v from one pass over the design's rows (`normal_equations`), the
    dual side G from one pass over its column blocks and the iterates at the
    stops from a second (`embed_adjoints`), so Z is built only to track the
    primal risk.  Both operators are summed by in-place symmetric rank-k
    updates on one triangle, mirrored once, so they are exactly symmetric.

    Without `track_risk`, a trajectory of at least LOW_RANK_MIN_STEPS on an
    operator at least CLOSED_FORM_MIN_WIDTH wide first tries the low-rank
    closed form (`_low_rank_descent`), which forms no operator.  Where the
    certificate fails and the trajectory is at least as long as the operator
    is wide, every stop is the same closed form on the operator's
    eigendecomposition (np.linalg.eigh, `_landweber_iterates`).  Otherwise
    each step is one symmetric matrix-vector product reading one triangle
    (`runtime.symmetric_step`), into an iterate and a gradient allocated once
    per fit and updated in place, and the iterate is copied at each stop."""
    if not 0.0 < alpha <= 1.0:
        raise EstimatorError(f"step size must be in (0, 1], got {alpha}")
    v = _stacked_outputs(design, outputs)
    rows, dim = design.shape
    dual = not (design.cov_cached or dim <= rows)
    width = rows if dual else dim
    closed = not track_risk and width >= CLOSED_FORM_MIN_WIDTH
    if closed and stops[-1] >= LOW_RANK_MIN_STEPS:
        snapshots = _low_rank_descent(design, v, alpha, stops)
        if snapshots is not None:
            return snapshots, []
    if dual:
        op, target = design.gram(), v
    else:
        op, target = design.normal_equations(v)
    _reject_degenerate(design)
    risks = []
    if closed and stops[-1] >= width:
        lam, vecs = np.linalg.eigh(op)
        snapshots = _landweber_iterates(vecs.T, lam, target, alpha, stops)
    else:
        def risk(resid: np.ndarray) -> float:
            return 0.5 * float(resid @ resid) / design.n

        x = np.zeros_like(target)
        grad = np.empty_like(target)
        gradient = runtime.symmetric_step(op, x, target, grad)   # grad = op @ x - target
        snapshots = []
        for step in range(1, stops[-1] + 1):
            gradient()
            if track_risk:
                risks.append(risk(grad if dual else design.Z @ x - v))
            grad *= alpha
            x -= grad
            while len(snapshots) < len(stops) and stops[len(snapshots)] == step:
                snapshots.append(x.copy())
        if track_risk:
            risks.append(risk(op @ x - v if dual else design.Z @ x - v))
    if dual:
        snapshots = design.embed_adjoints(snapshots)
    return snapshots, risks


def fit_gd(
    design: DesignMatrix,
    outputs: np.ndarray,
    alpha: float,
    n_steps: int,
    track_risk: bool = False,
) -> RFModel:
    """Gradient descent from theta = 0 on the empirical least-squares risk.

    Requires alpha in (0, 1] (the design contract keeps ||Sigma_hat|| <= 1).
    The recorded lambda is 1/(alpha * n_steps).  Runs on Sigma_hat or, when
    the design has more columns than rows and no cached covariance, on the
    Gram matrix.  A long trajectory on a wide operator takes the closed form
    instead: on a certified low-rank factor of Z, or, where the certificate
    fails and n_steps is at least the operator's width, on the operator's
    eigendecomposition (see `_descend`).  With `track_risk` the model's
    train_risks holds the empirical risk at each of the n_steps + 1 iterates.
    """
    if n_steps < 1:
        raise EstimatorError(f"n_steps must be >= 1, got {n_steps}")
    (theta,), risks = _descend(design, outputs, alpha, [n_steps], track_risk)
    return _model(design, theta, "landweber", 1.0 / (alpha * n_steps),
                  np.asarray(risks) if track_risk else None)


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
    thetas, _ = _descend(design, outputs, alpha, stops)
    return [_model(design, theta, "landweber", 1.0 / (alpha * step))
            for step, theta in zip(stops, thetas)]


def predict(model: RFModel, u) -> np.ndarray:
    """Prediction (1/sqrt(M)) sum_{m,i} theta_mi phi_i(u, w_m), kappa-consistent,
    with the sum over M draws folded onto the distinct ones."""
    return predict_batch(model, np.asarray(u, dtype=float)[None, ...])[0]


def predict_batch(model: RFModel, U, chunk: int | None = None) -> np.ndarray:
    """Predictions for a batch of inputs, shape (len(U), d_v); `chunk` as for
    `features.predict_values`."""
    return features.predict_values(model.feature_set, model.theta, U,
                                   model.kappa_scale, model.summands, chunk)


def _test_inputs(test_inputs) -> np.ndarray:
    U = np.asarray(test_inputs, dtype=float)
    if U.shape[0] == 0:
        raise EstimatorError("test set is empty")
    return U


def _report(model: RFModel, preds: np.ndarray, U: np.ndarray, test_outputs,
            oracle=None) -> RiskReport:
    n_test = U.shape[0]
    v = np.asarray(test_outputs, dtype=float).reshape(n_test, model.d_v)
    sq = np.sum((preds - v) ** 2, axis=1) * model.v_weight
    empirical = 0.5 * float(np.mean(sq))
    excess = None
    if oracle is not None:
        target = np.asarray(oracle(U), dtype=float).reshape(n_test, model.d_v)
        sq_exc = np.sum((preds - target) ** 2, axis=1) * model.v_weight
        excess = float(math.sqrt(np.mean(sq_exc)))
    return RiskReport(empirical_risk=empirical, excess_l2=excess, n_test=n_test)


def evaluate(model: RFModel, test_inputs, test_outputs, oracle=None) -> RiskReport:
    """Empirical half-squared risk on a test set, plus the excess L2 distance
    to the regression operator when an oracle evaluator is supplied."""
    U = _test_inputs(test_inputs)
    return _report(model, predict_batch(model, U), U, test_outputs, oracle)


def evaluate_path(models: list[RFModel], test_inputs, test_outputs) -> list[RiskReport]:
    """`evaluate` for each model of one `fit_gd_path` trajectory.  The models
    share a feature set, so the test inputs' feature rows are built once and
    multiply every checkpoint's coefficients together."""
    first = models[0]
    U = _test_inputs(test_inputs)
    thetas = np.stack([m.theta for m in models], axis=1)
    preds = features.predict_values(first.feature_set, thetas, U, first.kappa_scale,
                                    first.summands)
    return [_report(model, preds[..., k], U, test_outputs)
            for k, model in enumerate(models)]
