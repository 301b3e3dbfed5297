"""Shallow neural operator: symmetric initialization, gradient descent
training over first/second-stage samples, empirical NTK extraction, and the
width sweep comparing the trained operator with kernel gradient descent in
its tangent feature space.

The operator is G_theta(u)(x) = (1/sqrt(M)) <a, sigma(B J(u)(x))> with
J(u)(x) = (A(u)(x), u(x), c(x)) shared with `features.OperatorArchitecture`.
Symmetric initialization pairs output weights +tau/-tau with duplicated input
weights so that G_theta0 is identically zero.  Training runs one forward pass
per gradient step: the step's risk and both gradients come from that pass.
Both the step and `forward` go over the n * n_X (input, grid point) pairs in
blocks whose (pairs, M) preactivations fit in runtime.BLOCK_BYTES
(`_row_blocks`), so the work arrays stay that size at any width or batch, and
a step's risk equals `_risk` bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import estimator, features, runtime
from .features import FeatureSet, OperatorArchitecture

__all__ = [
    "ShallowNO",
    "TrainRecord",
    "init_symmetric",
    "forward",
    "train_gd",
    "empirical_ntk",
    "tangent_feature_set",
    "compare_cell",
    "compare_to_kernel_gd",
]


class NeuralOpError(ValueError):
    pass


@dataclass(frozen=True)
class ShallowNO:
    arch: OperatorArchitecture
    a: np.ndarray              # (M,) output weights
    B: np.ndarray              # (M, d_tilde) input weights
    tau: float

    @property
    def M(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class TrainRecord:
    """Per-iteration empirical risk and parameter drift ||theta_t - theta_0||."""

    risks: np.ndarray          # (T+1,)
    drifts: np.ndarray         # (T+1,)
    model: ShallowNO = field(compare=False)

    @property
    def final_risk(self) -> float:
        return float(self.risks[-1])

    @property
    def drift_budget(self) -> float:
        return float(self.drifts.max())


def init_symmetric(
    arch: OperatorArchitecture, M: int, tau: float, seed: int
) -> ShallowNO:
    """Paired +-tau output weights with duplicated input rows; forward == 0."""
    if M % 2 != 0 or M < 2:
        raise NeuralOpError(f"width must be even and >= 2, got {M}")
    rng = np.random.default_rng(seed)
    half = rng.normal(size=(M // 2, arch.d_tilde))
    B = np.vstack([half, half])
    a = np.concatenate([np.full(M // 2, tau), np.full(M // 2, -tau)])
    return ShallowNO(arch=arch, a=a, B=B, tau=float(tau))


def _work_array(no: ShallowNO, pairs: int) -> np.ndarray:
    """A (rows, M) work array for `_row_blocks`: as many of the `pairs`
    (input, grid point) pairs as fit in runtime.BLOCK_BYTES, at least one."""
    return np.empty((min(pairs, runtime.per_block(8 * no.M)), no.M))


def _row_blocks(no: ShallowNO, J: np.ndarray, z: np.ndarray):
    """(rows, preactivations) for each block of the (input, grid point) pairs
    of J (n, n_X, d_tilde): `rows` a slice of the n * n_X pairs and their
    preactivations <b_m, J(u)(x)>, written into the work array z."""
    pairs = J.reshape(-1, J.shape[2])
    for lo in range(0, pairs.shape[0], z.shape[0]):
        hi = min(lo + z.shape[0], pairs.shape[0])
        block = z[:hi - lo]
        np.matmul(pairs[lo:hi], no.B.T, out=block)
        yield slice(lo, hi), block


def forward(no: ShallowNO, u) -> np.ndarray:
    """G_theta(u) on the grid; single input -> (n_X,), batch -> (n, n_X)."""
    arr = np.asarray(u, dtype=float)
    single = arr.ndim < 2 or (arr.ndim == 2 and arr.shape == (no.arch.n_x, no.arch.d_y))
    J = no.arch.j_features(arr[None, ...] if single else arr)
    out = np.empty(J.shape[:2])
    flat = out.reshape(-1)
    for rows, z in _row_blocks(no, J, _work_array(no, flat.size)):
        np.matmul(no.arch.activation.f(z, out=z), no.a, out=flat[rows])
    out /= math.sqrt(no.M)
    return out[0] if single else out


def _half_mean_square(resid: np.ndarray) -> float:
    return 0.5 * float(np.mean(np.mean(resid ** 2, axis=1)))


def _risk(no: ShallowNO, U: np.ndarray, V: np.ndarray) -> float:
    return _half_mean_square(forward(no, U) - V)


def _step_buffers(no: ShallowNO, U: np.ndarray):
    """(J, z, s) for `_risk_and_gradients`: J(U) and two work arrays of one
    row block each (`_work_array`), allocated once and reused by every step
    of a training run."""
    J = no.arch.j_features(U)
    pairs = J.shape[0] * J.shape[1]
    return J, _work_array(no, pairs), _work_array(no, pairs)


def _risk_and_gradients(no: ShallowNO, U: np.ndarray, V: np.ndarray, buffers=None):
    """Empirical risk (equal to `_risk`) and its full-batch gradients dE/da_m
    and dE/dB_mj with the grid-mean inner product, all from one forward pass
    over the row blocks of `forward`.  Per block, z takes the preactivations,
    then sigma'(z) weighted by the residual, and s takes sigma(z); both
    gradients are summed over the blocks.  `buffers` come from
    `_step_buffers(no, U)`."""
    J, z, s = _step_buffers(no, U) if buffers is None else buffers
    n, n_x, d_tilde = J.shape
    pairs, targets = J.reshape(-1, d_tilde), np.asarray(V).reshape(-1)
    resid = np.empty(n * n_x)
    grad_a, grad_b = np.zeros(no.M), np.zeros((no.M, d_tilde))
    root_m = math.sqrt(no.M)
    for rows, zb in _row_blocks(no, J, z):
        sb, ds = no.arch.activation.f_and_df(zb, out=(s[:zb.shape[0]], zb))
        r = resid[rows]
        np.matmul(sb, no.a, out=r)                   # as in forward
        r /= root_m
        r -= targets[rows]
        grad_a += r @ sb
        ds *= r[:, None]
        grad_b += ds.T @ pairs[rows]
    scale = 1.0 / (n * n_x * root_m)
    grad_a *= scale
    grad_b *= scale * no.a[:, None]
    return _half_mean_square(resid.reshape(n, n_x)), grad_a, grad_b


def train_gd(
    no: ShallowNO,
    inputs,
    outputs,
    alpha: float,
    n_steps: int,
    train_b: bool = True,
) -> TrainRecord:
    """Full-batch gradient descent on the empirical loss over first-stage
    samples evaluated at the second-stage grid points; the input weights B
    stay at initialization unless `train_b`."""
    if alpha <= 0:
        raise NeuralOpError(f"step size must be positive, got {alpha}")
    U = no.arch.coerce_inputs(inputs)
    V = np.asarray(outputs, dtype=float).reshape(U.shape[0], no.arch.n_x)
    if U.shape[0] == 0:
        raise NeuralOpError("dataset is empty")

    a0, b0 = no.a.copy(), no.B.copy()
    buffers = _step_buffers(no, U)
    cur = no
    risks = []
    drifts = [0.0]
    for _ in range(n_steps):
        risk, grad_a, grad_b = _risk_and_gradients(cur, U, V, buffers)
        risks.append(risk)
        new_b = cur.B - alpha * grad_b if train_b else cur.B
        cur = replace(cur, a=cur.a - alpha * grad_a, B=new_b)
        drifts.append(
            math.sqrt(
                float(np.sum((cur.a - a0) ** 2)) + float(np.sum((cur.B - b0) ** 2))
            )
        )
    risks.append(_risk(cur, U, V))
    return TrainRecord(risks=np.asarray(risks), drifts=np.asarray(drifts), model=cur)


def empirical_ntk(no: ShallowNO, u, u2) -> np.ndarray:
    """NTK at initialization-scale weights, evaluated on the grid:
    (1/M) [sum_m psi_m(u) x psi_m(u2) + sum_{m,j} psi'_{m,j}(u) x psi'_{m,j}(u2)]."""
    act = no.arch.activation
    J1, z1 = no.arch.preactivations(np.asarray(u)[None, ...], no.B)
    J2, z2 = no.arch.preactivations(np.asarray(u2)[None, ...], no.B)
    psi1, d1 = act.f_and_df(z1[0])                  # (n_X, M) each
    psi2, d2 = act.f_and_df(z2[0])
    k = psi1 @ psi2.T
    # psi' part factorizes over m and j: (sum_m d1 d2) * (sum_j J1 J2)
    k = k + (d1 @ d2.T) * (J1[0] @ J2[0].T)
    return k / no.M


def tangent_feature_set(no: ShallowNO, deriv_scale: float | None = None) -> FeatureSet:
    """The NTK feature map frozen at this model's weights.

    deriv_scale defaults to |tau|, matching the magnitude of the output
    weights that multiply the psi' block of the parameter gradient.
    """
    scale = abs(no.tau) if deriv_scale is None else deriv_scale
    fmap = features.ntk_feature_map(no.arch, deriv_scale=scale)
    return FeatureSet(fmap, no.B.copy())


def compare_cell(
    arch: OperatorArchitecture,
    train_inputs,
    train_outputs,
    test_inputs,
    width: int,
    seed: int,
    alpha: float,
    n_steps: int,
    tau: float = 1.0,
    train_b: bool = True,
) -> dict:
    """One (width, seed) row of `compare_to_kernel_gd`."""
    U_tr = arch.coerce_inputs(train_inputs)
    V_tr = np.asarray(train_outputs, dtype=float).reshape(U_tr.shape[0], arch.n_x)
    U_te = arch.coerce_inputs(test_inputs)
    no0 = init_symmetric(arch, width, tau, seed)
    record = train_gd(no0, U_tr, V_tr, alpha, n_steps, train_b=train_b)
    no_preds = forward(record.model, U_te)

    # psi is the a-direction and psi' the B-directions, which a frozen B
    # zeroes (deriv_scale 0)
    fs = tangent_feature_set(no0, deriv_scale=None if train_b else 0.0)
    design = features.build_design(fs, U_tr)
    model = estimator.fit_gd(design, V_tr, alpha, n_steps)
    rf_preds = estimator.predict_batch(model, U_te)

    diff = no_preds - rf_preds
    disc = math.sqrt(float(np.mean(np.mean(diff ** 2, axis=1))))
    return {"M": width, "seed": seed, "discrepancy": disc,
            "drift": record.drift_budget}


def compare_to_kernel_gd(
    arch: OperatorArchitecture,
    train_inputs,
    train_outputs,
    test_inputs,
    widths,
    alpha: float,
    n_steps: int,
    seeds,
    tau: float = 1.0,
    train_b: bool = True,
) -> list[dict]:
    """Train the operator and its frozen-tangent kernel twin with identical
    gradient descent, then measure ||G_theta_T - F_T^M|| in the empirical L2
    norm over held-out inputs.  Returns one row per (width, seed), widths
    outermost; `compare_cell` computes one row."""
    return [compare_cell(arch, train_inputs, train_outputs, test_inputs, int(m),
                         int(seed), alpha, n_steps, tau=tau, train_b=train_b)
            for m in widths for seed in seeds]


def median_discrepancies(rows: list[dict]) -> dict[int, float]:
    by_width: dict[int, list[float]] = {}
    for row in rows:
        by_width.setdefault(row["M"], []).append(row["discrepancy"])
    return {m: runtime.median(np.asarray(v)) for m, v in sorted(by_width.items())}
