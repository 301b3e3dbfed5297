"""Random feature maps, Monte Carlo kernels, and design matrices.

A FeatureMap realizes a kernel integral representation: p feature functions
phi_i(u, omega) into R^{d_v}, with omega drawn from a probability space and a
uniform bound sum_i ||phi_i(u, omega)||^2 <= kappa^2.  Averaging M draws gives
the Monte Carlo kernel

    K_M(u, u') = (1/M) sum_m sum_i phi_i(u, omega_m) phi_i(u', omega_m)^T.

Design matrices form the empirical operators of a dataset: Sigma_hat =
(1/n) Z^T Z, the Gram matrix (1/n) Z Z^T and the embedding adjoint
(1/n) Z^T v, with features divided by the map's `scale`.  Each is
summed over blocks of Z's rows or columns in one pass and handed to the
caller, so Z itself is built only where a caller asks for it and a fit
leaves nothing on its design.

Output spaces are finite dimensional: either plain vectors (Euclidean inner
product) or functions sampled on a grid of n_X points with the empirical
inner product (1/n_X) sum_k f(x_k) g(x_k); `v_weight` holds the 1/n_X.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from . import runtime

__all__ = [
    "Activation",
    "tanh_act",
    "identity_act",
    "FeatureMap",
    "FeatureSet",
    "DesignMatrix",
    "OperatorArchitecture",
    "sample_features",
    "kernel_approx",
    "kernel_exact",
    "build_design",
    "feature_rows",
    "predict_values",
    "discrete_map",
    "rff_map",
    "gaussian_kernel",
    "ntk_feature_map",
]


class FeatureError(ValueError):
    pass


class UnsupportedOracleError(FeatureError):
    """Raised when an exact-kernel oracle is requested for infinite support."""


# ---------------------------------------------------------------------------
# activations (shared with the neural-operator module)

@dataclass(frozen=True)
class Activation:
    """sigma, and sigma' written as a function of sigma(z).  `f` and
    `df_of_f` take an optional `out` array to write into, as numpy ufuncs do."""

    name: str
    f: Callable[..., np.ndarray]
    df_of_f: Callable[..., np.ndarray]
    sup_abs: float        # sup |sigma|
    sup_abs_deriv: float  # sup |sigma'|

    def f_and_df(self, z: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(sigma(z), sigma'(z)), sigma' derived from sigma(z).

        With out=(f_out, df_out) both are written in place; df_out may be z
        itself, because z is last read before sigma' is written."""
        f_out, df_out = (None, None) if out is None else out
        fz = self.f(z, out=f_out)
        return fz, self.df_of_f(fz, out=df_out)


def _one_minus_square(t, out=None):
    square = np.multiply(t, t, out=out)
    return np.subtract(1.0, square, out=square)


def _identity(z, out=None):
    if out is None:
        return z
    np.copyto(out, z)
    return out


def _ones(z, out=None):
    if out is None:
        return np.ones_like(z)
    out.fill(1.0)
    return out


def tanh_act() -> Activation:
    return Activation("tanh", np.tanh, _one_minus_square, 1.0, 1.0)


def identity_act() -> Activation:
    """Identity activation.  Unbounded, so the feature bound kappa is infinite
    and designs built on it keep raw features (`FeatureMap.scale` is 1)."""
    return Activation("identity", _identity, _ones, math.inf, 1.0)


# ---------------------------------------------------------------------------
# feature maps

@dataclass(frozen=True)
class FeatureMap:
    """p feature functions into R^{d_v} plus a sampler for omega.

    draw(rng, M) returns M omega samples with a leading axis (or any sequence
    the evaluator understands).  evaluate(U, omegas, out=None) is batched: U
    has leading axis n.  It writes component k of phi_i(u_j, omega_m) into
    out[j, k, m, i] of a C-contiguous (n, d_v, M, p) array, allocating `out`
    when it is None, and returns the (n, M, p, d_v) view
    out.transpose(0, 2, 3, 1).  `out` is laid out as feature rows are (see
    `feature_rows`): reshaped to (n*d_v, M*p), row j*d_v + k holds component
    k at input u_j, so designs have their maps write each entry once, in
    place.
    """

    p: int
    d_v: int
    kappa: float
    draw: Callable[[np.random.Generator, int], Any]
    evaluate: Callable[..., np.ndarray]
    support: tuple[Any, np.ndarray] | None = None  # (omegas, probabilities)
    v_weight: float = 1.0

    @property
    def scale(self) -> float:
        """What designs and predictions divide feature rows by: kappa where
        it is finite, which puts Sigma_hat's spectrum in [0, 1], else 1."""
        return float(self.kappa) if math.isfinite(self.kappa) else 1.0


@dataclass(frozen=True)
class FeatureSet:
    """M omega draws from a map: the rows of `samples`."""

    map: FeatureMap
    samples: Any

    @property
    def M(self) -> int:
        return len(self.samples)

    @cached_property
    def distinct(self) -> tuple[Any, np.ndarray]:
        """(distinct draws in order of first appearance, count of each).

        c identical draws give c identical feature columns, which span the same
        kernel as one column scaled by sqrt(c), so designs evaluate each
        distinct draw once.  Draws are the rows of `samples` (every map draws
        a numeric array with one row per draw) and merge on exact equality.
        """
        s = self.samples
        _, first, counts = np.unique(s, axis=0, return_index=True, return_counts=True)
        if first.size < s.shape[0]:
            order = np.argsort(first)
            return s[first[order]], counts[order].astype(float)
        return s, np.ones(self.M)


def sample_features(fmap: FeatureMap, M: int, seed: int) -> FeatureSet:
    """Draw M i.i.d. features; deterministic given the seed."""
    if M < 1:
        raise FeatureError(f"M must be >= 1, got {M}")
    rng = np.random.default_rng(seed)
    return FeatureSet(map=fmap, samples=fmap.draw(rng, M))


def _as_batch(u: Any) -> np.ndarray:
    """Wrap a single input into a batch of one for the batched evaluator."""
    return np.asarray(u, dtype=float)[None, ...]


def kernel_approx(fs: FeatureSet, u: Any, u2: Any) -> np.ndarray:
    """Monte Carlo kernel K_M(u, u2) as a d_v x d_v matrix of grid outer products."""
    phi_u = fs.map.evaluate(_as_batch(u), fs.samples)[0]    # (M, p, d_v)
    phi_u2 = fs.map.evaluate(_as_batch(u2), fs.samples)[0]
    if phi_u.shape != (fs.M, fs.map.p, fs.map.d_v):
        raise FeatureError(
            f"evaluator returned shape {phi_u.shape}, "
            f"expected {(fs.M, fs.map.p, fs.map.d_v)}"
        )
    return np.einsum("mpk,mpl->kl", phi_u, phi_u2) / fs.M


def kernel_exact(fmap: FeatureMap, u: Any, u2: Any) -> np.ndarray:
    """Exact expectation kernel for maps with finite support; oracle for kernel_approx."""
    if fmap.support is None:
        raise UnsupportedOracleError("kernel_exact requires a map with finite support")
    omegas, probs = fmap.support
    phi_u = fmap.evaluate(_as_batch(u), omegas)[0]
    phi_u2 = fmap.evaluate(_as_batch(u2), omegas)[0]
    return np.einsum("m,mpk,mpl->kl", np.asarray(probs, float), phi_u, phi_u2)


# ---------------------------------------------------------------------------
# design matrices

def feature_rows(fs: FeatureSet, U: Any, kappa_scale: float, v_weight: float = 1.0,
                 out: np.ndarray | None = None, draws: slice | None = None) -> np.ndarray:
    """Feature rows for a batch of inputs, shape (len(U)*d_v, M_distinct*p).

    Row j*d_v + k holds component k of phi_i(u_j, omega) for each distinct
    draw omega (column block) and summand i, weighted by
    sqrt(v_weight * count / M) / kappa_scale; c merged copies of a draw thus
    contribute exactly what c unit-weight columns would to Z Z^T.  Designs
    and predictions both build their rows here, so coefficients fitted on a
    design always meet rows in the same coordinates.  The map writes the
    values straight into `out` (a C-contiguous array of that shape, allocated
    when None) and the weights are applied there in place.  `draws` (a slice
    of the distinct draws, all when None) builds only those draws' columns.
    """
    omegas, counts = fs.distinct
    if draws is not None:
        omegas, counts = omegas[draws], counts[draws]
    fmap = fs.map
    n, m, p, d_v = len(U), len(counts), fmap.p, fmap.d_v
    if out is None:
        out = np.empty((n * d_v, m * p))
    elif out.shape != (n * d_v, m * p) or not out.flags.c_contiguous:
        raise FeatureError(f"row buffer must be C-contiguous of shape {(n * d_v, m * p)}, "
                           f"got {out.shape}")
    block = out.reshape(n, d_v, m, p)
    phi = fmap.evaluate(U, omegas, out=block)
    view = block.transpose(0, 2, 3, 1)
    if (phi.shape != view.shape or phi.strides != view.strides
            or phi.ctypes.data != view.ctypes.data):
        raise FeatureError("evaluate(U, omegas, out) must write into `out` and return "
                           "out.transpose(0, 2, 3, 1)")
    weights = math.sqrt(v_weight) / (kappa_scale * math.sqrt(fs.M)) * np.sqrt(counts)
    out *= np.repeat(weights, p)
    return out


def _row_chunks(fs: FeatureSet, U: np.ndarray, kappa_scale: float, v_weight: float = 1.0):
    """(first row, rows) of `feature_rows` of U, for chunks of as many inputs
    as fit in runtime.BLOCK_BYTES (at least one), each built into one buffer
    reused for every chunk.  Designs sum their normal equations over these
    chunks and predictions take them, so both build rows in one way."""
    d_v, n = fs.map.d_v, len(U)
    width = len(fs.distinct[1]) * fs.map.p
    chunk = runtime.per_block(8 * d_v * width)
    buffer = np.empty((min(chunk, n) * d_v, width))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        yield start * d_v, feature_rows(fs, U[start:stop], kappa_scale, v_weight,
                                        out=buffer[:(stop - start) * d_v])


def predict_values(fs: FeatureSet, theta: np.ndarray, U: Any) -> np.ndarray:
    """Raw predictions (1/scale) sum_{m,i} theta_mi sqrt(c_m/M) phi_i(u, omega_m)
    over the distinct draws omega_m (counts c_m), scale = fs.map.scale, shape (len(U), d_v).

    A (dim, k) theta holds k coefficient vectors side by side; each chunk's
    rows (`_row_chunks`) are then built once for all of them and the result
    has shape (len(U), d_v, k).  Each prediction is one dot product of a row
    with a coefficient vector, taken by np.einsum in an order fixed by the
    row alone, so the bytes do not depend on the budget or on how many
    vectors are stacked (a BLAS product sums a row differently depending on
    where it falls in the block)."""
    U = np.asarray(U, dtype=float)
    theta = np.asarray(theta, dtype=float)
    coefs = np.ascontiguousarray(theta.reshape(theta.shape[0], -1).T)     # (k, width)
    n, d_v = U.shape[0], fs.map.d_v
    out = np.empty((n * d_v, coefs.shape[0]))
    for lo, rows in _row_chunks(fs, U, fs.map.scale):
        np.einsum("ij,kj->ik", rows, coefs, out=out[lo:lo + rows.shape[0]])
    return out.reshape((n, d_v) + theta.shape[1:])


class DesignMatrix:
    """A stateless view of a feature set at a list of inputs, from which
    each fit forms the empirical operator it needs.

    Z has shape (n*d_v, M_distinct*p): one block of p columns per distinct
    omega draw of the feature set (see `feature_rows`).  Row block j holds
    sqrt(v_weight)-scaled feature vectors at input u_j, weighted by
    sqrt(count/M)/scale.  Z Z^T, and so every filtered prediction, equals
    that of the unmerged (n*d_v, M*p) design.  On a bounded map Sigma_hat =
    cov() = (1/n) Z^T Z then has spectral norm at most 1, and so has the
    Gram matrix gram() = (1/n) Z Z^T, which shares its nonzero spectrum.

    No fit holds Z.  The primal side needs only Sigma_hat and
    S_hat^* v = (1/n) Z^T v, summed in one pass over the row chunks that
    predictions take too (`_row_chunks`, `normal_equations`).  The dual side sums
    gram() over blocks of Z's columns, those of a contiguous range of
    distinct draws, built into one buffer of about runtime.BLOCK_BYTES
    (`_column_blocks`); `embed_adjoints` maps dual coefficients back over the
    same blocks, and `range_factor` sketches the range of Z over them in two
    passes, with no operator formed.  Each block or chunk is added into one
    triangle of its operator in place (`runtime.symmetric_update`), which is
    mirrored once, so both operators are exactly symmetric.  Every call forms
    its operator anew, into an array the caller owns, so a fit leaves
    nothing on the design; no fit reads Z.
    """

    def __init__(self, feature_set: FeatureSet, inputs: Any):
        fmap = feature_set.map
        inputs = np.asarray(inputs, dtype=float)
        n = inputs.shape[0]
        if n == 0:
            raise FeatureError("design requires at least one input")
        self.feature_set = feature_set
        self.inputs = inputs
        self.n = n
        self.d_v = fmap.d_v
        self.M_distinct = len(feature_set.distinct[1])
        self.p = fmap.p
        self.v_weight = fmap.v_weight

    @property
    def kappa_scale(self) -> float:
        """The divisor of every feature row, the map's `scale`."""
        return self.feature_set.map.scale

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of Z, (n*d_v, M_distinct*p), known without building it."""
        return self.n * self.d_v, self.M_distinct * self.p

    @cached_property
    def Z(self) -> np.ndarray:
        """The design matrix, built on first access from the row chunks of
        `_row_chunks` and kept.  No fit reads it."""
        z = np.empty(self.shape)
        for lo, rows in _row_chunks(self.feature_set, self.inputs, self.kappa_scale,
                                    self.v_weight):
            z[lo:lo + rows.shape[0]] = rows
        return z

    def _column_blocks(self):
        """(first column, columns) of Z for each block of contiguous distinct
        draws, built into one buffer of about runtime.BLOCK_BYTES (at least
        one draw's columns) reused for every block."""
        rows, m = self.shape[0], self.M_distinct
        per_block = min(m, runtime.per_block(8 * rows * self.p))
        buffer = np.empty(rows * per_block * self.p)
        for lo in range(0, m, per_block):
            hi = min(lo + per_block, m)
            out = buffer[:rows * (hi - lo) * self.p].reshape(rows, -1)
            yield lo * self.p, feature_rows(self.feature_set, self.inputs, self.kappa_scale,
                                            self.v_weight, out, slice(lo, hi))

    def _accumulate(self, v: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
        """One pass over the rows: ((1/n) Z^T Z, (1/n) Z^T v or None).  Each
        chunk's Z_c^T Z_c is added into the upper triangle of Sigma_hat in
        place, which is mirrored once at the end."""
        cov = np.zeros((self.shape[1],) * 2)
        rhs = None
        for lo, rows in _row_chunks(self.feature_set, self.inputs, self.kappa_scale,
                                    self.v_weight):
            runtime.symmetric_update(cov, rows, transpose=True)
            if v is not None:
                part = rows.T @ v[lo:lo + rows.shape[0]]
                if rhs is None:
                    rhs = part
                else:
                    rhs += part
        runtime.mirror_upper(cov)
        for op in (cov, rhs):
            if op is not None:
                op /= self.n       # in place: no second temporary of the operator's size
        return cov, rhs

    def _stacked(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape[0] != self.n * self.d_v:
            raise FeatureError(
                f"stacked outputs have length {v.shape[0]}, expected {self.n * self.d_v}"
            )
        return v

    def normal_equations(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Sigma_hat, S_hat^* v) for stacked v of length n*d_v, from one pass
        over the rows."""
        return self._accumulate(self._stacked(v))

    def cov(self) -> np.ndarray:
        """Sigma_hat = (1/n) Z^T Z, from one pass over the rows."""
        return self._accumulate(None)[0]

    def gram(self) -> np.ndarray:
        """Gram matrix (1/n) sum_b Z_b Z_b^T of shape (n*d_v, n*d_v) over the
        column blocks Z_b of Z (`_column_blocks`), from one pass.  Each block
        is added into the upper triangle in place, which is mirrored once, so
        G is exactly symmetric."""
        gram = np.zeros((self.shape[0],) * 2)
        for _, block in self._column_blocks():
            runtime.symmetric_update(gram, block)
        runtime.mirror_upper(gram)
        gram /= self.n
        return gram

    def embed_adjoints(self, vs: Sequence[np.ndarray]) -> list[np.ndarray]:
        """S_hat^* v = (1/n) Z^T v for each stacked v of length n*d_v, from
        one pass over the column blocks of Z as gram() takes it (dual
        coefficients back to theta; `normal_equations` sums S_hat^* v over the
        rows, with Sigma_hat).  Each v takes one matrix-vector product per
        block, so its bits do not depend on how many vectors share the pass."""
        vs = [self._stacked(v) for v in vs]
        thetas = [np.empty(self.shape[1]) for _ in vs]
        for lo, block in self._column_blocks():
            for v, theta in zip(vs, thetas):
                np.matmul(block.T, v, out=theta[lo:lo + block.shape[1]])
        for theta in thetas:
            theta /= self.n
        return thetas

    def range_factor(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """A randomized range finder for Z (Halko, Martinsson & Tropp 2011)
        in two passes over its column blocks, for a (M_distinct*p, k) test
        matrix omega.

        The first pass sums Y = Z omega and ||Z||_F; Q is the orthonormal
        factor of Y.  The second forms B = Q^T Z and the residual
        ||Z - Q B||_F, each block's Z_b - Q B_b written into one work buffer.
        Returns (Q, B, ||Z - Q B||_F, ||Z||_F)."""
        sketch = np.zeros((self.shape[0], omega.shape[1]))
        norm_sq = 0.0
        for lo, block in self._column_blocks():
            sketch += block @ omega[lo:lo + block.shape[1]]
            norm_sq += float(np.vdot(block, block))
        q = np.linalg.qr(sketch)[0]
        coef = np.empty((q.shape[1], self.shape[1]))
        work = None
        resid_sq = 0.0
        for lo, block in self._column_blocks():
            part = coef[:, lo:lo + block.shape[1]]
            np.matmul(q.T, block, out=part)
            if work is None:
                work = np.empty(block.size)        # the first block is the largest
            diff = work[:block.size].reshape(block.shape)
            np.matmul(q, part, out=diff)
            diff -= block
            resid_sq += float(np.vdot(diff, diff))
        return q, coef, math.sqrt(resid_sq), math.sqrt(norm_sq)

    def stack_outputs(self, outputs: np.ndarray) -> np.ndarray:
        """Stack raw outputs, n*d_v values in any shape such as (n, d_v), into
        the scaled coordinates Z acts in."""
        return math.sqrt(self.v_weight) * self._stacked(outputs)


def build_design(fs: FeatureSet, inputs: Any) -> DesignMatrix:
    """Assemble the design matrix for a list of inputs."""
    return DesignMatrix(fs, inputs)


# ---------------------------------------------------------------------------
# concrete maps

def discrete_map(
    omegas: Sequence,
    probs: Sequence[float],
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    p: int,
    d_v: int,
    kappa: float,
    v_weight: float = 1.0,
) -> FeatureMap:
    """Finite-support feature map.  `evaluate(U, omegas, out=None)` follows
    the `FeatureMap` contract: batched over the leading axis of U, it writes
    the values into the (n, d_v, M, p) row layout `out` (allocated when None)
    and returns out.transpose(0, 2, 3, 1), of shape (n, M, p, d_v)."""
    omegas = np.asarray(omegas)
    probs = np.asarray(probs, dtype=float)
    if omegas.shape[0] != probs.shape[0]:
        raise FeatureError("omegas and probs must align")
    if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
        raise FeatureError("probs must be a probability vector")

    def draw(rng: np.random.Generator, M: int):
        idx = rng.choice(omegas.shape[0], size=M, p=probs)
        return omegas[idx]

    return FeatureMap(
        p=p, d_v=d_v, kappa=kappa, draw=draw, evaluate=evaluate,
        support=(omegas, probs), v_weight=v_weight,
    )


def rff_map(dim: int, lengthscale: float = 1.0) -> FeatureMap:
    """Random Fourier features phi(u, (w, b)) = sqrt(2) cos(w.u + b).

    With w ~ N(0, I/lengthscale^2) and b ~ Unif[0, 2pi] the expectation kernel
    is the Gaussian kernel exp(-||u - u'||^2 / (2 lengthscale^2)).
    """
    if dim < 1 or lengthscale <= 0:
        raise FeatureError("rff_map needs dim >= 1 and positive lengthscale")

    def draw(rng: np.random.Generator, M: int):
        """One (M, dim + 1) array: a draw's w, then its b."""
        w = rng.normal(size=(M, dim)) / lengthscale
        b = rng.uniform(0.0, 2.0 * np.pi, size=M)
        return np.column_stack([w, b])

    def evaluate(U: np.ndarray, omegas: np.ndarray, out=None) -> np.ndarray:
        """w.u is one np.einsum dot product per (input, draw) pair, in an
        order fixed by the pair alone, so a row's bits do not depend on the
        batch it is evaluated in (a BLAS product sums it differently)."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if out is None:
            out = np.empty((U.shape[0], 1, len(omegas), 1))
        phase = np.einsum("nd,md->nm", U, omegas[:, :dim])
        phase += omegas[:, dim]
        np.multiply(np.sqrt(2.0), np.cos(phase, out=phase), out=out[:, 0, :, 0])
        return out.transpose(0, 2, 3, 1)

    return FeatureMap(p=1, d_v=1, kappa=math.sqrt(2.0), draw=draw, evaluate=evaluate)


def gaussian_kernel(u: np.ndarray, u2: np.ndarray, lengthscale: float) -> float:
    """Closed-form limit kernel of rff_map."""
    diff = np.asarray(u, float) - np.asarray(u2, float)
    return float(np.exp(-np.dot(diff, diff) / (2.0 * lengthscale ** 2)))


# ---------------------------------------------------------------------------
# NTK feature map for shallow neural operators

@dataclass(frozen=True)
class OperatorArchitecture:
    """Shared input pipeline of the shallow neural operator and its NTK map.

    Inputs are functions sampled at n_x = n_X second-stage grid points with
    values in R^{d_y}; plain-vector inputs are the n_X = 1 case.  The combined
    representation is J(u)(x) = (A(u)(x), u(x), c(x)) with A the identity lift
    duplicating the input channels (d_k = d_y) when `use_lift` is set, and c
    the bias channel, the constant 1.
    """

    activation: Activation
    n_x: int
    d_y: int = 1
    use_lift: bool = True

    @property
    def d_k(self) -> int:
        return self.d_y if self.use_lift else 0

    @property
    def d_tilde(self) -> int:
        return self.d_k + self.d_y + 1

    def coerce_inputs(self, U: Any) -> np.ndarray:
        """Normalize input batches to shape (n, n_X, d_y)."""
        U = np.asarray(U, dtype=float)
        if U.ndim == 1:
            U = U[:, None] if self.n_x == 1 else U[None, :, None]
        if U.ndim == 2:
            if self.n_x == 1 and U.shape[1] == self.d_y:
                U = U[:, None, :]
            elif U.shape[1] == self.n_x and self.d_y == 1:
                U = U[:, :, None]
            else:
                raise FeatureError(f"cannot coerce inputs of shape {U.shape}")
        if U.shape[1:] != (self.n_x, self.d_y):
            raise FeatureError(
                f"inputs have shape {U.shape}, expected (*, {self.n_x}, {self.d_y})"
            )
        return U

    def j_features(self, U: Any) -> np.ndarray:
        """J(u)(x) for a batch, shape (n, n_X, d_tilde)."""
        U = self.coerce_inputs(U)
        parts = []
        if self.use_lift:
            parts.append(U)
        parts.append(U)
        parts.append(np.ones(U.shape[:2] + (1,)))
        return np.concatenate(parts, axis=2)

    def preactivations(self, U: Any, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J, Z) for a batch: J = J(u)(x) of shape (n, n_X, d_tilde) and the
        preactivations Z = <w_m, J(u)(x)> of shape (n, n_X, M) for the M weight
        rows of W (M, d_tilde), as one 2-D matmul over all (u, x) pairs."""
        J = self.j_features(U)
        n, n_x, d_tilde = J.shape
        return J, (J.reshape(-1, d_tilde) @ W.T).reshape(n, n_x, -1)


def ntk_feature_map(
    arch: OperatorArchitecture,
    input_bound: float | None = None,
    deriv_scale: float = 1.0,
) -> FeatureMap:
    """Tangent feature map of the width-M shallow operator at initialization.

    omega = b0 ~ N(0, I_{d_tilde}); the p = 1 + d_tilde feature functions are
    psi(u) = sigma(<b0, J(u)>) and psi'_j(u) = sigma'(<b0, J(u)>) J(u)^(j),
    evaluated pointwise on the grid (d_v = n_X).  `deriv_scale` multiplies the
    psi' block and models the magnitude of the symmetric output weights tau.

    `input_bound` is a declared bound on sup_{u,x} ||J(u)(x)||; with a bounded
    activation it certifies kappa^2 = sup|sigma|^2 + (deriv_scale * sup|sigma'|
    * input_bound)^2.  Without it (or with an unbounded activation) kappa is
    infinite and designs keep raw features (`FeatureMap.scale` is 1).
    """
    act = arch.activation
    d_tilde = arch.d_tilde
    if input_bound is not None and math.isfinite(act.sup_abs):
        kappa = math.sqrt(
            act.sup_abs ** 2
            + (deriv_scale * act.sup_abs_deriv * float(input_bound)) ** 2
        )
    else:
        kappa = math.inf

    def draw(rng: np.random.Generator, M: int):
        return rng.normal(size=(M, d_tilde))

    def evaluate(U: np.ndarray, omegas: np.ndarray, out=None) -> np.ndarray:
        J, z = arch.preactivations(U, omegas)     # (n, n_X, d_tilde), (n, n_X, M)
        n, n_x, M = z.shape
        if out is None:
            out = np.empty((n, n_x, M, 1 + d_tilde))
        # sigma(z) straight into the psi column, sigma'(z) over z
        _, dpsi = act.f_and_df(z, out=(out[..., 0], z))
        # psi'_{m,j}(u)(x) = sigma'(z) * J(u)(x)^(j), one product per j: a
        # broadcast over all d_tilde of them at once loops only 2-3 deep
        deriv = out[..., 1:]
        for j in range(d_tilde):
            np.multiply(dpsi, J[:, :, j:j + 1], out=deriv[..., j])
        if deriv_scale != 1.0:     # a product with 1.0 is exact: skip the pass
            deriv *= deriv_scale
        return out.transpose(0, 2, 3, 1)

    return FeatureMap(
        p=1 + d_tilde,
        d_v=arch.n_x,
        kappa=kappa,
        draw=draw,
        evaluate=evaluate,
        v_weight=1.0 / arch.n_x,
    )
