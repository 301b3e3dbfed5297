"""Oracle tests for the one-pass neural-operator GD step.

The reference below is the two-pass formulation: einsum preactivations, a
three-operand einsum for dE/dB, and a separate forward pass for the risk after
every update.  The fused step sums in another order, and over row blocks of
(input, grid point) pairs sized by runtime.BLOCK_BYTES, so agreement is
required to 1e-12 relative rather than bit for bit; its risk equals that of
`forward`, which takes the same blocks, bit for bit.
"""
import math

import numpy as np
import pytest

from specrf import neuralop, runtime
from specrf.features import OperatorArchitecture, identity_act, tanh_act

RTOL = 1e-12
ACTIVATIONS = {"tanh": tanh_act, "identity": identity_act}
#: sigma' as a function of z
DERIVATIVES = {"tanh": lambda z: 1.0 / np.cosh(z) ** 2, "identity": np.ones_like}


def _arch(activation, d_y=1):
    return OperatorArchitecture(ACTIVATIONS[activation](), 6, d_y=d_y)


def _two_pass_forward(no, U):
    J = no.arch.j_features(U)
    z = np.einsum("nxd,md->nxm", J, no.B)
    return no.arch.activation.f(z) @ no.a / math.sqrt(no.M)


def _two_pass_risk(no, U, V):
    resid = _two_pass_forward(no, U) - V
    return 0.5 * float(np.mean(np.mean(resid ** 2, axis=1)))


def _two_pass_gradients(no, U, V):
    act = no.arch.activation
    J = no.arch.j_features(U)
    z = np.einsum("nxd,md->nxm", J, no.B)
    s = act.f(z)
    resid = s @ no.a / math.sqrt(no.M) - V
    n, n_x = resid.shape
    scale = 1.0 / (n * n_x * math.sqrt(no.M))
    grad_a = scale * np.einsum("nx,nxm->m", resid, s)
    dsigma = DERIVATIVES[act.name](z)
    grad_b = scale * no.a[:, None] * np.einsum("nx,nxm,nxd->md", resid, dsigma, J)
    return grad_a, grad_b


def _two_pass_train(no, U, V, alpha, n_steps, train_b):
    a0, b0 = no.a.copy(), no.B.copy()
    cur = no
    risks, drifts = [_two_pass_risk(cur, U, V)], [0.0]
    for _ in range(n_steps):
        grad_a, grad_b = _two_pass_gradients(cur, U, V)
        cur = neuralop.replace(
            cur,
            a=cur.a - alpha * grad_a,
            B=cur.B - alpha * grad_b if train_b else cur.B,
        )
        risks.append(_two_pass_risk(cur, U, V))
        drifts.append(math.sqrt(float(np.sum((cur.a - a0) ** 2))
                                + float(np.sum((cur.B - b0) ** 2))))
    return np.asarray(risks), np.asarray(drifts), cur


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0.0)


def _problem(activation, seed, width=12, n=5, d_y=1):
    arch = _arch(activation, d_y)
    rng = np.random.default_rng(seed)
    no = neuralop.init_symmetric(arch, width, tau=1.0, seed=seed)
    U = arch.coerce_inputs(rng.normal(size=(n, arch.n_x, d_y)))
    V = rng.normal(size=(n, arch.n_x))
    return no, U, V, rng


@pytest.mark.parametrize("d_y", [1, 2])
def test_preactivations_match_einsum(d_y):
    arch = _arch("tanh", d_y)
    rng = np.random.default_rng(d_y)
    U = rng.normal(size=(7, arch.n_x, d_y))
    W = rng.normal(size=(9, arch.d_tilde))
    J, z = arch.preactivations(U, W)
    np.testing.assert_array_equal(J, arch.j_features(U))
    _assert_close(z, np.einsum("nxd,md->nxm", J, W))


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_fused_step_matches_two_pass(activation):
    for seed in range(5):
        no, U, V, rng = _problem(activation, seed)
        # off the symmetric point, so no gradient entry vanishes by symmetry
        no = neuralop.replace(no, a=no.a + 0.3 * rng.normal(size=no.M),
                              B=no.B + 0.3 * rng.normal(size=no.B.shape))
        risk, grad_a, grad_b = neuralop._risk_and_gradients(no, U, V)
        ref_a, ref_b = _two_pass_gradients(no, U, V)
        _assert_close(risk, _two_pass_risk(no, U, V))
        _assert_close(grad_a, ref_a)
        _assert_close(grad_b, ref_b)
        assert risk == neuralop._risk(no, U, V)


@pytest.mark.parametrize("train_b", [True, False])
@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_train_gd_matches_two_pass_trajectory(activation, train_b):
    no, U, V, _ = _problem(activation, seed=11, width=16, n=6)
    record = neuralop.train_gd(no, U, V, alpha=0.25, n_steps=12, train_b=train_b)
    risks, drifts, model = _two_pass_train(no, U, V, 0.25, 12, train_b)
    assert record.risks.shape == (13,)
    _assert_close(record.risks, risks)
    _assert_close(record.drifts, drifts)
    _assert_close(record.model.a, model.a)
    _assert_close(record.model.B, model.B)


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_reused_buffers_match_a_fresh_step_bit_for_bit(activation):
    no, U, V, rng = _problem(activation, seed=3, width=16, n=6)
    buffers = neuralop._step_buffers(no, U)
    for _ in range(3):
        no = neuralop.replace(no, a=no.a + 0.3 * rng.normal(size=no.M),
                              B=no.B + 0.3 * rng.normal(size=no.B.shape))
        fresh = neuralop._risk_and_gradients(no, U, V)
        reused = neuralop._risk_and_gradients(no, U, V, buffers)
        assert fresh[0] == reused[0]
        np.testing.assert_array_equal(fresh[1], reused[1])
        np.testing.assert_array_equal(fresh[2], reused[2])


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_train_gd_equals_fresh_steps_bit_for_bit(activation):
    no, U, V, _ = _problem(activation, seed=5, width=16, n=6)
    record = neuralop.train_gd(no, U, V, alpha=0.25, n_steps=6)
    cur = no
    for t in range(6):
        risk, grad_a, grad_b = neuralop._risk_and_gradients(cur, U, V)
        assert record.risks[t] == risk
        cur = neuralop.replace(cur, a=cur.a - 0.25 * grad_a, B=cur.B - 0.25 * grad_b)
    np.testing.assert_array_equal(record.model.a, cur.a)
    np.testing.assert_array_equal(record.model.B, cur.B)


@pytest.mark.parametrize("blocks", [1, 2, 7])
@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_blocked_step_matches_two_pass(activation, blocks, monkeypatch):
    """With the budget set to 1, 2 and 7 row blocks of the 7 x 6 (input,
    grid point) pairs, the step matches the two-pass gradients, its risk
    equals `_risk` bit for bit, and train_gd follows the two-pass
    trajectory."""
    no, U, V, rng = _problem(activation, seed=blocks, width=16, n=7)
    pairs = U.shape[0] * U.shape[1]
    monkeypatch.setattr(runtime, "BLOCK_BYTES", 8 * no.M * math.ceil(pairs / blocks))
    J = no.arch.j_features(U)
    assert len(list(neuralop._row_blocks(no, J, neuralop._work_array(no, pairs)))) == blocks
    moved = neuralop.replace(no, a=no.a + 0.3 * rng.normal(size=no.M),
                             B=no.B + 0.3 * rng.normal(size=no.B.shape))
    risk, grad_a, grad_b = neuralop._risk_and_gradients(moved, U, V)
    ref_a, ref_b = _two_pass_gradients(moved, U, V)
    assert risk == neuralop._risk(moved, U, V)
    _assert_close(risk, _two_pass_risk(moved, U, V))
    _assert_close(grad_a, ref_a)
    _assert_close(grad_b, ref_b)
    record = neuralop.train_gd(no, U, V, alpha=0.25, n_steps=12)
    risks, drifts, model = _two_pass_train(no, U, V, 0.25, 12, True)
    _assert_close(record.risks, risks)
    _assert_close(record.drifts, drifts)
    _assert_close(record.model.a, model.a)
    _assert_close(record.model.B, model.B)
