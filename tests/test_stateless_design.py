"""A design is a stateless view of (feature set, inputs).

Every fit forms its operator in one pass over the design and owns it, and the
design keeps nothing between calls.  Each route of a fit is checked:
fit_closed with the Tikhonov filter (one linear solve) and the cutoff filter
(an eigendecomposition), and fit_gd on the primal loop, the dual loop, the
eigh closed form and the low-rank closed form.  Two fits on one design give
the same bits and leave no array on it but its inputs.  An identically zero
design is rejected from what the route's own pass formed, with no pass
beyond it, and one nonzero entry, in the last row of the last row chunk and
the last column of the last column block, is enough to be accepted.
"""
import numpy as np
import pytest

from specrf import estimator, features, runtime, spectral
from specrf.estimator import EstimatorError
from test_dual_gd import ntk_case, operator_width


def count_passes(mp, design):
    """Counts the passes over the design's row chunks (`features._row_chunks`
    at its inputs) and over its column blocks."""
    passes = {"rows": 0, "columns": 0}

    def rows(fs, U, *args, real=features._row_chunks):
        if U is design.inputs:
            passes["rows"] += 1
        return real(fs, U, *args)

    def columns(real=design._column_blocks):
        passes["columns"] += 1
        return real()

    mp.setattr(features, "_row_chunks", rows)
    mp.setattr(design, "_column_blocks", columns)
    return passes


def fit(design, V, how):
    """fit_gd of `how` steps, or fit_closed with the filter `how`."""
    if isinstance(how, int):
        return estimator.fit_gd(design, V, 0.5, how)
    return estimator.fit_closed(design, V, how, 0.01)


#: the closed forms each gradient-descent route's trajectory tries
FORMS = {"primal-loop": (), "dual-loop": (), "eigh": ("eigh",),
         "low-rank": ("low-rank", "eigh")}


def check_route(route, design, how):
    if route in FORMS:
        assert estimator.closed_forms(operator_width(design), how) == FORMS[route]


# (design, fit)
ROUTES = {
    "tikhonov": (lambda: ntk_case(64, 300), spectral.tikhonov()),
    "cutoff": (lambda: ntk_case(64, 300), spectral.cutoff()),
    "primal-loop": (lambda: ntk_case(64, 300), 20),
    "dual-loop": (lambda: ntk_case(64, 40), 20),
    "eigh": (lambda: ntk_case(64, 300), 1024),
    "low-rank": (lambda: ntk_case(136, 450), 1024),
}


@pytest.mark.parametrize("route", ROUTES)
def test_fits_leave_no_state_on_the_design(route, monkeypatch):
    make, how = ROUTES[route]
    design, V, *_ = make()
    check_route(route, design, how)
    taken, real = [], estimator._low_rank_descent

    def low_rank(*args):
        out = real(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(estimator, "_low_rank_descent", low_rank)
    first, second = fit(design, V, how), fit(design, V, how)
    assert taken == ([True] * 2 if route == "low-rank" else [])
    np.testing.assert_array_equal(first.theta, second.theta)
    assert "Z" not in vars(design)
    held = {name for name, value in vars(design).items() if isinstance(value, np.ndarray)}
    assert held == {"inputs"}


def probe_design(U, width, last):
    """phi(u, omega) = u w(omega) (p = d_v = 1, kappa = 1) on scalar inputs
    U, for `width` distinct draws whose weight w is zero but for the last
    draw's, `last`: Z is zero but in its last column."""
    samples = np.zeros((width, 2))
    samples[:, 0] = np.arange(width)
    samples[-1, 1] = last

    def evaluate(U, om, out=None):
        if out is None:
            out = np.empty((len(U), 1, len(om), 1))
        np.multiply(np.asarray(U, dtype=float).reshape(-1, 1), om[:, 1], out=out[:, 0, :, 0])
        return out.transpose(0, 2, 3, 1)

    fmap = features.discrete_map(samples, np.full(width, 1.0 / width), evaluate,
                                 p=1, d_v=1, kappa=1.0)
    return features.DesignMatrix(features.FeatureSet(fmap, samples), U)


ROWS, COLUMNS = {"rows": 1, "columns": 0}, {"rows": 0, "columns": 1}
TWO_COLUMNS = {"rows": 0, "columns": 2}
# (inputs, draws, fit, passes over the zero design, passes over the one-entry design)
ZERO_ROUTES = {
    "tikhonov": (7, 3, spectral.tikhonov(), ROWS, ROWS),
    "cutoff": (7, 3, spectral.cutoff(), ROWS, ROWS),
    "primal-loop": (7, 3, 4, ROWS, ROWS),
    "dual-loop": (3, 7, 4, COLUMNS, TWO_COLUMNS),
    "eigh": (7, 3, 64, ROWS, ROWS),
    "low-rank": (400, 384, 1024, TWO_COLUMNS, TWO_COLUMNS),
}


@pytest.mark.parametrize("route", ZERO_ROUTES)
def test_each_route_rejects_the_zero_design(route, monkeypatch):
    n, width, how, zero_passes, one_passes = ZERO_ROUTES[route]
    # row chunks of at most 3 inputs, column blocks of at most 3 draws
    monkeypatch.setattr(runtime, "BLOCK_BYTES", 24 * min(n, width))
    zero = probe_design(np.ones(n), width, 0.0)
    assert runtime.per_block(8 * zero.d_v * zero.shape[1]) <= 3
    assert runtime.per_block(8 * n) <= 3
    check_route(route, zero, how)
    passes = count_passes(monkeypatch, zero)
    with pytest.raises(EstimatorError, match="identically zero"):
        fit(zero, np.ones(n), how)
    assert passes == zero_passes
    one = probe_design(np.append(np.zeros(n - 1), 1.0), width, 1.0)
    passes = count_passes(monkeypatch, one)
    assert fit(one, np.ones(n), how).theta[-1] > 0.0
    assert passes == one_passes
