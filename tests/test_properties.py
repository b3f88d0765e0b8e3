"""Property tests over the deformation catalog: finite-or-fail, correct
(interior residual, continued-fraction ratio and, on short ladders, dense
operator moments) and document round trip; and the f = 1 builders' exact
kernel against the direct alternating sum, integer for integer."""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chargestate.diagnostics import moments
from chargestate.errors import ChargeStateError, ContinuedFractionPoleError
from chargestate.nonlinearity import parse_spec
from chargestate.states import (
    ChargeState,
    TruncationPolicy,
    _hermite_diagonal,
    build_deformed,
    continued_fraction_ratio,
    ladder_elements,
    state_from_document,
    state_to_document,
)

from _oracles import TwoModeSpace, alternating_sum_scaled

SPECS = st.one_of(
    st.sampled_from(["unity", "sqrt", "ps:0.5", "qdef:7"]),
    st.floats(0.05, 1.0).map(lambda p: f"ps:{p!r}"),
    st.floats(0.2, 10.0).filter(lambda qq: qq != 1.0).map(lambda qq: f"qdef:{qq!r}"),
)
XI = st.one_of(
    st.floats(-20.0, 20.0),
    st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False),
)

# The benchmark gate's tolerances: interior residual row over the sum of that
# row's term magnitudes, and the continued fraction against the recursion.
RESIDUAL_TOL = 1e-12
RATIO_TOL = 1e-8
TINY = 1e-280  # coefficients below this carry no relative precision


def max_relative_interior_residual(f, state):
    """Largest interior |(T - xi) c| row over the sum of its term magnitudes,
    over the rows whose coefficients carry relative precision."""
    n_max = state.n_max
    diag, off = ladder_elements(f, state.q, n_max)
    c, mag, xi = state.coeffs, np.abs(state.coeffs), state.xi
    inner = off[1 : n_max + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        image = diag * c
        image[1:] += inner * c[:-1]
        image[:-1] += inner * c[1:]
        scale = (np.abs(diag) + abs(xi)) * mag
        scale[1:] += inner * mag[:-1]
        scale[:-1] += inner * mag[1:]
    local = mag.copy()
    local[1:] = np.maximum(local[1:], mag[:-1])
    local[:-1] = np.maximum(local[:-1], mag[1:])
    rows = (local[:-1] > TINY) & np.isfinite(scale[:-1]) & (scale[:-1] > 0)
    rel = np.abs(image - xi * c)[:-1][rows] / scale[:-1][rows]
    return float(rel.max()) if rel.size else 0.0


def check_ratio(f, state, k):
    """continued_fraction_ratio at depth k against c_k / c_(k-1), scaled as
    the gate does; a pole must sit on a vanishing coefficient.  The 1e-300
    floor covers subnormal prefixes, which carry no relative precision."""
    c = state.coeffs
    scale = float(np.abs(c[: k + 1]).max())
    try:
        r = continued_fraction_ratio(f, state.q, state.xi, k)
    except ContinuedFractionPoleError as exc:
        assert abs(c[exc.depth]) <= 1e-12 * max(scale, TINY)
        return
    assert abs(r * c[k - 1] - c[k]) <= RATIO_TOL * scale * max(1.0, abs(r)) + 1e-300


def check_dense_moments(f, state):
    """Every moment against its dense two-mode operator expectation, with the
    fixed dense test's rule (abs 1e-10)."""
    dim = state.n_max + abs(state.q) + 2
    space = TwoModeSpace(dim, dim, f)
    psi = space.embed(state)
    a, b, na, nb = space.a_plain, space.b_plain, space.na, space.nb
    ops = {"mean_na": na, "mean_na2": na @ na, "mean_nb": nb, "mean_nb2": nb @ nb,
           "aa_corr": a.T @ a.T @ a @ a, "bb_corr": b.T @ b.T @ b @ b, "cross": na @ nb}
    got = moments(state)
    for name, op in ops.items():
        assert abs(getattr(got, name) - space.expect(op, psi)) <= 1e-10, name


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spec=SPECS, q=st.integers(-4, 4), xi=XI, n_max=st.integers(0, 800), data=st.data())
def test_finite_state_or_typed_error(spec, q, xi, n_max, data):
    f = parse_spec(spec)
    try:
        state = build_deformed(f, q, xi, TruncationPolicy(n_max))
    except ChargeStateError as exc:
        assert isinstance(exc, ArithmeticError)
        return
    assert np.isfinite(state.coeffs).all() and np.isfinite(state.log_pre_norm)
    assert ladder_elements(f, q, n_max)[1][1:].min() >= 1.0  # no recursion division by 0
    assert state.norm_error() <= 1e-12
    assert max_relative_interior_residual(f, state) <= RESIDUAL_TOL
    if n_max >= 1:
        check_ratio(f, state, data.draw(st.integers(1, min(48, n_max)), label="depth"))
    if n_max <= 8:  # short enough for the dense two-mode oracle
        check_dense_moments(f, state)
    again = state_from_document(json.loads(json.dumps(state_to_document(state), allow_nan=False)))
    for field in dataclasses.fields(ChargeState):
        want, got = getattr(state, field.name), getattr(again, field.name)
        if field.name == "coeffs":
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want, field.name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.integers(-4, 4), xi=XI, n_max=st.integers(0, 40))
def test_hermite_diagonal_is_the_direct_sum(q, xi, n_max):
    # the f = 1 builders' one exact kernel against the direct alternating sum
    mr, mi, ee, want = alternating_sum_scaled(abs(q), xi, n_max)
    assert list(_hermite_diagonal(abs(q), mr, mi, ee, n_max)) == want
