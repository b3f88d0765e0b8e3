"""Property tests over the deformation catalog: finite-or-fail and document round trip."""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chargestate.errors import ChargeStateError
from chargestate.nonlinearity import parse_spec
from chargestate.states import (
    ChargeState,
    TruncationPolicy,
    build_deformed,
    state_from_document,
    state_to_document,
)

SPECS = st.one_of(
    st.sampled_from(["unity", "sqrt", "ps:0.5", "qdef:7"]),
    st.floats(0.05, 1.0).map(lambda p: f"ps:{p!r}"),
    st.floats(0.2, 10.0).filter(lambda qq: qq != 1.0).map(lambda qq: f"qdef:{qq!r}"),
)
XI = st.one_of(
    st.floats(-20.0, 20.0),
    st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spec=SPECS, q=st.integers(-4, 4), xi=XI, n_max=st.integers(0, 800))
def test_finite_state_or_typed_error(spec, q, xi, n_max):
    try:
        state = build_deformed(parse_spec(spec), q, xi, TruncationPolicy(n_max))
    except ChargeStateError as exc:
        assert isinstance(exc, ArithmeticError)
        return
    assert np.isfinite(state.coeffs).all() and np.isfinite(state.log_pre_norm)
    assert state.norm_error() <= 1e-12
    again = state_from_document(json.loads(json.dumps(state_to_document(state), allow_nan=False)))
    for field in dataclasses.fields(ChargeState):
        want, got = getattr(state, field.name), getattr(again, field.name)
        if field.name == "coeffs":
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want, field.name
