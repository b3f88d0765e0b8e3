"""Tests for the deformation-function catalog and its spec grammar."""

import math

import numpy as np
import pytest

from chargestate.errors import ParameterRangeError, SpecParseError
from chargestate.nonlinearity import (
    NonlinearityFunction,
    intensity_sqrt,
    parse_spec,
    penson_solomon,
    q_deformed,
    unity,
)

ALL_CATALOG = [unity(), penson_solomon(0.5), intensity_sqrt(), q_deformed(7.0)]


def test_eval_examples():
    assert unity().values(8)[7] == 1.0
    assert penson_solomon(0.5).values(4)[3] == pytest.approx(4.0, rel=1e-15)
    assert q_deformed(7.0).values(2)[1] == pytest.approx(1.0, rel=1e-14)
    assert intensity_sqrt().values(5)[4] == 2.0
    assert intensity_sqrt().values(1)[0] == 0.0
    assert q_deformed(7.0).values(1)[0] == 1.0  # defined as the q -> 1 limit value


def test_penson_parameter_range():
    penson_solomon(1.0)
    penson_solomon(1e-6)
    for bad in (0.0, -0.3, 1.0001, 2.0):
        with pytest.raises(ParameterRangeError):
            penson_solomon(bad)


def test_qdeformed_parameter_range():
    q_deformed(0.2)
    q_deformed(7.0)
    for bad in (0.0, -1.0, 1.0, 1e-310, 5e-324):  # the last two: sinh(log qq) overflows
        with pytest.raises(ParameterRangeError):
            q_deformed(bad)


def test_unknown_kind_rejected():
    with pytest.raises(ParameterRangeError, match="unknown nonlinearity kind"):
        NonlinearityFunction("gauss")


def test_qdeformed_limit_to_unity():
    assert all(abs(v - 1.0) <= 1e-4 for v in q_deformed(1.0 + 1e-6).values(31))


def test_penson_p1_is_unity():
    assert penson_solomon(1.0).values(50).tolist() == [1.0] * 50


@pytest.mark.parametrize("f", ALL_CATALOG)
def test_strictly_positive_for_positive_n(f):
    assert all(v > 0.0 for v in f.values(40)[1:])


@pytest.mark.parametrize("f, first", [(penson_solomon(0.5), 1025), (q_deformed(7.0), 366)])
def test_values_inf_from_first_overflow(f, first):
    # float pow (ps) and math.sinh (qdef) raise OverflowError there; values gives inf
    values = f.values(first + 10)
    assert all(math.isfinite(v) for v in values[:first])
    assert values[first:].tolist() == [math.inf] * 10


@pytest.mark.parametrize("f, formula", [(unity(), lambda n: 1.0), (intensity_sqrt(), math.sqrt)],
                         ids=["unity", "sqrt"])
def test_numpy_values_are_the_scalar_formula(f, formula):
    # numpy's sqrt is correctly rounded, so the array holds math.sqrt's doubles
    count = 1 << 21
    want = np.array([formula(n) for n in range(count)])
    for n in (0, 1, 2, 83, count):
        got = f.values(n)
        assert got.dtype == np.float64 and got.tobytes() == want[:n].tobytes(), n


@pytest.mark.parametrize("f", ALL_CATALOG)
def test_values_is_a_float_array(f):
    got = f.values(7)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (7,)


def test_parse_examples():
    assert parse_spec("ps:0.5").kind == "penson_solomon"
    assert parse_spec("ps:0.5").params["p"] == 0.5
    assert parse_spec("unity").kind == "unity"
    assert parse_spec("qdef:7").params["qq"] == 7.0
    assert parse_spec("sqrt").kind == "intensity_sqrt"
    assert parse_spec(" unity ").kind == "unity"


def test_parse_malformed_names_token():
    with pytest.raises(SpecParseError) as err:
        parse_spec("gauss:2")
    assert "gauss:2" in str(err.value)
    with pytest.raises(SpecParseError) as err:
        parse_spec("ps:zero")
    assert "zero" in str(err.value)


def test_parse_out_of_range_parameter():
    with pytest.raises(ParameterRangeError):
        parse_spec("ps:1.5")
    with pytest.raises(ParameterRangeError):
        parse_spec("qdef:1")


@pytest.mark.parametrize("f", ALL_CATALOG)
def test_label_round_trips(f):
    again = parse_spec(f.label())
    assert again.kind == f.kind
    assert dict(again.params) == dict(f.params)
