"""Tests for log_factorial, the log-scale factorial that states.py uses."""

import math

import pytest

from chargestate.errors import PreconditionError
from chargestate.states import log_factorial


class TestLogFactorial:
    def test_base_cases(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)

    def test_recurrence_beyond_linear_overflow(self):
        # 170! overflows a double; the log-scale recurrence identity must hold.
        assert log_factorial(170) - log_factorial(169) == pytest.approx(
            math.log(170.0), rel=1e-13
        )

    @pytest.mark.parametrize("n", range(21))
    def test_matches_exact_integer_product(self, n):
        assert math.exp(log_factorial(n)) == pytest.approx(math.factorial(n), rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            log_factorial(-1)
