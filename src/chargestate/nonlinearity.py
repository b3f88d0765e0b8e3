"""Catalog of intensity-dependent deformation functions f(n).

The catalog covers the identity (undeformed oscillator), the Penson-Solomon
function p^(1-n), the intensity-dependent-coupling form sqrt(n), and the
q-deformed oscillator function.  Parameters are validated at construction;
f is evaluated by ``values``, total on nonnegative integers (inf from an overflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ParameterRangeError, SpecParseError

UNITY = "unity"
PENSON_SOLOMON = "penson_solomon"
INTENSITY_SQRT = "intensity_sqrt"
Q_DEFORMED = "q_deformed"


@dataclass(frozen=True)
class NonlinearityFunction:
    """A named deformation f(n), evaluated by ``values`` at nonnegative integers.

    Instances are immutable value objects; evaluation is pure.  Use the
    factory functions (``unity``, ``penson_solomon``, ...) or ``parse_spec``
    rather than the constructor.
    """

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind in (UNITY, INTENSITY_SQRT):
            formula = None  # values evaluates these with numpy
        elif self.kind == PENSON_SOLOMON:
            p = self.params.get("p")
            if p is None or not (0.0 < p <= 1.0):
                raise ParameterRangeError(f"penson_solomon requires p in (0, 1], got {p}")
            formula = lambda n: p ** (1 - n)
        elif self.kind == Q_DEFORMED:
            qq = self.params.get("qq")
            if qq is None or not math.isfinite(qq) or qq <= 0.0 or qq == 1.0:
                raise ParameterRangeError(f"q_deformed requires finite qq > 0, qq != 1, got {qq}")
            # sqrt((q^n - q^-n) / (n (q - 1/q))), written through sinh so the
            # q -> 1 limit is approached smoothly; f(0) is the limit value 1
            ell = math.log(qq)
            try:
                sinh_ell = math.sinh(ell)
            except OverflowError:  # qq below about 2.8e-309
                raise ParameterRangeError(f"q_deformed requires sinh(log qq) within double "
                                          f"range, got qq={qq}") from None
            formula = lambda n: math.sqrt(math.sinh(n * ell) / (n * sinh_ell)) if n else 1.0
        else:
            raise ParameterRangeError(f"unknown nonlinearity kind {self.kind!r}")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "_formula", formula)

    def values(self, count: int) -> np.ndarray:
        """f(0), ..., f(count - 1) as a float array, inf from the first n whose
        formula overflows.  numpy evaluates unity and sqrt, whose sqrt is correctly
        rounded; ps and qdef keep float pow and math.sinh, as numpy's can differ."""
        if self.kind == UNITY:
            return np.ones(count)
        if self.kind == INTENSITY_SQRT:
            return np.sqrt(np.arange(count, dtype=float))
        out = []
        try:
            for n in range(count):
                out.append(self._formula(n))
        except OverflowError:
            out += [math.inf] * (count - len(out))
        return np.array(out, dtype=float)

    def label(self) -> str:
        """Spec string that parses back to this catalog entry."""
        if self.kind == UNITY:
            return "unity"
        if self.kind == INTENSITY_SQRT:
            return "sqrt"
        if self.kind == PENSON_SOLOMON:
            return f"ps:{self.params['p']:.17g}"
        return f"qdef:{self.params['qq']:.17g}"


def unity() -> NonlinearityFunction:
    return NonlinearityFunction(UNITY)


def penson_solomon(p: float) -> NonlinearityFunction:
    return NonlinearityFunction(PENSON_SOLOMON, {"p": float(p)})


def intensity_sqrt() -> NonlinearityFunction:
    return NonlinearityFunction(INTENSITY_SQRT)


def q_deformed(qq: float) -> NonlinearityFunction:
    return NonlinearityFunction(Q_DEFORMED, {"qq": float(qq)})


def parse_spec(text: str) -> NonlinearityFunction:
    """Parse the grammar ``unity | ps:<p> | sqrt | qdef:<q>``.

    Malformed text raises SpecParseError naming the offending token;
    an out-of-range parameter raises ParameterRangeError.
    """
    token = text.strip()
    if token == "unity":
        return unity()
    if token == "sqrt":
        return intensity_sqrt()
    for prefix, factory in (("ps:", penson_solomon), ("qdef:", q_deformed)):
        if token.startswith(prefix):
            arg = token[len(prefix):]
            try:
                value = float(arg)
            except ValueError:
                raise SpecParseError(f"invalid decimal parameter {arg!r} in {token!r}") from None
            return factory(value)
    raise SpecParseError(f"unrecognized nonlinearity spec token: {token!r}")
