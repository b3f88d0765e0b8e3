"""Photon statistics and nonclassicality criteria for ladder states.

All quantities derive from three weighted sums of the squared coefficients
over the truncated ladder, each accumulated with fsum.  Criteria
whose defining denominator vanishes are reported as None (an explicit
"undefined" value), never as NaN.

Each criterion is a pure function of one MomentSet, kept in the DIAGNOSTICS
registry by name, so a caller computes ``moments(state)`` once per state and
reads any number of criteria from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .states import ChargeState, _occupation_offsets


@dataclass(frozen=True)
class MomentSet:
    """The mode-occupation moments entering the nonclassicality criteria.

    aa_corr and bb_corr are the normally ordered pair moments <a+a+ a a> and
    <b+b+ b b>.  With occupations n + lo and n + hi at ladder index n, every
    field is a combination of S0 = sum w, S1 = sum w n and F2 = sum w n (n-1),
    w = |c_n|^2, whose coefficients are >= 0, so nothing cancels.
    """

    mean_na: float
    mean_na2: float
    mean_nb: float
    mean_nb2: float
    aa_corr: float
    bb_corr: float
    cross: float


def moments(state: ChargeState) -> MomentSet:
    """Occupation moments of the two modes over the truncated ladder."""
    w = np.abs(state.coeffs) ** 2
    n = np.arange(state.n_max + 1, dtype=float)
    s0, s1, f2 = (math.fsum(v.tolist()) for v in (w, w * n, w * (n * (n - 1.0))))
    lo, hi = _occupation_offsets(state.q)
    # an occupation m = n + k has m (m-1) = n (n-1) + 2k n + k (k-1)
    mean_na, mean_nb = s1 + lo * s0, s1 + hi * s0
    aa_corr, bb_corr = (f2 + 2 * k * s1 + k * (k - 1) * s0 for k in (lo, hi))
    return MomentSet(mean_na=mean_na, mean_na2=aa_corr + mean_na, mean_nb=mean_nb,
                     mean_nb2=bb_corr + mean_nb, aa_corr=aa_corr, bb_corr=bb_corr,
                     cross=f2 + (1 + lo + hi) * s1 + lo * hi * s0)


def _mandel(mean: float, mean2: float) -> Optional[float]:
    """Mandel parameter (<n^2> - <n>^2)/<n> - 1; None when <n> = 0."""
    if mean == 0.0:
        return None
    return (mean2 - mean * mean) / mean - 1.0


def _g2(mean: float, corr: float) -> Optional[float]:
    """Second-order correlation <x+x+ x x>/<n_x>^2; None when <n_x> = 0."""
    if mean == 0.0:
        return None
    return corr / (mean * mean)


def _g12(mom: MomentSet) -> Optional[float]:
    """Inter-mode correlation <n_a n_b>/(<n_a><n_b>); None if a mean vanishes."""
    if mom.mean_na == 0.0 or mom.mean_nb == 0.0:
        return None
    return mom.cross / (mom.mean_na * mom.mean_nb)


def _cauchy_schwartz(mom: MomentSet) -> Optional[float]:
    """Cauchy-Schwartz ratio sqrt(<a+2a2><b+2b2>)/|<n_a n_b>| - 1.

    Negative values violate the classical inequality.  None when the cross
    moment vanishes.
    """
    if mom.cross == 0.0:
        return None
    return math.sqrt(mom.aa_corr * mom.bb_corr) / abs(mom.cross) - 1.0


def _quadrature_variance(mom: MomentSet) -> float:
    """Variance of either quadrature of mode a.

    On a fixed-charge ladder every first moment and pair amplitude of a
    single mode vanishes (the kets are orthogonal two-mode number states),
    so the x and p variances both reduce to <n_a> + 1/2 identically: no
    quadrature squeezing is possible for these states.
    """
    return mom.mean_na + 0.5


DIAGNOSTICS: dict[str, Callable[[MomentSet], Optional[float]]] = {
    "mean_na": lambda mom: mom.mean_na,
    "mandel_a": lambda mom: _mandel(mom.mean_na, mom.mean_na2),
    "mandel_b": lambda mom: _mandel(mom.mean_nb, mom.mean_nb2),
    "g2_a": lambda mom: _g2(mom.mean_na, mom.aa_corr),
    "g2_b": lambda mom: _g2(mom.mean_nb, mom.bb_corr),
    "g12": _g12,
    "i0": _cauchy_schwartz,
    "dx2": _quadrature_variance,
    "dp2": _quadrature_variance,
}


def photon_distribution(state: ChargeState):
    """Rows (n, n_a, n_b, P) of the joint photon-number distribution."""
    na, nb = state.occupations()
    w = np.abs(state.coeffs) ** 2
    return list(zip(range(state.n_max + 1), na.tolist(), nb.tolist(), w.tolist()))


@dataclass(frozen=True)
class DiagnosticsReport:
    """All criteria for one state; None marks an undefined (0/0) entry."""

    mandel_a: Optional[float]
    mandel_b: Optional[float]
    g2_a: Optional[float]
    g2_b: Optional[float]
    g12: Optional[float]
    i0: Optional[float]
    dx2: float
    dp2: float


def full_report(state: ChargeState) -> DiagnosticsReport:
    """Every DiagnosticsReport field, from one moments() pass over the state."""
    mom = moments(state)
    return DiagnosticsReport(**{f.name: DIAGNOSTICS[f.name](mom) for f in fields(DiagnosticsReport)})
