"""Two-mode Husimi quasi-probability at points, on grids, and its norm check.

The overlap with the two-mode coherent state |alpha1, alpha2> is accumulated
term by term in log-magnitude form (every term magnitude is bounded by the
corresponding |c_n|, so the evaluation can neither overflow nor lose the
leading terms) and summed with fsum.  The single 1/pi prefactor of the
two-mode definition is kept as is; under it the phase-space integral of Q
over all of C^2 is pi for any normalized state, which is what the
Monte-Carlo norm check targets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .states import ChargeState, log_factorial


@dataclass(frozen=True)
class HusimiGrid:
    """Husimi values over a rectangular grid of the first-mode amplitude.

    ``values[ix * ny + iy]`` is Q at alpha1 = x[ix] + 1j*y[iy] with the fixed
    second-mode amplitude alpha2 (row-major, x outer).
    """

    alpha2: complex
    x_range: tuple[float, float, int]
    y_range: tuple[float, float, int]
    values: np.ndarray

    def __post_init__(self):
        nx, ny = self.x_range[2], self.y_range[2]
        if len(self.values) != nx * ny:
            raise PreconditionError("values length inconsistent with ranges")
        self.values.setflags(write=False)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        x0, x1, nx = self.x_range
        y0, y1, ny = self.y_range
        return np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)


def _log_mag_and_phase(z: complex) -> tuple[float, float]:
    if z == 0:
        return -math.inf, 0.0
    return math.log(abs(z)), cmath.phase(z)


class _OverlapTerms:
    """Per-state arrays reused across many coherent-overlap evaluations."""

    def __init__(self, state: ChargeState):
        na, nb = state.occupations()
        c = state.coeffs
        self.na = na.astype(float)
        self.nb = nb.astype(float)
        nonzero = c != 0
        self.log_c = np.where(
            nonzero, np.log(np.abs(np.where(nonzero, c, 1.0))), -math.inf
        )
        self.phase_c = np.angle(c)
        self.log_fact = 0.5 * np.array(
            [log_factorial(int(na[n])) + log_factorial(int(nb[n])) for n in range(len(c))]
        )

    def evaluate(self, alpha1: complex, alpha2: complex) -> float:
        la1, pa1 = _log_mag_and_phase(alpha1)
        la2, pa2 = _log_mag_and_phase(alpha2)
        gauss = -0.5 * (abs(alpha1) ** 2 + abs(alpha2) ** 2)
        # 0 * -inf at zero amplitude with zero occupation means the term is
        # alpha^0 = 1; mask those products rather than folding NaNs
        with np.errstate(invalid="ignore"):
            log_mag = (
                self.log_c + gauss - self.log_fact
                + np.where(self.na > 0, self.na * la1, 0.0)
                + np.where(self.nb > 0, self.nb * la2, 0.0)
            )
        phase = self.phase_c - self.na * pa1 - self.nb * pa2
        mag = np.exp(np.where(np.isnan(log_mag), -math.inf, log_mag))
        overlap = complex(math.fsum(mag * np.cos(phase)), math.fsum(mag * np.sin(phase)))
        return abs(overlap) ** 2 / math.pi


def husimi_point(state: ChargeState, alpha1: complex, alpha2: complex) -> float:
    """Husimi value Q(alpha1, alpha2) >= 0 for a normalized ladder state.

    Each term is carried as a log magnitude plus a phase (every term
    magnitude is bounded by its |c_n|) and the final sum is compensated.
    """
    return _OverlapTerms(state).evaluate(complex(alpha1), complex(alpha2))


def husimi_grid(
    state: ChargeState,
    alpha2: complex,
    x_range: tuple[float, float, int],
    y_range: tuple[float, float, int],
) -> HusimiGrid:
    """Evaluate Q over the lattice of Re(alpha1), Im(alpha1).

    Each lattice node is a self-contained husimi_point evaluation.
    """
    x0, x1, nx = x_range
    y0, y1, ny = y_range
    if nx < 2 or ny < 2:
        raise PreconditionError("grid counts must be >= 2")
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    values = np.empty(nx * ny)
    terms = _OverlapTerms(state)
    alpha2 = complex(alpha2)

    for ix in range(nx):
        for iy in range(ny):
            values[ix * ny + iy] = terms.evaluate(complex(xs[ix], ys[iy]), alpha2)
    return HusimiGrid(alpha2=complex(alpha2), x_range=tuple(x_range), y_range=tuple(y_range), values=values)


def husimi_norm_check(
    state: ChargeState, samples: int, radius: float, seed: int = 12345
) -> float:
    """Monte-Carlo estimate of the integral of Q over two amplitude disks.

    Both alpha1 and alpha2 are drawn uniformly from the disk |alpha| <=
    radius; for a radius holding all of the state's occupied amplitudes the
    estimate converges to pi.  The stream is a seeded generator consumed in
    fixed-size batches, so a given (samples, radius, seed) is reproducible.
    """
    if samples < 10_000:
        raise PreconditionError("husimi_norm_check requires samples >= 10^4")
    if radius <= 0:
        raise PreconditionError("radius must be positive")
    if radius > 18:
        raise PreconditionError("radius > 18 exceeds the overflow-safe range")
    rng = np.random.default_rng(seed)
    na, nb = state.occupations()
    c = state.coeffs
    inv_sqrt_na = 1.0 / np.sqrt(np.maximum(na, 1).astype(float))
    inv_sqrt_nb = 1.0 / np.sqrt(np.maximum(nb, 1).astype(float))

    total = 0.0
    batch = 100_000
    done = 0
    log_start = -0.5 * (log_factorial(int(na[0])) + log_factorial(int(nb[0])))
    while done < samples:
        m = min(batch, samples - done)
        u = rng.random((4, m))
        a1 = radius * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
        a2 = radius * np.sqrt(u[2]) * np.exp(2j * np.pi * u[3])
        b1 = np.conj(a1)
        b2 = np.conj(a2)
        # amp_n = conj(a1)^na / sqrt(na!) * conj(a2)^nb / sqrt(nb!), iterated
        # multiplicatively; bounded by exp((|a1|^2+|a2|^2)/2) which is finite
        # for the admitted radii.
        cur = b1 ** na[0] * b2 ** nb[0] * math.exp(log_start)
        overlap = c[0] * cur
        for n in range(1, state.n_max + 1):
            # both occupations advance by one per ladder step
            cur = cur * b1 * inv_sqrt_na[n] * b2 * inv_sqrt_nb[n]
            overlap = overlap + c[n] * cur
        q_vals = np.exp(-np.abs(a1) ** 2 - np.abs(a2) ** 2) * np.abs(overlap) ** 2 / np.pi
        total += float(q_vals.sum())
        done += m
    volume = (math.pi * radius**2) ** 2
    return volume * total / samples
