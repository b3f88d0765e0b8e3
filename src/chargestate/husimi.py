"""Two-mode Husimi quasi-probability at points, on grids, and its norm check.

All three evaluate one kernel, ``_q_values``, over arrays of (alpha1, alpha2)
nodes.  On a fixed-charge ladder the coherent overlap is

    <alpha1, alpha2|psi> = w^|q| sum_n p_n z^n,   p_n = c_n / sqrt(n_a! n_b!),

with z = conj(alpha1 alpha2) and w = conj(alpha1) for q >= 0, conj(alpha2)
for q < 0.  The ladder is cut into segments of ``_SEGMENT`` coefficients,
each divided by its largest |p_n| and summed in z by Estrin's scheme for all
nodes at once.  The segment sums are combined in log-magnitude form, relative
to the node's largest one (the per-node scale), and Q is one exp of that
scale plus 2 log|sum|, the Gaussian and |q| log|w|^2.  So nothing overflows
and no significant term underflows, for any finite amplitudes and ladder
length.  Every step is elementwise over nodes or a sum along one node's own
row, so ``husimi_point`` equals the matching ``husimi_grid`` node bit for bit.

The single 1/pi prefactor of the two-mode definition is kept as is; under it
the phase-space integral of Q over all of C^2 is pi for any normalized state,
which is what the Monte-Carlo norm check targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .states import ChargeState

# Ladder coefficients per segment (a power of two), and the nodes x ladder
# elements evaluated at once, which bounds every working array.
_SEGMENT = 16
_BLOCK = 1 << 16
# Weights below exp(-700) cannot change a double sum, and exp is slow there.
_LOG_FLOOR = -700.0
# |z| is capped at exp(46), so |z|^(_SEGMENT - 1) stays finite; beyond it the
# Gaussian exp(-2|z|) makes Q underflow to 0 for any ladder below 10^17.
_LOG_Z_CAP = 46.0
# log 0 where 0 * log 0 or a difference of two must stay defined.
_LOG_ZERO = -1e300


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


def _unit(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """v / |v| given r = |v|, and 0 where v = 0: part by part, since a complex
    v / r overflows for subnormal r."""
    out = np.zeros_like(v)
    np.divide(v.real, r, out=out.real, where=r > 0)
    np.divide(v.imag, r, out=out.imag, where=r > 0)
    return out


def _q_values(state: ChargeState, alpha1, alpha2) -> np.ndarray:
    """Q at every node (alpha1[i], alpha2[i]): the one coherent-overlap kernel."""
    amp = np.array([alpha1, alpha2], dtype=complex)
    if not np.isfinite(amp).all():
        raise PreconditionError("Husimi amplitudes must be finite")
    c, charge = state.coeffs, abs(state.q)
    width = min(_SEGMENT, 1 << (len(c) - 1).bit_length())
    count = -(-len(c) // width)
    coef = np.concatenate((c, np.zeros(count * width - len(c)))).reshape(count, width)
    # log k!; on either branch the occupations of ladder index n are n and n + |q|
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, coef.size + charge)))))
    start = np.arange(count)[:, None] * width  # each segment's first ladder index
    out = np.empty(amp.shape[1])
    # log 0 = -inf is meant throughout; overflow to inf only where Q is 0
    with np.errstate(divide="ignore", over="ignore"):
        abs_c = np.abs(coef)
        log_p = np.log(abs_c) - 0.5 * (log_fact[:coef.size] + log_fact[charge:]).reshape(count, width)
        scale = log_p.max(axis=1, keepdims=True, initial=_LOG_ZERO)
        rows = np.exp(log_p - scale) * _unit(coef, abs_c)  # p_n / exp(scale), by segment
        step = max(1, _BLOCK // (count * _SEGMENT))
        for at in range(0, len(out), step):
            # 2-D (2, m) and (1, m) rows: numpy multiplies complex arrays of equal
            # dimension by one formula for any m, a 1-D factor by another at m = 1
            block = amp[:, at:at + step]
            r = np.minimum(np.abs(block), np.finfo(float).max)  # |alpha| of finite alpha can be inf
            log_r = np.maximum(np.log(r), _LOG_ZERO)
            log_z = np.minimum(log_r[:1] + log_r[1:], _LOG_Z_CAP)
            unit = _unit(block, r)
            u = (unit[:1] * unit[1:]).conj()  # z / |z|
            acc, power = rows.T[:, :, None], (u * np.exp(log_z))[None]
            while len(acc) > 1:  # Estrin's scheme, all segments at once
                acc, power = acc[0::2] + acc[1::2] * power, power * power
            mag = np.abs(acc[0])
            log_seg = scale + start * log_z + np.log(mag)
            top = log_seg.max(axis=0, keepdims=True, initial=_LOG_ZERO)
            weight = np.exp(np.maximum(log_seg - top, _LOG_FLOOR))
            terms = _unit(acc[0], mag) * weight * u ** start
            # summed along each node's own contiguous row: the same order for any m
            total = np.einsum("ij->i", np.ascontiguousarray(terms.T))
            log_w = log_r[0 if state.q > 0 else 1]
            log_q = 2.0 * (top[0] + np.log(np.abs(total)) + charge * log_w) - (r * r).sum(axis=0)
            out[at:at + step] = np.exp(log_q) / math.pi
    return out


def husimi_point(state: ChargeState, alpha1: complex, alpha2: complex) -> float:
    """Husimi value Q(alpha1, alpha2) >= 0 for a normalized ladder state."""
    return float(_q_values(state, [complex(alpha1)], [complex(alpha2)])[0])


def husimi_grid(
    state: ChargeState,
    alpha2: complex,
    x_range: tuple[float, float, int],
    y_range: tuple[float, float, int],
) -> HusimiGrid:
    """Evaluate Q over the lattice of Re(alpha1), Im(alpha1).

    Each node equals the husimi_point evaluation at alpha1 = complex(x, y).
    """
    x0, x1, nx = x_range
    y0, y1, ny = y_range
    if nx < 2 or ny < 2:
        raise PreconditionError("grid counts must be >= 2")
    alpha1 = np.add.outer(np.linspace(x0, x1, nx), 1j * np.linspace(y0, y1, ny)).ravel()
    alpha2 = complex(alpha2)
    values = _q_values(state, alpha1, np.full(nx * ny, alpha2))
    return HusimiGrid(alpha2=alpha2, x_range=tuple(x_range), y_range=tuple(y_range), values=values)


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
    if not 0 < radius <= 18:  # false for NaN too
        raise PreconditionError("radius must lie in (0, 18], the overflow-safe range")
    rng = np.random.default_rng(seed)
    total = 0.0
    for done in range(0, samples, 100_000):
        u = rng.random((4, min(100_000, samples - done)))
        a1 = radius * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
        a2 = radius * np.sqrt(u[2]) * np.exp(2j * np.pi * u[3])
        total += float(_q_values(state, a1, a2).sum())
    return (math.pi * radius**2) ** 2 * total / samples
