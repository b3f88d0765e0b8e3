"""Two-mode Husimi quasi-probability at points, on grids, and its norm check.

All three evaluate one kernel over blocks of (alpha1, alpha2) nodes.  On a
fixed-charge ladder the coherent overlap is

    <alpha1, alpha2|psi> = w^|q| sum_n p_n z^n,   p_n = c_n / sqrt(n_a! n_b!),

with z = conj(alpha1 alpha2) and w = conj(alpha1) for q >= 0, conj(alpha2)
for q < 0.  The ladder is cut into segments of ``_SEGMENT`` coefficients,
each divided by its largest |p_n|, and every segment is summed in z by
Horner's scheme for a block of nodes at once.  The segment sums are combined
in log-magnitude form, relative to the node's largest one (the per-node
scale), their phases by Horner's scheme in (z/|z|)^_SEGMENT, and Q is one exp
of that scale plus 2 log|sum|, the Gaussian and |q| log|w|^2.  So nothing
overflows and no significant term underflows, for any finite amplitudes and
ladder length.

The kernel, ``_polar_q_values``, evaluates one block of ``_block_size`` nodes
per call, each in polar form: log|alpha1|, log|alpha2|, the phase z/|z| and
|alpha1|^2 + |alpha2|^2.  Its callers loop over the blocks and form a block's
nodes only then, so no working array outgrows one block: ``husimi_grid`` from
its axes through ``_q_values``, the Cartesian front whose one-node case is
``husimi_point``, and the norm check from its uniform draws.  Every step is
elementwise over nodes or along one node's own column, so a point equals its
grid node bit for bit.

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

# Ladder coefficients per segment (a power of two), and the nodes x segments
# of one kernel call (see _block_size), which bounds every working array.
_SEGMENT = 16
_BLOCK = 1 << 15
# Weights below exp(-700) cannot change a double sum, and exp is slow there.
_LOG_FLOOR = -700.0
# |z| is capped at exp(46), so |z|^(_SEGMENT - 1) stays finite; beyond it the
# Gaussian exp(-2|z|) makes Q underflow to 0 for any ladder below 10^17.
_LOG_Z_CAP = 46.0
# log 0 where 0 * log 0 or a difference of two must stay defined.
_LOG_ZERO = -1e300
_FLOAT_MAX = np.finfo(float).max
# Nodes per husimi_grid call (2048 x 2048), refused before any allocation: a
# node costs its 8-byte value, and in the CLI some 220 bytes of CSV text.
MAX_GRID_NODES = 1 << 22

# The segment table of the last state evaluated, as (state, table).
_last_table = None


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
    out, positive = np.zeros_like(v), r > 0
    np.divide(v.real, r, out=out.real, where=positive)
    np.divide(v.imag, r, out=out.imag, where=positive)
    return out


def _segment_table(state: ChargeState) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The state's ladder cut into segments, as (scale, start, columns).

    Segment k holds the ``width`` coefficients p_n from ladder index
    ``start[k]`` on, divided by exp(``scale[k]``), the largest |p_n| in it.
    ``columns`` are the (count, 1) slices of those rows in Horner order,
    highest power first.  The table of the last state is kept, keyed by its
    identity: a state is frozen and its coefficients read-only.
    """
    global _last_table
    memo = _last_table  # read once: a concurrent call can only recompute
    if memo is not None and memo[0] is state:
        return memo[1]
    c, charge = state.coeffs, abs(state.q)
    width = min(_SEGMENT, 1 << (len(c) - 1).bit_length())
    count = -(-len(c) // width)
    coef = np.concatenate((c, np.zeros(count * width - len(c)))).reshape(count, width)
    # log k!; on either branch the occupations of ladder index n are n and n + |q|
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, coef.size + charge)))))
    with np.errstate(divide="ignore"):  # log 0 = -inf is meant
        abs_c = np.abs(coef)
        log_p = np.log(abs_c) - 0.5 * (log_fact[:coef.size] + log_fact[charge:]).reshape(count, width)
    scale = log_p.max(axis=1, keepdims=True, initial=_LOG_ZERO)
    rows = np.exp(log_p - scale) * _unit(coef, abs_c)
    columns = tuple(rows[:, j:j + 1] for j in range(width - 1, -1, -1))
    table = scale, np.arange(count)[:, None] * width, columns
    _last_table = state, table
    return table


def _block_size(state: ChargeState) -> int:
    """Nodes per kernel call, for every caller: _BLOCK node-segments, counting a
    ladder of under 4 segments as 4, since its ~20 per-node temporaries dominate."""
    return max(1, _BLOCK // max(len(_segment_table(state)[0]), 4))


def _polar_q_values(state: ChargeState, log_r: np.ndarray, u: np.ndarray,
                    gauss: np.ndarray) -> np.ndarray:
    """Q at one block of m nodes in polar form: the one coherent-overlap kernel.

    ``log_r`` (2, m) holds log|alpha1| and log|alpha2|, at least _LOG_ZERO;
    ``u`` (1, m) is z / |z| for z = conj(alpha1 alpha2), 0 where z = 0; and
    ``gauss`` (m) is |alpha1|^2 + |alpha2|^2.
    """
    scale, start, columns = _segment_table(state)
    # overflow to inf only where Q is 0, and log 0 = -inf is meant throughout
    with np.errstate(divide="ignore", over="ignore"):
        # complex products only between 2-D arrays and into a new array:
        # numpy rounds those alike for any m, but not one made in place
        log_z = np.minimum(log_r[:1] + log_r[1:], _LOG_Z_CAP)
        z = u * np.exp(log_z)
        if z.shape[1] == 1:  # a lone node: a product unbroadcast is faster, same bits
            z = np.repeat(z, len(scale), axis=0)
        acc = np.repeat(columns[0], u.shape[1], axis=1)
        for column in columns[1:]:  # Horner's scheme, all segments at once
            acc = acc * z
            acc += column  # a sum rounds the same in place
        mag = np.abs(acc)
        log_seg = scale + start * log_z + np.log(mag)
        top = log_seg.max(axis=0, keepdims=True, initial=_LOG_ZERO)
        terms = _unit(acc, mag) * np.exp(np.maximum(log_seg - top, _LOG_FLOOR))
        # sum over segments k of terms[k] u^(k width), by Horner's scheme in u^width
        power, total = u, terms[-1:]
        for _ in range(len(columns).bit_length() - 1):
            power = power * power
        for row in terms[-2::-1]:
            total = total * power + row
        log_w = log_r[0 if state.q > 0 else 1]
        log_q = 2.0 * (top[0] + np.log(np.abs(total[0])) + abs(state.q) * log_w)
        return np.exp(log_q - gauss) / math.pi


def _q_values(state: ChargeState, alpha1, alpha2) -> np.ndarray:
    """Q at one block of nodes (alpha1[i], alpha2[i]): the kernel's Cartesian front."""
    amp = np.array([alpha1, alpha2], dtype=complex)
    if not np.isfinite(amp).all():
        raise PreconditionError("Husimi amplitudes must be finite")
    r = np.minimum(np.abs(amp), _FLOAT_MAX)  # |alpha| of finite alpha can be inf
    with np.errstate(divide="ignore", over="ignore"):
        log_r = np.maximum(np.log(r), _LOG_ZERO)
        gauss = (r * r).sum(axis=0)
    unit = _unit(amp, r)
    return _polar_q_values(state, log_r, (unit[:1] * unit[1:]).conj(), gauss)


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
    if nx * ny > MAX_GRID_NODES:
        raise PreconditionError(f"grid of {nx} x {ny} nodes exceeds {MAX_GRID_NODES} nodes")
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise PreconditionError("grid range bounds must be finite")
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise PreconditionError("grid range spans must lie within double range")
    xs, iys, alpha2 = np.linspace(x0, x1, nx), 1j * np.linspace(y0, y1, ny), complex(alpha2)
    values, step = np.empty(nx * ny), _block_size(state)
    for at in range(0, len(values), step):
        i = np.arange(at, min(at + step, len(values)))
        values[at:at + step] = _q_values(state, xs[i // ny] + iys[i % ny], np.full(len(i), alpha2))
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
    # alpha1 = radius sqrt(u0) exp(2 pi i u1), alpha2 likewise from u2, u3, in
    # batches of n; every batch reuses one buffer for its draws and one for its
    # values, since arrays made per batch go back to the OS and fault in again
    rng, step, log_radius = np.random.default_rng(seed), _block_size(state), math.log(radius)
    n = min(samples, 100_000)
    buf, q, total = np.empty(4 * n), np.empty(n), 0.0
    for done in range(0, samples, n):
        u = rng.random(out=buf[:4 * min(n, samples - done)]).reshape(4, -1)
        values = q[:u.shape[1]]
        for at in range(0, len(values), step):
            v = u[:, at:at + step]
            with np.errstate(divide="ignore"):  # v0 or v2 = 0 gives log 0 = -inf
                log_r = np.maximum(log_radius + 0.5 * np.log(v[0::2]), _LOG_ZERO)
            # conj(alpha1 alpha2) / |alpha1 alpha2|, by cos and sin: a complex exp is slower
            angle = -2 * np.pi * (v[1:2] + v[3:4])
            phase = np.empty(angle.shape, dtype=complex)
            np.cos(angle, out=phase.real)
            np.sin(angle, out=phase.imag)
            values[at:at + step] = _polar_q_values(state, log_r, phase, radius**2 * (v[0] + v[2]))
        total += float(values.sum())
    return (math.pi * radius**2) ** 2 * total / samples
