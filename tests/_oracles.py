"""Independent oracles used by the test suite.

Everything here recomputes expected values by routes disjoint from the
package implementation: exact rational arithmetic, literal brute-force
series, dense two-mode operator algebra, and large-n asymptotics of the
recursion elements.
"""

import cmath
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Associated Laguerre polynomials.
# ---------------------------------------------------------------------------

def laguerre_series(n, alpha, x):
    """L_n^(alpha)(x) by the literal finite series, float arithmetic."""
    return math.fsum(
        (-1) ** k * math.comb(n + alpha, n - k) * x**k / math.factorial(k)
        for k in range(n + 1)
    )


def laguerre_exact(n, alpha, x):
    """L_n^(alpha)(x) as an exact Fraction (x taken as exact binary rational)."""
    xf = Fraction(*float(x).as_integer_ratio())
    return sum(
        (-1) ** k * Fraction(math.comb(n + alpha, n - k), math.factorial(k)) * xf**k
        for k in range(n + 1)
    )


def unity_raw_weight_exact(q, xi, n):
    """Exact |c_n|^2 of the undeformed recursion seeded c_0 = 1.

    c_n = (-1)^n sqrt(|q|! n!/(n+|q|)!) L_n^(|q|)(xi), so the weight is
    rational for rational xi.
    """
    a = abs(q)
    lag = laguerre_exact(n, a, xi)
    return Fraction(math.factorial(a) * math.factorial(n), math.factorial(n + a)) * lag * lag


def unity_pre_norm_exact(q, xi, n_max):
    """Exact pre-normalization weight of the undeformed state at a cutoff."""
    a = abs(q)
    xf = Fraction(*float(xi).as_integer_ratio())
    total = Fraction(0)
    lag_prev, lag = Fraction(1), Fraction(1 + a) - xf
    fa = math.factorial(a)
    for n in range(n_max + 1):
        val = lag_prev if n == 0 else lag
        total += Fraction(fa * math.factorial(n), math.factorial(n + a)) * val * val
        if 1 <= n <= n_max:
            nxt = ((2 * n + a + 1 - xf) * val - (n + a) * lag_prev) / (n + 1)
            lag_prev, lag = val, nxt
    return total


def unity_mean_na_exact(q, xi, n_max):
    """Exact <n_a> of the truncated, normalized undeformed state."""
    a = abs(q)
    xf = Fraction(*float(xi).as_integer_ratio())
    norm = Fraction(0)
    acc = Fraction(0)
    lag_prev, lag = Fraction(1), Fraction(1 + a) - xf
    fa = math.factorial(a)
    for n in range(n_max + 1):
        val = lag_prev if n == 0 else lag
        w = Fraction(fa * math.factorial(n), math.factorial(n + a)) * val * val
        norm += w
        acc += w * (n + a if q >= 0 else n)
        if 1 <= n <= n_max:
            nxt = ((2 * n + a + 1 - xf) * val - (n + a) * lag_prev) / (n + 1)
            lag_prev, lag = val, nxt
    return acc / norm


# ---------------------------------------------------------------------------
# Two-variable Hermite polynomial, exact brute force.
# ---------------------------------------------------------------------------

def hermite_exact(m, n, z):
    """H_{m,n}(z, conj(z)) summed exactly over rational re/im parts.

    Returns an exact (Fraction, Fraction) pair for the real and imaginary
    parts; the float z is treated as the exact binary rational it is.
    """
    zr = Fraction(*float(z.real).as_integer_ratio())
    zi = Fraction(*float(z.imag).as_integer_ratio())

    def cpow(re, im, k):
        pr, pi = Fraction(1), Fraction(0)
        for _ in range(k):
            pr, pi = pr * re - pi * im, pr * im + pi * re
        return pr, pi

    total_r, total_i = Fraction(0), Fraction(0)
    for k in range(min(m, n) + 1):
        coef = Fraction(
            (-1) ** k * math.factorial(m) * math.factorial(n),
            math.factorial(k) * math.factorial(m - k) * math.factorial(n - k),
        )
        ar, ai = cpow(zr, zi, m - k)
        br, bi = cpow(zr, -zi, n - k)
        pr, pi = ar * br - ai * bi, ar * bi + ai * br
        total_r += coef * pr
        total_i += coef * pi
    return total_r, total_i


# ---------------------------------------------------------------------------
# Dense two-mode operator oracle.
# ---------------------------------------------------------------------------

class TwoModeSpace:
    """Dense two-mode Fock space with deformed ladder operators."""

    def __init__(self, dim_a, dim_b, f):
        self.dim_a, self.dim_b = dim_a, dim_b
        a = np.diag(np.sqrt(np.arange(1, dim_a)), 1)
        b = np.diag(np.sqrt(np.arange(1, dim_b)), 1)
        fa = np.diag([f(n) for n in range(dim_a)])
        fb = np.diag([f(n) for n in range(dim_b)])
        ia, ib = np.eye(dim_a), np.eye(dim_b)
        self.a = np.kron(a @ fa, ib)        # a f(n_a) acting on mode a
        self.b = np.kron(ia, b @ fb)
        self.a_plain = np.kron(a, ib)
        self.b_plain = np.kron(ia, b)
        self.na = self.a_plain.conj().T @ self.a_plain
        self.nb = self.b_plain.conj().T @ self.b_plain

    def pairing_operator(self):
        """(A + B+)(A+ + B) with the deformed ladder operators."""
        A, B = self.a, self.b
        return (A + B.conj().T) @ (A.conj().T + B)

    def embed(self, state):
        """Ladder state -> dense two-mode vector."""
        na, nb = state.occupations()
        psi = np.zeros(self.dim_a * self.dim_b, dtype=complex)
        for n in range(state.n_max + 1):
            psi[na[n] * self.dim_b + nb[n]] = state.coeffs[n]
        return psi

    def expect(self, op, psi):
        return (psi.conj() @ op @ psi).real

    def coherent(self, alpha1, alpha2):
        def single(alpha, dim):
            n = np.arange(dim)
            vec = alpha ** n / np.sqrt([math.factorial(int(k)) for k in n])
            return math.exp(-abs(alpha) ** 2 / 2) * vec
        return np.kron(single(alpha1, self.dim_a), single(alpha2, self.dim_b))


# ---------------------------------------------------------------------------
# Coefficient-asymptotics oracle for pre-norm growth.
# ---------------------------------------------------------------------------

def dominant_ratio(f, q, probe=120):
    """Large-n magnitude of the raw coefficient ratio |c_{n+1}/c_n|.

    From the characteristic equation B^2 + a B + b = 0 of the three-term
    recursion with a = d_n/t_{n+1}, b = t_n/t_{n+1} evaluated at a deep probe
    index (xi is negligible there).
    """
    a_q = abs(q)
    if q >= 0:
        d = (probe + q + 1) * f(probe + q + 1) ** 2 + probe * f(probe) ** 2
        t_lo = math.sqrt((probe + q) * probe) * f(probe + q) * f(probe)
        t_hi = math.sqrt((probe + q + 1) * (probe + 1)) * f(probe + q + 1) * f(probe + 1)
    else:
        d = (probe + 1) * f(probe + 1) ** 2 + (probe + a_q) * f(probe + a_q) ** 2
        t_lo = math.sqrt(probe * (probe + a_q)) * f(probe) * f(probe + a_q)
        t_hi = math.sqrt((probe + 1) * (probe + 1 + a_q)) * f(probe + 1) * f(probe + 1 + a_q)
    a = d / t_hi
    b = t_lo / t_hi
    disc = a * a - 4 * b
    if disc <= 0:
        return math.sqrt(b)
    return (a + math.sqrt(disc)) / 2


def predicted_log10_pre_norm_ratio(f, q, n1, n2):
    """Asymptotic prediction of log10(pre_norm(n2)/pre_norm(n1))."""
    r = dominant_ratio(f, q)
    if r <= 1.0:
        return 0.0
    return 2 * (n2 - n1) * math.log10(r)


# ---------------------------------------------------------------------------
# Scalar reference ladder and recursion.
# ---------------------------------------------------------------------------

def ladder_scalar(f, q, n_max):
    """(diag, off) element by element, two f evaluations per element.

    An OverflowError from f propagates; the kernel maps it to inf.
    """
    def squared(k):
        v = f(k)
        return v * v

    a = abs(q)
    diag = np.empty(n_max + 1)
    off = np.zeros(n_max + 2)
    if q >= 0:
        for n in range(n_max + 1):
            diag[n] = (n + q + 1) * squared(n + q + 1) + n * squared(n)
        for n in range(1, n_max + 2):
            off[n] = math.sqrt((n + q) * n) * f(n + q) * f(n)
    else:
        for n in range(n_max + 1):
            diag[n] = (n + 1) * squared(n + 1) + (n + a) * squared(n + a)
        for n in range(1, n_max + 2):
            off[n] = math.sqrt(n * (n + a)) * f(n) * f(n + a)
    return diag, off


def recursion_scalar(diag, off, xi, n_max, rescale_limit):
    """Forward recursion on numpy scalars: (raw, log_scale, rescales).

    Seeds c_{-1} = 0, c_0 = 1; the whole prefix is divided by its largest
    magnitude whenever a coefficient exceeds rescale_limit.
    """
    xi = complex(xi)
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = 1.0
    below = 0.0 + 0.0j
    log_scale = 0.0
    rescales = 0
    for n in range(n_max):
        nxt = ((xi - diag[n]) * c[n] - off[n] * below) / off[n + 1]
        below = c[n]
        c[n + 1] = nxt
        if abs(nxt) > rescale_limit:
            m = np.abs(c[: n + 2]).max()
            c[: n + 2] /= m
            below /= m
            log_scale += math.log(m)
            rescales += 1
    return c, log_scale, rescales


# ---------------------------------------------------------------------------
# Husimi references: term-by-term log-magnitude overlap, exact disk integral.
# ---------------------------------------------------------------------------

class TermwiseLogOverlap:
    """Husimi Q at single nodes, each overlap term carried as a log magnitude
    and a phase with the Gaussian folded in, and summed with fsum.

    ``evaluate`` returns (Q, bound): Q = |sum_n t_n|^2 / pi with
    t_n = exp(-(|a1|^2 + |a2|^2)/2) c_n conj(a1)^na conj(a2)^nb / sqrt(na! nb!),
    and bound = (sum_n |t_n|)^2 / pi, the scale of the rounding error where
    the terms cancel.
    """

    def __init__(self, state):
        self.na, self.nb = state.occupations()
        c = state.coeffs
        nonzero = c != 0
        self.log_c = np.where(nonzero, np.log(np.abs(np.where(nonzero, c, 1.0))), -math.inf)
        self.phase_c = np.angle(c)
        self.log_fact = 0.5 * np.array(
            [math.lgamma(a + 1.0) + math.lgamma(b + 1.0) for a, b in zip(self.na, self.nb)])

    def evaluate(self, alpha1, alpha2):
        alpha1, alpha2 = complex(alpha1), complex(alpha2)
        la1 = math.log(abs(alpha1)) if alpha1 else -math.inf
        la2 = math.log(abs(alpha2)) if alpha2 else -math.inf
        gauss = -0.5 * (abs(alpha1) ** 2 + abs(alpha2) ** 2)
        # 0 * -inf at zero amplitude with zero occupation means the term is
        # alpha^0 = 1; mask those products rather than folding NaNs
        with np.errstate(invalid="ignore"):
            log_mag = (self.log_c + gauss - self.log_fact
                       + np.where(self.na > 0, self.na * la1, 0.0)
                       + np.where(self.nb > 0, self.nb * la2, 0.0))
        phase = self.phase_c - self.na * cmath.phase(alpha1) - self.nb * cmath.phase(alpha2)
        mag = np.exp(np.where(np.isnan(log_mag), -math.inf, log_mag))
        overlap = complex(math.fsum(mag * np.cos(phase)), math.fsum(mag * np.sin(phase)))
        return abs(overlap) ** 2 / math.pi, math.fsum(mag) ** 2 / math.pi


def regularized_gamma_p(k, x):
    """P(k, x) for integer k >= 1: 1 - exp(-x) sum_{i<k} x^i / i!."""
    return 1.0 - math.fsum(math.exp(i * math.log(x) - x - math.lgamma(i + 1.0)) for i in range(k))


def husimi_disk_integral(state, radius):
    """The integral of Q over |alpha1|, |alpha2| <= radius, in closed form.

    The angular integrals remove every cross term between ladder kets, and
    the radial integral of |<alpha|n>|^2 over the disk is pi P(n+1, r^2), so
    the integral is pi sum_n |c_n|^2 P(na+1, r^2) P(nb+1, r^2).
    """
    x = radius * radius
    na, nb = state.occupations()
    return math.pi * math.fsum(
        abs(c) ** 2 * regularized_gamma_p(int(a) + 1, x) * regularized_gamma_p(int(b) + 1, x)
        for c, a, b in zip(state.coeffs, na, nb))
