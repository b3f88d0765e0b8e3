"""Construction and verification of fixed-charge two-mode ladder states.

A state with charge q lives on the ladder |n+q, n> (q >= 0) or |n, n-q>
(q <= 0).  The deformed pairing operator restricted to that ladder is a real
symmetric tridiagonal matrix; its eigenvalue relation at eigenvalue xi is a
three-term recursion in the ladder coefficients.  The primary construction
path is the forward recursion with seeds c_{-1} = 0, c_0 = 1; the bottom-up
continued fraction for the coefficient ratios is kept as an independent
cross-validation path, and the undeformed (f = 1) states have an exact
closed-form builder plus a two-variable-Hermite reference builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nonlinearity as nl
from .errors import (
    ContinuedFractionPoleError,
    DegenerateStateError,
    LadderOverflowError,
    PreconditionError,
    ZeroDenominatorError,
)

PLUS = "plus"
MINUS = "minus"

# Whole-vector rescale threshold for the forward recursion; Penson-Solomon
# style deformations grow the raw coefficients geometrically.
RESCALE_LIMIT = 1e150

# Recursion steps whose coefficients are converted to Python numbers at once;
# bounds the memory of those lists on long ladders.
_STEP_CHUNK = 512


def branch_for_charge(q: int) -> str:
    """q = 0 is assigned to the plus branch; both formulas coincide there."""
    return PLUS if q >= 0 else MINUS


@dataclass(frozen=True)
class TruncationPolicy:
    """Ladder cutoff: the highest ladder index kept (inclusive)."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 0:
            raise PreconditionError("n_max must be >= 0")


@dataclass(frozen=True)
class ChargeState:
    """A normalized coefficient vector over a fixed-charge two-mode ladder.

    ``coeffs[n]`` is the amplitude on the n-th ladder ket, i.e. |n+q, n> on
    the plus branch and |n, n-q> on the minus branch.  ``pre_norm`` is the
    sum of squared raw coefficients before normalization (seed scale
    c_0 = 1 for the recursion builders); it overflows to inf gracefully and
    ``log_pre_norm`` is always finite for nondegenerate states.
    """

    q: int
    xi: complex
    f_spec: nl.NonlinearityFunction
    branch: str
    n_max: int
    coeffs: np.ndarray
    pre_norm: float
    log_pre_norm: float
    rescale_count: int

    def __post_init__(self):
        if self.branch not in (PLUS, MINUS):
            raise PreconditionError(f"branch must be {PLUS!r} or {MINUS!r}")
        if self.branch != branch_for_charge(self.q) and self.q != 0:
            raise PreconditionError(f"branch {self.branch!r} inconsistent with q={self.q}")
        if len(self.coeffs) != self.n_max + 1:
            raise PreconditionError("coeffs length must equal n_max + 1")
        self.coeffs.setflags(write=False)

    @classmethod
    def from_raw(cls, q, xi, f_spec, raw, *, log_scale=0.0, rescale_count=0) -> "ChargeState":
        """Normalize a raw coefficient vector into a ChargeState.

        ``log_scale`` is ln of the factor relating ``raw`` to the original
        (seed) scale, accumulated by any overflow rescaling.
        """
        raw = np.asarray(raw, dtype=complex)
        ssq = float(np.sum(np.abs(raw) ** 2))
        if ssq == 0.0:
            raise DegenerateStateError("all ladder coefficients vanished")
        log_pre = math.log(ssq) + 2.0 * log_scale
        try:
            pre = math.exp(log_pre)
        except OverflowError:
            pre = math.inf
        coeffs = raw / math.sqrt(ssq)
        return cls(
            q=int(q),
            xi=complex(xi),
            f_spec=f_spec,
            branch=branch_for_charge(int(q)),
            n_max=len(raw) - 1,
            coeffs=coeffs,
            pre_norm=pre,
            log_pre_norm=log_pre,
            rescale_count=rescale_count,
        )

    def occupations(self) -> tuple[np.ndarray, np.ndarray]:
        """Mode occupations (n_a, n_b) for each ladder index."""
        n = np.arange(self.n_max + 1)
        if self.branch == PLUS:
            return n + self.q, n
        return n, n - self.q

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(self.coeffs) ** 2)) - 1.0)


def ladder_elements(f: nl.NonlinearityFunction, q: int, n_max: int):
    """Tridiagonal matrix of the deformed pairing operator on the ladder.

    Returns (diag, offdiag) with diag[n] the diagonal entry at ladder index n
    and offdiag[n] the symmetric coupling between indices n-1 and n
    (offdiag[0] = 0; offdiag has length n_max + 2 so the boundary coupling out
    of the truncation window is available).  f is evaluated once per
    occupation 0 .. n_max+|q|+1; an OverflowError raised while evaluating it
    makes that value and every later one inf.  If any element is not finite,
    LadderOverflowError names the lowest ladder index n at which diag[n] or
    offdiag[n] is not, which is the same for every cutoff that reaches it.
    """
    a = abs(q)
    size = n_max + a + 2
    values = []
    try:
        for k in range(size):
            values.append(f(k))
    except OverflowError:
        values += [math.inf] * (size - len(values))
    fv = np.array(values, dtype=float)
    n = np.arange(n_max + 1)
    off = np.zeros(n_max + 2)
    # each element is formed in the operation order of its scalar formula,
    # (n+q+1) f(n+q+1)^2 + n f(n)^2 and sqrt((n+q) n) f(n+q) f(n), so it is
    # the same double
    with np.errstate(over="ignore", invalid="ignore"):
        f2 = fv * fv
        if q >= 0:
            diag = (n + q + 1) * f2[q + 1 : q + n_max + 2] + n * f2[: n_max + 1]
            off[1:] = (np.sqrt(((n + 1 + q) * (n + 1)).astype(float))
                       * fv[q + 1 : q + n_max + 2] * fv[1 : n_max + 2])
        else:
            diag = (n + 1) * f2[1 : n_max + 2] + (n + a) * f2[a : a + n_max + 1]
            off[1:] = (np.sqrt(((n + 1) * (n + 1 + a)).astype(float))
                       * fv[1 : n_max + 2] * fv[a + 1 : a + n_max + 2])
    bad = ~np.isfinite(off)
    bad[:-1] |= ~np.isfinite(diag)
    if bad.any():
        raise LadderOverflowError(int(bad.argmax()))
    return diag, off


def _recursion_states(
    f: nl.NonlinearityFunction, q: int, xi: complex, cutoffs
) -> list[ChargeState]:
    """States of the forward recursion at each of the increasing cutoffs.

    One ladder is built for the last cutoff and one recursion runs up to it
    on Python numbers, not numpy scalars.  The recursion never looks ahead,
    so the state at an earlier cutoff, taken right after the step that
    writes its last coefficient and before any later rescale, is
    bit-identical to a separate build at that cutoff.
    """
    n_max = cutoffs[-1]
    diag, off = ladder_elements(f, q, n_max)
    zero = np.flatnonzero(off[1 : n_max + 1] == 0.0)
    if zero.size:
        raise ZeroDenominatorError(int(zero[0]) + 1)
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = cur = 1.0 + 0.0j
    below = 0.0j
    log_scale = 0.0
    rescales = 0
    states = []
    n = 0
    # step n computes ((xi - d_n) c_n - t_n c_{n-1}) * (1 / t_{n+1}); the
    # reciprocal multiply rounds as numpy's complex-by-real division does
    for stop in cutoffs:
        while n < stop:
            end = min(stop, n + _STEP_CHUNK)
            for s, t_n, r in zip((xi - diag[n:end]).tolist(), off[n:end].tolist(),
                                 (1.0 / off[n + 1 : end + 1]).tolist()):
                nxt = (s * cur - t_n * below) * r
                below, cur = cur, nxt
                n += 1
                c[n] = nxt
                try:
                    grow = abs(nxt) > RESCALE_LIMIT
                except OverflowError:  # |nxt| beyond double range, finite parts
                    grow = True
                if grow:
                    m = np.abs(c[: n + 1]).max()
                    c[: n + 1] /= m
                    below, cur = complex(c[n - 1]), complex(c[n])
                    log_scale += math.log(m)
                    rescales += 1
        states.append(ChargeState.from_raw(q, xi, f, c[: stop + 1], log_scale=log_scale,
                                           rescale_count=rescales))
    return states


def build_deformed(
    f: nl.NonlinearityFunction, q: int, xi: complex, trunc: TruncationPolicy
) -> ChargeState:
    """Build the deformed charge state by forward three-term recursion.

    Seeds are c_{-1} = 0, c_0 = 1; the vector is globally normalized
    afterwards, which fixes the free bottom coefficient.  The whole vector is
    rescaled whenever a coefficient exceeds RESCALE_LIMIT (counted in
    ``rescale_count``).
    """
    return _recursion_states(f, q, complex(xi), (trunc.n_max,))[0]


def continued_fraction_ratio(
    f: nl.NonlinearityFunction, q: int, xi: complex, n: int
) -> complex:
    """Coefficient ratio c_n / c_{n-1} by the bottom-up continued fraction.

    The fraction terminates at the level containing xi minus the bottom
    diagonal entry; an exactly-zero intermediate denominator raises
    ContinuedFractionPoleError carrying the depth at which it occurred.
    """
    if n < 1:
        raise PreconditionError("continued_fraction_ratio requires n >= 1")
    xi = complex(xi)
    diag, off = ladder_elements(f, q, n)
    d = xi - diag[0]
    for j in range(2, n + 1):
        if d == 0:
            raise ContinuedFractionPoleError(j - 1)
        d = (xi - diag[j - 1]) - off[j - 1] ** 2 / d
    t_n = off[n]
    if t_n == 0.0:
        raise ZeroDenominatorError(n)
    return d / t_n


# ---------------------------------------------------------------------------
# Exact closed-form builder for the undeformed (f = 1) states.
# ---------------------------------------------------------------------------

def log_factorial(n: int) -> float:
    """ln(n!) via lgamma, exact to the precision of the libm implementation."""
    if n < 0:
        raise PreconditionError("log_factorial requires n >= 0")
    return math.lgamma(n + 1)


def _inner_sum_coefficients(n: int, a: int) -> list[int]:
    """Integer weights A_k = C(n, k) * (n+a)(n+a-1)...(n+a-k+1), k = 0..n."""
    weights = [1]
    acc = 1
    for k in range(n):
        acc = acc * (n - k) // (k + 1) * (n + a - k)
        weights.append(acc)
    return weights


def _split_binary(x: float):
    try:
        m, d = float(x).as_integer_ratio()
    except (OverflowError, ValueError):
        raise PreconditionError(f"non-finite coordinate {x!r}") from None
    e = d.bit_length() - 1
    return m, e


def _bigint_to_float(v: int, shift: int) -> float:
    """Approximate v / 2**shift without overflowing intermediate floats."""
    if v == 0:
        return 0.0
    bl = v.bit_length()
    drop = max(bl - 64, 0)
    return math.ldexp(float(v >> drop) if v > 0 else -float((-v) >> drop), drop - shift)


def _exact_alternating_sum_log(n: int, a: int, xi: complex):
    """log-magnitude and phase of P_n(xi) = sum_k (-1)^k A_k xi^(n-k).

    The polynomial has integer coefficients and is evaluated exactly in
    integer arithmetic (the float xi is an exact binary rational), so the
    severe cancellation of the alternating sum costs no precision; only the
    final conversion to (log_abs, phase) rounds.
    """
    weights = _inner_sum_coefficients(n, a)
    mr, er = _split_binary(xi.real)
    mi, ei = _split_binary(xi.imag)
    ee = max(er, ei)
    mr <<= ee - er
    mi <<= ee - ei
    # Horner on P(xi) * 2**(ee*n): coefficient of xi^j is (-1)^(n-j) A_{n-j}.
    ar, ai = 1, 0  # leading coefficient A_0 = 1
    pure_real = mi == 0
    for s in range(1, n + 1):
        b = -weights[s] if s % 2 else weights[s]
        if pure_real:
            ar = ar * mr + (b << (ee * s))
        else:
            ar, ai = ar * mr - ai * mi + (b << (ee * s)), ar * mi + ai * mr
    if ar == 0 and ai == 0:
        return -math.inf, 0.0
    if pure_real:
        return math.log(abs(ar)) - n * ee * math.log(2.0), (0.0 if ar > 0 else math.pi)
    bl = max(abs(ar).bit_length(), abs(ai).bit_length())
    drop = max(bl - 64, 0)
    fr = _bigint_to_float(ar, drop)
    fi = _bigint_to_float(ai, drop)
    log_abs = 0.5 * math.log(fr * fr + fi * fi) + (drop - n * ee) * math.log(2.0)
    return log_abs, math.atan2(fi, fr)


def _materialize(q, xi, f_spec, logs, phases) -> ChargeState:
    """Turn per-coefficient (log magnitude, phase) into a normalized state."""
    logs = np.asarray(logs, dtype=float)
    phases = np.asarray(phases, dtype=float)
    finite = logs > -math.inf
    if not finite.any():
        raise DegenerateStateError("all ladder coefficients vanished")
    top = logs[finite].max()
    raw = np.where(finite, np.exp(logs - top), 0.0) * np.exp(1j * phases)
    return ChargeState.from_raw(q, xi, f_spec, raw, log_scale=top)


def build_linear_closed(q: int, xi: complex, trunc: TruncationPolicy) -> ChargeState:
    """Undeformed charge state from its closed-form coefficients.

    The coefficient at ladder index n is
    sqrt([n+|q|]! n!) * sum_k (-1)^k xi^(n-k) / (k! [n+|q|-k]! (n-k)!)
    with the bracket factorial [j]! = (j+|q|)!/|q|! shifted products, up to
    global normalization over the truncated ladder.  The alternating inner
    sum is evaluated exactly (see _exact_alternating_sum_log); the factorial
    prefactors are applied in log scale.
    """
    a = abs(int(q))
    xi = complex(xi)
    n_max = trunc.n_max
    lf_a = log_factorial(a)
    logs = np.empty(n_max + 1)
    phases = np.empty(n_max + 1)
    for n in range(n_max + 1):
        log_p, phase = _exact_alternating_sum_log(n, a, xi)
        # sqrt([n+a]! n!) prefactor combined with the a!/(n! (n+a)!) factored
        # out of the integer-weight form of the inner sum
        logs[n] = log_p + 0.5 * (lf_a - log_factorial(n) - log_factorial(n + a))
        phases[n] = phase
    return _materialize(q, xi, nl.unity(), logs, phases)


# ---------------------------------------------------------------------------
# Two-variable-Hermite reference builder (undeformed states).
# ---------------------------------------------------------------------------

def hermite_reference_terms(q: int, lam: float, n_max: int):
    """Raw per-index (sign, log magnitude) of the Hermite reference state.

    The raw coefficient at ladder index n is
    H_{na,nb}(sqrt(lam), sqrt(lam)) / sqrt(na! nb!) with the occupations of
    the branch of q; the global exp(-lam/2) of the unnormalized reference is
    dropped (absorbed by normalization).  At real arguments sqrt(lam) the
    Hermite values are lam^(|q|/2) times integer-coefficient polynomials in
    lam, which are summed exactly in integer arithmetic: the defining
    alternating sum cancels catastrophically in double precision in exactly
    the regimes these states occupy, where its terms grow far larger than
    the Hermite value they sum to.
    """
    if lam < 0:
        raise PreconditionError("lam must be >= 0")
    a = abs(int(q))
    signs = np.zeros(n_max + 1)
    logs = np.full(n_max + 1, -math.inf)
    if lam == 0.0:
        # H_{m,n}(0, 0) vanishes unless m == n, where it is (-1)^n n!.
        if a == 0:
            for n in range(n_max + 1):
                signs[n] = -1.0 if n % 2 else 1.0
                logs[n] = 0.0  # n! / sqrt(n! n!) = 1
        return signs, logs
    ml, el = _split_binary(lam)
    ln2 = math.log(2.0)
    half_global = 0.5 * a * math.log(lam)
    for n in range(n_max + 1):
        m = n + a
        # H_{m,n}(z,z) with z^2 = lam: sum_k (-1)^k W_k lam^(n-k) * lam^(a/2),
        # W_k = m! n! / (k! (m-k)! (n-k)!); scaled by 2^(el n) it is an
        # integer series in ml = lam * 2^el, summed by Horner in ml.
        total = 0
        w = 1
        for k in range(n + 1):
            t = w << (el * k)
            total = total * ml + (-t if (k & 1) else t)
            if k < n:
                w = w * (n - k) // (k + 1) * (m - k)
        if total == 0:
            continue
        signs[n] = 1.0 if total > 0 else -1.0
        logs[n] = (
            math.log(abs(total)) - n * el * ln2 + half_global
            - 0.5 * (log_factorial(m) + log_factorial(n))
        )
    return signs, logs


def build_hermite_reference(q: int, lam: float, trunc: TruncationPolicy) -> ChargeState:
    """Undeformed charge state via the two-variable Hermite expansion.

    The stored eigenvalue is xi = lam, the numerically resolved parameter map
    between the Hermite reference and the closed-form states.
    """
    signs, logs = hermite_reference_terms(q, lam, trunc.n_max)
    phases = np.where(signs < 0, math.pi, 0.0)
    logs = np.where(signs == 0, -math.inf, logs)
    return _materialize(q, complex(lam), nl.unity(), logs, phases)


# ---------------------------------------------------------------------------
# Tridiagonal application and residuals.
# ---------------------------------------------------------------------------

def apply_tridiagonal(f: nl.NonlinearityFunction, state: ChargeState):
    """Apply the ladder tridiagonal of f to the state's coefficient vector.

    Returns (image, leakage): the image restricted to the truncation window,
    and the magnitude of the component that would leave it.
    """
    n_max = state.n_max
    diag, off = ladder_elements(f, state.q, n_max)
    c = state.coeffs
    # row n is diag[n] c[n] + off[n] c[n-1] + off[n+1] c[n+1], added in that order
    out = diag * c
    out[1:] += off[1 : n_max + 1] * c[:-1]
    out[:-1] += off[1 : n_max + 1] * c[1:]
    leakage = abs(off[n_max + 1] * c[n_max])
    return out, leakage


def eigen_residual(f: nl.NonlinearityFunction, state: ChargeState) -> np.ndarray:
    """Per-row residual |(T - xi) c| of the eigenvalue relation.

    Rows 0 .. n_max-1 are interior (enforced by the recursion, limited only
    by round-off); row n_max is the truncation boundary and is expected to
    be nonzero.
    """
    if state.n_max + 1 < 3:
        raise PreconditionError("eigen_residual requires ladder length >= 3")
    image, _ = apply_tridiagonal(f, state)
    return np.abs(image - state.xi * state.coeffs)


# ---------------------------------------------------------------------------
# Convergence reporting across cutoffs.
# ---------------------------------------------------------------------------

NORM_DIVERGENCE_FACTOR = 10.0

CONVERGENCE_DIAGNOSTICS = ("mean_na", "mandel_a", "g2_a", "g12", "i0")


@dataclass(frozen=True)
class DiagnosticDrift:
    name: str
    coarse: Optional[float]
    fine: Optional[float]
    rel_change: Optional[float]
    converged: bool


@dataclass(frozen=True)
class ConvergenceReport:
    n_coarse: int
    n_fine: int
    diag_tol: float
    pre_norm_coarse: float
    pre_norm_fine: float
    log_pre_norm_ratio: float
    norm_divergent: bool
    drifts: tuple[DiagnosticDrift, ...]

    def converged(self) -> dict[str, bool]:
        return {d.name: d.converged for d in self.drifts}

    @property
    def pre_norm_ratio(self) -> float:
        try:
            return math.exp(self.log_pre_norm_ratio)
        except OverflowError:
            return math.inf


def convergence_report(
    f: nl.NonlinearityFunction,
    q: int,
    xi: complex,
    n1: int,
    n2: int,
    diag_tol: float = 1e-3,
) -> ConvergenceReport:
    """Compare states built at cutoffs n1 < n2, both from one recursion.

    A diagnostic is flagged converged when its relative change between the
    cutoffs is at most diag_tol (undefined values are never converged); the
    state is flagged norm-divergent when the raw pre-normalization weight
    grows by more than NORM_DIVERGENCE_FACTOR.
    """
    if not (3 <= n1 < n2):
        raise PreconditionError("convergence_report requires 3 <= n1 < n2")
    if not (math.isfinite(diag_tol) and diag_tol > 0):
        raise PreconditionError("diag_tol must be finite and positive")
    from . import diagnostics as dg

    def values(state):
        mom = dg.moments(state)
        return {name: dg.DIAGNOSTICS[name](mom) for name in CONVERGENCE_DIAGNOSTICS}

    coarse_state, fine_state = _recursion_states(f, q, complex(xi), (n1, n2))
    coarse, fine = values(coarse_state), values(fine_state)
    drifts = []
    for name in CONVERGENCE_DIAGNOSTICS:
        v1, v2 = coarse[name], fine[name]
        if v1 is None or v2 is None:
            drifts.append(DiagnosticDrift(name, v1, v2, None, False))
            continue
        if v1 == 0.0:
            rel = 0.0 if v2 == 0.0 else math.inf
        else:
            rel = abs(v2 - v1) / abs(v1)
        drifts.append(DiagnosticDrift(name, v1, v2, rel, rel <= diag_tol))
    log_ratio = fine_state.log_pre_norm - coarse_state.log_pre_norm
    return ConvergenceReport(
        n_coarse=n1,
        n_fine=n2,
        diag_tol=diag_tol,
        pre_norm_coarse=coarse_state.pre_norm,
        pre_norm_fine=fine_state.pre_norm,
        log_pre_norm_ratio=log_ratio,
        norm_divergent=log_ratio > math.log(NORM_DIVERGENCE_FACTOR),
        drifts=tuple(drifts),
    )


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def state_to_document(state: ChargeState) -> dict:
    """Serializable document for a state (schema consumed by the CLI)."""
    return {
        "q": state.q,
        "xi": [state.xi.real, state.xi.imag],
        "f": {"name": state.f_spec.kind, "params": dict(state.f_spec.params)},
        "branch": state.branch,
        "n_max": state.n_max,
        "coeffs": [[c.real, c.imag] for c in state.coeffs],
        "pre_norm": state.pre_norm,
        "rescale_count": state.rescale_count,
    }


def state_from_document(doc: dict) -> ChargeState:
    f_spec = nl.NonlinearityFunction(doc["f"]["name"], doc["f"]["params"])
    coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]])
    pre = float(doc["pre_norm"])
    return ChargeState(
        q=int(doc["q"]),
        xi=complex(doc["xi"][0], doc["xi"][1]),
        f_spec=f_spec,
        branch=doc["branch"],
        n_max=int(doc["n_max"]),
        coeffs=coeffs,
        pre_norm=pre,
        log_pre_norm=math.log(pre) if 0 < pre < math.inf else math.inf,
        rescale_count=int(doc["rescale_count"]),
    )
