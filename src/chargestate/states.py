"""Construction and verification of fixed-charge two-mode ladder states.

A state with charge q lives on the ladder |n+q, n> (q >= 0) or |n, n-q>
(q <= 0).  The deformed pairing operator restricted to that ladder is a real
symmetric tridiagonal matrix; its eigenvalue relation at eigenvalue xi is a
three-term recursion in the ladder coefficients.  The primary construction
path is the forward recursion with seeds c_{-1} = 0, c_0 = 1; the bottom-up
continued fraction for the coefficient ratios is kept as an independent
cross-validation path.  The undeformed (f = 1) states have two builders,
the closed form and the two-variable-Hermite reference; both read their
alternating series from one exact-integer kernel, _hermite_diagonal, which
steps the polynomial by the Hermite index recurrence with O(1) big-integer
operations per ladder index, through one conversion to log magnitude and
phase, _diagonal_logs.  The closed form takes any complex xi and the
reference a real lam >= 0, stored as xi = lam; they differ in that parameter
and in their factorial prefactors.  The direct alternating sum, term by
term, is the tests' oracle for the kernel's integers.
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
)

PLUS = "plus"
MINUS = "minus"

# Whole-vector rescale threshold for the forward recursion; Penson-Solomon
# style deformations grow the raw coefficients geometrically.
RESCALE_LIMIT = 1e150

# Occupations per ladder (2048 * 1024), refused before any allocation.  The
# same working-set budget as husimi.MAX_GRID_NODES: a grid node costs about
# 170 bytes, an occupation at most about 300 (the pnd command), so 2^22 nodes
# and 2^21 occupations both stay within some 700 MB.
MAX_OCCUPATIONS = 1 << 21

# Recursion steps whose coefficients are converted to Python numbers at once;
# bounds the memory of those lists on long ladders.
_STEP_CHUNK = 512


def _branch_for_charge(q: int) -> str:
    """q = 0 is assigned to the plus branch; both formulas coincide there."""
    return PLUS if q >= 0 else MINUS


@dataclass(frozen=True)
class TruncationPolicy:
    """Ladder cutoff: the highest ladder index kept (inclusive)."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 0:
            raise PreconditionError("n_max must be >= 0")
        if self.n_max > MAX_OCCUPATIONS:
            raise PreconditionError(f"n_max {self.n_max} exceeds {MAX_OCCUPATIONS} occupations")


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
        if self.branch != _branch_for_charge(self.q) and self.q != 0:
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
            branch=_branch_for_charge(int(q)),
            n_max=len(raw) - 1,
            coeffs=coeffs,
            pre_norm=pre,
            log_pre_norm=log_pre,
            rescale_count=rescale_count,
        )

    def occupations(self) -> tuple[np.ndarray, np.ndarray]:
        """Mode occupations (n_a, n_b) for each ladder index."""
        n = np.arange(self.n_max + 1)
        lo, hi = _occupation_offsets(self.q)
        return n + lo, n + hi

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(self.coeffs) ** 2)) - 1.0)


def _occupation_offsets(q: int) -> tuple[int, int]:
    """(lo, hi) with ladder index n at occupations (n_a, n_b) = (n + lo, n + hi)."""
    return (q, 0) if q >= 0 else (0, -q)


def _ladder_count(n_max: int, a: int) -> int:
    """Occupations of the ladder of charge |q| = a; every builder refuses first."""
    count = n_max + a + 2
    if count > MAX_OCCUPATIONS:
        raise PreconditionError(f"ladder of {count} occupations exceeds {MAX_OCCUPATIONS}")
    return count


def ladder_elements(f: nl.NonlinearityFunction, q: int, n_max: int):
    """Tridiagonal matrix of the deformed pairing operator on the ladder.

    Returns (diag, offdiag) with diag[n] the diagonal entry at ladder index n
    and offdiag[n] the symmetric coupling between indices n-1 and n
    (offdiag[0] = 0; offdiag has length n_max + 2 so the boundary coupling out
    of the truncation window is available).  With (n_a, n_b) the occupations
    of index n, diag[n] = (n_a+1) f(n_a+1)^2 + n_b f(n_b)^2 and
    offdiag[n+1] = sqrt((n_a+1)(n_b+1)) f(n_a+1) f(n_b+1), in that operation
    order, from ``f.values``.  Every catalog f has f(1) = 1 and, up to
    rounding, f(n) >= 1 beyond, so offdiag[1:] >= 1 and the recursion never
    divides by zero.  If any element is not finite, LadderOverflowError names
    the lowest ladder index n at which diag[n] or offdiag[n] is not, which is
    the same for every cutoff that reaches it.  More than MAX_OCCUPATIONS
    occupations raise PreconditionError.
    """
    lo, hi = _occupation_offsets(q)
    count = _ladder_count(n_max, lo + hi)
    fv = np.asarray(f.values(count), dtype=float)
    na = np.arange(lo, lo + n_max + 1)
    nb = np.arange(hi, hi + n_max + 1)
    off = np.zeros(n_max + 2)
    with np.errstate(over="ignore", invalid="ignore"):
        f2 = fv * fv
        diag = (na + 1) * f2[lo + 1 : lo + n_max + 2] + nb * f2[hi : hi + n_max + 1]
        off[1:] = (np.sqrt(((na + 1) * (nb + 1)).astype(float))
                   * fv[lo + 1 : lo + n_max + 2] * fv[hi + 1 : hi + n_max + 2])
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
    if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
        raise PreconditionError(f"non-finite coordinate {xi!r}")
    n_max = cutoffs[-1]
    diag, off = ladder_elements(f, q, n_max)
    # a real xi steps Python floats, which round as the real parts of complex
    x, kind = (xi.real, float) if xi.imag == 0 else (xi, complex)
    c = np.zeros(n_max + 1, dtype=kind)
    c[0] = cur = kind(1.0)
    below = kind(0.0)
    log_scale = 0.0
    rescales = 0
    states = []
    n = 0
    # step n computes ((xi - d_n) c_n - t_n c_{n-1}) * (1 / t_{n+1}); the
    # reciprocal multiplies round as numpy's complex-by-real division does
    for stop in cutoffs:
        while n < stop:
            end = min(stop, n + _STEP_CHUNK)
            for s, t_n, r in zip((x - diag[n:end]).tolist(), off[n:end].tolist(),
                                 (1.0 / off[n + 1 : end + 1]).tolist()):
                nxt = (s * cur - t_n * below) * r
                below, cur = cur, nxt
                n += 1
                c[n] = nxt
                try:
                    grow = not abs(nxt) <= RESCALE_LIMIT  # NaN rescales too
                except OverflowError:  # |nxt| beyond double range, finite parts
                    grow = True
                if grow:
                    m = np.abs(c[: n + 1]).max()
                    if not math.isfinite(m):
                        raise LadderOverflowError(n)
                    c[: n + 1] *= 1.0 / m
                    below, cur = c[n - 1].item(), c[n].item()
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
    ``rescale_count``).  A non-finite xi raises PreconditionError.
    """
    return _recursion_states(f, q, complex(xi), (trunc.n_max,))[0]


def continued_fraction_ratio(
    f: nl.NonlinearityFunction, q: int, xi: complex, n: int
) -> complex:
    """Coefficient ratio c_n / c_{n-1} by the bottom-up continued fraction.

    The fraction terminates at the level containing xi minus the bottom
    diagonal entry; an exactly-zero intermediate denominator raises
    ContinuedFractionPoleError carrying the depth at which it occurred, and a
    non-finite xi PreconditionError.
    """
    if n < 1:
        raise PreconditionError("continued_fraction_ratio requires n >= 1")
    xi = complex(xi)
    if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
        raise PreconditionError(f"non-finite coordinate {xi!r}")
    diag, off = (v.tolist() for v in ladder_elements(f, q, n))
    d = xi - diag[0]
    for j in range(2, n + 1):
        if d == 0:
            raise ContinuedFractionPoleError(j - 1)
        t = off[j - 1]
        d = (xi - diag[j - 1]) - t * t / d
    return d / off[n]


# ---------------------------------------------------------------------------
# Exact closed-form builder for the undeformed (f = 1) states.
# ---------------------------------------------------------------------------

def log_factorial(n: int) -> float:
    """ln(n!) via lgamma, exact to the precision of the libm implementation."""
    if n < 0:
        raise PreconditionError("log_factorial requires n >= 0")
    return math.lgamma(n + 1)


def _split_binary(x: float):
    try:
        m, d = float(x).as_integer_ratio()
    except (OverflowError, ValueError):
        raise PreconditionError(f"non-finite coordinate {x!r}") from None
    return m, d.bit_length() - 1


def _hermite_diagonal(a: int, mr: int, mi: int, ee: int, n_max: int):
    """Yield D_n(xi) * 2^(ee n) for n = 0 .. n_max as (real, imag) integers.

    xi = (mr + i mi) / 2^ee exactly, and D_n(xi) = sum_k (-1)^k A_k xi^(n-k)
    with A_k = C(n, k) (n+a)!/(n+a-k)!, the diagonal H_{n+a,n}(z,z)/z^a of the
    two-variable Hermite polynomials at z^2 = xi.  With its neighbour
    E_n = H_{n+a+1,n}(z,z)/z^(a+1) it is stepped by the index recurrences
    D_0 = E_0 = 1, D_n = xi E_{n-1} - (n+a) D_{n-1}, E_n = D_n - n E_{n-1}:
    O(1) exact big-integer operations per index, so the catastrophic
    cancellation of the alternating series costs no precision.
    """
    s = 1 << ee
    d = e = 1
    di = ei = 0
    yield d, di
    for n in range(1, n_max + 1):
        d, di = mr * e - mi * ei - (n + a) * s * d, mr * ei + mi * e - (n + a) * s * di
        e, ei = d - n * s * e, di - n * s * ei
        yield d, di


def _diagonal_logs(a: int, xi: complex, n_max: int):
    """(ln|D_n(xi)|, arg D_n(xi), ln n!, ln (n+a)!) for n = 0 .. n_max, as arrays.

    The integers of _hermite_diagonal are exact; only this conversion rounds.
    D_n = 0 gives -inf and phase 0, a real D_n the phase 0 or pi, and a
    complex one is cut to its top 64 bits before its modulus and atan2.
    """
    mr, er = _split_binary(xi.real)
    mi, ei = _split_binary(xi.imag)
    ee = max(er, ei)
    ln2 = math.log(2.0)
    log_d = np.empty(n_max + 1)
    phases = np.empty(n_max + 1)
    terms = _hermite_diagonal(a, mr << (ee - er), mi << (ee - ei), ee, n_max)
    for n, (ar, ai) in enumerate(terms):
        if ar == 0 and ai == 0:
            log_d[n], phases[n] = -math.inf, 0.0
        elif mi == 0:
            log_d[n], phases[n] = math.log(abs(ar)) - n * ee * ln2, (0.0 if ar > 0 else math.pi)
        else:
            drop = max(max(abs(ar).bit_length(), abs(ai).bit_length()) - 64, 0)
            fr, fi = ar / (1 << drop), ai / (1 << drop)  # int true division rounds correctly
            log_d[n] = 0.5 * math.log(fr * fr + fi * fi) + (drop - n * ee) * ln2
            phases[n] = math.atan2(fi, fr)
    lf = [math.lgamma(k + 1) for k in range(n_max + 1)]
    lf_a = lf[a:] + [math.lgamma(k + 1) for k in range(max(a, n_max + 1), n_max + a + 1)]
    return log_d, phases, np.array(lf), np.array(lf_a)


def _materialize(q, xi, f_spec, logs: np.ndarray, phases: np.ndarray) -> ChargeState:
    """Turn per-coefficient (log magnitude, phase) arrays into a normalized state."""
    finite = logs > -math.inf
    if not finite.any():
        raise DegenerateStateError("all ladder coefficients vanished")
    top = logs[finite].max()
    # a real xi has the phases 0 and pi only: exact signs keep it real
    turn = np.exp(1j * phases) if xi.imag else np.where(phases > 0, -1.0, 1.0)
    raw = np.where(finite, np.exp(logs - top), 0.0) * turn
    return ChargeState.from_raw(q, xi, f_spec, raw, log_scale=top)


def build_linear_closed(q: int, xi: complex, trunc: TruncationPolicy) -> ChargeState:
    """Undeformed charge state from its closed-form coefficients.

    The coefficient at ladder index n is
    sqrt([n+|q|]! n!) * sum_k (-1)^k xi^(n-k) / (k! [n+|q|-k]! (n-k)!)
    with the bracket factorial [j]! = (j+|q|)!/|q|! shifted products, up to
    global normalization over the truncated ladder.  In integer-weight form
    the alternating inner sum is the polynomial D_n(xi) of _hermite_diagonal,
    taken exactly (the float xi is an exact binary rational); only its
    conversion to (log magnitude, phase) rounds, and the factorial
    prefactors are applied in log scale.
    """
    a = abs(int(q))
    _ladder_count(trunc.n_max, a)
    xi = complex(xi)
    log_d, phases, lf_n, lf_na = _diagonal_logs(a, xi, trunc.n_max)
    # sqrt([n+a]! n!) prefactor combined with the a!/(n! (n+a)!) factored
    # out of the integer-weight form of the inner sum
    return _materialize(q, xi, nl.unity(), log_d + 0.5 * (log_factorial(a) - lf_n - lf_na), phases)


# ---------------------------------------------------------------------------
# Two-variable-Hermite reference builder (undeformed states).
# ---------------------------------------------------------------------------

def hermite_reference_terms(q: int, lam: float, n_max: int):
    """Raw per-index (sign, log magnitude) of the Hermite reference state.

    The raw coefficient at ladder index n is
    H_{na,nb}(sqrt(lam), sqrt(lam)) / sqrt(na! nb!) with the occupations of
    the branch of q; the global exp(-lam/2) of the unnormalized reference is
    dropped (absorbed by normalization).  With z = sqrt(lam) and a = |q| it
    is z^a D_n(lam) / sqrt((n+a)! n!), where D_n = H_{n+a,n}(z,z)/z^a is the
    polynomial in lam that _hermite_diagonal steps exactly by the Hermite
    index recurrences: the Hermite values cancel catastrophically in double
    precision in exactly the regimes these states occupy.
    """
    if lam < 0:
        raise PreconditionError("lam must be >= 0")
    a = abs(int(q))
    _ladder_count(n_max, a)
    if lam == 0.0:
        # H_{m,n}(0, 0) vanishes unless m == n, where it is (-1)^n n!: n! / sqrt(n! n!) = 1
        if a:
            return np.zeros(n_max + 1), np.full(n_max + 1, -math.inf)
        return np.where(np.arange(n_max + 1) % 2, -1.0, 1.0), np.zeros(n_max + 1)
    log_d, phases, lf_n, lf_na = _diagonal_logs(a, complex(lam), n_max)
    signs = np.where(phases > 0, -1.0, 1.0)
    signs[log_d == -math.inf] = 0.0
    return signs, log_d + 0.5 * a * math.log(lam) - 0.5 * (lf_na + lf_n)


def build_hermite_reference(q: int, lam: float, trunc: TruncationPolicy) -> ChargeState:
    """Undeformed charge state via the two-variable Hermite expansion.

    The stored eigenvalue is xi = lam, the numerically resolved parameter map
    between the Hermite reference and the closed-form states.
    """
    signs, logs = hermite_reference_terms(q, lam, trunc.n_max)
    return _materialize(q, complex(lam), nl.unity(), logs, np.where(signs < 0, math.pi, 0.0))


# ---------------------------------------------------------------------------
# Residuals of the eigenvalue relation.
# ---------------------------------------------------------------------------

def eigen_residual(f: nl.NonlinearityFunction, state: ChargeState) -> np.ndarray:
    """Per-row residual |(T - xi) c| of the eigenvalue relation.

    Rows 0 .. n_max-1 are interior (enforced by the recursion, limited only
    by round-off); row n_max is the truncation boundary and is expected to
    be nonzero.  A row that is not finite raises LadderOverflowError naming
    the first such row.
    """
    n_max = state.n_max
    if n_max + 1 < 3:
        raise PreconditionError("eigen_residual requires ladder length >= 3")
    diag, off = ladder_elements(f, state.q, n_max)
    c = state.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        # row n is diag[n] c[n] + off[n] c[n-1] + off[n+1] c[n+1], added in that order
        image = diag * c
        image[1:] += off[1 : n_max + 1] * c[:-1]
        image[:-1] += off[1 : n_max + 1] * c[1:]
        rows = np.abs(image - state.xi * c)
    bad = ~np.isfinite(rows)
    if bad.any():
        raise LadderOverflowError(int(bad.argmax()))
    return rows


# ---------------------------------------------------------------------------
# Convergence reporting across cutoffs.
# ---------------------------------------------------------------------------

NORM_DIVERGENCE_FACTOR = 10.0
DIAG_TOL = 1e-3

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
    coarse: ChargeState
    fine: ChargeState
    log_pre_norm_ratio: float
    norm_divergent: bool
    drifts: tuple[DiagnosticDrift, ...]

    def converged(self) -> dict[str, bool]:
        return {d.name: d.converged for d in self.drifts}


def _check_cutoffs(n1: int, n2: int):
    if not (3 <= n1 < n2):
        raise PreconditionError("convergence_report requires 3 <= n1 < n2")


def convergence_report(
    f: nl.NonlinearityFunction,
    q: int,
    xi: complex,
    n1: int,
    n2: int,
) -> ConvergenceReport:
    """Compare states built at cutoffs n1 < n2, both from one recursion.

    The report keeps both states; the coarse one is bit-identical to
    build_deformed at n1.

    A diagnostic is flagged converged when its relative change between the
    cutoffs is at most DIAG_TOL (undefined values are never converged); the
    state is flagged norm-divergent when the raw pre-normalization weight
    grows by more than NORM_DIVERGENCE_FACTOR.
    """
    _check_cutoffs(n1, n2)
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
        drifts.append(DiagnosticDrift(name, v1, v2, rel, rel <= DIAG_TOL))
    log_ratio = fine_state.log_pre_norm - coarse_state.log_pre_norm
    return ConvergenceReport(
        n_coarse=n1,
        n_fine=n2,
        coarse=coarse_state,
        fine=fine_state,
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
        "pre_norm": state.pre_norm if state.pre_norm < math.inf else None,
        "log_pre_norm": state.log_pre_norm,
        "rescale_count": state.rescale_count,
    }


def state_from_document(doc: dict) -> ChargeState:
    """Inverse of state_to_document.  A document holding a non-finite number,
    or a norm error above 1e-9 (the benchmark gate's), raises PreconditionError."""
    f_spec = nl.NonlinearityFunction(doc["f"]["name"], doc["f"]["params"])
    coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]])
    state = ChargeState(
        q=int(doc["q"]),
        xi=complex(doc["xi"][0], doc["xi"][1]),
        f_spec=f_spec,
        branch=doc["branch"],
        n_max=int(doc["n_max"]),
        coeffs=coeffs,
        pre_norm=math.inf if doc["pre_norm"] is None else float(doc["pre_norm"]),
        log_pre_norm=float(doc["log_pre_norm"]),
        rescale_count=int(doc["rescale_count"]),
    )
    error = state.norm_error()  # NaN or inf for a non-finite coefficient
    numbers = [state.xi, state.log_pre_norm, doc["pre_norm"] or 0.0]  # null pre_norm: overflowed
    if not (error <= 1e-9 and np.isfinite(numbers).all()):
        raise PreconditionError(f"state document needs finite numbers and a norm error "
                                f"<= 1e-9, got norm error {error:.3g}")
    return state
