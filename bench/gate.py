"""Correctness gate for benchmark requests, with oracles of its own.

Every request is classified after it completes (outside the timed region)
into one of five outcomes, in this order of precedence:

    raw_exception  an exception other than ChargeStateError escaped
    nonfinite      a returned state or value carries NaN/inf where the API
                   promises a finite number, or emitted JSON holds
                   Infinity/NaN
    wrong          a finite output disagrees with an oracle below
    typed_error    the library refused with a ChargeStateError (CLI exit 1/2)
    ok

The oracles re-derive what they need from the coefficients with code that
shares nothing with the library: the deformation catalog and ladder matrix
elements in vectorised numpy, moments, and the coherent-state overlap.
Tolerances sit far above double round-off so that a faster kernel that
rounds differently still passes, and far below any real defect.
"""

from __future__ import annotations

import json
import math

import numpy as np

OK = "ok"
TYPED_ERROR = "typed_error"
NONFINITE = "nonfinite"
RAW_EXCEPTION = "raw_exception"
WRONG = "wrong"
OUTCOMES = (OK, TYPED_ERROR, NONFINITE, RAW_EXCEPTION, WRONG)

NORM_TOL = 1e-9          # |sum |c|^2 - 1|
RESIDUAL_TOL = 1e-12     # interior residual row / sum of that row's term magnitudes
COLLINEAR_TOL = 1e-9     # componentwise, as acceptance criterion 1
HERMITE_COS_TOL = 1e-9   # 1 - |<h, c>|, as acceptance criterion 4
RATIO_TOL = 1e-8         # continued fraction against the recursion prefix
VALUE_TOL = 1e-9         # diagnostics recomputed from the coefficients
HUSIMI_REL_TOL = 1e-7    # Husimi amplitude sqrt(Q) against the overlap below ...
HUSIMI_ABS_TOL = 1e-10   # ... plus this share of its summed term magnitudes
NORM_CHECK_TOL = 0.03    # Monte-Carlo integral of Q within 3% of pi
TINY = 1e-280            # coefficients below this carry no relative precision


class Verdict:
    """Collects findings for one request and turns them into an outcome."""

    def __init__(self):
        self.nonfinite: list[str] = []
        self.wrong: list[str] = []

    def finite(self, what: str, *values) -> bool:
        for v in values:
            if v is None or not np.all(np.isfinite(np.asarray(v, dtype=complex))):
                self.nonfinite.append(what)
                return False
        return True

    def expect(self, what: str, condition) -> bool:
        if not condition:
            self.wrong.append(what)
        return bool(condition)

    def outcome(self, error: BaseException | None, typed: type) -> tuple[str, str]:
        if error is not None and not isinstance(error, typed):
            return RAW_EXCEPTION, f"{type(error).__name__}: {error}"
        if self.nonfinite:
            return NONFINITE, "; ".join(self.nonfinite)
        if self.wrong:
            return WRONG, "; ".join(self.wrong)
        if error is not None:
            return TYPED_ERROR, type(error).__name__
        return OK, ""


# ---------------------------------------------------------------------------
# Independent deformation catalog and ladder.
# ---------------------------------------------------------------------------

def f_values(spec: str, n: np.ndarray) -> np.ndarray:
    """f(n) for the spec grammar unity | ps:<p> | sqrt | qdef:<q>."""
    n = np.asarray(n, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec == "unity":
            return np.ones_like(n)
        if spec == "sqrt":
            return np.sqrt(n)
        if spec.startswith("ps:"):
            return np.power(float(spec[3:]), 1.0 - n)
        if spec.startswith("qdef:"):
            ell = math.log(float(spec[5:]))
            safe = np.where(n == 0, 1.0, n)
            val = np.sqrt(np.sinh(safe * ell) / (safe * math.sinh(ell)))
            return np.where(n == 0, 1.0, val)
    raise ValueError(f"unknown spec {spec!r}")


def ladder(spec: str, q: int, n_max: int):
    """(diag, off) of the pairing operator on the charge-q ladder.

    off[n] couples ladder indices n-1 and n; off has n_max + 2 entries.
    """
    n = np.arange(n_max + 2, dtype=float)
    a = abs(q)
    lo, hi = (n + q, n) if q >= 0 else (n, n + a)   # occupations of the two modes
    f_lo, f_hi = f_values(spec, lo), f_values(spec, hi)
    f_lo1 = f_values(spec, lo + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = ((lo + 1) * f_lo1**2 + hi * f_hi**2)[: n_max + 1]
        off = np.sqrt(lo * hi) * f_lo * f_hi
    off[0] = 0.0
    return diag, off


def occupations(q: int, n_max: int):
    n = np.arange(n_max + 1)
    return (n + q, n) if q >= 0 else (n, n - q)


def residual_rows(spec, q, xi, coeffs):
    """Per-row |(T - xi) c| and the sum of that row's term magnitudes."""
    n_max = len(coeffs) - 1
    diag, off = ladder(spec, q, n_max)
    c = np.asarray(coeffs, dtype=complex)
    mag = np.abs(c)
    inner = off[1: n_max + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        image = diag * c
        image[1:] += inner * c[:-1]
        image[:-1] += inner * c[1:]
        scale = (np.abs(diag) + abs(xi)) * mag
        scale[1:] += inner * mag[:-1]
        scale[:-1] += inner * mag[1:]
    return np.abs(image - xi * c), scale


# ---------------------------------------------------------------------------
# Checks on library objects.
# ---------------------------------------------------------------------------

def state_finite(v: Verdict, state, what="state") -> bool:
    return v.finite(f"{what} coefficients", state.coeffs) and v.finite(
        f"{what} log_pre_norm", state.log_pre_norm)


def check_state(v: Verdict, state, spec: str, q: int, xi: complex, n_max: int, what="state"):
    """Norm, ladder length and the scale-relative interior residual."""
    if not state_finite(v, state, what):
        return
    c = np.asarray(state.coeffs)
    if not v.expect(f"{what} length", len(c) == n_max + 1 and state.q == q):
        return
    v.expect(f"{what} norm", abs(float(np.sum(np.abs(c) ** 2)) - 1.0) <= NORM_TOL)
    resid, scale = residual_rows(spec, q, xi, c)
    mag = np.abs(c)
    local = mag.copy()
    local[1:] = np.maximum(local[1:], mag[:-1])
    local[:-1] = np.maximum(local[:-1], mag[1:])
    rows = (local[:-1] > TINY) & np.isfinite(scale[:-1]) & (scale[:-1] > 0)
    rel = resid[:-1][rows] / scale[:-1][rows]
    v.expect(f"{what} interior residual", rel.size == 0 or float(rel.max()) <= RESIDUAL_TOL)


def check_residual_output(v: Verdict, rows, state, spec, q, xi):
    """eigen_residual's rows against the oracle rows, scale-relative."""
    if not v.finite("eigen_residual rows", rows):
        return
    want, scale = residual_rows(spec, q, xi, state.coeffs)
    ok = np.isfinite(scale)
    gap = np.abs(np.asarray(rows)[ok] - want[ok])
    v.expect("eigen_residual rows", len(rows) == len(want)
             and bool(np.all(gap <= RESIDUAL_TOL * scale[ok] + 1e-300)))


def moments_of(coeffs, q):
    """Occupation moments of a ladder state, pair moments normally ordered."""
    w = np.abs(np.asarray(coeffs)) ** 2
    na, nb = (x.astype(float) for x in occupations(q, len(w) - 1))
    return {
        "mean_na": float(w @ na), "mean_na2": float(w @ (na * na)),
        "mean_nb": float(w @ nb), "mean_nb2": float(w @ (nb * nb)),
        "aa": float(w @ (na * (na - 1))), "bb": float(w @ (nb * (nb - 1))),
        "cross": float(w @ (na * nb)),
    }


def diagnostics_of(coeffs, q) -> dict:
    """The nonclassicality criteria, None where their denominator vanishes."""
    m = moments_of(coeffs, q)
    out = {}
    for mode, pair in (("a", "aa"), ("b", "bb")):
        mean, mean2 = m[f"mean_n{mode}"], m[f"mean_n{mode}2"]
        out[f"mandel_{mode}"] = None if mean == 0 else (mean2 - mean * mean) / mean - 1.0
        out[f"g2_{mode}"] = None if mean == 0 else m[pair] / (mean * mean)
    ma, mb = m["mean_na"], m["mean_nb"]
    out["g12"] = None if ma == 0 or mb == 0 else m["cross"] / (ma * mb)
    out["i0"] = None if m["cross"] == 0 else math.sqrt(m["aa"] * m["bb"]) / abs(m["cross"]) - 1.0
    out["mean_na"] = ma
    out["dx2"] = ma + 0.5
    return out


def close(got, want, scale=1.0, tol=VALUE_TOL) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol * (abs(want) + scale)


def check_value(v: Verdict, name, got, want, scale=1.0):
    """A diagnostic against its oracle; None must match None exactly."""
    if got is not None and not v.finite(name, got):
        return
    v.expect(name, close(got, want, scale))


def check_report(v: Verdict, report, state, q):
    """full_report fields against diagnostics recomputed from the coefficients."""
    want = diagnostics_of(state.coeffs, q)
    scale = 1.0 + want["mean_na"]
    for name in ("mandel_a", "mandel_b", "g2_a", "g2_b", "g12", "i0"):
        check_value(v, f"full_report.{name}", getattr(report, name), want[name], scale)
    check_value(v, "full_report.dx2", report.dx2, want["dx2"])
    check_value(v, "full_report.dp2", report.dp2, want["dx2"])


def check_distribution(v: Verdict, rows, coeffs, q):
    """Photon-number rows (n, n_a, n_b, p) against |c_n|^2."""
    p = np.array([r[3] for r in rows], dtype=float)
    if not v.finite("photon distribution", p):
        return
    na, nb = occupations(q, len(coeffs) - 1)
    w = np.abs(np.asarray(coeffs)) ** 2
    v.expect("photon distribution", len(rows) == len(w)
             and all(r[0] == i and r[1] == na[i] and r[2] == nb[i] for i, r in enumerate(rows))
             and bool(np.all(np.abs(p - w) <= 1e-12 + VALUE_TOL * w)))


def check_convergence(v: Verdict, report, state, q, n1, n2, diag_tol=1e-3):
    """A convergence report: finite where promised and self-consistent.

    pre_norm may overflow to inf by design; log_pre_norm_ratio may not.
    The coarse cutoff equals the state's, so its values are recomputed.
    """
    values = [d.coarse for d in report.drifts] + [d.fine for d in report.drifts]
    if not v.finite("convergence log_pre_norm_ratio", report.log_pre_norm_ratio):
        return
    if not v.finite("convergence diagnostics", *[x for x in values if x is not None]):
        return
    want = diagnostics_of(state.coeffs, q)
    scale = 1.0 + want["mean_na"]
    for d in report.drifts:
        v.expect(f"convergence coarse {d.name}", close(d.coarse, want[d.name], scale))
        if d.rel_change is not None:
            v.expect(f"convergence flag {d.name}", d.converged == (d.rel_change <= diag_tol))
    v.expect("convergence cutoffs", (report.n_coarse, report.n_fine) == (n1, n2))
    v.expect("convergence divergence flag",
             report.norm_divergent == (report.log_pre_norm_ratio > math.log(10.0)))


def check_ratio(v: Verdict, k: int, ratio, pole_depth, coeffs):
    """continued_fraction_ratio(k) against the recursion's c_k / c_(k-1).

    Compared as |r c_(k-1) - c_k| on the scale of the prefix c_0..c_k, times
    |r| when that exceeds 1: both ratios carry the round-off of c_(k-1), which
    |r| amplifies when c_(k-1) sits near a sign change.  A pole at depth d
    must sit on a vanishing c_d.
    """
    c = np.asarray(coeffs)
    scale = float(np.abs(c[: k + 1]).max())
    if pole_depth is not None:
        v.expect("continued fraction pole", abs(c[pole_depth]) <= 1e-12 * max(scale, TINY))
        return
    if not v.finite("continued fraction ratio", ratio):
        return
    v.expect("continued fraction ratio",
             abs(ratio * c[k - 1] - c[k]) <= RATIO_TOL * scale * max(1.0, abs(ratio)) + 1e-300)


def check_collinear(v: Verdict, what, got, ref):
    """got equals ref up to one global phase, componentwise as criterion 1."""
    if not v.finite(what, got, ref):
        return
    a, b = np.asarray(got), np.asarray(ref)
    s = np.vdot(b, a)
    if not v.expect(what, s != 0):
        return
    a = a * (np.conj(s) / abs(s))
    mag = np.abs(b)
    v.expect(what, bool(np.all(np.abs(a - b) <= COLLINEAR_TOL * mag + 1e-15 * mag.max())))


def check_hermite(v: Verdict, herm, closed):
    if v.finite("hermite reference", herm):
        v.expect("hermite reference", 1.0 - abs(np.vdot(herm, closed)) <= HERMITE_COS_TOL)


# ---------------------------------------------------------------------------
# Husimi oracle.
# ---------------------------------------------------------------------------

def _log_factorials(m: int) -> np.ndarray:
    out = np.zeros(m + 1)
    out[1:] = np.cumsum(np.log(np.arange(1, m + 1, dtype=float)))
    return out


def overlap_q(coeffs, q: int, alpha1: complex, alpha2: complex) -> tuple[float, float]:
    """Q = exp(-|a1|^2 - |a2|^2)/pi |sum_n t_n|^2 with
    t_n = c_n conj(a1)^na conj(a2)^nb / sqrt(na! nb!), and the same expression
    with |t_n| summed, the scale of the rounding error when the terms cancel.

    Terms are carried as log magnitude and phase, shifted by their maximum
    before summation so nothing overflows.
    """
    c = np.asarray(coeffs, dtype=complex)
    na, nb = occupations(q, len(c) - 1)
    lf = _log_factorials(int(max(na.max(), nb.max())))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.log(np.abs(c))
        la1 = np.where(na > 0, na * math.log(abs(alpha1)) if alpha1 else -np.inf, 0.0)
        la2 = np.where(nb > 0, nb * math.log(abs(alpha2)) if alpha2 else -np.inf, 0.0)
    log_t = log_c + la1 + la2 - 0.5 * (lf[na] + lf[nb])
    top = log_t.max()
    if not np.isfinite(top):
        return 0.0, 0.0
    phase = np.angle(c) - na * np.angle(alpha1) - nb * np.angle(alpha2)
    mag = np.exp(log_t - top)
    gauss = 2.0 * top - abs(alpha1) ** 2 - abs(alpha2) ** 2
    s = abs(np.sum(mag * np.exp(1j * phase)))
    q_value = math.exp(gauss + 2.0 * math.log(s)) / math.pi if s > 0 else 0.0
    return q_value, math.exp(gauss + 2.0 * math.log(mag.sum())) / math.pi


def check_husimi_values(v: Verdict, what, values, spot, coeffs, q) -> bool:
    """Q finite and >= 0 everywhere; listed (index, alpha1, alpha2) nodes
    agree with overlap_q.

    Compared as amplitudes sqrt(Q), whose rounding error is bounded by a
    multiple of the summed term magnitudes (Higham, ch. 5); at nodes where
    the terms cancel that bound exceeds Q itself.
    """
    values = np.asarray(values, dtype=float)
    if not v.finite(what, values):
        return False
    if not v.expect(f"{what} negative", bool(np.all(values >= 0.0))):
        return False
    for i, a1, a2 in spot:
        want, bound = overlap_q(coeffs, q, a1, a2)
        v.expect(f"{what} node {i}", abs(math.sqrt(values[i]) - math.sqrt(want))
                 <= HUSIMI_REL_TOL * math.sqrt(want) + HUSIMI_ABS_TOL * math.sqrt(bound))
    return True


def check_norm_estimate(v: Verdict, estimate):
    if v.finite("husimi_norm_check", estimate):
        v.expect("husimi_norm_check", abs(estimate - math.pi) <= NORM_CHECK_TOL * math.pi)


# ---------------------------------------------------------------------------
# Emitted CSV / JSON.
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(name)


def parse_json(v: Verdict, text: str, what: str):
    """Strict JSON: Infinity/NaN count as nonfinite, other damage as wrong."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        if str(exc) in ("Infinity", "-Infinity", "NaN"):
            v.nonfinite.append(f"{what} emits {exc}")
        else:
            v.wrong.append(f"{what} does not parse")
        return None


def parse_csv(v: Verdict, text: str, header: str, what: str):
    """Rows of a CSV with the given header; cells stay strings."""
    lines = text.split("\n")
    if not v.expect(f"{what} header", lines and lines[0] == header and lines[-1] == ""):
        return None
    return [line.split(",") for line in lines[1:-1]]


def parse_float(v: Verdict, cell: str, what: str):
    try:
        x = float(cell)
    except ValueError:
        v.wrong.append(f"{what} does not parse")
        return None
    return x if v.finite(what, x) else None
