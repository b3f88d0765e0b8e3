"""Command-line surface: build states, sweep diagnostics, emit distributions,
Husimi grids and verification reports as CSV/JSON.

Exit codes: 0 success, 1 usage or parse failure, 2 numeric construction
failure.  Data goes to stdout (or --out), logs to stderr.  Values are
formatted with 17 significant digits so emitted CSV round-trips exactly.
For negative numeric flag values use the attached form, e.g. ``--xi=-2``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import diagnostics as dg
from . import husimi as hq
from .errors import ChargeStateError, PreconditionError, SpecParseError
from .nonlinearity import parse_spec
from .states import (
    TruncationPolicy,
    build_deformed,
    convergence_report,
    eigen_residual,
    state_to_document,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

DEFAULT_NMAX = 80

SWEEP_DIAGNOSTICS = ("mandel_a", "mandel_b", "g2_a", "g2_b", "g12", "i0")

# Figure-reproduction presets: per figure, the swept diagnostic and curves.
FIGURE_SWEEPS = {
    "fig1": ("mandel_a", [("ps:0.5", 1), ("qdef:7", 2)]),
    "fig2": ("g2_a", [("unity", 1), ("ps:0.5", -1), ("qdef:7", 1), ("sqrt", 3)]),
    "fig3": ("g12", [("unity", -1), ("ps:0.5", -2), ("qdef:7", 2), ("sqrt", 1)]),
    "fig4": ("i0", [("unity", 1), ("ps:0.5", 1), ("qdef:7", 3), ("sqrt", 2)]),
}
FIGURE_PND = [("unity", 2, 5.0), ("ps:0.5", -1, 10.0), ("qdef:7", -2, 5.0), ("sqrt", 1, 10.0)]
FIGURE_HUSIMI = [("unity", 1), ("unity", -1), ("ps:0.5", 2), ("ps:0.5", -2),
                 ("qdef:7", 3), ("qdef:7", -3), ("sqrt", 4), ("sqrt", -4)]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class SweepSpec:
    """One diagnostic swept over an eigenvalue interval."""

    diagnostic: str
    xi_start: float
    xi_end: float
    steps: int
    f_spec: str
    q: int
    n_max: int = DEFAULT_NMAX

    def __post_init__(self):
        if self.diagnostic not in SWEEP_DIAGNOSTICS:
            raise SpecParseError(self.diagnostic, f"unknown diagnostic {self.diagnostic!r}")
        if self.steps < 2:
            raise PreconditionError("sweep needs steps >= 2")
        if not (math.isfinite(self.xi_start) and math.isfinite(self.xi_end)):
            raise PreconditionError("sweep needs a finite xi range")
        if not self.xi_start < self.xi_end:
            raise PreconditionError("sweep needs xi_start < xi_end")
        if self.n_max < 1:
            raise PreconditionError("sweep needs n_max >= 1")

    def xi_values(self):
        step = (self.xi_end - self.xi_start) / (self.steps - 1)
        return [self.xi_start + i * step for i in range(self.steps)]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_complex_pair(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise SpecParseError(text, f"{flag} expects re[,im], got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise SpecParseError(text, f"{flag} expects decimal re[,im], got {text!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise SpecParseError(text, f"{flag} expects finite re[,im], got {text!r}")
    return complex(re, im)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chargestate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, xi=True):
        p.add_argument("--f", required=True, metavar="SPEC",
                       help="nonlinearity: unity | ps:<p> | sqrt | qdef:<q>")
        p.add_argument("--q", required=True, type=int, help="integer charge")
        if xi:
            p.add_argument("--xi", required=True, metavar="RE[,IM]",
                           help="eigenvalue, e.g. 5 or 5,0.5")

    p = sub.add_parser("build", help="build a state and emit its JSON document")
    common(p)
    p.add_argument("--nmax", required=True, type=int, help="ladder cutoff (inclusive)")
    p.add_argument("--out", help="write to file instead of stdout")

    p = sub.add_parser("sweep", help="sweep one diagnostic over xi (CSV: xi,value,defined)")
    p.add_argument("--diagnostic", required=True, choices=SWEEP_DIAGNOSTICS)
    p.add_argument("--f", required=True, metavar="SPEC")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--xi-start", required=True, type=float)
    p.add_argument("--xi-end", required=True, type=float)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--out", help="write to file instead of stdout")

    p = sub.add_parser("pnd", help="photon-number distribution (CSV: n,na,nb,p)")
    common(p)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--out", help="write to file instead of stdout")

    p = sub.add_parser("husimi", help="Husimi grid over alpha1 (CSV: x,y,q)")
    common(p)
    p.add_argument("--alpha2", required=True, metavar="RE,IM")
    p.add_argument("--xmin", required=True, type=float)
    p.add_argument("--xmax", required=True, type=float)
    p.add_argument("--ymin", required=True, type=float)
    p.add_argument("--ymax", required=True, type=float)
    p.add_argument("--grid", required=True, type=int, metavar="N", help="N x N lattice, N >= 2")
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--out", help="write to file instead of stdout")

    p = sub.add_parser("verify", help="residual and convergence report (JSON)")
    common(p)
    p.add_argument("--nmax", required=True, type=int)
    p.add_argument("--nmax2", type=int, help="second cutoff (default 2*nmax)")
    p.add_argument("--diag-tol", type=float, default=1e-3)
    p.add_argument("--out", help="write to file instead of stdout")

    p = sub.add_parser("figures", help="emit the full figure-reproduction data set")
    p.add_argument("--outdir", required=True)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--grid", type=int, default=61)

    return parser


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _sweep_csv(spec: SweepSpec) -> str:
    f = parse_spec(spec.f_spec)
    lines = ["xi,value,defined"]
    for xi in spec.xi_values():
        state = build_deformed(f, spec.q, xi, TruncationPolicy(spec.n_max))
        value = dg.DIAGNOSTICS[spec.diagnostic](dg.moments(state))
        if value is None:
            lines.append(f"{fmt(xi)},,0")
        else:
            lines.append(f"{fmt(xi)},{fmt(value)},1")
    return "\n".join(lines) + "\n"


def _pnd_csv(state) -> str:
    lines = ["n,na,nb,p"]
    for n, na, nb, p in dg.photon_distribution(state):
        lines.append(f"{n},{na},{nb},{fmt(p)}")
    return "\n".join(lines) + "\n"


def _husimi_csv(grid) -> str:
    xs, ys = (list(map(fmt, axis)) for axis in grid.axes())
    cells = zip(itertools.product(xs, ys), map(fmt, grid.values.tolist()))
    return "x,y,q\n" + "".join(f"{x},{y},{q}\n" for (x, y), q in cells)


def _verify_json(f, q, xi, n_max, n_max2, diag_tol) -> str:
    state = build_deformed(f, q, xi, TruncationPolicy(n_max))
    rows = eigen_residual(f, state)
    report = convergence_report(f, q, xi, n_max, n_max2, diag_tol)
    doc = {
        "f": f.label(),
        "q": q,
        "xi": [xi.real, xi.imag],
        "n_max": n_max,
        "n_max2": n_max2,
        "max_interior_residual": float(rows[:-1].max()),
        "boundary_residual": float(rows[-1]),
        "pre_norm": state.pre_norm,
        "pre_norm2": report.pre_norm_fine,
        "log_pre_norm_ratio": report.log_pre_norm_ratio,
        "norm_divergent": report.norm_divergent,
        "converged": report.converged(),
        "diag_tol": diag_tol,
        "rescale_count": state.rescale_count,
    }
    return json.dumps(doc, indent=2) + "\n"


def _run_build(args) -> int:
    f = parse_spec(args.f)
    xi = _parse_complex_pair(args.xi, "--xi")
    state = build_deformed(f, args.q, xi, TruncationPolicy(args.nmax))
    _emit(json.dumps(state_to_document(state)) + "\n", args.out)
    return EXIT_OK


def _run_sweep(args) -> int:
    spec = SweepSpec(args.diagnostic, args.xi_start, args.xi_end, args.steps, args.f, args.q, args.nmax)
    _emit(_sweep_csv(spec), args.out)
    return EXIT_OK


def _run_pnd(args) -> int:
    f = parse_spec(args.f)
    xi = _parse_complex_pair(args.xi, "--xi")
    state = build_deformed(f, args.q, xi, TruncationPolicy(args.nmax))
    _emit(_pnd_csv(state), args.out)
    return EXIT_OK


def _run_husimi(args) -> int:
    f = parse_spec(args.f)
    xi = _parse_complex_pair(args.xi, "--xi")
    alpha2 = _parse_complex_pair(args.alpha2, "--alpha2")
    state = build_deformed(f, args.q, xi, TruncationPolicy(args.nmax))
    grid = hq.husimi_grid(state, alpha2, (args.xmin, args.xmax, args.grid),
                          (args.ymin, args.ymax, args.grid))
    _emit(_husimi_csv(grid), args.out)
    return EXIT_OK


def _run_verify(args) -> int:
    f = parse_spec(args.f)
    xi = _parse_complex_pair(args.xi, "--xi")
    n_max2 = args.nmax2 if args.nmax2 is not None else 2 * args.nmax
    _emit(_verify_json(f, args.q, xi, args.nmax, n_max2, args.diag_tol), args.out)
    return EXIT_OK


def _slug(f_label: str, q: int) -> str:
    return f"{f_label.replace(':', '-')}_q{q}"


def _run_figures(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n_max = args.nmax
    for fig, (diagnostic, curves) in FIGURE_SWEEPS.items():
        for f_label, q in curves:
            (outdir / f"{fig}_{_slug(f_label, q)}.csv").write_text(
                _sweep_csv(SweepSpec(diagnostic, 1.0, 10.0, args.steps, f_label, q, n_max)))
            (outdir / f"{fig}_{_slug(f_label, q)}_verify.json").write_text(
                _verify_json(parse_spec(f_label), q, complex(5.0), n_max, 2 * n_max, 1e-3))
    for f_label, q, xi in FIGURE_PND:
        f = parse_spec(f_label)
        state = build_deformed(f, q, xi, TruncationPolicy(n_max))
        (outdir / f"fig5_{_slug(f_label, q)}.csv").write_text(_pnd_csv(state))
        (outdir / f"fig5_{_slug(f_label, q)}_verify.json").write_text(
            _verify_json(f, q, complex(xi), n_max, 2 * n_max, 1e-3))
    for f_label, q in FIGURE_HUSIMI:
        f = parse_spec(f_label)
        state = build_deformed(f, q, complex(10.0), TruncationPolicy(n_max))
        grid = hq.husimi_grid(state, 1 + 1j, (-6.0, 6.0, args.grid), (-6.0, 6.0, args.grid))
        (outdir / f"fig6_{_slug(f_label, q)}.csv").write_text(_husimi_csv(grid))
    print(f"figure data written to {outdir}", file=sys.stderr)
    return EXIT_OK


_RUNNERS = {
    "build": _run_build,
    "sweep": _run_sweep,
    "pnd": _run_pnd,
    "husimi": _run_husimi,
    "verify": _run_verify,
    "figures": _run_figures,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _RUNNERS[args.command](args)
    except ChargeStateError as exc:
        if isinstance(exc, ArithmeticError):
            print(f"chargestate: numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"chargestate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
