"""Command-line surface: build states, sweep diagnostics, emit distributions,
Husimi grids and verification reports as CSV/JSON.

Exit codes: 0 success, 1 usage or parse failure (an unwritable output path
included), 2 numeric construction failure.  Data goes to stdout (or --out),
logs to stderr.  Values are formatted with 17 significant digits so emitted
CSV round-trips exactly.
For negative numeric flag values use the attached form, e.g. ``--xi=-2``.
"""

from __future__ import annotations

import argparse
import functools
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


# Sweep points, refused before any list is built.  The working-set budget of
# husimi.MAX_GRID_NODES and states.MAX_OCCUPATIONS: a step costs about 180
# bytes (its xi and CSV line), so 2^21 steps stay within some 700 MB.
MAX_SWEEP_STEPS = 1 << 21


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
            raise SpecParseError(f"unknown diagnostic {self.diagnostic!r}")
        if self.steps < 2:
            raise PreconditionError("sweep needs steps >= 2")
        if self.steps > MAX_SWEEP_STEPS:
            raise PreconditionError(f"sweep of {self.steps} steps exceeds {MAX_SWEEP_STEPS}")
        if not (math.isfinite(self.xi_start) and math.isfinite(self.xi_end)):
            raise PreconditionError("sweep needs a finite xi range")
        if not math.isfinite(self.xi_end - self.xi_start):
            raise PreconditionError("sweep needs an xi span within double range")
        if not self.xi_start < self.xi_end:
            raise PreconditionError("sweep needs xi_start < xi_end")
        if self.n_max < 1:
            raise PreconditionError("sweep needs n_max >= 1")

    def xi_values(self):
        # the last point is xi_end itself, since xi_start + (steps - 1) step can
        # round past it, even beyond double range; no earlier point can
        step = (self.xi_end - self.xi_start) / (self.steps - 1)
        return [self.xi_start + i * step for i in range(self.steps - 1)] + [self.xi_end]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_complex_pair(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise SpecParseError(f"{flag} expects re[,im], got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise SpecParseError(f"{flag} expects decimal re[,im], got {text!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise SpecParseError(f"{flag} expects finite re[,im], got {text!r}")
    return complex(re, im)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use and
    shared by every call: parse with it, never modify it."""
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
    common(p, xi=False)
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


def _inputs(args):
    """--f, --q and --xi of a command, parsed in that order."""
    return parse_spec(args.f), args.q, _parse_complex_pair(args.xi, "--xi")


def _state(args):
    f, q, xi = _inputs(args)
    return build_deformed(f, q, xi, TruncationPolicy(args.nmax))


# Each command but figures: parsed args -> the text it emits.

def _build_json(args) -> str:
    return json.dumps(state_to_document(_state(args)), allow_nan=False) + "\n"


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


def _pnd_csv(args) -> str:
    lines = ["n,na,nb,p"]
    for n, na, nb, p in dg.photon_distribution(_state(args)):
        lines.append(f"{n},{na},{nb},{fmt(p)}")
    return "\n".join(lines) + "\n"


def _husimi_csv(args) -> str:
    alpha2 = _parse_complex_pair(args.alpha2, "--alpha2")
    grid = hq.husimi_grid(_state(args), alpha2, (args.xmin, args.xmax, args.grid),
                          (args.ymin, args.ymax, args.grid))
    xs, ys = (["%.17g," % v for v in axis.tolist()] for axis in grid.axes())
    rows = zip(itertools.product(xs, ys), grid.values.tolist())
    return "x,y,q\n" + "".join(["%s%s%.17g\n" % (x, y, q) for (x, y), q in rows])


def _verify_json(args) -> str:
    f, q, xi = _inputs(args)
    n_max2 = args.nmax2 if args.nmax2 is not None else 2 * args.nmax
    report = convergence_report(f, q, xi, args.nmax, n_max2)
    state = report.coarse
    rows = eigen_residual(f, state)
    doc = {
        "f": f.label(),
        "q": q,
        "xi": [xi.real, xi.imag],
        "n_max": args.nmax,
        "n_max2": n_max2,
        "max_interior_residual": float(rows[:-1].max()),
        "boundary_residual": float(rows[-1]),
        "pre_norm": state.pre_norm if state.pre_norm < math.inf else None,
        "pre_norm2": report.fine.pre_norm if report.fine.pre_norm < math.inf else None,
        "log_pre_norm_ratio": report.log_pre_norm_ratio,
        "norm_divergent": report.norm_divergent,
        "converged": report.converged(),
        "diag_tol": report.diag_tol,
        "rescale_count": state.rescale_count,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_RUNNERS = {
    "build": _build_json,
    "sweep": lambda args: _sweep_csv(SweepSpec(args.diagnostic, args.xi_start, args.xi_end,
                                               args.steps, args.f, args.q, args.nmax)),
    "pnd": _pnd_csv,
    "husimi": _husimi_csv,
    "verify": _verify_json,
}


def _figure_commands(n_max: int, steps: int, grid: int):
    """(file name, argv) of every file ``figures`` writes, in order: each
    file holds exactly what that single command emits."""
    def command(fig, suffix, name, f_label, q, *flags):
        return (f"{fig}_{f_label.replace(':', '-')}_q{q}{suffix}",
                [name, "--f", f_label, f"--q={q}", *flags, f"--nmax={n_max}"])

    for fig, (diagnostic, curves) in FIGURE_SWEEPS.items():
        for f_label, q in curves:
            yield command(fig, ".csv", "sweep", f_label, q, f"--diagnostic={diagnostic}",
                          "--xi-start=1.0", "--xi-end=10.0", f"--steps={steps}")
            yield command(fig, "_verify.json", "verify", f_label, q, "--xi=5.0")
    for f_label, q, xi in FIGURE_PND:
        yield command("fig5", ".csv", "pnd", f_label, q, f"--xi={xi}")
        yield command("fig5", "_verify.json", "verify", f_label, q, f"--xi={xi}")
    for f_label, q in FIGURE_HUSIMI:
        yield command("fig6", ".csv", "husimi", f_label, q, "--xi=10.0", "--alpha2=1,1",
                      "--xmin=-6.0", "--xmax=6.0", "--ymin=-6.0", "--ymax=6.0", f"--grid={grid}")


def _write_figures(args):
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, argv in _figure_commands(args.nmax, args.steps, args.grid):
        command = build_parser().parse_args(argv)
        (outdir / name).write_text(_RUNNERS[command.command](command))
    print(f"figure data written to {outdir}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "figures":
            _write_figures(args)
        else:
            _emit(_RUNNERS[args.command](args), args.out)
    except (ChargeStateError, OSError) as exc:  # OSError: an unwritable output path
        if isinstance(exc, ArithmeticError):
            print(f"chargestate: numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"chargestate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
