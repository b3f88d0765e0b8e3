"""The benchmark's workloads: request generation, execution and checking.

A workload hands out passes, each a list of requests drawn from its seeded
generator.  ``execute`` is the timed call into the library (or its CLI);
``check`` classifies the result with the gate, outside the timed region.

figures      the paper's figure preset as individual CLI requests writing
             CSV/JSON files: the user's end-to-end path, the only one that
             formats output, and the one where each ladder is rebuilt for
             every sweep point (a ladder cache would hit here).
cutoff-scan  one request characterises one state through the library API
             at n_max ~ 80 .. 5120, every request on a new (f, q, n_max):
             recursion, ladder, diagnostics and the exact builders carry
             the load; nothing is emitted and no Husimi value is computed.
phase-space  Husimi grids, bulk point queries over many states and the
             Monte-Carlo norm check: the overlap kernel does nearly all
             the work, used in three different ways.

Deformation parameters are drawn near the paper's values (ps:0.5, qdef:7)
plus one milder value of each family (ps:0.8, qdef:1.5), so every pass has
the same mix of regimes, and with it the same failure classes, whatever
the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
from gate import Verdict

# Families and the ranges their parameter is drawn from.
PARAM_RANGES = {"ps~0.5": ("ps", 0.45, 0.55), "ps~0.8": ("ps", 0.75, 0.85),
                "qdef~7": ("qdef", 6.5, 7.5), "qdef~1.5": ("qdef", 1.4, 1.6)}

# The paper's figure preset (fig1-4 sweeps with a verify report per curve,
# fig5 photon-number distributions with their verify reports, fig6 Husimi
# grids), as shipped in the CLI's ``figures`` command.
FIGURE_SWEEPS = {
    "fig1": ("mandel_a", [("ps:0.5", 1), ("qdef:7", 2)]),
    "fig2": ("g2_a", [("unity", 1), ("ps:0.5", -1), ("qdef:7", 1), ("sqrt", 3)]),
    "fig3": ("g12", [("unity", -1), ("ps:0.5", -2), ("qdef:7", 2), ("sqrt", 1)]),
    "fig4": ("i0", [("unity", 1), ("ps:0.5", 1), ("qdef:7", 3), ("sqrt", 2)]),
}
FIGURE_PND = [("unity", 2, 5.0), ("ps:0.5", -1, 10.0), ("qdef:7", -2, 5.0), ("sqrt", 1, 10.0)]
FIGURE_HUSIMI = [("unity", 1), ("unity", -1), ("ps:0.5", 2), ("ps:0.5", -2),
                 ("qdef:7", 3), ("qdef:7", -3), ("sqrt", 4), ("sqrt", -4)]


@dataclass
class Request:
    kind: str
    key: str                 # names the input in the failure ledger
    params: dict
    states: int = 1          # states delivered when the request is ok
    evals: int = 0           # Husimi grid nodes plus point queries
    samples: int = 0         # Monte-Carlo samples


@dataclass
class Result:
    error: BaseException | None
    out: dict = field(default_factory=dict)


def draw_spec(rng, family: str) -> str:
    if family in ("unity", "sqrt"):
        return family
    prefix, lo, hi = PARAM_RANGES[family]
    return f"{prefix}:{rng.uniform(lo, hi):.4f}"


def draw_xi(rng) -> float:
    # eighths keep the exact-integer builders' cost independent of the draw
    return int(rng.integers(4, 97)) / 8.0


def draw_disk(rng, radius: float) -> complex:
    """A point drawn uniformly from the disk |z| <= radius."""
    r, theta = radius * math.sqrt(rng.random()), 2 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def digest(out: dict) -> str:
    """Hash of a request's outputs, to compare traced and untraced runs."""
    h = hashlib.sha256()
    for name in sorted(out):
        value = out[name]
        h.update(name.encode())
        for attr in ("coeffs", "values"):
            value = getattr(value, attr, value)
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


class Workload:
    name = ""
    trace_passes = 1      # the traced run repeats exactly this many passes

    def __init__(self, lib, seed: int, tiny: bool, workdir: Path):
        self.lib = lib
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.typed = lib.errors.ChargeStateError

    def build(self, spec, q, xi, n_max):
        st = self.lib.states
        return st.build_deformed(self.lib.nonlinearity.parse_spec(spec), q, xi,
                                 st.TruncationPolicy(n_max))

    def reference_state(self, v: Verdict, spec, q, xi, n_max):
        """A state rebuilt for checking an emitted file, checked itself."""
        state = self.build(spec, q, xi, n_max)
        gate.check_state(v, state, spec, q, complex(xi), n_max, "reference state")
        return None if v.nonfinite or v.wrong else state


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

class Figures(Workload):
    name = "figures"
    trace_passes = 3

    def __init__(self, lib, seed, tiny, workdir):
        super().__init__(lib, seed, tiny, workdir)
        self.n_max, self.steps, self.grid = (8, 4, 5) if tiny else (80, 50, 61)
        self.sink = io.StringIO()

    @staticmethod
    def _argv(command, spec, q, **flags):
        return [command, "--f", spec, f"--q={q}"] + [
            f"--{flag.replace('_', '-')}={value}" for flag, value in flags.items()]

    def next_pass(self) -> list[Request]:
        n, n2, reqs = self.n_max, 2 * self.n_max, []

        def add(kind, key, argv, params, **counts):
            reqs.append(Request(kind, key, {"argv": argv, **params}, **counts))

        def verify(fig, spec, q, xi):
            add("verify", f"verify {fig} {spec} q={q} xi={xi:g} n_max={n}/{n2}",
                self._argv("verify", spec, q, xi=xi, nmax=n, nmax2=n2),
                params={"spec": spec, "q": q, "xi": xi})

        for fig, (diagnostic, curves) in FIGURE_SWEEPS.items():
            for spec, q in curves:
                add("sweep", f"sweep {fig} {diagnostic} {spec} q={q}",
                    self._argv("sweep", spec, q, diagnostic=diagnostic, xi_start=1.0,
                               xi_end=10.0, steps=self.steps, nmax=n),
                    params={"spec": spec, "q": q, "diagnostic": diagnostic,
                            "spot": sorted(self.rng.choice(self.steps, 2, replace=False).tolist())},
                    states=self.steps)
                verify(fig, spec, q, 5.0)
        for spec, q, xi in FIGURE_PND:
            add("pnd", f"pnd fig5 {spec} q={q} xi={xi:g}",
                self._argv("pnd", spec, q, xi=xi, nmax=n), params={"spec": spec, "q": q, "xi": xi})
            verify("fig5", spec, q, xi)
        g = self.grid
        for spec, q in FIGURE_HUSIMI:
            add("husimi", f"husimi fig6 {spec} q={q}",
                self._argv("husimi", spec, q, xi=10.0, alpha2="1,1", xmin=-6.0, xmax=6.0,
                           ymin=-6.0, ymax=6.0, grid=g, nmax=n),
                params={"spec": spec, "q": q, "xi": 10.0,
                        "spot": self.rng.choice(g * g, 3, replace=False).tolist()},
                evals=g * g)
        order = self.rng.permutation(len(reqs))
        reqs = [reqs[i] for i in order]
        for i, r in enumerate(reqs):
            r.params["out"] = self.workdir / f"{i:03d}_{r.kind}.out"
            r.params["argv"] += ["--out", str(r.params["out"])]
        return reqs

    def warm_up(self):
        path = self.workdir / "warm_up.out"
        for argv in (["sweep", "--diagnostic", "g2_a", "--f", "unity", "--q=1", "--xi-start=1",
                      "--xi-end=2", "--steps=2", "--nmax=4"],
                     ["verify", "--f", "sqrt", "--q=1", "--xi=2", "--nmax=4"],
                     ["pnd", "--f", "unity", "--q=1", "--xi=2", "--nmax=4"],
                     ["husimi", "--f", "unity", "--q=1", "--xi=2", "--alpha2=1,1", "--xmin=-1",
                      "--xmax=1", "--ymin=-1", "--ymax=1", "--grid=2", "--nmax=4"]):
            with contextlib.redirect_stderr(self.sink):
                self.lib.cli.main(argv + ["--out", str(path)])

    def execute(self, req: Request) -> Result:
        with contextlib.redirect_stderr(self.sink):
            try:
                return Result(None, {"code": self.lib.cli.main(req.params["argv"])})
            except Exception as exc:       # anything escaping main is a finding
                return Result(exc)

    def check(self, req: Request, res: Result) -> tuple[str, str]:
        self.sink.seek(0)
        self.sink.truncate()
        v = Verdict()
        if res.error is not None:
            return gate.RAW_EXCEPTION, f"{type(res.error).__name__}: {res.error}"
        code = res.out["code"]
        if code != 0:
            return (gate.TYPED_ERROR if code in (1, 2) else gate.RAW_EXCEPTION), f"exit {code}"
        data = req.params["out"].read_bytes()
        req.params["out"].unlink()     # the next pass must write it afresh
        res.out["bytes"] = len(data)
        res.out["file"] = data
        getattr(self, f"_check_{req.kind}")(v, req.params, data.decode())
        return v.outcome(None, self.typed)

    def _check_sweep(self, v, p, text):
        rows = gate.parse_csv(v, text, "xi,value,defined", "sweep csv")
        if rows is None or not v.expect("sweep rows", len(rows) == self.steps
                                        and all(len(r) == 3 for r in rows)):
            return
        step = 9.0 / (self.steps - 1)
        values = []
        for i, (xi, value, defined) in enumerate(rows):
            x = gate.parse_float(v, xi, "sweep xi")
            v.expect("sweep xi grid", x is None or abs(x - (1.0 + i * step)) <= 1e-12)
            if defined == "1":
                values.append(gate.parse_float(v, value, "sweep value"))
            else:
                v.expect("sweep defined flag", defined == "0" and value == "")
                values.append(None)
        for i in p["spot"]:
            state = self.reference_state(v, p["spec"], p["q"], 1.0 + i * step, self.n_max)
            if state is not None:
                want = gate.diagnostics_of(state.coeffs, p["q"])
                gate.check_value(v, f"sweep {p['diagnostic']} row {i}", values[i],
                                 want[p["diagnostic"]], 1.0 + want["mean_na"])

    def _check_verify(self, v, p, text):
        doc = gate.parse_json(v, text, "verify json")
        if doc is None:
            return
        numbers = ("max_interior_residual", "boundary_residual", "pre_norm", "pre_norm2",
                   "log_pre_norm_ratio")
        flags = ("converged", "norm_divergent")
        if not v.expect("verify keys", all(k in doc for k in numbers + flags)):
            return
        if not v.finite("verify numbers", *[doc[k] for k in numbers]):
            return
        v.expect("verify cutoffs",
                 (doc.get("n_max"), doc.get("n_max2")) == (self.n_max, 2 * self.n_max))
        v.expect("verify flags",
                 set(doc["converged"]) == {"mean_na", "mandel_a", "g2_a", "g12", "i0"}
                 and doc["norm_divergent"] == (doc["log_pre_norm_ratio"] > math.log(10.0)))
        state = self.reference_state(v, p["spec"], p["q"], p["xi"], self.n_max)
        if state is None:
            return
        resid, scale = gate.residual_rows(p["spec"], p["q"], complex(p["xi"]), state.coeffs)
        v.expect("verify pre_norm",
                 abs(doc["pre_norm"] - state.pre_norm) <= gate.VALUE_TOL * state.pre_norm)
        v.expect("verify interior residual",
                 doc["max_interior_residual"] <= gate.RESIDUAL_TOL * float(scale[:-1].max()))
        v.expect("verify boundary residual", abs(doc["boundary_residual"] - resid[-1])
                 <= gate.VALUE_TOL * resid[-1] + gate.RESIDUAL_TOL * scale[-1])

    def _check_pnd(self, v, p, text):
        rows = gate.parse_csv(v, text, "n,na,nb,p", "pnd csv")
        if rows is None or not v.expect("pnd rows", len(rows) == self.n_max + 1
                                        and all(len(r) == 4 for r in rows)):
            return
        try:
            parsed = [(int(n), int(na), int(nb), float(prob)) for n, na, nb, prob in rows]
        except ValueError:
            v.wrong.append("pnd csv does not parse")
            return
        state = self.reference_state(v, p["spec"], p["q"], p["xi"], self.n_max)
        if state is not None:
            gate.check_distribution(v, parsed, state.coeffs, p["q"])

    def _check_husimi(self, v, p, text):
        rows = gate.parse_csv(v, text, "x,y,q", "husimi csv")
        g = self.grid
        if rows is None or not v.expect("husimi rows", len(rows) == g * g
                                        and all(len(r) == 3 for r in rows)):
            return
        axis = np.linspace(-6.0, 6.0, g)
        try:
            cells = np.array(rows, dtype=float)
        except ValueError:
            v.wrong.append("husimi csv does not parse")
            return
        v.expect("husimi axes", bool(np.all(cells[:, 0] == np.repeat(axis, g))
                                     and np.all(cells[:, 1] == np.tile(axis, g))))
        state = self.reference_state(v, p["spec"], p["q"], p["xi"], self.n_max)
        if state is None:
            return
        values = cells[:, 2]
        spots = [int(np.argmax(np.nan_to_num(values)))] + p["spot"]
        gate.check_husimi_values(v, "husimi csv", values,
                                 [(i, complex(cells[i, 0], cells[i, 1]), 1 + 1j) for i in spots],
                                 state.coeffs, p["q"])


# ---------------------------------------------------------------------------
# cutoff-scan
# ---------------------------------------------------------------------------

class CutoffScan(Workload):
    name = "cutoff-scan"
    trace_passes = 1
    FAMILIES = ("unity", "sqrt", "ps~0.5", "ps~0.8", "qdef~7", "qdef~1.5")
    CHARGES = tuple(range(-3, 4))
    # Each (family, tier) takes these xi in a seeded order.  The exact-integer
    # builders' cost grows with the bits of xi, so a fixed set per pass keeps
    # the pass cost the same for every seed.
    XI = tuple(k / 8 for k in (5, 11, 23, 33, 51, 69, 87))
    EXACT_UP_TO = 320     # the exact-integer builders run for unity up to here

    def __init__(self, lib, seed, tiny, workdir):
        super().__init__(lib, seed, tiny, workdir)
        self.tiers = (8, 16) if tiny else (80, 320, 1280, 5120)
        self.passes = 0

    def next_pass(self) -> list[Request]:
        reqs = []
        for family in self.FAMILIES:
            for tier in self.tiers:
                # a new cutoff every pass (for tier/8 passes): no ladder repeats
                n = tier + self.passes % max(tier // 8, 1)
                for q, xi in zip(self.CHARGES, self.rng.permutation(self.XI).tolist()):
                    reqs.append(Request("characterise", f"{family} q={q} n_max~{tier}", {
                        "spec": draw_spec(self.rng, family), "q": q, "xi": xi, "n_max": n,
                        "k": int(self.rng.integers(1, min(n, 48) + 1)),
                        "exact": family == "unity" and tier <= self.EXACT_UP_TO}))
        self.passes += 1
        order = self.rng.permutation(len(reqs))
        return [reqs[i] for i in order]

    def warm_up(self):
        self.execute(Request("characterise", "warm-up", {
            "spec": "unity", "q": 1, "xi": 2.5, "n_max": 8, "k": 3, "exact": True}))

    def execute(self, req: Request) -> Result:
        lib, p, out = self.lib, req.params, {}
        st, dg = lib.states, lib.diagnostics
        q, xi, n = p["q"], p["xi"], p["n_max"]
        try:
            f = lib.nonlinearity.parse_spec(p["spec"])
            state = out["state"] = st.build_deformed(f, q, xi, st.TruncationPolicy(n))
            out["residual"] = st.eigen_residual(f, state)
            out["report"] = dg.full_report(state)
            out["pnd"] = dg.photon_distribution(state)
            out["convergence"] = st.convergence_report(f, q, xi, n, 2 * n)
            try:
                out["ratio"] = st.continued_fraction_ratio(f, q, xi, p["k"])
            except lib.errors.ContinuedFractionPoleError as pole:
                out["pole"] = pole.depth      # a documented answer, checked below
            if p["exact"]:
                out["closed"] = st.build_linear_closed(q, xi, st.TruncationPolicy(n))
                out["hermite"] = st.build_hermite_reference(q, xi, st.TruncationPolicy(n))
        except Exception as exc:
            return Result(exc, out)
        return Result(None, out)

    def check(self, req: Request, res: Result) -> tuple[str, str]:
        p, out, v = req.params, res.out, Verdict()
        spec, q, xi, n = p["spec"], p["q"], complex(p["xi"]), p["n_max"]
        state = out.get("state")
        if state is not None and gate.state_finite(v, state):
            gate.check_state(v, state, spec, q, xi, n)
            if "residual" in out:
                gate.check_residual_output(v, out["residual"], state, spec, q, xi)
            if "report" in out:
                gate.check_report(v, out["report"], state, q)
            if "pnd" in out:
                gate.check_distribution(v, out["pnd"], state.coeffs, q)
            if "convergence" in out:
                gate.check_convergence(v, out["convergence"], state, q, n, 2 * n)
            if "ratio" in out or "pole" in out:
                gate.check_ratio(v, p["k"], out.get("ratio"), out.get("pole"), state.coeffs)
            if "closed" in out:
                gate.check_collinear(v, "closed form", state.coeffs, out["closed"].coeffs)
            if "hermite" in out:
                gate.check_hermite(v, out["hermite"].coeffs, out["closed"].coeffs)
        return v.outcome(res.error, self.typed)


# ---------------------------------------------------------------------------
# phase-space
# ---------------------------------------------------------------------------

class PhaseSpace(Workload):
    name = "phase-space"
    trace_passes = 3
    # (family, n_max, charge sign, grid side): both signs at both cutoffs
    GRIDS = (("unity", 80, 1, 61), ("ps~0.5", 80, -1, 51),
             ("sqrt", 320, -1, 41), ("qdef~7", 320, 1, 41))
    POINT_FAMILIES = ("unity", "ps~0.5", "sqrt", "qdef~7")
    RANGE = 6.0

    def __init__(self, lib, seed, tiny, workdir):
        super().__init__(lib, seed, tiny, workdir)
        if tiny:
            self.grids = tuple((f, n // 10, s, 5) for f, n, s, _ in self.GRIDS)
            self.batches, self.points, self.point_n, self.norm_n = 2, 3, 8, 20
        else:
            self.grids, self.batches, self.points, self.point_n, self.norm_n = (
                self.GRIDS, 32, 24, 80, 60)
        self.samples = 1_000_000

    def _charge(self, sign):
        return sign * int(self.rng.integers(1, 5))

    def next_pass(self) -> list[Request]:
        rng, reqs = self.rng, []
        for family, n, sign, side in self.grids:
            q = self._charge(sign)
            reqs.append(Request("grid", f"grid {family} q={q} n_max={n} {side}^2", {
                "spec": draw_spec(rng, family), "q": q, "xi": draw_xi(rng), "n_max": n,
                "alpha2": draw_disk(rng, 1.5), "side": side,
                "spot": rng.choice(side * side, 3, replace=False).tolist()}, evals=side * side))
        for b in range(self.batches):
            family = self.POINT_FAMILIES[b % len(self.POINT_FAMILIES)]
            q = self._charge(1 if rng.random() < 0.5 else -1)
            points = [(draw_disk(rng, 5.0), draw_disk(rng, 2.0)) for _ in range(self.points)]
            reqs.append(Request("points", f"points {family} q={q} n_max={self.point_n}", {
                "spec": draw_spec(rng, family), "q": q, "xi": draw_xi(rng),
                "n_max": self.point_n, "points": points}, evals=self.points))
        # states whose weight lies well inside the sampled radius
        norms = (("unity", 0, 0, 4.0), (draw_spec(rng, "ps~0.5"), -1, self.norm_n, 5.0))
        for spec, q, n, radius in norms:
            reqs.append(Request("norm", f"norm {spec.split(':')[0]} q={q} n_max={n} r={radius:g}", {
                "spec": spec, "q": q, "xi": draw_xi(rng), "n_max": n, "radius": radius,
                "seed": int(rng.integers(2**31))}, samples=self.samples))
        order = rng.permutation(len(reqs))
        return [reqs[i] for i in order]

    def warm_up(self):
        for req in (Request("grid", "", {"spec": "unity", "q": 1, "xi": 2.5, "n_max": 4,
                                         "alpha2": 1j, "side": 2, "spot": []}),
                    Request("points", "", {"spec": "sqrt", "q": -1, "xi": 2.5, "n_max": 4,
                                           "points": [(1.0, 1j)]}),
                    Request("norm", "", {"spec": "unity", "q": 0, "xi": 1.0, "n_max": 0,
                                         "radius": 4.0, "seed": 1})):
            self.execute(req)

    def execute(self, req: Request) -> Result:
        hq, p, out = self.lib.husimi, req.params, {}
        try:
            state = out["state"] = self.build(p["spec"], p["q"], p["xi"], p["n_max"])
            if req.kind == "grid":
                r, side = self.RANGE, p["side"]
                out["grid"] = hq.husimi_grid(state, p["alpha2"], (-r, r, side), (-r, r, side))
            elif req.kind == "points":
                out["values"] = np.array([hq.husimi_point(state, a1, a2) for a1, a2 in p["points"]])
            else:
                out["estimate"] = hq.husimi_norm_check(state, req.samples, p["radius"],
                                                       seed=p["seed"])
        except Exception as exc:
            return Result(exc, out)
        return Result(None, out)

    def check(self, req: Request, res: Result) -> tuple[str, str]:
        p, out, v = req.params, res.out, Verdict()
        state = out.get("state")
        if state is not None and gate.state_finite(v, state):
            gate.check_state(v, state, p["spec"], p["q"], complex(p["xi"]), p["n_max"])
            if "grid" in out:
                values, side = out["grid"].values, p["side"]
                if v.expect("grid size", len(values) == side * side):
                    axis = np.linspace(-self.RANGE, self.RANGE, side)
                    top = int(np.argmax(np.nan_to_num(values)))
                    spots = [(i, complex(axis[i // side], axis[i % side]), p["alpha2"])
                             for i in [top] + p["spot"]]
                    gate.check_husimi_values(v, "husimi grid", values, spots, state.coeffs, p["q"])
            if "values" in out:
                spots = [(i, a1, a2) for i, (a1, a2) in enumerate(p["points"])]
                gate.check_husimi_values(v, "husimi points", out["values"], spots,
                                         state.coeffs, p["q"])
            if "estimate" in out:
                gate.check_norm_estimate(v, out["estimate"])
        return v.outcome(res.error, self.typed)


WORKLOADS = {w.name: w for w in (Figures, CutoffScan, PhaseSpace)}
