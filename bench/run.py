"""chargestate benchmark: one closed-loop client running one workload.

    python3 bench/run.py --workload figures --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. A single-threaded client sends each request only after
the previous one completed and checks every result (outside the timed
region). Whole passes over the workload's requests run while another one
fits in ``--seconds`` of request time. With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` the same requests run a fixed number of passes, untraced and
then traced, and the last line carries the per-layer metrics. The lines
before it record the environment, every metric with its unit and the
failure ledger.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

from gate import OUTCOMES
from tracing import Tracer
from workloads import WORKLOADS, digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
TAIL_PCTS = (90.0, 75.0, 50.0)   # the first that leaves MIN_BEYOND samples above it
MIN_BEYOND = 10


def import_library() -> SimpleNamespace:
    """Fresh import of the package from this checkout's sources."""
    for name in [m for m in sys.modules if m == "chargestate" or m.startswith("chargestate.")]:
        del sys.modules[name]
    package = importlib.import_module("chargestate")
    if Path(package.__file__).resolve().parent != (SRC / "chargestate").resolve():
        raise ImportError(f"chargestate imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(package=package, **{
        m: importlib.import_module(f"chargestate.{m}")
        for m in ("states", "diagnostics", "husimi", "cli", "nonlinearity", "errors")})


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_start": list(os.getloadavg()),
            "CHARGESTATE_THREADS": os.environ.get("CHARGESTATE_THREADS", "unset")}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the nearest-rank tail: p90,
    fixed so the metric keeps its meaning, unless too few samples lie beyond."""
    ordered = sorted(latencies)
    for pct in TAIL_PCTS:
        rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
        if len(ordered) - rank >= MIN_BEYOND:
            break
    return ordered[rank - 1], pct, len(ordered) - rank


class Tally:
    """Outcomes and delivered work of the requests of one run."""

    def __init__(self, keep_digests=False):
        self.keep_digests = keep_digests
        self.outcomes = Counter()
        self.ok_latency: list[float] = []
        self.states = self.evals = self.samples = self.bytes_out = 0
        self.ledger = defaultdict(Counter)
        self.digests: list[str] = []

    def add(self, req, outcome, detail, seconds, res):
        self.outcomes[outcome] += 1
        self.bytes_out += res.out.get("bytes", 0)
        if outcome == "ok":
            self.ok_latency.append(seconds)
            self.states += req.states
            self.evals += req.evals
            self.samples += req.samples
        else:
            self.ledger[req.key][f"{outcome}: {detail}"[:160]] += 1

    @property
    def attempted(self):
        return sum(self.outcomes.values())

    def result(self, metrics: dict) -> dict:
        failed = self.attempted - self.outcomes["ok"]
        return {"correct": self.outcomes["wrong"] == 0, "attempted": self.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_passes(wl, passes, tally, tracer=None, seconds=None):
    """Run the given passes and, when ``seconds`` is given, more from the
    workload while another pass of median length still fits in that much
    request time.  Only whole passes run, so every pass has the workload's
    full mix.  Returns the request time of each pass."""
    times = []
    while True:
        for reqs in passes:
            gc.collect()
            spent = 0.0
            for req in reqs:
                if tracer is None:
                    t0 = time.perf_counter()
                    res = wl.execute(req)
                    dt = time.perf_counter() - t0
                else:
                    tracer.enabled = True
                    span = tracer.open("request")
                    res = wl.execute(req)
                    dt = tracer.close(span) / 1e9
                    tracer.enabled = False
                spent += dt
                outcome, detail = wl.check(req, res)
                tally.add(req, outcome, detail, dt, res)
                if tally.keep_digests:
                    tally.digests.append(digest(res.out))
            times.append(spent)
        if seconds is None or sum(times) + statistics.median(times) > seconds:
            return times
        passes = [wl.next_pass()]


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            tiny: bool = False) -> tuple[list[str], dict]:
    """Set up and run one workload; returns (report lines, result object)."""
    # the seed's known overflow defects raise numpy warnings on every pass
    warnings.simplefilter("ignore", RuntimeWarning)
    env = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
           **environment()}
    workdir.mkdir(parents=True, exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_library()
        wl = WORKLOADS[workload](lib, seed, tiny, workdir)
        first = wl.next_pass()
        wl.warm_up()
        setups.append(time.perf_counter() - t0)
    lines = ["env " + json.dumps(env)]
    if trace:
        passes = [first] + [wl.next_pass() for _ in range(wl.trace_passes - 1)]
        plain, tally = Tally(keep_digests=True), Tally(keep_digests=True)
        base = sum(run_passes(wl, passes, plain))
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = sum(run_passes(wl, passes, tally, tracer))
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        cli_s = metrics["cli.self_ms"][0] / 1e3
        metrics["cli.bytes_out"] = (tally.bytes_out, "B")
        metrics["cli.mb_per_s"] = (tally.bytes_out / 1e6 / cli_s if cli_s else 0.0, "MB/s")
        for outcome in OUTCOMES:
            metrics[f"check.{outcome}"] = (tally.outcomes[outcome], "count")
        metrics["check.error_rate"] = (1 - tally.outcomes["ok"] / tally.attempted, "share")
        metrics["trace.overhead_frac"] = (traced / base - 1.0, "share")
        metrics["trace.output_mismatches"] = (
            sum(a != b for a, b in zip(plain.digests, tally.digests)), "count")
        lines += [f"metric {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    else:
        tally = Tally()
        pass_times = run_passes(wl, [first], tally, seconds=seconds)
        spent = sum(pass_times)
        lat = tally.ok_latency
        tail_s, tail_pct, beyond = tail(lat)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(pass_times), "s"),
            "req_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "req_tail_ms": (tail_s * 1e3, "ms"),
            "states_per_s": (tally.states / spent, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = {
            "error_rate": (1 - tally.outcomes["ok"] / tally.attempted, "share"),
            "husimi_evals_per_s": (tally.evals / spent, "1/s"),
            "mc_samples_per_s": (tally.samples / spent, "1/s"),
        }
        lines += [f"metric {k} {v:.6g} {u}" for k, (v, u) in {**metrics, **extra}.items()]
        lines.append(f"latency over {len(lat)} ok of {tally.attempted} requests in "
                     f"{len(pass_times)} passes ({spent:.2f} s); "
                     f"req_tail_ms is p{tail_pct:g} with {beyond} samples beyond")
    lines.append("outcomes " + json.dumps(dict(tally.outcomes)))
    lines.append("ledger " + json.dumps({k: dict(v) for k, v in sorted(tally.ledger.items())}))
    return lines, tally.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "chargestate" / "__init__.py").is_file():
        print(f"bench: no chargestate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / str(os.getpid())
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:      # absent, or still used by another run
            pass
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
