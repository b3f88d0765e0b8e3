"""Self-test of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest -q bench

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the correctness gate counts injected faults as failures, that traced
and untraced runs produce identical outputs, and that the benchmark refuses
to run without the library's sources.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_NAMES  # noqa: E402
from workloads import WORKLOADS, Request, Result  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(workload, trace, tmp_path):
    lines, result = run.measure(workload, 3, 0.2, trace, tmp_path, tiny=True)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert json.loads(json.dumps(result)) == result
    if trace:
        metrics = result["metrics"]
        self_ms = sum(metrics[f"{layer}.self_ms"]["value"] for layer in LAYER_NAMES)
        total = self_ms + metrics["trace.unattributed_ms"]["value"]
        assert total == pytest.approx(metrics["trace.wall_ms"]["value"], rel=1e-9)
        assert metrics["trace.output_mismatches"]["value"] == 0


def _grid_request(lib, tmp_path):
    wl = WORKLOADS["phase-space"](lib, 5, True, tmp_path)
    req = next(r for r in wl.next_pass() if r.kind == "grid" and "unity" in r.key)
    res = wl.execute(req)
    assert wl.check(req, res) == (gate.OK, "")
    return wl, req, res


def test_gate_counts_injected_nan_state(lib, tmp_path):
    wl = WORKLOADS["cutoff-scan"](lib, 5, True, tmp_path)
    req = next(r for r in wl.next_pass() if r.params["spec"] == "sqrt")
    res = wl.execute(req)
    assert wl.check(req, res) == (gate.OK, "")
    state = res.out["state"]
    coeffs = np.array(state.coeffs)
    coeffs[len(coeffs) // 2] = np.nan
    res.out["state"] = lib.states.ChargeState(
        state.q, state.xi, state.f_spec, state.branch, state.n_max, coeffs,
        state.pre_norm, state.log_pre_norm, state.rescale_count)
    assert wl.check(req, res)[0] == gate.NONFINITE


def test_gate_counts_corrupted_husimi_value(lib, tmp_path):
    wl, req, res = _grid_request(lib, tmp_path)
    grid = res.out["grid"]
    for corrupt, outcome in ((lambda v: v * 1.001, gate.WRONG),
                             (lambda v: -v, gate.WRONG),
                             (lambda v: np.nan, gate.NONFINITE)):
        values = np.array(grid.values)
        top = int(np.argmax(values))
        values[top] = corrupt(values[top])
        res.out["grid"] = lib.husimi.HusimiGrid(grid.alpha2, grid.x_range, grid.y_range, values)
        assert wl.check(req, res)[0] == outcome


def test_gate_counts_corrupted_emitted_files(lib, tmp_path):
    wl = WORKLOADS["figures"](lib, 5, True, tmp_path)
    reqs = wl.next_pass()
    for kind, corrupt, outcome in (
            ("husimi", lambda t: t.replace("\n", "\n0,0,-1\n", 1), gate.WRONG),
            ("verify", lambda t: t.replace('"pre_norm2": ', '"pre_norm2": Infinity, "x": ', 1),
             gate.NONFINITE),
            ("sweep", lambda t: re.sub(r"^([^,\n]+),[^,\n]+,1$", r"\1,inf,1", t, count=1,
                                       flags=re.M), gate.NONFINITE)):
        req = next(r for r in reqs if r.kind == kind and "unity" in r.key)
        res = wl.execute(req)
        assert wl.check(req, res) == (gate.OK, "")
        req.params["out"].write_text(corrupt(res.out["file"].decode()))
        assert wl.check(req, Result(None, {"code": 0}))[0] == outcome, kind


def test_gate_classifies_exceptions(lib, tmp_path):
    wl = WORKLOADS["cutoff-scan"](lib, 5, True, tmp_path)
    req = Request("characterise", "x", {"spec": "unity", "q": 0, "xi": 1.0, "n_max": 4,
                                        "k": 1, "exact": False})
    assert wl.check(req, Result(OverflowError("boom")))[0] == gate.RAW_EXCEPTION
    assert wl.check(req, Result(lib.errors.LadderOverflowError(3)))[0] == gate.TYPED_ERROR


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
