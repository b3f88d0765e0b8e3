"""Tests for the command-line interface: flags, formats, exit codes."""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargestate import cli
from chargestate.cli import SweepSpec, main
from chargestate.errors import (
    ChargeStateError,
    ContinuedFractionPoleError,
    DegenerateStateError,
    LadderOverflowError,
    ParameterRangeError,
    PreconditionError,
    SpecParseError,
)
from chargestate.husimi import MAX_GRID_NODES
from chargestate.states import MAX_OCCUPATIONS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise AssertionError(f"JSON holds {name}")


def strict_json(text):
    """Parse JSON that must hold no Infinity or NaN."""
    return json.loads(text, parse_constant=_reject_constant)


ERRORS_AND_CODES = [
    (ChargeStateError("base"), 1),
    (SpecParseError("tok"), 1),
    (ParameterRangeError("range"), 1),
    (PreconditionError("precondition"), 1),
    (ContinuedFractionPoleError(4), 2),
    (DegenerateStateError("degenerate"), 2),
    (LadderOverflowError(5), 2),
]


class TestExitCodes:
    def test_every_error_class_is_covered(self):
        assert {type(exc) for exc, _ in ERRORS_AND_CODES} == {
            ChargeStateError, *ChargeStateError.__subclasses__()}

    @pytest.mark.parametrize("exc,code", ERRORS_AND_CODES,
                             ids=[type(exc).__name__ for exc, _ in ERRORS_AND_CODES])
    def test_documented_code(self, capsys, monkeypatch, exc, code):
        def raise_it(args):
            raise exc
        monkeypatch.setitem(cli._RUNNERS, "build", raise_it)
        got, out, err = run(capsys, "build", "--f", "unity", "--q", "1", "--xi", "5", "--nmax", "3")
        prefix = "numeric failure" if code == 2 else "error"
        assert got == code and out == ""
        assert err == f"chargestate: {prefix}: {exc}\n"

    def test_unwritable_out_file_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "pnd", "--f", "unity", "--q", "1", "--xi", "5",
                             "--nmax", "3", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("chargestate: error: ") and str(target) in err

    def test_outdir_that_is_a_file_exits_1(self, capsys, tmp_path):
        target = tmp_path / "README.md"
        target.write_text("a file\n")
        code, out, err = run(capsys, "figures", "--outdir", str(target), "--nmax", "3",
                             "--steps", "2", "--grid", "2")
        assert code == 1 and out == ""
        assert err.startswith("chargestate: error: ") and str(target) in err
        assert target.read_text() == "a file\n"

    def test_memory_error_is_not_caught(self, capsys, monkeypatch):
        def raise_it(args):
            raise MemoryError
        monkeypatch.setitem(cli._RUNNERS, "build", raise_it)
        with pytest.raises(MemoryError):
            main(["build", "--f", "unity", "--q", "1", "--xi", "5", "--nmax", "3"])


class TestBuild:
    def test_emits_schema_document(self, capsys):
        code, out, _ = run(capsys, "build", "--f", "unity", "--q", "1",
                           "--xi", "5", "--nmax", "60")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["coeffs"]) == 61
        norm = math.fsum(re * re + im * im for re, im in doc["coeffs"])
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert doc["q"] == 1 and doc["xi"] == [5.0, 0.0] and doc["branch"] == "plus"

    def test_single_coefficient_state(self, capsys):
        code, out, _ = run(capsys, "build", "--f", "sqrt", "--q", "0",
                           "--xi", "3", "--nmax", "0")
        assert code == 0
        assert json.loads(out)["coeffs"] == [[1.0, 0.0]]

    def test_out_of_range_parameter_exits_1(self, capsys):
        code, _, err = run(capsys, "build", "--f", "ps:1.5", "--q", "1",
                           "--xi", "5", "--nmax", "10")
        assert code == 1
        assert "p" in err

    def test_numeric_overflow_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--f", "ps:0.5", "--q", "1",
                           "--xi", "5", "--nmax", "600")
        assert code == 2
        assert "index" in err

    @pytest.mark.parametrize("spec,n_max", [("qdef:7", "400"), ("ps:0.5", "1280")])
    def test_overflow_while_evaluating_f_exits_2(self, capsys, spec, n_max):
        # math.sinh (qdef) and float pow (ps) raise OverflowError, not inf
        code, _, err = run(capsys, "build", "--f", spec, "--q", "1",
                           "--xi", "5", "--nmax", n_max)
        assert code == 2
        assert "index" in err

    def test_overflow_at_index_0_names_the_parameter(self, capsys):
        # f(2) = sinh(2 log qq) / (2 sinh(log qq)) overflows, and every q = 1
        # ladder needs occupation 2: no cutoff helps
        code, out, err = run(capsys, "build", "--f", "qdef:1e-308", "--q", "1",
                             "--xi", "5", "--nmax", "0")
        assert code == 2 and out == ""
        assert err == ("chargestate: numeric failure: ladder matrix element or recursion "
                       "coefficient overflowed at index 0; no n_max avoids it; use a "
                       "deformation parameter nearer 1\n")

    def test_overflowed_pre_norm_is_null(self, capsys):
        code, out, _ = run(capsys, "build", "--f", "ps:0.5", "--q", "3",
                           "--xi", "5", "--nmax", "300")
        assert code == 0
        doc = strict_json(out)
        assert doc["pre_norm"] is None
        assert math.log(sys.float_info.max) < doc["log_pre_norm"] < math.inf

    @pytest.mark.parametrize("spec", ["qdef:nan", "qdef:inf", "qdef:1e-310", "qdef:5e-324"])
    def test_non_finite_deformation_parameter_exits_1(self, capsys, spec):
        code, out, err = run(capsys, "build", "--f", spec, "--q", "1",
                             "--xi", "5", "--nmax", "10")
        assert code == 1 and out == ""
        assert "qq" in err

    def test_non_finite_xi_exits_1(self, capsys):
        code, out, _ = run(capsys, "build", "--f", "unity", "--q", "1",
                           "--xi", "nan", "--nmax", "10")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("xi", ["1,2,3", "abc"])
    def test_malformed_xi_exits_1(self, capsys, xi):
        code, out, err = run(capsys, "build", "--f", "unity", "--q", "1",
                             "--xi", xi, "--nmax", "10")
        assert code == 1 and out == ""
        assert err.startswith("chargestate: error: --xi expects")

    def test_complex_xi_and_file_output(self, capsys, tmp_path):
        target = tmp_path / "state.json"
        code, out, _ = run(capsys, "build", "--f", "qdef:7", "--q", "-2",
                           "--xi", "2,1.5", "--nmax", "12", "--out", str(target))
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["xi"] == [2.0, 1.5] and doc["branch"] == "minus"


class TestSweep:
    def test_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--diagnostic", "g2_a", "--f", "unity",
                           "--q", "1", "--xi-start", "1", "--xi-end", "10",
                           "--steps", "5", "--nmax", "40")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "xi,value,defined"
        assert len(lines) == 6
        assert all(line.endswith(",1") for line in lines[1:])

    def test_round_trips_byte_identically(self, capsys):
        _, out, _ = run(capsys, "sweep", "--diagnostic", "mandel_a", "--f", "ps:0.5",
                        "--q", "1", "--xi-start", "1", "--xi-end", "10",
                        "--steps", "7", "--nmax", "40")
        lines = out.strip().split("\n")
        rebuilt = ["xi,value,defined"]
        for line in lines[1:]:
            xi, value, defined = line.split(",")
            rebuilt.append(f"{float(xi):.17g},{float(value):.17g},{int(defined)}")
        assert rebuilt == lines

    def test_single_step_rejected(self, capsys):
        code, _, _ = run(capsys, "sweep", "--diagnostic", "g2_a", "--f", "unity",
                         "--q", "1", "--xi-start", "1", "--xi-end", "10",
                         "--steps", "1", "--nmax", "20")
        assert code == 1

    def test_reversed_range_rejected(self, capsys):
        code, _, _ = run(capsys, "sweep", "--diagnostic", "g12", "--f", "unity",
                         "--q", "1", "--xi-start", "10", "--xi-end", "1",
                         "--steps", "5", "--nmax", "20")
        assert code == 1

    def test_non_finite_range_rejected(self, capsys):
        code, out, _ = run(capsys, "sweep", "--diagnostic", "g2_a", "--f", "unity",
                           "--q", "1", "--xi-start", "1", "--xi-end", "inf",
                           "--steps", "3", "--nmax", "10")
        assert code == 1 and out == ""

    def test_overflowing_span_exits_1(self, capsys):
        # both ends finite, but xi_end - xi_start is beyond double range
        code, out, err = run(capsys, "sweep", "--diagnostic", "g2_a", "--f", "unity",
                             "--q", "1", "--xi-start=-1e308", "--xi-end", "1e308",
                             "--steps", "3", "--nmax", "10")
        assert code == 1 and out == ""
        assert err == "chargestate: error: sweep needs an xi span within double range\n"

    def test_steps_beyond_ceiling_exits_1(self, capsys):
        # refused before the xi list and the CSV lines (some 720 GB here) are built
        code, out, err = run(capsys, "sweep", "--diagnostic", "g2_a", "--f", "unity",
                             "--q", "1", "--xi-start", "1", "--xi-end", "10",
                             "--steps", "4000000000", "--nmax", "10")
        assert code == 1 and out == ""
        assert err.startswith("chargestate: error: sweep of 4000000000 steps exceeds")

    def test_undefined_rows_carry_empty_value(self, capsys):
        # mode b is empty on the whole q >= 0 ladder only for the bare ket;
        # a 1-rung ladder at xi=1, q=0 has c_1 = 0 so <n_b> = 0 at xi = 1
        code, out, _ = run(capsys, "sweep", "--diagnostic", "g2_b", "--f", "unity",
                           "--q", "0", "--xi-start", "1", "--xi-end", "2",
                           "--steps", "2", "--nmax", "1")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert rows[0] == "1,,0"
        assert rows[1].endswith(",1")


class TestPnd:
    def test_single_ket(self, capsys):
        code, out, _ = run(capsys, "pnd", "--f", "unity", "--q", "2",
                           "--xi", "5", "--nmax", "0")
        assert code == 0
        assert out.strip().split("\n") == ["n,na,nb,p", "0,2,0,1"]

    def test_probabilities_sum_to_one(self, capsys):
        code, out, _ = run(capsys, "pnd", "--f", "qdef:7", "--q", "-2",
                           "--xi", "5", "--nmax", "80")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert math.fsum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_oscillatory_distribution(self, capsys):
        _, out, _ = run(capsys, "pnd", "--f", "unity", "--q", "2",
                        "--xi", "5", "--nmax", "40")
        p = [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
        maxima = [
            i for i in range(len(p))
            if p[i] > (p[i - 1] if i else -1) and p[i] > (p[i + 1] if i + 1 < len(p) else -1)
        ]
        assert len(maxima) >= 2


class TestHusimiCmd:
    def test_hole_at_origin(self, capsys):
        code, out, _ = run(capsys, "husimi", "--f", "unity", "--q", "1", "--xi", "10",
                           "--alpha2", "1,1", "--xmin", "-1", "--xmax", "1",
                           "--ymin", "-1", "--ymax", "1", "--grid", "3", "--nmax", "40")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert origin and float(origin[0][2]) == 0.0
        assert all(float(r[2]) >= 0.0 for r in rows)

    def test_negative_charge_fills_origin(self, capsys):
        code, out, _ = run(capsys, "husimi", "--f", "unity", "--q", "-1", "--xi", "10",
                           "--alpha2", "1,1", "--xmin", "-1", "--xmax", "1",
                           "--ymin", "-1", "--ymax", "1", "--grid", "3", "--nmax", "40")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert float(origin[0][2]) > 0.0

    def test_minimal_grid_row_count(self, capsys):
        code, out, _ = run(capsys, "husimi", "--f", "unity", "--q", "0", "--xi", "2",
                           "--alpha2", "0,0", "--xmin", "0", "--xmax", "1",
                           "--ymin", "0", "--ymax", "1", "--grid", "2", "--nmax", "10")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 4

    def test_grid_too_small_rejected(self, capsys):
        code, _, _ = run(capsys, "husimi", "--f", "unity", "--q", "0", "--xi", "2",
                         "--alpha2", "0,0", "--xmin", "0", "--xmax", "1",
                         "--ymin", "0", "--ymax", "1", "--grid", "1", "--nmax", "10")
        assert code == 1

    @pytest.mark.parametrize("flag", ["--xmin", "--xmax", "--ymin", "--ymax"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_range_rejected(self, capsys, flag, value):
        bounds = {"--xmin": "-1", "--xmax": "1", "--ymin": "-1", "--ymax": "1", flag: value}
        code, out, err = run(capsys, "husimi", "--f", "unity", "--q", "1", "--xi", "5",
                             "--alpha2", "1,1", *(f"{k}={v}" for k, v in bounds.items()),
                             "--grid", "2", "--nmax", "10")
        assert code == 1 and out == ""
        assert "finite" in err

    def test_overflowing_span_exits_1(self, capsys):
        code, out, err = run(capsys, "husimi", "--f", "unity", "--q", "1", "--xi", "5",
                             "--alpha2", "1,1", "--xmin=-1.7e308", "--xmax", "1.7e308",
                             "--ymin", "-1", "--ymax", "1", "--grid", "3", "--nmax", "10")
        assert code == 1 and out == ""
        assert err == "chargestate: error: grid range spans must lie within double range\n"

    def test_grid_beyond_node_ceiling_exits_1(self, capsys):
        # refused before the node arrays (14.6 TiB here) are allocated
        code, out, err = run(capsys, "husimi", "--f", "unity", "--q", "1", "--xi", "5",
                             "--alpha2", "1,1", "--xmin", "-1", "--xmax", "1",
                             "--ymin", "-1", "--ymax", "1", "--grid", "1000000", "--nmax", "10")
        assert code == 1 and out == ""
        assert err.startswith("chargestate: error: grid of 1000000 x 1000000 nodes exceeds")


class TestOccupationCeiling:
    # refused before f.values or any array is sized by the input
    def test_build_charge_beyond_ceiling_exits_1(self, capsys):
        code, out, err = run(capsys, "build", "--f", "unity", "--q=2000000000",
                             "--xi", "5", "--nmax", "3")
        assert code == 1 and out == ""
        assert err.startswith("chargestate: error: ladder of 2000000005 occupations exceeds")

    def test_verify_cutoff_beyond_ceiling_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "--f", "unity", "--q", "1", "--xi", "5",
                             "--nmax", "2000000000")
        assert code == 1 and out == ""
        assert err.startswith("chargestate: error: ladder of 4000000003 occupations exceeds")


class TestVerify:
    def test_report_fields(self, capsys):
        code, out, _ = run(capsys, "verify", "--f", "ps:0.5", "--q", "1",
                           "--xi", "5", "--nmax", "40", "--nmax2", "80")
        assert code == 0
        doc = json.loads(out)
        for key in ("max_interior_residual", "boundary_residual", "pre_norm",
                    "pre_norm2", "norm_divergent", "converged"):
            assert key in doc
        assert set(doc["converged"]) == {"mean_na", "mandel_a", "g2_a", "g12", "i0"}
        # geometric coefficient growth: divergence flagged, reported not judged
        assert doc["norm_divergent"] is True

    def test_exit_zero_even_for_divergent_state(self, capsys):
        code, _, _ = run(capsys, "verify", "--f", "unity", "--q", "1",
                         "--xi", "5", "--nmax", "40", "--nmax2", "80")
        assert code == 0

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "verify", "--f", "unity", "--q", "1", "--nmax", "40")
        assert code == 1

    def test_overflowed_pre_norm2_is_null(self, capsys):
        code, out, _ = run(capsys, "verify", "--f", "qdef:7", "--q", "3",
                           "--xi", "5", "--nmax", "80")
        assert code == 0
        doc = strict_json(out)
        assert doc["pre_norm"] is not None and doc["pre_norm2"] is None
        assert doc["norm_divergent"] is True
        assert '"diag_tol": 0.001,' in out

    def test_non_finite_recursion_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--f", "ps:0.5", "--q", "1",
                             "--xi", "5", "--nmax", "170")
        assert code == 2 and out == ""
        assert "index 338" in err

    def test_default_second_cutoff(self, capsys):
        code, out, _ = run(capsys, "verify", "--f", "ps:0.5", "--q", "-1",
                           "--xi", "5", "--nmax", "20")
        assert code == 0
        assert json.loads(out)["n_max2"] == 40

    def test_second_cutoff_does_not_leak_between_calls(self, capsys):
        args = ("verify", "--f", "ps:0.5", "--q=-1", "--xi", "5", "--nmax", "20")
        run(capsys, *args, "--nmax2", "50")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["n_max2"] == 40


class TestParser:
    def test_built_once_per_process(self, capsys):
        parser = cli.build_parser()
        run(capsys, "pnd", "--f", "unity", "--q", "2", "--xi", "5", "--nmax", "3")
        assert cli.build_parser() is parser
        assert cli.build_parser.cache_info().currsize == 1


class TestFigures:
    def test_writes_full_dataset(self, capsys, tmp_path):
        out = tmp_path / "figs"
        code, _, err = run(capsys, "figures", "--outdir", str(out),
                           "--nmax", "24", "--steps", "4", "--grid", "5")
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert "fig1_ps-0.5_q1.csv" in names
        assert "fig1_ps-0.5_q1_verify.json" in names
        assert "fig5_qdef-7_q-2.csv" in names
        assert "fig6_sqrt_q-4.csv" in names
        # 14 sweep curves (fig1-4) + 4 pnd + 8 husimi CSVs; verify per curve/pnd
        assert len([n for n in names if n.endswith(".csv")]) == 14 + 4 + 8
        assert len([n for n in names if n.endswith("_verify.json")]) == 14 + 4

    def test_each_file_is_its_single_command_output(self, capsys, tmp_path):
        out = tmp_path / "figs"
        code, _, _ = run(capsys, "figures", "--outdir", str(out),
                         "--nmax", "12", "--steps", "4", "--grid", "5")
        assert code == 0
        commands = list(cli._figure_commands(12, 4, 5))
        assert sorted(name for name, _ in commands) == sorted(p.name for p in out.iterdir())
        for name, argv in commands:
            single = tmp_path / name
            assert main(argv + ["--out", str(single)]) == 0
            assert single.read_bytes() == (out / name).read_bytes(), name


class TestSweepSpec:
    def test_xi_values_include_endpoints(self):
        spec = SweepSpec("g2_a", 1.0, 10.0, 4, "unity", 1)
        values = spec.xi_values()
        assert values[0] == 1.0 and values[-1] == 10.0 and len(values) == 4

    def test_last_point_is_the_typed_end(self, capsys):
        # xi_start + 3 step rounds to inf here; the end point is xi_end itself
        top = sys.float_info.max
        values = SweepSpec("g2_a", 0.0, top, 4, "unity", 1, n_max=3).xi_values()
        assert all(map(math.isfinite, values)) and values[-1] == top
        code, out, err = run(capsys, "sweep", "--diagnostic", "g2_a", "--f", "unity", "--q", "1",
                             "--xi-start=0", f"--xi-end={top!r}", "--steps", "4", "--nmax", "3")
        assert code == 2 and out == ""
        assert "non-finite" not in err and "overflowed at index" in err

    def test_invariants(self):
        with pytest.raises(PreconditionError):
            SweepSpec("g2_a", 1.0, 10.0, 1, "unity", 1)
        with pytest.raises(PreconditionError):
            SweepSpec("g2_a", 10.0, 1.0, 5, "unity", 1)
        SweepSpec("g2_a", 1.0, 10.0, cli.MAX_SWEEP_STEPS, "unity", 1)
        with pytest.raises(PreconditionError):
            SweepSpec("g2_a", 1.0, 10.0, cli.MAX_SWEEP_STEPS + 1, "unity", 1)
        with pytest.raises(PreconditionError):
            SweepSpec("g2_a", 1.0, 10.0, 5, "unity", 1, n_max=0)
        with pytest.raises(SpecParseError):
            SweepSpec("entropy", 1.0, 10.0, 5, "unity", 1)


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        args = ("sweep", "--diagnostic", "i0", "--f", "sqrt", "--q", "2",
                "--xi-start", "1", "--xi-end", "10", "--steps", "9", "--nmax", "40")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


# The input contract over argv: every command ends in exit 0, 1 or 2, with no
# traceback or warning, and what it emits parses with finite numbers.  Each
# group of flags takes ordinary values or, for at most two groups per argv,
# extreme or malformed ones.
EXTREME = st.sampled_from(["0", "-3", "1e308", "-1e308", "1.7e308", "-1.7e308", "5e-324",
                           "-5e-324", "nan", "inf", "-inf", "abc", "", "1e", "2,"])
# a range may also span the whole double range: both ends finite, the width not
BAD_RANGE = st.one_of(st.tuples(EXTREME, EXTREME),
                      st.sampled_from(["1e308", "1.7e308"]).map(lambda m: ("-" + m, m)))
PAIR = st.one_of(st.floats(-12.0, 12.0).map(repr),
                 st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)).map("%r,%r".__mod__))
BAD_PAIR = st.one_of(EXTREME, st.tuples(EXTREME, EXTREME).map(",".join), st.just("1,2,3"))
SPEC = st.one_of(st.sampled_from(["unity", "sqrt", "ps:0.5", "qdef:7"]),
                 st.floats(0.05, 1.0).map("ps:%r".__mod__),
                 st.floats(0.2, 10.0).filter(lambda qq: qq != 1.0).map("qdef:%r".__mod__))
# a deformation parameter may also be subnormal
BAD_SPEC = st.one_of(st.sampled_from(["gauss", "ps:"]),
                     st.tuples(st.sampled_from(["ps:", "qdef:"]),
                               st.one_of(EXTREME, st.sampled_from(["1e-310", "5e-324"]))
                               ).map("".join))
# Counts out of range: small, or refused by a work ceiling before allocating.
# n_max at MAX_OCCUPATIONS is refused by the ladder's occupation count; the
# sweep-step and grid ceilings accept their own value, so one above is drawn.
# An accepted count never exceeds n_max 200, steps 8 or grid 8.
BAD_NMAX = st.sampled_from([-1, MAX_OCCUPATIONS, MAX_OCCUPATIONS + 1, 2**31])
BAD_STEPS = st.sampled_from([-1, 0, 1, cli.MAX_SWEEP_STEPS + 1, 2**31])
BAD_GRID = st.sampled_from([-1, 0, 1, math.isqrt(MAX_GRID_NODES) + 1, 2**31])
BAD_CHARGE = st.sampled_from([MAX_OCCUPATIONS, -MAX_OCCUPATIONS, 2**31, -2**31])


def _flag(name, good, bad):
    """(flags, ordinary values, extreme values) of a group of one flag."""
    return (name,), good.map(lambda v: (v,)), bad.map(lambda v: (v,))


def _range(low, high, good):
    """The same for a low and a high flag drawn together as one range."""
    return (low, high), st.tuples(good, good), BAD_RANGE


@st.composite
def _argv(draw, command, *groups):
    """argv of one command from flag groups, values in attached form."""
    extreme = draw(st.sets(st.sampled_from(range(len(groups))), max_size=2))
    argv = [command]
    for i, (names, good, bad) in enumerate(groups):
        argv += [f"{name}={v}" for name, v in zip(names, draw(bad if i in extreme else good))]
    return argv


SPEC_AND_CHARGE = (_flag("--f", SPEC, BAD_SPEC), _flag("--q", st.integers(-4, 4), BAD_CHARGE))
XI = _flag("--xi", PAIR, BAD_PAIR)
NMAX = _flag("--nmax", st.integers(0, 200), BAD_NMAX)
COORD = st.floats(-6.0, 6.0).map(repr)
COMMANDS = st.one_of(
    _argv("build", *SPEC_AND_CHARGE, XI, NMAX),
    _argv("pnd", *SPEC_AND_CHARGE, XI, NMAX),
    _argv("sweep", _flag("--diagnostic", st.sampled_from(cli.SWEEP_DIAGNOSTICS),
                         st.just("entropy")),
          *SPEC_AND_CHARGE, _range("--xi-start", "--xi-end", COORD),
          _flag("--steps", st.integers(2, 8), BAD_STEPS), NMAX),
    _argv("husimi", *SPEC_AND_CHARGE, XI, _flag("--alpha2", PAIR, BAD_PAIR),
          _range("--xmin", "--xmax", COORD), _range("--ymin", "--ymax", COORD),
          _flag("--grid", st.integers(2, 8), BAD_GRID), NMAX),
    _argv("verify", *SPEC_AND_CHARGE, XI, _flag("--nmax", st.integers(3, 100), BAD_NMAX),
          _flag("--nmax2", st.integers(4, 200), BAD_NMAX)),
)


def run_clean(argv):
    """Exit code and stdout of main(argv), run in-process, with its stderr
    checked for a traceback or a warning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    return code, out.getvalue()


def check_emitted(name, text):
    """JSON with no NaN or Infinity, or CSV whose every field is a finite number."""
    if name.endswith("json"):
        strict_json(text)
        return
    header, *rows = text.splitlines()
    for row in rows:
        fields = row.split(",")
        assert len(fields) == header.count(",") + 1
        assert all(math.isfinite(float(v)) for v in fields if v)  # "" is an undefined value


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=COMMANDS)
def test_every_argv_exits_cleanly(argv):
    code, out = run_clean(argv)
    if code:
        assert out == ""
    else:
        check_emitted("json" if argv[0] in ("build", "verify") else "csv", out)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(argv=_argv("figures", _flag("--nmax", st.integers(3, 40), BAD_NMAX),
                  _flag("--steps", st.integers(2, 8), BAD_STEPS),
                  _flag("--grid", st.integers(2, 8), BAD_GRID)))
def test_figures_argv_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as outdir:
        code, out = run_clean([*argv, f"--outdir={outdir}"])
        assert out == ""
        written = list(Path(outdir).iterdir())
        assert code or len(written) == 44
        for path in written:
            check_emitted(path.name, path.read_text())
