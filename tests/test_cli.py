"""Tests for the command-line interface: flags, formats, exit codes."""

import json
import math

import pytest

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
    ZeroDenominatorError,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ERRORS_AND_CODES = [
    (ChargeStateError("base"), 1),
    (SpecParseError("tok"), 1),
    (ParameterRangeError("range"), 1),
    (PreconditionError("precondition"), 1),
    (ZeroDenominatorError(3), 2),
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

    @pytest.mark.parametrize("spec", ["qdef:nan", "qdef:inf"])
    def test_non_finite_deformation_parameter_exits_1(self, capsys, spec):
        code, out, err = run(capsys, "build", "--f", spec, "--q", "1",
                             "--xi", "5", "--nmax", "10")
        assert code == 1 and out == ""
        assert "qq" in err

    def test_non_finite_xi_exits_1(self, capsys):
        code, out, _ = run(capsys, "build", "--f", "unity", "--q", "1",
                           "--xi", "nan", "--nmax", "10")
        assert code == 1 and out == ""

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-3"])
    def test_diag_tol_must_be_finite_and_positive(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--f", "unity", "--q", "1", "--xi", "5",
                             "--nmax", "10", f"--diag-tol={tol}")
        assert code == 1 and out == ""
        assert "diag_tol" in err

    def test_default_second_cutoff(self, capsys):
        code, out, _ = run(capsys, "verify", "--f", "ps:0.5", "--q", "-1",
                           "--xi", "5", "--nmax", "20")
        assert code == 0
        assert json.loads(out)["n_max2"] == 40


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


class TestSweepSpec:
    def test_xi_values_include_endpoints(self):
        spec = SweepSpec("g2_a", 1.0, 10.0, 4, "unity", 1)
        values = spec.xi_values()
        assert values[0] == 1.0 and values[-1] == 10.0 and len(values) == 4

    def test_invariants(self):
        with pytest.raises(PreconditionError):
            SweepSpec("g2_a", 1.0, 10.0, 1, "unity", 1)
        with pytest.raises(PreconditionError):
            SweepSpec("g2_a", 10.0, 1.0, 5, "unity", 1)
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
