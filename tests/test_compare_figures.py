"""The figures comparator, between two small data sets that differ in last digits."""

import json

import pytest

from chargestate import diagnostics as dg
from chargestate.cli import main

import compare_figures
from _oracles import moments_direct

ARGV = ["figures", "--nmax", "12", "--steps", "5", "--grid", "5", "--outdir"]


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """(three-sum, direct-sum) output directories of one small figures run."""
    root = tmp_path_factory.mktemp("figures")
    assert main(ARGV + [str(root / "three")]) == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dg, "moments", moments_direct)
        assert main(ARGV + [str(root / "direct")]) == 0
    return root / "three", root / "direct"


def test_direct_moment_sums_pass(two_runs, capsys):
    three, direct = two_runs
    cmp = compare_figures.compare(direct, three)
    assert cmp.ok(), cmp.mismatches
    assert cmp.files == 44 and cmp.values > 400
    assert cmp.differing > 0  # the two moment forms round differently somewhere
    assert cmp.largest[0] <= 1e-12
    assert compare_figures.main([str(direct), str(three)]) == 0
    assert "largest relative deviation" in capsys.readouterr().out


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.mark.parametrize("name, old, new", [
    ("fig2_unity_q1.csv", ",1\n", ",0\n"),                       # a defined flag
    ("fig5_sqrt_q1.csv", "\n1,2,1,", "\n1,2,2,"),                # an integer column
    ("fig6_unity_q1.csv", "x,y,q\n-6,", "x,y,q\n-5,"),           # an axis
    ("fig1_ps-0.5_q1_verify.json", '"n_max": 12', '"n_max": 13'),
])
def test_exact_columns_and_flags_must_match(two_runs, tmp_path, name, old, new):
    three, _ = two_runs
    copy = tmp_path / "copy"
    copy.mkdir()
    for path in three.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    _edit(copy / name, old, new)
    cmp = compare_figures.compare(copy, three)
    assert not cmp.ok() and all(line.startswith(name) for line in cmp.mismatches)
    assert compare_figures.main([str(copy), str(three)]) == 1


def test_values_beyond_value_tol_and_missing_files_fail(two_runs, tmp_path):
    three, _ = two_runs
    copy = tmp_path / "copy"
    copy.mkdir()
    for path in three.iterdir():
        if path.name != "fig6_sqrt_q-4.csv":
            (copy / path.name).write_bytes(path.read_bytes())
    verify = copy / "fig2_unity_q1_verify.json"
    doc = json.loads(verify.read_text())
    doc["log_pre_norm_ratio"] *= 1 + 1e-6
    doc["converged"]["g12"] = not doc["converged"]["g12"]
    verify.write_text(json.dumps(doc))
    cmp = compare_figures.compare(copy, three)
    assert sorted(line.split(":")[0] for line in cmp.mismatches) == [
        "fig2_unity_q1_verify.json.converged.g12",
        "fig2_unity_q1_verify.json.log_pre_norm_ratio",
        "fig6_sqrt_q-4.csv"]
