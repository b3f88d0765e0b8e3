"""Compare two ``chargestate figures`` output directories.

    python tests/compare_figures.py DIR_A DIR_B

The two data sets must hold the same file names, and each pair of files the
same header, row count, axis and integer columns (xi, n, na, nb, x, y), the
same ``defined`` flags and, in the verify JSON, the same keys, flags,
integers and strings.  The remaining numbers (the sweep value, pnd's p,
husimi's q and the verify floats) need only agree within the benchmark
gate's VALUE_TOL rule, bench/gate.py close(): |a - b| <= VALUE_TOL (|b| + 1),
with DIR_B's value as b.  The largest deviation is printed; the exit status
is 0 when the data sets agree, 1 when they do not and 2 on a usage error.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import sys
from pathlib import Path

_GATE = Path(__file__).resolve().parents[1] / "bench" / "gate.py"
_spec = importlib.util.spec_from_file_location("_figures_gate", _GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

EXACT_COLUMNS = {"xi", "n", "na", "nb", "x", "y", "defined"}


class Comparison:
    """Mismatches and the largest numeric deviation between two data sets."""

    def __init__(self):
        self.mismatches: list[str] = []
        self.files = 0
        self.values = 0
        self.differing = 0
        # (relative deviation |a - b| / |b|, where, a, b)
        self.largest = (0.0, None, None, None)

    def number(self, where: str, a: float, b: float):
        self.values += 1
        if a == b:
            return
        self.differing += 1
        if not gate.close(a, b):
            self.mismatches.append(f"{where}: {a!r} vs {b!r} beyond VALUE_TOL")
        rel = abs(a - b) / abs(b) if b else float("inf")
        if rel > self.largest[0]:
            self.largest = (rel, where, a, b)

    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        rel, where, a, b = self.largest
        head = (f"{self.files} files, {self.values} compared numbers, "
                f"{self.differing} differ in any bit, {len(self.mismatches)} mismatches")
        if where is None:
            return head + "; every number is identical"
        return head + f"; largest relative deviation {rel:.3g} at {where} ({a!r} vs {b!r})"


def _compare_csv(cmp: Comparison, name: str, a_text: str, b_text: str):
    rows_a, rows_b = list(csv.reader(a_text.splitlines())), list(csv.reader(b_text.splitlines()))
    if not rows_a or rows_a[0] != rows_b[0]:
        cmp.mismatches.append(f"{name}: headers differ")
        return
    if len(rows_a) != len(rows_b):
        cmp.mismatches.append(f"{name}: {len(rows_a) - 1} rows vs {len(rows_b) - 1}")
        return
    header = rows_a[0]
    for i, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for column, a, b in zip(header, row_a, row_b):
            where = f"{name} row {i} {column}"
            if column in EXACT_COLUMNS or a == "" or b == "":
                if a != b:
                    cmp.mismatches.append(f"{where}: {a!r} vs {b!r}")
            else:
                cmp.number(where, float(a), float(b))


def _compare_json(cmp: Comparison, where: str, a, b):
    if type(a) is float and type(b) is float:
        cmp.number(where, a, b)
    elif type(a) is dict and type(b) is dict:
        if a.keys() != b.keys():
            cmp.mismatches.append(f"{where}: keys {sorted(a)} vs {sorted(b)}")
        for key in a.keys() & b.keys():
            _compare_json(cmp, f"{where}.{key}", a[key], b[key])
    elif type(a) is list and type(b) is list and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_json(cmp, f"{where}[{i}]", x, y)
    elif type(a) is not type(b) or a != b:  # flags, integers, strings and nulls
        cmp.mismatches.append(f"{where}: {a!r} vs {b!r}")


def compare(dir_a, dir_b) -> Comparison:
    """Compare every file of two figures directories."""
    cmp = Comparison()
    names_a = {p.name for p in Path(dir_a).iterdir()}
    names_b = {p.name for p in Path(dir_b).iterdir()}
    for name in sorted(names_a ^ names_b):
        cmp.mismatches.append(f"{name}: only in {dir_a if name in names_a else dir_b}")
    for name in sorted(names_a & names_b):
        cmp.files += 1
        a_text = (Path(dir_a) / name).read_text()
        b_text = (Path(dir_b) / name).read_text()
        if name.endswith(".json"):
            _compare_json(cmp, name, json.loads(a_text), json.loads(b_text))
        else:
            _compare_csv(cmp, name, a_text, b_text)
    return cmp


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cmp = compare(*args)
    for line in cmp.mismatches:
        print(line)
    print(cmp.summary())
    return 0 if cmp.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
