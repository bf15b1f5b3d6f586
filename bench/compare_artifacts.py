"""Compare two reebtwist ``--out`` directories.

    python3 bench/compare_artifacts.py OUT_A OUT_B

For every float CSV column and every float JSON key (a dotted path
inside the file) it prints the largest absolute and relative
difference.  It exits 1 on anything that must match exactly: a file,
column or key present on one side only, a row-count change, or a
differing integer, boolean or string.  Exit 0 means the two runs agree
on everything except float digits, whose differences are reported.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

_INT = re.compile(r"[+-]?\d+\Z")


def _is_float_text(text: str) -> bool:
    if _INT.match(text):
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _float_diff(a: float, b: float):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf, math.inf
    diff = abs(a - b)
    return diff, diff / max(abs(a), abs(b))


class Report:
    def __init__(self):
        self.floats = {}      # label -> [max abs, max rel]
        self.mismatches = []

    def float_pair(self, label: str, a: float, b: float):
        d_abs, d_rel = _float_diff(a, b)
        cur = self.floats.setdefault(label, [0.0, 0.0])
        cur[0] = max(cur[0], d_abs)
        cur[1] = max(cur[1], d_rel)

    def exact(self, label: str, a, b):
        if a != b:
            self.mismatches.append(f"{label}: {a!r} != {b!r}")


def compare_csv(name: str, a: Path, b: Path, rep: Report):
    with a.open(newline="") as fa, b.open(newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        rep.mismatches.append(f"{name}: headers differ")
        return
    if len(rows_a) != len(rows_b):
        rep.mismatches.append(f"{name}: {len(rows_a) - 1} rows vs "
                              f"{len(rows_b) - 1}")
        return
    for j, col in enumerate(rows_a[0]):
        cells = [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:])]
        label = f"{name}:{col}"
        # a column is float when any cell on either side is written as a
        # float; 17-digit output prints a whole float such as 2.0 as "2"
        if any(_is_float_text(x) for pair in cells for x in pair):
            for x, y in cells:
                try:
                    rep.float_pair(label, float(x), float(y))
                except ValueError:
                    rep.exact(label, x, y)
        else:
            for i, (x, y) in enumerate(cells, start=1):
                rep.exact(f"{label}[{i}]", x, y)


def compare_json(label: str, a, b, rep: Report):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{label}.{key}"
            if key not in a or key not in b:
                rep.mismatches.append(f"{sub}: present on one side only")
            else:
                compare_json(sub, a[key], b[key], rep)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            rep.mismatches.append(f"{label}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare_json(f"{label}[{i}]", x, y, rep)
    elif (isinstance(a, float) and isinstance(b, (int, float))
          and not isinstance(b, bool)) or (
            isinstance(b, float) and isinstance(a, int)
            and not isinstance(a, bool)):
        rep.float_pair(re.sub(r"\[\d+\]", "[]", label), float(a), float(b))
    else:
        rep.exact(label, a, b)


def compare_dirs(dir_a: Path, dir_b: Path) -> Report:
    rep = Report()
    files_a = {p.relative_to(dir_a).as_posix() for p in dir_a.rglob("*")
               if p.is_file()}
    files_b = {p.relative_to(dir_b).as_posix() for p in dir_b.rglob("*")
               if p.is_file()}
    for name in sorted(files_a ^ files_b):
        rep.mismatches.append(f"{name}: present on one side only")
    for name in sorted(files_a & files_b):
        a, b = dir_a / name, dir_b / name
        if name.endswith(".csv"):
            compare_csv(name, a, b, rep)
        elif name.endswith(".json"):
            compare_json(name, json.loads(a.read_text()),
                         json.loads(b.read_text()), rep)
        else:
            rep.exact(name, a.read_bytes(), b.read_bytes())
    return rep


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 bench/compare_artifacts.py OUT_A OUT_B",
              file=sys.stderr)
        return 2
    dir_a, dir_b = Path(args[0]), Path(args[1])
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    rep = compare_dirs(dir_a, dir_b)
    print(f"{'float column or key':60s} {'max abs':>10s} {'max rel':>10s}")
    for label, (d_abs, d_rel) in sorted(rep.floats.items()):
        print(f"{label:60s} {d_abs:10.3e} {d_rel:10.3e}")
    for m in rep.mismatches:
        print(f"MISMATCH {m}")
    print(f"{len(rep.floats)} float columns/keys compared, "
          f"{len(rep.mismatches)} exact mismatches")
    return 1 if rep.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
