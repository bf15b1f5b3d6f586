"""Quick self-test of the benchmark harness.

    python3 bench/selftest.py [WORKLOAD ...]      (default: checks)

Checks the artifact comparison on hand-made directories, the span
arithmetic of the tracer, and then, for each workload named, runs the
benchmark at minimal length: untraced once and traced twice, requiring
every operation to pass, the metric names to match BENCHMARK.json and
every counter to repeat exactly between the two traced runs.  Last, it
runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark files, where it must fail without printing a result.
Scratch files go to .bench_out/selftest/.  Exit 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_out" / "selftest"

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import compare_artifacts  # noqa: E402
import tracing  # noqa: E402


def check(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        raise SystemExit(1)


def write_out(d: Path, csv_rows, payload):
    d.mkdir(parents=True)
    (d / "t.csv").write_text("x,n,flag\n" + "".join(
        ",".join(row) + "\n" for row in csv_rows))
    (d / "k.json").write_text(json.dumps(payload))


def test_compare():
    base = SCRATCH / "compare"
    rows = [["0.5", "1", "true"], ["2", "3", "false"]]
    payload = {"e": 1.0, "k": 5, "ok": True, "v": [0.25, 0.5]}
    write_out(base / "a", rows, payload)
    write_out(base / "b", [["0.5", "1", "true"], ["2.0000000000000004", "3",
                                                   "false"]],
              {**payload, "v": [0.25, 0.5000001]})
    write_out(base / "int", [["0.5", "1", "true"], ["2", "4", "false"]],
              payload)
    write_out(base / "bool", rows, {**payload, "ok": False})
    write_out(base / "missing", rows, {"e": 1.0, "k": 5, "v": [0.25, 0.5]})

    rep = compare_artifacts.compare_dirs(base / "a", base / "b")
    check(not rep.mismatches and rep.floats["t.csv:x"][0] > 0.0
          and abs(rep.floats["k.json.v[]"][1] - 2e-7) < 1e-9,
          "compare: float drift is reported, not failed")
    for case in ("int", "bool", "missing"):
        rep = compare_artifacts.compare_dirs(base / "a", base / case)
        check(len(rep.mismatches) == 1, f"compare: {case} change fails")


def test_self_time():
    tr = tracing.Tracer()
    # outer a [0, 10] > b [1, 4] > inner a [2, 3]
    tr.spans = [["a", None, 0.0, 10.0], ["b", 0, 1.0, 4.0],
                ["a", 1, 2.0, 3.0]]
    total, self_t = tr.times()
    check(total["a"] == 10.0 and self_t["a"] == 8.0 and total["b"] == 3.0
          and self_t["b"] == 2.0, "tracer: totals skip nested repeats, "
          "self time excludes children")


def bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_workload(workload: str, spec: dict):
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    results = []
    for trace in (0, 1, 1):
        proc = bench(ROOT, workload, 0, trace)
        check(proc.returncode == 0, f"{workload} trace {trace}: exit 0")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(res) == {"correct", "attempted", "failed", "metrics"}
              and res["correct"] and res["failed"] == 0
              and res["attempted"] >= 1,
              f"{workload} trace {trace}: correct, no failed operation")
        check(set(res["metrics"]) == (layer.keys() if trace else e2e),
              f"{workload} trace {trace}: metric names match BENCHMARK.json")
        results.append(res["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if layer[k] == "count"}
              for m in results[1:]]
    check(counts[0] == counts[1], f"{workload}: counters repeat exactly "
          f"({len(counts[0])} counters)")


def test_bare_directory():
    bare = SCRATCH / "bare"
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "checks", 0, 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "bare directory: nonzero exit and no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    test_compare()
    test_self_time()
    for workload in sys.argv[1:] or ["checks"]:
        test_workload(workload, spec)
    test_bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
