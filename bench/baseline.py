"""Run the benchmark over several seeds and summarize it.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each seed, runs every workload in BENCHMARK.json untraced (the
workloads alternate, so slow drift of the machine reaches all of
them alike), then one traced run per workload on the first seed.  For
every end-to-end metric it records the median and the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their spread
(Q3 - Q1) / median next to the metric's bound.  The per-layer values
of the traced runs and each run's metadata are kept as well.  The
summary is written as JSON; a table goes to standard output.  Exit 1
if any run failed or any spread other than set-up time's exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(cmd: list, workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit {proc.returncode}")
    detail = json.loads(lines[-2])["detail"]
    return detail, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="range such as 1-10")
    ap.add_argument("--out", required=True, help="summary JSON to write")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    runs = {w: [] for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            detail, res = bench_run(spec["command"], w, seed,
                                    spec["run_seconds"], 0)
            ok &= res["correct"] and res["failed"] == 0
            runs[w].append({"seed": seed, "result": res,
                            "wall_s_samples": detail["wall_s_samples"],
                            "setup_s_samples": detail["setup_s_samples"]})
            print(w, seed, {k: round(v["value"], 4)
                            for k, v in res["metrics"].items()}, flush=True)

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds,
               "workloads": {}}
    for w in workloads:
        metrics = {}
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            metrics[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                                  "q3": q3, "spread": spread,
                                  "bound": m["bound"], "values": vals}
            if m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
            print(f"{w:10s} {m['name']:12s} median {med:10.4g} {m['unit']:3s}"
                  f" spread {spread:6.3f} (bound {m['bound']})")
        detail, res = bench_run(spec["command"], w, seeds[0],
                                spec["run_seconds"], 1)
        ok &= res["correct"] and res["failed"] == 0
        summary["workloads"][w] = {
            "end_to_end": metrics, "runs": runs[w],
            "traced": {"seed": seeds[0], "meta": detail["meta"],
                       "metrics": {k: v["value"]
                                   for k, v in res["metrics"].items()}}}
    summary["meta"] = detail["meta"]
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
