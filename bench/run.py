"""Benchmark of the reebtwist pipeline through its public API.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one caller, closed loop: each operation starts
after the previous one finished, and each gets a fresh ``--out``
directory under ``.bench_out/``.  Operations repeat while the next
one, at the pace of the slowest so far, would still end within
``--seconds``; there is always at least one.  The workload seed is
passed to ``cli.run(..., seed=)``; everything else about the inputs is
fixed by the workload.

Workloads (why each exists):

* ``pipeline``: ``run("all")`` on the default config, the headline
  number.  Every layer runs once; shooting (lincr) and the energy
  stage dominate.
* ``modes``: ``run("lincr")`` on a stiff variant (k = -2, cos ramp,
  n = 3, k_max = 8) that still passes every gate with kernel
  {0: 3, -1: 2}.  Almost all of it is ``solve_ivp`` shooting with
  scalar profile calls inside the right-hand side; energy and validate
  do no work, so an energy-only change must leave it unchanged.
* ``checks``: ``validate``, ``geometry``, ``orbits``, ``index`` and
  ``energy`` on the default config with the matched preset on.  Bulk
  profile evaluation and no shooting, so a lincr-only change must
  leave it unchanged.  It is not listed in BENCHMARK.json: on a shared
  2-core machine its run-to-run spread exceeded the largest bound the
  benchmark may set, and the run budget leaves no room for longer runs
  with a third workload.  It stays runnable by hand and is what
  ``selftest.py`` runs, being the shortest.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s``
(median seconds per operation; the sample count and maximum go in the
detail line), ``setup_s`` (median over fresh processes of import,
config parse and ``Model`` construction), ``peak_rss_mb`` and
``ok_frac`` (operations that passed every check over operations
attempted; the failure share is one minus it).

With ``--trace 1`` the run makes one untraced operation, then traced
operations with spans and counters installed from outside the package
(see ``tracing.py``), then per-call microbenchmarks.  Which end-to-end
number each per-layer metric should move:

* ``cli.<stage>_s`` (self time of each ``stage_*``): ``pipeline``.
* ``lincr.*_s``, ``lincr.solve_ivp.*`` and ``plane.r_of_rho.calls``:
  ``modes`` first, then ``pipeline``; never ``checks``.
* ``energy.*``: ``checks`` and ``pipeline``; never ``modes``.
* ``profiles.eval.calls`` and ``profiles.min_detH_over_r_s``:
  ``checks`` and ``pipeline``.
* the ``*_us`` per-call costs: ``modes`` through the shooting
  right-hand side, ``checks`` and ``pipeline`` through the bulk loops.
* ``profiles.build_s``: ``setup_s``.
* ``scipy.*`` counters: the stage that encloses them (per-stage counts
  are in the trace file).
* ``trace.overhead_s``: traced minus untraced wall time of one
  operation; ``proc.cpu_s``: CPU seconds of the untraced operation.

Every run prints a detail line (metadata, per-operation times) and then
the result as the last line of standard output.  The trace, and a
copy of the result, go to ``.bench_out/``, never into an ``--out``
directory.  Exit status 2 means the checkout has no ``src/reebtwist``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

EXPECTED_KERNEL = {0: 3, -1: 2}
ENERGY_IDENTITY_RTOL = 1e-6
SETUP_SAMPLES = 5

WORKLOADS = {
    "pipeline": {"subcommands": ("all",), "overrides": {}},
    "modes": {"subcommands": ("lincr",),
              "overrides": {("twist", "k"): "-2", ("twist", "shape"): "cos",
                            ("run", "n"): "3", ("lincr", "k_max"): "8"}},
    "checks": {"subcommands": ("validate", "geometry", "orbits", "index",
                               "energy"),
               "overrides": {("matched", "enabled"): "true"}},
}

# Runs in a fresh interpreter: times what every command-line run pays
# before its first stage (imports, config parse, Model construction).
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from reebtwist.cli import Model
from reebtwist.config import parse_config
Model(parse_config(sys.stdin.read()))
print(repr(time.perf_counter() - t0))
"""


def config_text(overrides: dict) -> str:
    """The default config file with the given (section, key) values."""
    from reebtwist.config import default_config_text
    lines, section = [], None
    for line in default_config_text().splitlines():
        s = line.strip()
        if s.startswith("[") and s.endswith("]"):
            section = s[1:-1]
        elif "=" in s and not s.startswith("#"):
            key = s.split("=", 1)[0].strip()
            if (section, key) in overrides:
                line = f"{key} = {overrides[(section, key)]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def out_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(out).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def check_results(results: dict) -> list:
    """Gate violations in one operation's results (empty when it passed)."""
    bad = []
    if "summary" in results:
        s = results["summary"]
        bad += [f"pass flag {k}" for k, v in s["pass_flags"].items() if not v]
    if "index" in results and results["index"]["degree_of_gamma0"] != 1:
        bad.append(f"degree {results['index']['degree_of_gamma0']}")
    if "lincr" in results:
        kernel = {int(k): v for k, v in results["lincr"]["per_mode"].items()
                  if v}
        if kernel != EXPECTED_KERNEL:
            bad.append(f"kernel {kernel}")
    if "plane" in results:
        p = results["plane"]
        if abs(p["stokes"] - p["action_gamma0"]) > (
                ENERGY_IDENTITY_RTOL * abs(p["action_gamma0"])):
            bad.append("energy identity")
    if "validate" in results:
        v = results["validate"]
        for key in ("alpha_reeb_ok", "contact_bound_ok"):
            if not v[key]:
                bad.append(key)
        if "pullback" in v and not v["pullback"]["passed"]:
            bad.append("pullback")
    if "geometry" in results:
        bad += [f"geometry {k}" for k, row in results["geometry"].items()
                if not row["pass"]]
    if "energy" in results and not results["energy"]["pass"]:
        bad.append("energy bound")
    return bad


class Workload:
    """The inputs of one workload and its operation."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        from reebtwist import cli
        from reebtwist.config import parse_config
        spec = WORKLOADS[name]
        self.run_cli = cli.run
        self.seed = seed
        self.subcommands = spec["subcommands"]
        self.cfg_text = config_text(spec["overrides"])
        self.cfg = parse_config(self.cfg_text)
        self.run_dir = run_dir
        self.first_digest = None
        self.n_ops = 0

    def operation(self) -> dict:
        """One operation with its wall and CPU time and the names of the
        checks it failed."""
        out = self.run_dir / f"op{self.n_ops}"
        self.n_ops += 1
        failures = []
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            results = {}
            for sub in self.subcommands:
                results.update(self.run_cli(sub, self.cfg, str(out),
                                            seed=self.seed, quiet=True))
        except Exception:  # a raising operation counts as failed
            traceback.print_exc(file=sys.stderr)
            failures.append("raised")
            results = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if results is not None:
            failures += check_results(results)
            digest = out_digest(out)
            if self.first_digest is None:
                self.first_digest = digest
                out.rename(self.run_dir / "out")
            elif digest != self.first_digest:
                failures.append("out digest differs from the first repetition")
        shutil.rmtree(out, ignore_errors=True)
        if failures:
            print(f"operation {self.n_ops - 1} failed: {failures}",
                  file=sys.stderr)
        return {"wall_s": wall, "cpu_s": cpu, "failures": failures}


def measure_setup(cfg_text: str) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                             input=cfg_text, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"nproc": os.cpu_count(),
            "nproc_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "src_sha256": h.hexdigest(), "seed": seed}


def within_budget(start: float, seconds: float, ops: list) -> bool:
    """Start another operation only if the slowest one so far would still
    finish inside the measurement window."""
    elapsed = time.perf_counter() - start
    return elapsed + max(op["wall_s"] for op in ops) <= seconds


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(wl: Workload, seconds: float):
    setup = measure_setup(wl.cfg_text)
    start = time.perf_counter()
    ops = [wl.operation()]
    while within_budget(start, seconds, ops):
        ops.append(wl.operation())
    walls = [op["wall_s"] for op in ops]
    ok = sum(1 for op in ops if not op["failures"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ok_frac": metric(ok / len(ops), "1"),
    }
    detail = {"wall_s_samples": walls, "wall_s_n": len(walls),
              "wall_s_max": max(walls), "setup_s_samples": setup}
    return ops, metrics, detail, True


def traced_run(wl: Workload, seconds: float):
    import tracing
    start = time.perf_counter()
    plain = wl.operation()
    ops = [plain]
    traced, layers, counts = [], [], []
    while not traced or within_budget(start, seconds, ops):
        tracer = tracing.Tracer()
        inst = tracing.Instrumentation(tracer)
        try:
            inst.install()
            op = wl.operation()
        finally:
            inst.restore()
        ops.append(op)
        traced.append((op, tracer))
        layers.append(tracer.layer_metrics())
        counts.append(dict(tracer.counts))
    micro = tracing.microbenchmarks(wl.cfg, wl.seed)

    # counters must repeat exactly between traced operations
    repeat_ok = all(c == counts[0] for c in counts[1:])
    if not repeat_ok:
        print("traced operations gave different counts", file=sys.stderr)
    overhead = statistics.median(op["wall_s"] for op, _ in traced) - plain["wall_s"]
    values = {name: statistics.median(lm[name] for lm in layers)
              for name in layers[0]}
    values.update(micro)
    values["proc.cpu_s"] = plain["cpu_s"]
    values["trace.overhead_s"] = overhead
    units = {"_s": "s", "_us": "us"}
    metrics = {name: metric(v, next((u for suf, u in units.items()
                                     if name.endswith(suf)), "count"))
               for name, v in values.items()}
    tracer = traced[0][1]
    trace = {"spans": [{"name": n, "parent": p, "start": s, "end": e}
                       for n, p, s, e in tracer.spans],
             "counts": dict(tracer.counts),
             "counts_by_stage": {k: dict(v) for k, v in
                                 tracer.counts_by_stage.items()},
             "layer_metrics_per_op": layers}
    detail = {"untraced_wall_s": plain["wall_s"],
              "traced_wall_s": [op["wall_s"] for op, _ in traced],
              "trace_overhead_s": overhead, "counts_repeat": repeat_ok,
              "trace": trace}
    return ops, metrics, detail, repeat_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "reebtwist" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'reebtwist'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, run_dir)
    if args.trace:
        ops, metrics, detail, checks_ok = traced_run(wl, args.seconds)
    else:
        ops, metrics, detail, checks_ok = untraced_run(wl, args.seconds)
    failed = sum(1 for op in ops if op["failures"])
    meta = run_metadata(args.seed)
    meta["trace_overhead_s"] = detail.pop("trace_overhead_s", None)
    detail = {"workload": args.workload, "meta": meta, **detail}
    result = {"correct": failed == 0 and checks_ok, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    trace = detail.pop("trace", None)
    if trace is not None:
        (run_dir / "trace.json").write_text(
            json.dumps({**detail, **trace}, indent=1) + "\n")
    (run_dir / "result.json").write_text(
        json.dumps({**detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
