"""Spans, counters and per-call microbenchmarks for the traced run.

Everything here works from outside the package: it replaces module
and class attributes of ``reebtwist`` for the duration of a traced
operation and puts them back afterwards.  The untraced runs that give
the end-to-end metrics never install it.

Spans sit around the public functions each module exposes to the CLI.
A span's self time is its duration minus the time covered by its
direct children; a name's total time counts only its outermost spans,
so a function that calls itself (or a sibling under the same name) is
not counted twice.  Counters are attributed to the innermost enclosing
``cli`` span (the pipeline stage, or ``model`` for ``Model(cfg)``).
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from dataclasses import fields

import numpy as np

from reebtwist import cli, energy, geometry, index, lincr, orbits, plane, profiles

# span name -> (owner, attribute) whose calls the span encloses
SPAN_TARGETS = {
    "cli.profiles": (cli, "stage_profiles"),
    "cli.validate": (cli, "stage_validate"),
    "cli.geometry": (cli, "stage_geometry"),
    "cli.orbits": (cli, "stage_orbits"),
    "cli.index": (cli, "stage_index"),
    "cli.plane": (cli, "stage_plane"),
    "cli.lincr": (cli, "stage_lincr"),
    "cli.energy": (cli, "stage_energy"),
    "profiles.build": [(profiles, "build_twist_profile"),
                       (profiles, "build_binding_profile"),
                       (profiles, "matched_binding_profile")],
    "profiles.min_detH_over_r": (profiles.BindingProfile, "min_detH_over_r"),
    "geometry.identity_suite": (geometry, "identity_suite"),
    "orbits.enumerate": (orbits, "enumerate_orbit_levels"),
    "orbits.closure": (orbits, "verify_closure_by_flow"),
    "index.degree_table": (index, "degree_table"),
    "plane.solve": (plane, "solve_plane"),
    "plane.energy": (plane, "plane_energy"),
    "lincr.assemble": (lincr, "assemble_W_equation"),
    "lincr.kernel_dimension": (lincr, "kernel_dimension"),
    "lincr.mode_shooting_table": (lincr, "mode_shooting_table"),
    "lincr.sz_check": (lincr, "sz_inequality_check"),
    "energy.family": (energy, "gauss_legendre_family"),
    "energy.annulus": (energy, "annulus_energies"),
    "energy.audit": (energy, "energy_bound_audit"),
}

STAGES = ("model", "profiles", "validate", "geometry", "orbits", "index",
          "plane", "lincr", "energy")

# counters reported as per-layer metrics; the trace file keeps them all
COUNTERS = ("lincr.solve_ivp.calls", "lincr.solve_ivp.nfev",
            "lincr.solve_ivp.steps", "plane.r_of_rho.calls", "energy.circles",
            "profiles.eval.calls", "scipy.quad.calls", "scipy.quad.neval",
            "scipy.brentq.calls")

# modules that reach scipy through a module attribute ``integrate`` or
# ``optimize``; the proxies below count the solver calls they make
SCIPY_USERS = {"integrate": (lincr, orbits, plane, profiles),
               "optimize": (index, orbits, profiles)}


class Tracer:
    """In-memory spans and counters for one traced operation."""

    def __init__(self):
        self.spans = []          # [name, parent index or None, start, end]
        self._stack = []
        self.stage = "setup"
        self.counts = Counter()
        self.counts_by_stage = defaultdict(Counter)

    def count(self, name: str, n: int = 1):
        self.counts[name] += n
        self.counts_by_stage[self.stage][name] += n

    def wrap(self, name: str, fn):
        stage = name[4:] if name.startswith("cli.") else None

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, parent, time.perf_counter(), None])
            self._stack.append(idx)
            outer_stage = self.stage
            if stage is not None:
                self.stage = stage
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][3] = time.perf_counter()
                self._stack.pop()
                self.stage = outer_stage

        return traced

    def times(self):
        """(total, self) seconds per span name."""
        total, self_t = Counter(), Counter()
        child = Counter()
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, parent, start, end) in enumerate(self.spans):
            self_t[name] += (end - start) - child[i]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p is None:
                total[name] += end - start
        return total, self_t

    def layer_metrics(self) -> dict:
        """Self time of each pipeline stage, total time of every other
        span and the reported counters, for one traced operation."""
        total, self_t = self.times()
        m = {f"cli.{stage}_s": self_t[f"cli.{stage}"] for stage in STAGES}
        m.update({f"{name}_s": total[name] for name in SPAN_TARGETS
                  if not name.startswith("cli.")})
        m.update({name: self.counts[name] for name in COUNTERS})
        return m


class _ModuleProxy:
    """Stands in for a scipy submodule as one package module sees it."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Instrumentation:
    """Installs the spans and counters of one tracer; ``restore`` undoes
    every attribute replacement in reverse order."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        tr = self.tracer
        for name, targets in SPAN_TARGETS.items():
            for owner, attr in (targets if isinstance(targets, list)
                                else [targets]):
                self._set(owner, attr, tr.wrap(name, getattr(owner, attr)))

        base_model = cli.Model
        model_span = tr.wrap("cli.model", base_model.__init__)

        class TracedModel(base_model):
            def __init__(self, cfg):
                model_span(self, cfg)
                for prof in (self.tp, self.bp, self.bp_matched):
                    if prof is not None:
                        _count_profile_calls(tr, prof)

        self._set(cli, "Model", TracedModel)

        for mod in SCIPY_USERS["integrate"]:
            real = mod.integrate
            self._set(mod, "integrate", _ModuleProxy(
                real, solve_ivp=_counted_solve_ivp(tr, mod.__name__, real),
                quad=_counted_quad(tr, real)))
        for mod in SCIPY_USERS["optimize"]:
            real = mod.optimize
            self._set(mod, "optimize", _ModuleProxy(
                real, brentq=_counted_call(tr, "scipy.brentq.calls",
                                           real.brentq)))

        self._set(plane.PlaneSolution, "r_of_rho", _counted_call(
            tr, "plane.r_of_rho.calls", plane.PlaneSolution.r_of_rho))
        self._set(energy.LevelCircle, "__post_init__", _counted_call(
            tr, "energy.circles", energy.LevelCircle.__post_init__))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _counted_call(tr: Tracer, name: str, fn):
    def counted(*args, **kwargs):
        tr.count(name)
        return fn(*args, **kwargs)
    return counted


def _counted_solve_ivp(tr: Tracer, module_name: str, integrate_mod):
    prefix = module_name.rsplit(".", 1)[-1] + ".solve_ivp"
    real = integrate_mod.solve_ivp

    def solve_ivp(*args, **kwargs):
        out = real(*args, **kwargs)
        tr.count(prefix + ".calls")
        tr.count(prefix + ".nfev", int(out.nfev))
        if kwargs.get("t_eval") is None:
            tr.count(prefix + ".steps", int(out.t.size) - 1)
        return out

    return solve_ivp


def _counted_quad(tr: Tracer, integrate_mod):
    real = integrate_mod.quad

    def quad(func, *args, **kwargs):
        tr.count("scipy.quad.calls")

        def counted_func(*a):
            tr.count("scipy.quad.neval")
            return func(*a)

        return real(counted_func, *args, **kwargs)

    return quad


def _count_profile_calls(tr: Tracer, prof):
    """Count calls of every SmoothProfile on a twist or binding profile
    (its value, d1 and d2; ``__call__`` goes through value)."""
    for f in fields(prof):
        sp = getattr(prof, f.name)
        if not isinstance(sp, profiles.SmoothProfile):
            continue
        for attr in ("value", "d1", "d2"):
            # frozen dataclass: bypass the generated __setattr__
            object.__setattr__(sp, attr, _counted_call(
                tr, "profiles.eval.calls", getattr(sp, attr)))


# ----------------------------------------------------------------------
# per-call microbenchmarks
# ----------------------------------------------------------------------

MICRO_POINTS = 2000
MICRO_REPEATS = 5


def _per_call_us(fn, args_list) -> float:
    """Median over repeats of the mean time of one call, in microseconds."""
    samples = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        samples.append((time.perf_counter() - t0) / len(args_list) * 1e6)
    return float(np.median(samples))


def microbenchmarks(cfg, seed: int) -> dict:
    """Per-call cost of the scalar evaluators at the bottom of the stack,
    on the workload's own profiles, at points drawn from ``seed``.

    ``r_of_rho``, ``H2`` and ``G1`` are sampled where the shooting
    right-hand side evaluates them (log rho between core exit minus one
    and the end of the integrated range)."""
    model = cli.Model(cfg)
    tp, bp, we = model.tp, model.bp, model.we
    sol = we.sol
    rng = np.random.default_rng(seed)
    n = MICRO_POINTS

    def pts(lo, hi):
        return [(float(x),) for x in rng.uniform(lo, hi, n)]

    rhos = [(math.exp(x),) for x in rng.uniform(sol.x_core - 1.0, sol.x_max, n)]
    xs = [(bp, geometry.random_binding_point(cfg.n, bp, rng)) for _ in range(n)]
    return {
        "profiles.h2_core_us": _per_call_us(bp.h2, pts(0.0, bp.core_end)),
        "profiles.h2_rise_us": _per_call_us(bp.h2, pts(bp.core_end, bp.r0)),
        "profiles.h2_tail_us": _per_call_us(bp.h2, pts(bp.r0, bp.r_max)),
        "profiles.g_us": _per_call_us(tp.g, pts(0.0, tp.s_max)),
        "plane.r_of_rho_us": _per_call_us(sol.r_of_rho, rhos),
        "lincr.H2_us": _per_call_us(we.H2, rhos),
        "lincr.G1_us": _per_call_us(we.G1, rhos),
        "geometry.reeb_field_us": _per_call_us(geometry.reeb_field_binding, xs),
    }
