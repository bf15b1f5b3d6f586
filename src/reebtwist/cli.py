"""Command line pipeline: configuration in, CSV/JSON artifacts out.

Subcommands mirror the analysis stages (validate, orbits, index, plane,
lincr, energy, profiles) plus ``all``, which runs the whole pipeline
and writes a summary.  Runs are deterministic in (config, seed); every
float is printed with 17 significant digits so outputs round-trip, and
files are written atomically (temp + rename).

The numeric modules (and with them numpy) are imported where
a stage first needs them, so the static commands (``--print-config``,
``--schema``, ``--help``) and a config error print without them.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import eq, ge, gt, le
from pathlib import Path
from typing import Callable, NamedTuple

from .config import (ConfigError, ReebtwistError, RunConfig,
                     default_config_text, parse_config)

__all__ = ["main", "run", "GATES", "gate_values", "gate_passes"]

SCHEMA_TEXT = """\
CSV artifacts (comma-separated, LF, UTF-8, one header row; floats use
17 significant digits):

  twist_profile.csv    x, g, g_prime, h_k, h_tilde_k
  binding_profile.csv  r, h1, h1_prime, h2, h2_prime, detH
  orbits.csv           p_level, g_value, m, i, period, action, degree, is_principal
  degree_table.csv     p_level, i, morse_index, mu, degree
  plane.csv            rho, r, t
  lincr_modes.csv      block, direction, rho, log10_norm

JSON artifacts, by top-level key (keys sorted; a non-finite float, such
as the angle gap of a block with no unmatched angle, is written as null):

  validate.json        g_at_0_minus_k_pi, p0, p0_residual, fd_consistency_g,
                       fd_consistency_hk, fd_consistency_h1,
                       fd_consistency_h2, hk_quadrature_gap,
                       htilde_quadrature_gap, min_detH_over_r,
                       min_detH_over_r_at, contact_bound_ok,
                       action_tie_residual, alpha_reeb_max_residual,
                       alpha_reeb_ok, identity_suite (the residuals that
                       geometry_check.json gates), pullback,
                       matched_min_detH_over_r, matched_reeb_push_mismatch
                       (these three with a matched profile)
  geometry_check.json  alpha_of_reeb_minus_1, dalpha_reeb_contraction,
                       J_squared_plus_id, min_compatibility_quotient,
                       J_dt_minus_reeb, J_dr_minus_geofield,
                       dalpha_exact_vs_fd, frame_gram_vs_standard,
                       reeb_push_collar_mismatch (with a matched or a collar
                       profile; each key holds value and pass)
  plane_energy.json    stokes, quadrature, action_gamma0, relative_gap,
                       rho_span
  kernel.json          per_mode, total, non_decaying_bounded, delta,
                       spectral_gap, angle_conditioning,
                       richardson_estimate, a_norm,
                       back_substitution_residual, sz_inequality
  energy.json          E1, E2, total, bound, pass, winding_gamma0,
                       action_gamma0
  summary.json         degree_of_gamma0, plane_energy, action_gamma0, seed,
                       kernel_total, pass_flags (each gate of the run)
"""


def _cell(x) -> str:
    """A cell that is not a float or an int as the csv module writes it:
    a bool as true or false, anything else by str(), quoted where a
    comma, a quote or a newline needs it."""
    if isinstance(x, bool):
        return "true" if x else "false"
    text = str(x)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _atomic_write(path: Path, data: str):
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)


def write_csv(path: Path, header, rows):
    """The table as the csv module writes it (every table has two or more
    columns, so no row is one empty cell, which it quotes), floats by
    %.17g and other cells by _cell: one % format per row shape (the
    types of its cells), so only the cells that are not floats or ints
    take a Python call."""
    buf = io.StringIO()
    buf.write(",".join(map(_cell, header)) + "\n")
    shapes = {}
    for row in rows:
        # built through a list: tuple() of an iterator resizes its result,
        # and each such tuple, released, stays on the interpreter's free
        # list of its size (up to 2,000 a size), which holds the memory
        shape = (*map(type, row),)
        if shape not in shapes:
            shapes[shape] = (
                ",".join("%.17g" if issubclass(t, float) else "%s"
                         for t in shape) + "\n",
                [i for i, t in enumerate(shape)
                 if not issubclass(t, float) and t is not int])
        fmt, other = shapes[shape]
        if other:
            row = list(row)
            for i in other:
                row[i] = _cell(row[i])
        buf.write(fmt % tuple(row))
    _atomic_write(path, buf.getvalue())


def _jsonable(obj):
    """Plain JSON values of a payload; a non-finite float becomes None
    (null), as JSON has no NaN or infinity."""
    import numpy as np
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _json_text(obj, pad: str = "\n") -> str:
    """A plain JSON value as json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) writes it, without the pure-Python encoder that
    indent selects: its nested closures are cyclic garbage after every
    call."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{obj!r} is not JSON compliant")
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + ",".join(
            inner + encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in sorted(obj.items())) + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        return "[" + ",".join(inner + _json_text(v, inner)
                              for v in obj) + pad + "]"
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict):
    _atomic_write(path, _json_text(_jsonable(payload)) + "\n")


# ----------------------------------------------------------------------
# gates: every pass decision of a run
# ----------------------------------------------------------------------

class Gate(NamedTuple):
    """A pass decision ``op(measure(payload), threshold)`` on the payload
    of ``stage``; ``field`` is where its artifact records the outcome."""

    name: str
    stage: str
    measure: Callable
    op: Callable
    threshold: float
    field: tuple = ()


def _at(*path):
    """Reader of the value at ``path`` in a payload; None when the run did
    not produce it (the matched-profile rows without a matched profile)."""
    def read(payload):
        for key in path:
            payload = payload.get(key) if isinstance(payload, dict) else None
        return payload
    return read


# (comparator, threshold) of each identity residual, for validate and geometry
IDENTITY_LIMITS = {
    "alpha_of_reeb_minus_1": (le, 1e-10),
    "dalpha_reeb_contraction": (le, 1e-9),
    "J_squared_plus_id": (le, 1e-9),
    "min_compatibility_quotient": (gt, 0.0),
    "J_dt_minus_reeb": (le, 1e-10),
    "J_dr_minus_geofield": (le, 1e-10),
    "dalpha_exact_vs_fd": (le, 1e-9),
    "frame_gram_vs_standard": (le, 1e-9),
    "reeb_push_collar_mismatch": (le, 1e-8),
}

GATES = (
    # the contact condition itself; the default preset's designed margin
    # (min detH/r >= 0.5) is a property of that preset, not a gate
    Gate("contact_condition", "validate", _at("min_detH_over_r"), gt, 0.0,
         ("contact_bound_ok",)),
    Gate("alpha_reeb", "validate", _at("alpha_reeb_max_residual"), le, 1e-10,
         ("alpha_reeb_ok",)),
    *(Gate(f"identity.{key}", "validate", _at("identity_suite", key), op, t)
      for key, (op, t) in IDENTITY_LIMITS.items()),
    Gate("pullback", "validate", _at("pullback", "max_mismatch"), le, 1e-8,
         ("pullback", "passed")),
    Gate("matched_reeb_push", "validate", _at("matched_reeb_push_mismatch"),
         le, 1e-8),
    *(Gate(f"geometry.{key}", "geometry", _at(key, "value"), op, t,
           (key, "pass")) for key, (op, t) in IDENTITY_LIMITS.items()),
    Gate("flow_closure", "orbits", _at("closure_distance"), le, 1e-8),
    Gate("degree_is_1", "index", _at("degree_of_gamma0"), eq, 1),
    Gate("energy_identity", "plane", lambda p: abs(
        p["stokes"] - p["action_gamma0"]) / p["action_gamma0"], le, 1e-6),
    Gate("w_back_substitution", "lincr", _at("back_substitution_residual"),
         le, 1e-8),
    Gate("kernel_total_5", "lincr", _at("total"), eq, 5),
    # the largest per-chunk Richardson estimate of the shooting, the
    # target of its step rule (magnus.SHOOT_TOL): 1e-11 relative per
    # chunk over the forward pass's 25 samples, x_mid and crossed breaks
    # (about 30 chunks) adds up to 3e-10 in the natural log, 1.3e-10 in
    # log10_norm, below the growth table's 1e-9 bound
    Gate("shooting_richardson", "lincr", _at("richardson_estimate"), le,
         1e-11),
    Gate("sz_inequality", "lincr", _at("sz_inequality", "min_ratio"), ge,
         2.0 - 1e-9, ("sz_inequality", "passed")),
    Gate("energy_bound", "energy", lambda e: e["total"] - e["bound"], ge,
         -1e-8, ("pass",)),
)


def gate_values(results: dict) -> dict:
    """Measured value of every gate whose stage is in ``results`` (stage
    name -> payload) and whose quantity the run produced."""
    return {g.name: v for g in GATES if g.stage in results
            and (v := g.measure(results[g.stage])) is not None}


def gate_passes(values: dict) -> dict:
    """Outcome of every gate that has a value in ``values``."""
    return {g.name: bool(g.op(values[g.name], g.threshold))
            for g in GATES if g.name in values}


def _record_gates(stage: str, payload: dict):
    """Write the outcome of every gate of ``stage`` into its field."""
    passes = gate_passes(gate_values({stage: payload}))
    for g in GATES:
        if g.field and g.name in passes:
            *path, last = g.field
            _at(*path)(payload)[last] = passes[g.name]


# ----------------------------------------------------------------------
# shared model construction
# ----------------------------------------------------------------------

class Model:
    """Profiles and lazily computed downstream objects for one config.
    A profile build error names the config section it read."""

    def __init__(self, cfg: RunConfig):
        from . import profiles
        self.cfg = cfg
        with profiles.config_section("twist"):
            self.tp = profiles.build_twist_profile(
                cfg.k, cfg.eps, cfg.p_plateau, cfg.twist_shape, cfg.s_max)
        shape = {"name": cfg.binding_shape, "twist": self.tp,
                 "kappa": cfg.kappa, "tail_width": cfg.tail_width}
        with profiles.config_section("binding"):
            self.bp = profiles.build_binding_profile(cfg.r0, cfg.r_max, shape)

    @functools.cached_property
    def bp_matched(self):
        """The collar-matched profile, or None when it is disabled; built
        on first use (only validate and geometry read it)."""
        from . import profiles
        if not self.cfg.matched_enabled:
            return None
        return profiles.matched_binding_profile(
            self.tp, r_max=self.cfg.matched_r_max,
            p_cap=self.cfg.matched_p_cap)

    @functools.cached_property
    def sol(self):
        from . import plane
        return plane.solve_plane(self.bp, r_at_1=self.bp.core_end / 2.0)

    @functools.cached_property
    def we(self):
        from . import lincr
        return lincr.assemble_W_equation(self.bp, self.sol)


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------

def stage_profiles(model: Model, out: Path):
    from . import profiles
    h, rows = profiles.twist_table(model.tp)
    write_csv(out / "twist_profile.csv", h, rows)
    h, rows = profiles.binding_table(model.bp)
    write_csv(out / "binding_profile.csv", h, rows)


def stage_validate(model: Model, out: Path, seed: int) -> dict:
    import numpy as np
    from . import geometry, profiles
    cfg = model.cfg
    tp, bp = model.tp, model.bp
    rng = np.random.default_rng(seed)
    # a failed self-check names the section whose profile failed it
    with profiles.config_section("twist"):
        fd = [f.check_derivative_consistency(rng=rng) for f in (tp.g, tp.hk)]
    with profiles.config_section("binding"):
        try:
            fd += [f.check_derivative_consistency(rng=rng)
                   for f in (bp.h1, bp.h2)]
        except profiles.ProfileError as exc:
            raise profiles.ProfileError(
                f"{exc} on the profile of r0 = {cfg.r0}, "
                f"r_max = {cfg.r_max}") from None
    rep = {
        "g_at_0_minus_k_pi": abs(tp.g(0.0) - cfg.k * math.pi),
        "p0": tp.p0,
        "p0_residual": abs(tp.g(tp.p0)),
        **{f"fd_consistency_{name}": err
           for name, err in zip(("g", "hk", "h1", "h2"), fd)},
    }
    # quadrature oracle for the twist primitives
    worst_hk = worst_ht = 0.0
    for s in np.linspace(0.05, tp.s_max, 16):
        worst_hk = max(worst_hk, abs(tp.hk(s) - tp.hk_by_quadrature(s)))
        worst_ht = max(worst_ht, abs(tp.htilde(s) - tp.htilde_by_quadrature(s)))
    rep["hk_quadrature_gap"] = worst_hk
    rep["htilde_quadrature_gap"] = worst_ht
    mn, at = bp.min_detH_over_r()
    rep["min_detH_over_r"] = mn
    rep["min_detH_over_r_at"] = at
    rep["action_tie_residual"] = abs(2.0 * math.pi * bp.h2(bp.r0)
                                     - tp.hk(tp.p0))
    # alpha(Reeb) at 10^4 random points
    x = geometry.random_binding_batch(cfg.n, bp, rng, 10_000)
    rep["alpha_reeb_max_residual"] = float(np.max(np.abs(
        geometry.alpha_batch(bp, x, geometry.reeb_field_batch(bp, x)) - 1.0)))
    rep["identity_suite"] = geometry.identity_suite(tp, bp, n=cfg.n,
                                                    n_points=200, seed=seed)
    if model.bp_matched is not None:
        bpm = model.bp_matched
        pull = profiles.pullback_consistency_check(tp, bpm, bpm.collar)
        rep["pullback"] = {
            "collar": pull.collar,
            "phi_period_scale": pull.phi_period_scale,
            "max_mismatch": pull.max_mismatch,
            "worst_radius": pull.worst_radius,
        }
        rep["matched_min_detH_over_r"] = bpm.min_detH_over_r()[0]
        rep["matched_reeb_push_mismatch"] = \
            geometry.reeb_push_collar_mismatch(tp, bpm)
    _record_gates("validate", rep)
    write_json(out / "validate.json", rep)
    return rep


def stage_orbits(model: Model, out: Path) -> dict:
    from . import index as index_mod
    from . import orbits
    tp, bp, cfg = model.tp, model.bp, model.cfg
    rows = []
    principal = orbits.find_principal_level(tp)
    bound = cfg.action_bound_factor * principal.action
    levels = orbits.enumerate_orbit_levels(tp, bound, cfg.denom_cap)
    for L in levels:
        deg = ""
        if L.is_principal:
            deg = index_mod.sft_degree(L, cfg.n, 0, tp=tp, i=L.i)
        rows.append([L.p_level, L.g_value, L.m, L.i, L.period, L.action,
                     deg, L.is_principal])
    write_csv(out / "orbits.csv",
              ["p_level", "g_value", "m", "i", "period", "action", "degree",
               "is_principal"], rows)
    closure = orbits.verify_closure_by_flow(bp, principal)
    return {"n_levels": len(levels), "action_bound": bound,
            "principal_level": principal.p_level,
            "principal_action": principal.action,
            "closure_distance": closure.distance,
            "closure_phi_advance": closure.phi_advance}


def stage_index(model: Model, out: Path) -> dict:
    from . import index as index_mod
    from . import orbits
    tp, cfg = model.tp, model.cfg
    level = orbits.find_principal_level(tp)
    try:
        rows = index_mod.degree_table(tp, level, cfg.n, turn_counts=(1, 2, 3),
                                      morse_indices=(0, 2 * cfg.n - 3))
    except index_mod.IndexError_ as exc:  # its model paths are the twist's
        raise index_mod.IndexError_(
            f"[twist] {exc} on the twist of k = {cfg.k}, eps = {cfg.eps}, "
            f"p_plateau = {cfg.p_plateau}, shape = {cfg.twist_shape}, "
            f"s_max = {cfg.s_max}") from None
    write_csv(out / "degree_table.csv",
              ["p_level", "i", "morse_index", "mu", "degree"],
              [[r["p_level"], r["i"], r["morse_index"], str(r["mu"]),
                r["degree"]] for r in rows])
    deg0 = next(r["degree"] for r in rows
                if r["i"] == 1 and r["morse_index"] == 0)
    return {"degree_of_gamma0": deg0, "rows": len(rows)}


def stage_plane(model: Model, out: Path) -> dict:
    from . import plane
    sol = model.sol
    write_csv(out / "plane.csv", ["rho", "r", "t"],
              zip(sol.rho_grid.tolist(), sol.r_vals.tolist(),
                  sol.t_vals.tolist()))
    rep = plane.plane_energy(model.bp, sol)
    payload = {"stokes": rep.stokes, "quadrature": rep.quadrature,
               "action_gamma0": rep.action_gamma0,
               "relative_gap": rep.relative_gap,
               "rho_span": list(rep.rho_span)}
    write_json(out / "plane_energy.json", payload)
    return payload


def stage_lincr(model: Model, out: Path, seed: int) -> dict:
    import numpy as np
    from . import lincr
    cfg = model.cfg
    we = model.we
    report = lincr.kernel_dimension(we, k_max=cfg.k_max, n=cfg.n)
    rng = np.random.default_rng(seed + 17)
    sz = lincr.sz_inequality_check(
        [lincr.random_truncated_field(rng, rng.integers(2, 11, size=3))
         for _ in range(100)], delta=report.delta)
    header, rows = lincr.mode_shooting_table(we, report.forward)
    write_csv(out / "lincr_modes.csv", header, rows)
    payload = {
        "per_mode": {str(k): v for k, v in sorted(report.per_mode.items())},
        "total": report.total,
        "non_decaying_bounded": report.non_decaying_bounded,
        "delta": report.delta,
        "spectral_gap": report.spectral_gap,
        "angle_conditioning": {str(k): v for k, v in
                               report.conditioning.items()},
        "richardson_estimate": report.richardson,
        # the sup of the zeroth-order coefficient norm and the smallness
        # flag of the mode-exclusion inequality
        "a_norm": {"a_norm": we.a_norm, "below_2": bool(we.a_norm < 2.0)},
        "back_substitution_residual": we.back_substitution_residual,
        "sz_inequality": sz,
    }
    _record_gates("lincr", payload)
    write_json(out / "kernel.json", payload)
    return payload


def stage_energy(model: Model, out: Path) -> dict:
    import numpy as np
    from . import energy as energy_mod
    bp = model.bp
    r_lo = 0.1 * bp.r0
    circles, wts, span = energy_mod.gauss_legendre_family(
        bp, r_lo, bp.r0 * 0.999, 52)
    e1, e2 = energy_mod.annulus_energies(bp, circles, wts, span)
    audit = energy_mod.energy_bound_audit(
        bp, energy_mod.plane_level_circle(bp, np.linspace(0.02, bp.r0, 512)))
    payload = {"E1": e1, "E2": e2,
               "total": audit["total"], "bound": audit["bound"],
               "winding_gamma0": energy_mod.winding_number(
                   bp, energy_mod.orbit_circle(bp)),
               "action_gamma0": energy_mod.action(energy_mod.orbit_circle(bp))}
    _record_gates("energy", payload)
    write_json(out / "energy.json", payload)
    return payload


def stage_geometry(model: Model, out: Path, seed: int) -> dict:
    import numpy as np
    from . import geometry
    cfg = model.cfg
    suite = geometry.identity_suite(model.tp, model.bp, n=cfg.n,
                                    n_points=1000, seed=seed)
    if model.bp_matched is not None:
        # the worse of the matched profile's push and, when the main
        # profile has a collar too, the main one's from the suite
        suite["reeb_push_collar_mismatch"] = float(np.maximum(
            suite.get("reeb_push_collar_mismatch", 0.0),
            geometry.reeb_push_collar_mismatch(model.tp, model.bp_matched)))
    table = {key: {"value": val} for key, val in suite.items()}
    _record_gates("geometry", table)
    write_json(out / "geometry_check.json", table)
    return table


STAGES = ("validate", "geometry", "orbits", "index", "plane", "lincr",
          "energy", "profiles", "all")


def run(subcommand: str, cfg: RunConfig, out_dir: str, seed: int | None = None,
        quiet: bool = False) -> dict:
    if subcommand not in STAGES:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if seed is None:
        seed = cfg.seed
    elif seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = Model(cfg)
    results = {}

    def note(msg):
        if not quiet:
            print(msg)

    if subcommand in ("profiles", "all", "validate"):
        stage_profiles(model, out)
        note("wrote twist_profile.csv, binding_profile.csv")
    if subcommand in ("validate", "all"):
        results["validate"] = stage_validate(model, out, seed)
        note("validate: alpha residual %.2e, min detH/r %.3f" % (
            results["validate"]["alpha_reeb_max_residual"],
            results["validate"]["min_detH_over_r"]))
    if subcommand == "geometry":
        note("geometry identity suite:")
        results["geometry"] = stage_geometry(model, out, seed)
        for key, row in results["geometry"].items():
            note(f"  {key:32s} {row['value']: .3e}  "
                 f"{'PASS' if row['pass'] else 'FAIL'}")
    if subcommand in ("orbits", "all"):
        results["orbits"] = stage_orbits(model, out)
        note("orbits: %d levels" % results["orbits"]["n_levels"])
    if subcommand in ("index", "all"):
        results["index"] = stage_index(model, out)
        note("index: degree of the lowest generator = %d"
             % results["index"]["degree_of_gamma0"])
    if subcommand in ("plane", "all"):
        results["plane"] = stage_plane(model, out)
        note("plane: energy %.12g" % results["plane"]["stokes"])
    if subcommand in ("lincr", "all"):
        results["lincr"] = stage_lincr(model, out, seed)
        note("lincr: kernel total %d" % results["lincr"]["total"])
    if subcommand in ("energy", "all"):
        results["energy"] = stage_energy(model, out)
        note("energy: E1 %.2e, bound met %s" % (
            results["energy"]["E1"], results["energy"]["pass"]))

    if subcommand == "all":
        flags = gate_passes(gate_values(results))
        summary = {
            "degree_of_gamma0": results["index"]["degree_of_gamma0"],
            "plane_energy": results["plane"]["stokes"],
            "action_gamma0": results["plane"]["action_gamma0"],
            "kernel_total": results["lincr"]["total"],
            "pass_flags": flags,
            "seed": seed,
        }
        write_json(out / "summary.json", summary)
        results["summary"] = summary
        note("summary: " + ", ".join(f"{k}={v}" for k, v in flags.items()))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reebtwist",
        description="Numerical checks for the twisted open-book model")
    parser.add_argument("subcommand", choices=STAGES, nargs="?",
                        help="pipeline stage to run")
    parser.add_argument("--config", help="path to a config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--schema", action="store_true",
                        help="print the artifact schemas and exit")
    parser.add_argument("--print-config", action="store_true",
                        help="print the default config file and exit")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.schema:
        print(SCHEMA_TEXT, end="")
        return 0
    if args.print_config:
        print(default_config_text(), end="")
        return 0
    if args.subcommand is None:
        parser.error("a subcommand is required (or --schema/--print-config)")

    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8")
                           if args.config else default_config_text())
        results = run(args.subcommand, cfg, args.out, seed=args.seed,
                      quiet=args.quiet)
    except (ReebtwistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [name for name, ok in gate_passes(gate_values(results)).items()
              if not ok]
    if failed:
        print("error: failed gates: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
