import csv
import dataclasses
import importlib.util
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import COLLAR_CONFIG, MODES_CONFIG

from reebtwist import (cli, energy, geometry, index, lincr, magnus, orbits,
                       plane)
from reebtwist import profiles
from reebtwist.config import (_FIELD_MAP, _SCHEMA, ConfigError,
                              ReebtwistError, RunConfig, default_config_text,
                              parse_config)


def test_default_config_round_trip():
    cfg = parse_config(default_config_text())
    assert cfg.n == 2 and cfg.k == -1 and cfg.seed == 1234
    assert cfg.matched_p_cap is None and cfg.matched_r_max is None
    # the printed defaults are RunConfig's, the one statement of the model
    assert cfg == RunConfig()


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'bogus'"):
        parse_config("[twist]\nk = -1\nbogus = 2\n")


def test_removed_tolerance_key_rejected():
    with pytest.raises(ConfigError,
                       match=r"line 1: unknown section \[tolerances\]"):
        parse_config("[tolerances]\node = 1e-10\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section"):
        parse_config("[nope]\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside"):
        parse_config("k = -1\n")


def test_zero_twist_rejected():
    with pytest.raises(ConfigError, match="nonzero"):
        parse_config("[twist]\nk = 0\n")


def test_bad_value_reports_location():
    with pytest.raises(ConfigError, match=r"line 2"):
        parse_config("[twist]\neps = forty\n")


def test_blank_value_keeps_default():
    cfg = parse_config("[matched]\np_cap =\n[lincr]\nk_max = 3\n")
    assert cfg.matched_p_cap is None and cfg.k_max == 3


def test_schema_flag(capsys):
    assert cli.main(["--schema"]) == 0
    out = capsys.readouterr().out
    assert "orbits.csv" in out and "summary.json" in out


def test_print_config_flag(capsys):
    assert cli.main(["--print-config"]) == 0
    assert "[twist]" in capsys.readouterr().out


def test_default_config_text_states_every_default():
    # generated from _SCHEMA and RunConfig(): it parses back to the
    # defaults, a bool reads true/false and None a blank value, no line
    # ends in a space, and a blank line closes each section but the last
    text = default_config_text()
    assert parse_config(text) == RunConfig()
    assert text.startswith("# reebtwist run configuration (all values "
                           "shown are the defaults)\n[run]\nn = 2\n")
    assert "[matched]\nenabled = true\np_cap =\nr_max =\n\n" in text
    assert all(line == line.rstrip() for line in text.splitlines())
    assert text.count("\n\n[") == len(_SCHEMA) - 1
    assert text.endswith("]\nk_max = 5\n")


def test_python_dash_m_entry_point():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "reebtwist", "--print-config"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "[twist]" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


# what a probe reports as imported: numpy and scipy, and the two numpy
# subpackages a run has no use for, numpy.polynomial (0.9 MB) and
# numpy.ma (1.3 MB), which np.unique imports on its first call
LOADED = """
loaded = sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}
                | set(sys.modules) & {"numpy.ma", "numpy.polynomial"})
"""

# runs main in a fresh interpreter; its last stderr line is the exit
# status and what got imported (LOADED)
STATIC_PROBE = """\
import json, sys
from reebtwist.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
""" + LOADED + """\
print(json.dumps([status, loaded]), file=sys.stderr)
"""


@pytest.mark.parametrize("args,status", [
    (["--print-config"], 0),
    (["--schema"], 0),
    (["--help"], 0),
    (["all", "--config", "{bad}"], 1),
], ids=["print-config", "schema", "help", "config-error"])
def test_static_commands_leave_numeric_stack_unimported(tmp_path, args,
                                                        status):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[twist]\nk = 0\n")
    assert _probe(STATIC_PROBE, *(a.format(bad=bad) for a in args),
                  "--out", str(tmp_path / "o")) == [status, []]
    assert not (tmp_path / "o").exists()


def _probe(script, *args):
    """The last stderr line of ``script`` run with ``args`` in a fresh
    interpreter on this source tree, parsed as JSON."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("args,text", [
    (["all"], ""),
    (["lincr"], MODES_CONFIG),
    (["all"], COLLAR_CONFIG),
], ids=["all-default", "lincr-modes", "all-collar"])
def test_runs_leave_scipy_unimported(tmp_path, args, text):
    # a run needs numpy's core alone: reebtwist.numerics holds its
    # integrator, root finders and quadrature, and neither
    # numpy.polynomial nor numpy.ma gets imported
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert _probe(STATIC_PROBE, *args, "--quiet", "--config", str(cfg),
                  "--out", str(tmp_path / "o")) == [0, ["numpy"]]


# builds the Model of a config text in a fresh interpreter (what the
# benchmark's setup_s times) and reports what got imported (LOADED)
MODEL_PROBE = """\
import json, sys
from reebtwist.cli import Model
from reebtwist.config import parse_config
Model(parse_config(sys.argv[1]))
""" + LOADED + """\
print(json.dumps([0, loaded]), file=sys.stderr)
"""


def test_model_construction_leaves_scipy_unimported():
    assert _probe(MODEL_PROBE, "") == [0, ["numpy"]]


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[twist]\nk = 0\n")
    assert cli.main(["validate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text,key", [
    ("[run]\nseed = -1\n", r"\[run\] seed"),
    ("[binding]\nshape = custom\n", r"\[binding\] shape"),
])
def test_config_rejects_value_the_model_cannot_take(tmp_path, capsys, text,
                                                    key):
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    # a typed error and exit 1, not an exception escaping main
    assert cli.main(["all", "--config", str(bad), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(key, err)


FLOAT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
              for key, typ in keys.items() if typ is float]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS,
                         ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_non_finite_float_rejected(section, key, raw):
    with pytest.raises(ConfigError,
                       match=rf"line 3: \[{section}\] {key}: .*finite"):
        parse_config(f"# non-finite\n[{section}]\n{key} = {raw}\n")


# keys that are not settable, each with the error a file naming it gets:
# the model fixes r(1) = core_end / 2 (another start in the core only
# rescales rho) and delta = half the spectral gap (the count is checked
# stable around it), and the asymptotic and angle tolerances are constants
RETIRED_KEYS = [
    ("plane", "r_at_1", "line 1: unknown section [plane]"),
    ("plane", "tol_asym", "line 1: unknown section [plane]"),
    ("lincr", "delta", "line 2: unknown key 'delta' in [lincr]"),
    ("tolerances", "rank", "line 1: unknown section [tolerances]"),
]


@pytest.mark.parametrize("raw", ["0", "-1e-6", "1e-6", "1e-7",
                                 "nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key,error", RETIRED_KEYS,
                         ids=[f"{s}.{k}" for s, k, _ in RETIRED_KEYS])
def test_retired_key_exits_1(tmp_path, capsys, section, key, error, raw):
    cfg = tmp_path / "retired.cfg"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    out = tmp_path / "o"
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_schema_keys_are_the_run_config_fields():
    # each [section] key sets one RunConfig field through _FIELD_MAP, and
    # each field is set by exactly one key
    keys = [(section, key) for section, names in _SCHEMA.items()
            for key in names]
    fields = [_FIELD_MAP.get(sk, sk[1]) for sk in keys]
    assert sorted(fields) == sorted(f.name for f in
                                    dataclasses.fields(RunConfig))
    assert len(set(fields)) == len(fields) == 18
    assert len(_SCHEMA) == 6 and set(_FIELD_MAP) <= set(keys)
    # the printed defaults name each key once, under its own section
    named, section = [], None
    for line in default_config_text().splitlines():
        text = line.split("#", 1)[0].strip()
        if text.startswith("["):
            section = text[1:-1]
        elif text:
            named.append((section, text.split("=", 1)[0].strip()))
    assert named == keys


def test_non_finite_float_exits_1(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text("[binding]\nkappa = nan\n")
    assert cli.main(["all", "--config", str(bad), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[binding] kappa" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("r_max", ["1.2", "1.5"])
def test_binding_profile_with_sign_changing_h1_exits_1(tmp_path, capsys,
                                                       r_max):
    # h1 = 1 - r^2 changes sign at r = 1 inside [0, r_max]
    bad = tmp_path / "rmax.cfg"
    bad.write_text(f"[binding]\nr_max = {r_max}\n")
    assert cli.main(["all", "--config", str(bad), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [binding] [fig2] h1 <= 0 at r = 1.00")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["missing_config", "directory_config",
                                  "out_is_a_file"])
def test_io_errors_exit_1(tmp_path, capsys, case):
    args = {"missing_config": ["--config", str(tmp_path / "missing.cfg")],
            "directory_config": ["--config", str(tmp_path)],
            "out_is_a_file": []}[case]
    out = tmp_path / "o"
    if case == "out_is_a_file":
        out.write_text("not a directory")
    assert cli.main(["validate", "--quiet", "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_negative_seed_override_rejected(tmp_path, capsys):
    # rejected before anything is written: the --out directory is not made
    out = tmp_path / "o"
    assert cli.main(["validate", "--seed", "-1", "--quiet",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_failed_pass_flag_exits_1(tmp_path, capsys):
    # k_max = 0 drops the mode -1 pair: kernel total 3, not 5
    cfg = tmp_path / "kmax0.cfg"
    cfg.write_text("[lincr]\nk_max = 0\n")
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    assert "kernel_total_5" in capsys.readouterr().err
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["pass_flags"]["kernel_total_5"] is False


@pytest.mark.parametrize("eps", ["1e-5", "1e-6", "5e-10", "2e-11"])
def test_small_drift_runs_with_degree_one(tmp_path, eps):
    # a small drift leaves the skew of the degree table's paths small, so
    # each full turn of the loop splits into two crossings closer than
    # the index scan's spacing; both count, and the table checks out.
    # From 5e-10 down the two sit closer than 1e-7 of the path's length
    cfg = tmp_path / "eps.cfg"
    cfg.write_text(f"[twist]\neps = {eps}\n")
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["degree_of_gamma0"] == 1
    assert all(summary["pass_flags"].values())


@pytest.mark.parametrize("eps", ["1e-11", "1e-12"])
def test_smaller_drift_error_names_the_twist(tmp_path, capsys, eps):
    # below 2e-11 the skew of the degree table's paths falls under the
    # kernel cut of the crossing form (ROADMAP item 4), and the index
    # cross-check fails: a typed error that names the twist it ran
    cfg = tmp_path / "eps.cfg"
    cfg.write_text(f"[twist]\neps = {eps}\n")
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [twist] crossing-form index ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert f"eps = {float(eps)}," in err and "Traceback" not in err


@pytest.mark.parametrize("subcommand", ["lincr", "all"])
def test_negative_k_max_exits_1(tmp_path, capsys, subcommand):
    # k_max = 0 is a run with a failed gate (above); below it no block
    # is left to shoot
    with pytest.raises(ConfigError, match=r"\[lincr\] k_max"):
        parse_config("[lincr]\nk_max = -1\n")
    cfg = tmp_path / "kmax.cfg"
    cfg.write_text("[lincr]\nk_max = -1\n")
    assert cli.main([subcommand, "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: [lincr] k_max must be >= 0, got -1\n"


# a twist for which no collar-matched profile exists; the fig2 binding
# profile of the run is fine
NO_MATCHED_PROFILE = ("[twist]\nk = -1\neps = 0.2\np_plateau = 0.05\n"
                      "shape = cos\ns_max = 2.63\n")


@pytest.mark.parametrize("subcommand", ["validate", "all"])
def test_matched_profile_error_names_its_section(tmp_path, capsys,
                                                 subcommand):
    cfg = tmp_path / "matched.cfg"
    cfg.write_text(NO_MATCHED_PROFILE)
    assert cli.main([subcommand, "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [matched] collar shape: no admissible "
                          "core parameters found")
    # with the matched profile off, validate passes on the same twist
    cfg.write_text(NO_MATCHED_PROFILE + "[matched]\nenabled = false\n")
    assert cli.main(["validate", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "p")]) == 0


def test_positive_twist_exits_1(tmp_path, capsys):
    # the binding profile ties its peak to the principal zero of the
    # twist, which only k < 0 has
    cfg = tmp_path / "k1.cfg"
    cfg.write_text("[twist]\nk = 1\n")
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: [twist] k must be negative (a left twist), got 1\n"


# (config text, the section its error opens with, the key it names): the
# checks of RunConfig.validate and the profile builds Model reaches
CONFIG_ERROR_PROBES = [
    ("[run]\nn = 1\n", "[run]", "n"),
    ("[twist]\nk = 0\n", "[twist]", "k"),
    ("[twist]\nk = 2\n", "[twist]", "k"),
    ("[twist]\nshape = lin\n", "[twist]", "shape"),
    ("[orbits]\naction_bound_factor = 0\n", "[orbits]", "action_bound_factor"),
    ("[twist]\np_plateau = 1.5\n", "[twist]", "p_plateau"),
    ("[twist]\neps = 0\n", "[twist]", "eps"),
    ("[twist]\ns_max = 0.5\n", "[twist]", "s_max"),
    ("[binding]\nr0 = 0.8\n", "[binding]", "r0"),
    ("[binding]\nkappa = -1\n", "[binding]", "kappa"),
    # the default p_cap of the matched profile leaves the twist domain
    ("[twist]\ns_max = 0.76\n", "[matched]", "[twist] s_max"),
]


@pytest.mark.parametrize("text,section,key", CONFIG_ERROR_PROBES,
                         ids=[t.replace("\n", " ").strip()
                              for t, _, _ in CONFIG_ERROR_PROBES])
def test_config_errors_name_section_and_key(tmp_path, capsys, text, section,
                                            key):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(text)
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section} ") and key in err, err
    assert err.count("\n") == 1


@pytest.mark.parametrize("text,line", [
    ("[binding]\nr0 = 0\n",
     "error: [binding] r0 = 0.0 must lie in (0, r_max) = (0, 0.75)\n"),
    ("[binding]\nr_max = 0.2\n",
     "error: [binding] r0 = 0.55 must lie in (0, r_max) = (0, 0.2)\n"),
], ids=["r0=0", "r_max=0.2"])
def test_binding_radius_error_reports_both_values(tmp_path, capsys, text,
                                                  line):
    # the binding profile's range check names r0 and r_max with the
    # values the run used, the default one included
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(text)
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == line


def test_binding_self_check_error_names_its_section(tmp_path, capsys):
    # on a binding domain 0.02 wide the finite-difference step of the
    # profile self-check is too coarse; the error names the section and
    # the radii the profile was built on
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("[binding]\nr0 = 0.01\nr_max = 0.02\n")
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [binding] profile derivative self-check "
                          "failed: rel err ")
    assert err.endswith(" on the profile of r0 = 0.01, r_max = 0.02\n")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_matched_p_cap_error_reports_the_value_used(tmp_path, capsys):
    cfg = tmp_path / "smax.cfg"
    cfg.write_text("[twist]\ns_max = 0.76\n")
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    p0 = cli.Model(parse_config("[matched]\nenabled = false\n")).tp.p0
    assert capsys.readouterr().err == (
        f"error: [matched] p_cap = {min(0.999, 1.3 * p0):.6g} (the default "
        f"min(0.999, 1.3 p0)) must lie in (p0, [twist] s_max] = "
        f"({p0:.6g}, 0.76]\n")
    # a p_cap the config sets is reported without the default's note
    cfg.write_text("[twist]\ns_max = 0.76\n[matched]\np_cap = 0.8\n")
    assert cli.main(["validate", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: [matched] p_cap = 0.8 must lie in (p0, [twist] s_max]")


def test_config_twist_shapes_are_the_built_ones():
    # RunConfig.validate names the shapes without importing profiles
    assert sorted(profiles.TWIST_SHAPES) == ["cos", "cos2"]
    for shape in profiles.TWIST_SHAPES:
        assert parse_config(f"[twist]\nshape = {shape}\n").twist_shape == shape


def test_typed_errors_share_one_base():
    for err in (ConfigError, profiles.ProfileError, orbits.OrbitError,
                plane.PlaneError, lincr.LinCRError, energy.EnergyError,
                geometry.GeometryError, index.IndexError_):
        assert issubclass(err, ReebtwistError) and issubclass(err, ValueError)


def test_untyped_value_error_in_a_stage_propagates(tmp_path, monkeypatch):
    # main reports the typed errors and exits 1; any other ValueError is
    # a defect and must escape, not pass for a refused input
    def broken(model, out):
        raise ValueError("defect inside a stage")

    monkeypatch.setattr(cli, "stage_index", broken)
    with pytest.raises(ValueError, match="defect inside a stage"):
        cli.main(["index", "--quiet", "--out", str(tmp_path / "o")])


def test_all_pipeline_exit_status(all_run):
    assert all_run[1] == 0


def test_all_pipeline_flags(all_run):
    out, _ = all_run
    summary = json.loads((out / "summary.json").read_text())
    assert summary["degree_of_gamma0"] == 1
    assert summary["kernel_total"] == 5
    act = summary["action_gamma0"]
    assert abs(summary["plane_energy"] - act) <= 1e-6 * act
    assert all(summary["pass_flags"].values())
    # every gate of the stages `all` runs reports, so no row is skipped
    # by a payload path that does not exist; the fig2 binding has no
    # collar, hence no collar-push residual in its identity suite
    assert set(summary["pass_flags"]) == {
        g.name for g in cli.GATES if g.stage != "geometry"
    } - {"identity.reeb_push_collar_mismatch"}


def test_all_pipeline_artifacts_exist(all_run):
    out, _ = all_run
    expected = ["twist_profile.csv", "binding_profile.csv", "orbits.csv",
                "degree_table.csv", "plane.csv", "lincr_modes.csv",
                "validate.json", "plane_energy.json", "kernel.json",
                "energy.json", "summary.json"]
    for name in expected:
        assert (out / name).exists(), name


def _schema_entries() -> dict:
    """Artifact name -> the columns or top-level keys ``--schema`` lists,
    its remarks in parentheses dropped."""
    texts, name = {}, None
    for line in cli.SCHEMA_TEXT.splitlines():
        head = re.match(r"  (\S+\.(?:csv|json)) +(.*)", line)
        if head:
            name = head[1]
            texts[name] = head[2]
        elif name and line.startswith("   "):
            texts[name] += " " + line.strip()
        else:
            name = None
    return {name: [key.strip() for key in
                   re.sub(r"\([^)]*\)", "", text).split(",")]
            for name, text in texts.items()}


def test_csv_headers_match_schema(all_run):
    out, _ = all_run
    heads = {name: keys for name, keys in _schema_entries().items()
             if name.endswith(".csv")}
    assert sorted(heads) == sorted(p.name for p in out.glob("*.csv"))
    for name, header in heads.items():
        with open(out / name, newline="") as fh:
            first = next(csv.reader(fh))
        assert first == header, name


def test_json_keys_match_schema(all_run, tmp_path):
    # every JSON artifact of `all` and of `geometry` (the one stage whose
    # artifact `all` does not write), key for key
    out, _ = all_run
    assert cli.main(["geometry", "--quiet", "--out", str(tmp_path)]) == 0
    written = sorted([*out.glob("*.json"), *tmp_path.glob("*.json")])
    keys = {name: keys for name, keys in _schema_entries().items()
            if name.endswith(".json")}
    assert sorted(keys) == sorted(p.name for p in written)
    for path in written:
        assert sorted(json.loads(path.read_text())) == \
            sorted(keys[path.name]), path.name


def test_json_artifacts_are_strict_json(all_run):
    # no NaN or Infinity literals: a block without an unmatched angle has
    # a gap of nan in memory and null in kernel.json
    out, _ = all_run

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    names = sorted(p.name for p in out.glob("*.json"))
    assert "kernel.json" in names
    for name in names:
        json.loads((out / name).read_text(), parse_constant=reject)
    kernel = json.loads((out / "kernel.json").read_text())
    assert kernel["angle_conditioning"]["0"] is None


def test_non_finite_floats_written_as_null(tmp_path):
    cli.write_json(tmp_path / "x.json",
                   {"a": math.nan, "b": [math.inf, -math.inf, 1.5]})
    assert json.loads((tmp_path / "x.json").read_text()) == {
        "a": None, "b": [None, None, 1.5]}


def _csv_module_table(header, rows) -> str:
    """A table as the csv module writes it, every cell of a row through
    the cell formatter the writer had before its one-format rows: the
    oracle of cli.write_csv."""
    def fmt(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, float):
            return format(x, ".17g")
        return str(x)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(x) for x in row])
    return buf.getvalue()


@pytest.mark.parametrize("text", ["", MODES_CONFIG, COLLAR_CONFIG],
                         ids=["default", "modes", "collar"])
def test_csv_writer_matches_the_csv_module(tmp_path, monkeypatch, text):
    # every table of `all`, the rows as the stages pass them
    real, tables = cli.write_csv, []

    def captured(path, header, rows):
        rows = list(rows)
        tables.append((path, header, rows))
        real(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", captured)
    cli.run("all", parse_config(text), str(tmp_path), quiet=True)
    assert len(tables) == 6
    for path, header, rows in tables:
        assert path.read_bytes() == \
            _csv_module_table(header, rows).encode(), path.name


def test_csv_writer_matches_the_csv_module_on_mixed_cells(tmp_path):
    # the shapes of a column change from row to row; bools, ints, empty
    # and quoted strings, numpy scalars, non-finite floats and -0.0
    header = ["a", "b,c", 'd"e', "f"]
    rows = [[True, 1, "", 0.1],
            [False, -3, "plain", np.float64(2.5)],
            [1, True, "x,y", math.nan],
            ["", "", "", ""],
            [np.float64(-0.0), -0.0, math.inf, -math.inf],
            ['say "hi"', "two\nlines", "cr\rhere", np.int64(7)],
            [None, np.bool_(True), np.float32(0.1), (1, 2)],
            (1e300, 5e-324, 2 ** 70, np.float64(math.nan)),
            [0.1, 1, "", 0.1]]
    path = tmp_path / "t.csv"
    cli.write_csv(path, header, rows)
    assert path.read_bytes() == _csv_module_table(header, rows).encode()


def _json_module_text(payload) -> str:
    """A payload as json.dumps writes it with the options write_json
    passed before it had an emitter of its own: the oracle of
    cli.write_json."""
    return json.dumps(cli._jsonable(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


@pytest.mark.parametrize("text", ["", MODES_CONFIG, COLLAR_CONFIG],
                         ids=["default", "modes", "collar"])
def test_json_writer_matches_the_json_module(tmp_path, monkeypatch, text):
    # every JSON artifact of `all`, each payload as the stage passes it
    real, written = cli.write_json, []

    def captured(path, payload):
        written.append((path, _json_module_text(payload)))
        real(path, payload)

    monkeypatch.setattr(cli, "write_json", captured)
    cli.run("all", parse_config(text), str(tmp_path), quiet=True)
    assert sorted(path.name for path, _ in written) == \
        sorted(path.name for path in tmp_path.glob("*.json"))
    for path, expected in written:
        assert path.read_bytes() == expected.encode(), path.name


def test_json_writer_matches_the_json_module_on_mixed_values(tmp_path):
    # empty containers, escaped and non-ASCII strings and keys, bools,
    # None, -0.0, extreme and numpy floats, big ints, numpy scalars, a
    # tuple, an int key, non-finite floats and deep nesting
    payload = {
        "empty": {"dict": {}, "list": [], "str": ""},
        "strings": ['q"uote', "back\\slash", "nl\ncr\rtab\t", "\x00\x1f\x7f",
                    "na\u00efve \u2014 \u221e \u2028", "\U0001f600", "/"],
        "\u00e9t\u00e9": 1, 'k"ey\n': 2, 3: "int key",
        "consts": [True, False, None, np.bool_(False)],
        "floats": [-0.0, 0.0, 0.1, 1e300, 5e-324, 1e16, 1e-7, -2.5e-10,
                   123456789.0, np.float64(2.5), np.float32(0.1)],
        "ints": [0, -1, 2 ** 70, -(2 ** 100), np.int64(-7)],
        "tuple": (1, "two", (3.0,)),
        "nonfinite": [math.nan, math.inf, -math.inf],
        "deep": {"z": [1, [2, [3, {"y": [{}]}]]], "a": [[], [[]]]},
    }
    path = tmp_path / "x.json"
    cli.write_json(path, payload)
    assert path.read_bytes() == _json_module_text(payload).encode()


def test_json_writer_leaves_no_cyclic_garbage(all_run, tmp_path):
    # json's pure-Python encoder, which indent selects, left 33 objects
    # of cyclic garbage a call (its nested closures, their cells and the
    # encoder), freed only when the collector next ran
    import gc
    out, _ = all_run
    payload = json.loads((out / "kernel.json").read_text())
    payload["numpy"] = [np.float64(0.5), np.int64(2), np.arange(3.0)]
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cli.write_json(tmp_path / "kernel.json", payload)
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


@pytest.mark.parametrize("seed", ["166", "200"])
def test_nearly_parallel_draws_pass_validate(tmp_path, seed):
    # these seeds draw nearly parallel normals in n = 2; with p projected
    # off q once, validate exited 1 with "point constraint residual
    # 1.55e-10" (1.90e-10 for seed 200)
    assert cli.main(["validate", "--seed", seed, "--quiet",
                     "--out", str(tmp_path)]) == 0


def test_orbits_csv_principal_row(all_run):
    out, _ = all_run
    with open(out / "orbits.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    principal = [r for r in rows if r["is_principal"] == "true"]
    assert len(principal) == 1
    assert principal[0]["degree"] == "1"
    assert principal[0]["m"] == "1"


def _bench_run_module():
    # bench/run.py imports only the standard library at module level
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_determinism_of_full_pipeline(all_run, tmp_path):
    # a fresh run() repeats the main() run of the fixture byte for byte
    out_a, _ = all_run
    out_b = tmp_path / "b"
    results = cli.run("all", parse_config(default_config_text()), str(out_b),
                      quiet=True)
    names = sorted(f.name for f in out_a.iterdir())
    assert names == sorted(f.name for f in out_b.iterdir())
    for name in names:
        assert (out_b / name).read_bytes() == (out_a / name).read_bytes(), name
    # the benchmark's own checks pass on the same results
    assert _bench_run_module().check_results(results) == []


def test_single_stage_runs(tmp_path):
    cfg = parse_config(default_config_text())
    res = cli.run("plane", cfg, str(tmp_path), quiet=True)
    assert (tmp_path / "plane_energy.json").exists()
    assert "plane" in res and "lincr" not in res


def test_geometry_subcommand(tmp_path, capsys):
    assert cli.main(["geometry", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    payload = json.loads((tmp_path / "geometry_check.json").read_text())
    assert all(entry["pass"] for entry in payload.values())


@pytest.mark.parametrize("text,subcommand", [
    ("[twist]\np_plateau = 0.3\n", "all"),
    ("[twist]\np_plateau = 0.5\n", "validate"),
    ("[binding]\nkappa = 2.0\n", "validate"),
], ids=["p_plateau_0.3-all", "p_plateau_0.5-validate", "kappa_2.0-validate"])
def test_contact_condition_admits_margin_below_default(tmp_path, capsys,
                                                       text, subcommand):
    # these presets satisfy the contact condition with min detH/r below
    # the default preset's 0.5 margin, and must pass
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert cli.main([subcommand, "--config", str(cfg), "--quiet",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads((out / "validate.json").read_text())
    assert 0.0 < rep["min_detH_over_r"] < 0.5
    assert rep["contact_bound_ok"] is True
    if subcommand == "all":
        flags = json.loads((out / "summary.json").read_text())["pass_flags"]
        assert flags["contact_condition"] and all(flags.values())


def _at_threshold(gate):
    """A passing value as close to the threshold as the comparator allows."""
    return gate.threshold + 1.0 if gate.op is operator.gt else gate.threshold


def _past_threshold(gate):
    """The nearest failing value beyond the threshold."""
    t = gate.threshold
    return {operator.le: math.nextafter(t, math.inf),
            operator.ge: math.nextafter(t, -math.inf),
            operator.gt: t, operator.eq: t + 1}[gate.op]


def test_gate_names_are_unique():
    names = [g.name for g in cli.GATES]
    assert len(names) == len(set(names))
    assert {g.stage for g in cli.GATES} < set(cli.STAGES)


def test_contact_condition_is_strict():
    # detH/r > 0 is the contact condition; a zero minimum fails it
    assert cli.gate_passes({"contact_condition": 0.0}) == {
        "contact_condition": False}
    assert cli.gate_passes({"contact_condition": 1e-3}) == {
        "contact_condition": True}


@pytest.mark.parametrize("gate", cli.GATES, ids=lambda g: g.name)
def test_each_gate_fails_alone_past_its_threshold(gate):
    values = {g.name: _at_threshold(g) for g in cli.GATES}
    assert all(cli.gate_passes(values).values())
    values[gate.name] = _past_threshold(gate)
    passes = cli.gate_passes(values)
    assert [name for name, ok in passes.items() if not ok] == [gate.name]


# per stage: the subcommand, the function whose result the stage reads,
# how to spoil that result, and the gate that must then fail
SPOILED_STAGES = [
    ("validate", profiles.BindingProfile, "min_detH_over_r",
     lambda res: (-1.0, res[1]), "contact_condition"),
    ("geometry", geometry, "identity_suite",
     lambda res: dict(res, J_squared_plus_id=1.0),
     "geometry.J_squared_plus_id"),
    ("orbits", orbits, "verify_closure_by_flow",
     lambda res: dataclasses.replace(res, distance=1.0), "flow_closure"),
    ("index", index, "degree_table",
     lambda rows: [dict(r, degree=r["degree"] + 1) for r in rows],
     "degree_is_1"),
    ("plane", plane, "plane_energy",
     lambda res: dataclasses.replace(res, stokes=1.001 * res.stokes),
     "energy_identity"),
    ("lincr", lincr, "sz_inequality_check",
     lambda res: dict(res, min_ratio=1.0), "sz_inequality"),
    ("energy", energy, "energy_bound_audit",
     lambda res: dict(res, total=res["bound"] - 1e-3), "energy_bound"),
]
ARTIFACT = {"validate": "validate.json", "geometry": "geometry_check.json",
            "lincr": "kernel.json", "energy": "energy.json"}


@pytest.mark.parametrize("subcommand,owner,attr,spoil,gate", SPOILED_STAGES,
                         ids=[row[0] for row in SPOILED_STAGES])
def test_failed_gate_exits_1(tmp_path, capsys, monkeypatch, subcommand,
                             owner, attr, spoil, gate):
    real = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **kw: spoil(real(*a, **kw)))
    assert cli.main([subcommand, "--quiet", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: failed gates: ")
    assert gate in err.removeprefix("error: failed gates: ").split(", ")
    row = next(g for g in cli.GATES if g.name == gate)
    if row.field:
        # the artifact records the failure too
        payload = json.loads((tmp_path / ARTIFACT[subcommand]).read_text())
        assert cli._at(*row.field)(payload) is False


def test_geometry_gates_the_main_profiles_collar_push(tmp_path, capsys,
                                                      monkeypatch):
    # a collar-shaped main profile (r_max 3.0) and the matched profile
    # both have a collar push; spoiling only the main one fails geometry
    cfg = tmp_path / "collar.cfg"
    cfg.write_text(COLLAR_CONFIG)
    real, spoiled = geometry.reeb_push_collar_mismatch, []

    def push(tp, bp):
        if bp.r_max == 3.0:
            spoiled.append(bp)
            return 1.0
        return real(tp, bp)

    monkeypatch.setattr(geometry, "reeb_push_collar_mismatch", push)
    out = tmp_path / "o"
    assert cli.main(["geometry", "--config", str(cfg), "--quiet",
                     "--out", str(out)]) == 1
    assert len(spoiled) == 1
    assert capsys.readouterr().err.strip() == \
        "error: failed gates: geometry.reeb_push_collar_mismatch"
    table = json.loads((out / "geometry_check.json").read_text())
    assert table["reeb_push_collar_mismatch"] == {"value": 1.0, "pass": False}


def test_back_substitution_residual_reported_and_gated(all_run, tmp_path,
                                                       capsys, monkeypatch):
    out, _ = all_run
    kernel = json.loads((out / "kernel.json").read_text())
    assert 0.0 <= kernel["back_substitution_residual"] <= 1e-8
    # assemble_W_equation reports the residual and no longer raises on
    # it: the gate decides, and lincr exits 1 naming it
    real = lincr.assemble_W_equation

    def spoiled(*args, **kwargs):
        we = real(*args, **kwargs)
        we.back_substitution_residual = 1e-6
        return we

    monkeypatch.setattr(lincr, "assemble_W_equation", spoiled)
    assert cli.main(["lincr", "--quiet", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == \
        "error: failed gates: w_back_substitution"
    kernel = json.loads((tmp_path / "kernel.json").read_text())
    assert kernel["back_substitution_residual"] == 1e-6


def test_richardson_estimate_reported_and_gated(all_run, tmp_path, capsys,
                                                monkeypatch):
    # kernel.json reports the shooting's largest Richardson estimate; its
    # gate is the step rule's target, and a rule stopped short of it (at
    # 2^4 steps a chunk) fails the gate, with the count itself unchanged
    out, _ = all_run
    kernel = json.loads((out / "kernel.json").read_text())
    assert 0.0 < kernel["richardson_estimate"] <= magnus.SHOOT_TOL
    row = next(g for g in cli.GATES if g.name == "shooting_richardson")
    assert row.threshold == magnus.SHOOT_TOL
    monkeypatch.setattr(magnus, "MAX_LEVEL", 4)
    assert cli.main(["lincr", "--quiet", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == \
        "error: failed gates: shooting_richardson"
    kernel = json.loads((tmp_path / "kernel.json").read_text())
    assert kernel["richardson_estimate"] > magnus.SHOOT_TOL
    assert kernel["total"] == 5


def test_matched_profile_built_on_first_use(tmp_path, capsys, monkeypatch):
    # only validate and geometry read the matched profile: lincr runs
    # without building it, validate reports its failure as a typed error
    def refuse(*args, **kwargs):
        raise profiles.ProfileError("matched profile refused")

    monkeypatch.setattr(profiles, "matched_binding_profile", refuse)
    assert cli.main(["lincr", "--quiet", "--out", str(tmp_path / "l")]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["validate", "--quiet", "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert err == "error: matched profile refused\n"
