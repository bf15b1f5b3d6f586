import csv
import json
import re

import pytest

from reebtwist import cli
from reebtwist.config import ConfigError, parse_config, default_config_text


def test_default_config_round_trip():
    cfg = parse_config(default_config_text())
    assert cfg.n == 2 and cfg.k == -1 and cfg.seed == 1234
    assert cfg.delta is None and cfg.r_at_1 is None


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'bogus'"):
        parse_config("[twist]\nk = -1\nbogus = 2\n")


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
    cfg = parse_config("[lincr]\ndelta =\nk_max = 3\n")
    assert cfg.delta is None and cfg.k_max == 3


def test_schema_flag(capsys):
    assert cli.main(["--schema"]) == 0
    out = capsys.readouterr().out
    assert "orbits.csv" in out and "summary.json" in out


def test_print_config_flag(capsys):
    assert cli.main(["--print-config"]) == 0
    assert "[twist]" in capsys.readouterr().out


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


def test_negative_seed_override_rejected(tmp_path, capsys):
    assert cli.main(["validate", "--seed", "-1", "--quiet",
                     "--out", str(tmp_path)]) == 1
    assert "seed" in capsys.readouterr().err


def test_failed_pass_flag_exits_1(tmp_path, capsys):
    # k_max = 0 drops the mode -1 pair: kernel total 3, not 5
    cfg = tmp_path / "kmax0.cfg"
    cfg.write_text("[lincr]\nk_max = 0\n")
    assert cli.main(["all", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "o")]) == 1
    assert "kernel_total_5" in capsys.readouterr().err
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["pass_flags"]["kernel_total_5"] is False


@pytest.fixture(scope="module")
def all_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("allrun")
    status = cli.main(["all", "--quiet", "--out", str(out)])
    return out, status


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


def test_all_pipeline_artifacts_exist(all_run):
    out, _ = all_run
    expected = ["twist_profile.csv", "binding_profile.csv", "orbits.csv",
                "degree_table.csv", "plane.csv", "lincr_modes.csv",
                "validate.json", "plane_energy.json", "kernel.json",
                "energy.json", "summary.json"]
    for name in expected:
        assert (out / name).exists(), name


def test_csv_headers_match_schema(all_run):
    out, _ = all_run
    heads = {
        "orbits.csv": ["p_level", "g_value", "m", "i", "period", "action",
                       "degree", "is_principal"],
        "degree_table.csv": ["p_level", "i", "morse_index", "mu", "degree"],
        "plane.csv": ["rho", "r", "t"],
        "lincr_modes.csv": ["block", "direction", "rho", "log10_norm"],
        "twist_profile.csv": ["x", "g", "g_prime", "h_k", "h_tilde_k"],
        "binding_profile.csv": ["r", "h1", "h1_prime", "h2", "h2_prime",
                                "detH"],
    }
    for name, header in heads.items():
        with open(out / name, newline="") as fh:
            first = next(csv.reader(fh))
        assert first == header, name


def test_orbits_csv_principal_row(all_run):
    out, _ = all_run
    with open(out / "orbits.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    principal = [r for r in rows if r["is_principal"] == "true"]
    assert len(principal) == 1
    assert principal[0]["degree"] == "1"
    assert principal[0]["m"] == "1"


def test_determinism_of_full_pipeline(tmp_path):
    cfg = parse_config(default_config_text())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.run("all", cfg, str(out_a), quiet=True)
    cli.run("all", cfg, str(out_b), quiet=True)
    for f in sorted(out_a.iterdir()):
        assert (out_b / f.name).read_bytes() == f.read_bytes(), f.name


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
