"""Run configuration: a flat key-value text format with sections.

Grammar (diff-friendly on purpose):

    # comment or blank lines anywhere
    [section]
    key = value

Sections and keys are fixed; an unknown section or key is an error
that names the offender and its line number.  A blank value means
"use the built-in default".  Booleans are true/false.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConfigError", "RunConfig", "parse_config", "default_config_text"]


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "run": {"n": int, "seed": int},
    "twist": {"k": int, "eps": float, "p_plateau": float, "shape": str,
              "s_max": float},
    "binding": {"shape": str, "r0": float, "r_max": float, "kappa": float,
                "tail_width": float},
    "matched": {"enabled": bool, "p_cap": float, "r_max": float},
    "orbits": {"denom_cap": int, "action_bound_factor": float},
    "plane": {"r_at_1": float, "tol_asym": float},
    "lincr": {"delta": float, "k_max": int},
    "tolerances": {"quadrature": float, "ode": float, "root": float,
                   "rank": float},
}


@dataclass
class RunConfig:
    n: int = 2
    seed: int = 1234
    k: int = -1
    eps: float = 0.05
    p_plateau: float = 0.75
    twist_shape: str = "cos2"
    s_max: float = 1.0
    binding_shape: str = "fig2"
    r0: float = 0.55
    r_max: float = 0.75
    kappa: float = 1.0
    tail_width: float = 0.12
    matched_enabled: bool = True
    matched_p_cap: float | None = None
    matched_r_max: float | None = None
    denom_cap: int = 8
    action_bound_factor: float = 3.0
    r_at_1: float | None = None
    tol_asym: float = 1e-6
    delta: float | None = None
    k_max: int = 5
    tol_quadrature: float = 1e-12
    tol_ode: float = 1e-10
    tol_root: float = 1e-12
    tol_rank: float = 1e-7

    def validate(self):
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"[run] seed must be >= 0, got {self.seed}")
        if self.binding_shape not in ("fig2", "collar"):
            raise ConfigError(f"[binding] shape must be fig2 or collar, "
                              f"got {self.binding_shape!r}")
        if self.k == 0:
            raise ConfigError("k must be nonzero (k = 0 gives no twist)")
        for name in ("tol_quadrature", "tol_ode", "tol_root", "tol_rank",
                     "tol_asym"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.action_bound_factor <= 0:
            raise ConfigError("action_bound_factor must be positive")
        return self


_FIELD_MAP = {
    ("run", "n"): "n",
    ("run", "seed"): "seed",
    ("twist", "k"): "k",
    ("twist", "eps"): "eps",
    ("twist", "p_plateau"): "p_plateau",
    ("twist", "shape"): "twist_shape",
    ("twist", "s_max"): "s_max",
    ("binding", "shape"): "binding_shape",
    ("binding", "r0"): "r0",
    ("binding", "r_max"): "r_max",
    ("binding", "kappa"): "kappa",
    ("binding", "tail_width"): "tail_width",
    ("matched", "enabled"): "matched_enabled",
    ("matched", "p_cap"): "matched_p_cap",
    ("matched", "r_max"): "matched_r_max",
    ("orbits", "denom_cap"): "denom_cap",
    ("orbits", "action_bound_factor"): "action_bound_factor",
    ("plane", "r_at_1"): "r_at_1",
    ("plane", "tol_asym"): "tol_asym",
    ("lincr", "delta"): "delta",
    ("lincr", "k_max"): "k_max",
    ("tolerances", "quadrature"): "tol_quadrature",
    ("tolerances", "ode"): "tol_ode",
    ("tolerances", "root"): "tol_root",
    ("tolerances", "rank"): "tol_rank",
}


def _convert(raw: str, typ, where: str):
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{where}: expected true/false, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if raw == "":
            continue  # blank keeps the default
        value = _convert(raw, _SCHEMA[section][key],
                         f"line {lineno}: [{section}] {key}")
        setattr(cfg, _FIELD_MAP[(section, key)], value)
    return cfg.validate()


def default_config_text() -> str:
    return """\
# reebtwist run configuration (all values shown are the defaults)
[run]
n = 2
seed = 1234

[twist]
k = -1
eps = 0.05
p_plateau = 0.75
shape = cos2
s_max = 1.0

[binding]
shape = fig2
r0 = 0.55
r_max = 0.75
kappa = 1.0
tail_width = 0.12

[matched]
enabled = true
p_cap =
r_max =

[orbits]
denom_cap = 8
action_bound_factor = 3.0

[plane]
r_at_1 =
tol_asym = 1e-6

[lincr]
delta =
k_max = 5

[tolerances]
quadrature = 1e-12
ode = 1e-10
root = 1e-12
rank = 1e-7
"""
