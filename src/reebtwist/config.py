"""Run configuration: a flat key-value text format with sections.

Grammar (diff-friendly on purpose):

    # comment or blank lines anywhere
    [section]
    key = value

Sections and keys are fixed; an unknown section or key is an error
that names the offender and its line number.  A blank value means
"use the built-in default".  Booleans are true/false; a float must be
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ReebtwistError", "ConfigError", "RunConfig", "parse_config",
           "default_config_text"]


class ReebtwistError(ValueError):
    """Base of the package's typed errors: a bad input or a refused build
    the command line reports as ``error: ...`` with exit status 1."""


class ConfigError(ReebtwistError):
    pass


_SCHEMA = {
    "run": {"n": int, "seed": int},
    "twist": {"k": int, "eps": float, "p_plateau": float, "shape": str,
              "s_max": float},
    "binding": {"shape": str, "r0": float, "r_max": float, "kappa": float,
                "tail_width": float},
    "matched": {"enabled": bool, "p_cap": float, "r_max": float},
    "orbits": {"denom_cap": int, "action_bound_factor": float},
    "lincr": {"k_max": int},
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
    k_max: int = 5

    def validate(self):
        if self.n < 2:
            raise ConfigError(f"[run] n must be >= 2, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"[run] seed must be >= 0, got {self.seed}")
        if self.twist_shape not in ("cos", "cos2"):
            raise ConfigError(f"[twist] shape must be cos or cos2, "
                              f"got {self.twist_shape!r}")
        if self.binding_shape not in ("fig2", "collar"):
            raise ConfigError(f"[binding] shape must be fig2 or collar, "
                              f"got {self.binding_shape!r}")
        if self.k == 0:
            raise ConfigError("[twist] k must be nonzero "
                              "(k = 0 gives no twist)")
        if self.k > 0:
            # both binding shapes are built on the principal zero
            # g(p0) = 0 of the twist, which only a left twist has
            raise ConfigError(f"[twist] k must be negative (a left twist), "
                              f"got {self.k}")
        if self.action_bound_factor <= 0:
            raise ConfigError(f"[orbits] action_bound_factor must be "
                              f"positive, got {self.action_bound_factor}")
        if self.k_max < 0:
            raise ConfigError(f"[lincr] k_max must be >= 0, got {self.k_max}")
        return self


# the keys whose RunConfig field is not named after the key itself
_FIELD_MAP = {
    ("twist", "shape"): "twist_shape",
    ("binding", "shape"): "binding_shape",
    ("matched", "enabled"): "matched_enabled",
    ("matched", "p_cap"): "matched_p_cap",
    ("matched", "r_max"): "matched_r_max",
}


def _convert(raw: str, typ, where: str):
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{where}: expected true/false, got {raw!r}")
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


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
        setattr(cfg, _FIELD_MAP.get((section, key), key), value)
    return cfg.validate()


def default_config_text() -> str:
    """The config file that sets every key to its default: one section
    per _SCHEMA entry, in its order, each key at its RunConfig field's
    default (true/false for a bool, a blank value for None)."""
    cfg = RunConfig()
    sections = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key in keys:
            value = getattr(cfg, _FIELD_MAP.get((section, key), key))
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} =" if value is None else f"{key} = {value}")
        sections.append("\n".join(lines) + "\n")
    return ("# reebtwist run configuration (all values shown are the "
            "defaults)\n" + "\n".join(sections))
