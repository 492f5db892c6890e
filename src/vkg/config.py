"""Flat key=value run configuration with a versioned schema.

Unknown keys are hard errors so typos in long parameter sweeps fail
fast.  Every key can be overridden from the environment through
VKG_<KEY> (uppercased), which takes precedence over the file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .solver import SimConfig

SCHEMA_VERSION = 1
ENV_PREFIX = "VKG_"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunSettings:
    sim: SimConfig
    delta_mode: str = "free"           # free | n4
    decay_window: tuple[float, float] = (10.0, 100.0)
    ratio_variation_max: float = 5.0


_SIM_FIELDS = {f.name: f.type for f in fields(SimConfig)}

_EXTRA_FIELDS = {
    "schema": int,
    "delta_mode": str,
    "decay_window_lo": float,
    "decay_window_hi": float,
    "ratio_variation_max": float,
}

_FLOAT_TUPLE_KEYS = {"taus"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _FLOAT_TUPLE_KEYS:
        if not raw:
            return ()
        return tuple(float(tok) for tok in raw.split(","))
    decl = _SIM_FIELDS.get(key) or _EXTRA_FIELDS.get(key)
    decl = str(decl)
    if "int" in decl:
        return int(raw)
    if "float" in decl:
        return float(raw)
    return raw


def parse_config(text: str) -> dict:
    """Parse key = value lines; '#' starts a comment."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in _SIM_FIELDS and key not in _EXTRA_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")
    return out


def apply_env_overrides(values: dict, environ=None) -> dict:
    environ = os.environ if environ is None else environ
    out = dict(values)
    for key in list(_SIM_FIELDS) + list(_EXTRA_FIELDS):
        env_key = ENV_PREFIX + key.upper()
        if env_key in environ:
            try:
                out[key] = _parse_value(key, environ[env_key])
            except ValueError as exc:
                raise ConfigError(f"env {env_key}: bad value: {exc}")
    return out


def load_settings(text: str, environ=None) -> RunSettings:
    values = apply_env_overrides(parse_config(text), environ)
    if values.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"config must declare schema = {SCHEMA_VERSION}")
    sim_kwargs = {k: v for k, v in values.items() if k in _SIM_FIELDS}
    sim = SimConfig(**sim_kwargs)
    delta_mode = values.get("delta_mode", "free")
    if delta_mode not in ("free", "n4"):
        raise ConfigError(f"delta_mode must be free or n4, got {delta_mode!r}")
    return RunSettings(
        sim=sim,
        delta_mode=delta_mode,
        decay_window=(values.get("decay_window_lo", 10.0),
                      values.get("decay_window_hi", 100.0)),
        ratio_variation_max=values.get("ratio_variation_max", 5.0),
    )


def settings_echo(settings: RunSettings) -> dict:
    """Flat dictionary of the effective configuration, for the manifest."""
    echo = {f.name: getattr(settings.sim, f.name) for f in fields(SimConfig)}
    echo["taus"] = list(echo["taus"])
    echo.update({
        "schema": SCHEMA_VERSION,
        "delta_mode": settings.delta_mode,
        "decay_window_lo": settings.decay_window[0],
        "decay_window_hi": settings.decay_window[1],
        "ratio_variation_max": settings.ratio_variation_max,
    })
    return echo
