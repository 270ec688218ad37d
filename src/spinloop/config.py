"""Run configuration: the preset, the schema derived from it, and validation.

A configuration is a nested JSON document merged over the preset.  A user
file must match the preset's shape: unknown keys are rejected at every
level, and each value must have the preset's type there, except that an
int is accepted for a float (a bool never is) and ``null`` (the preset's
``params.beta``) means float or null.  The ``paper-sec4`` preset is the
reference configuration: a hydrogen-mass particle (proton-mass scale),
electron-type gyromagnetic factor, a 1 uA / 1 um superconducting loop and
a 1 ms time unit.

Keys (types in parentheses; all keys optional in user files):

    tau (float)                    time unit in seconds
    params:
        alpha (float)              particle moment-per-spin, A m^2 / (J s)
        beta (float or null)       loop factor; null derives it from the loop
        loop_current (float)       amperes, used when beta is null
        loop_radius (float)        meters, used when beta is null
        mass (float)               kg
    figure2:
        z, x, width (float)        packet placement in natural lengths
        y_min, y_max (float)       sweep range
        samples (int)              sweep sample count
        spin (str)                 spin input name (see spinloop.spins)
    deflect:
        speed (float)              forward beam speed, m/s
        packet_width_si (float)    physical packet width for the separation ratio, m
    epr:
        bell (str), p1_up, p2_up (float), representation (str),
        sweep_points (int)
    oracle:
        variant (str)              'full', 'pure-zeeman' or 'free'
        points (int), half_width (float), center (list[3])
        packet_width, edge_ramp_cells, theta, duration, momentum_kick (float)
        zeeman (list[2])           dimensionless [alpha B0 tau, beta B0 tau]
        remainder:                 heavy-slow run to its last window, for the t^3 term
            kinetic_scale, packet_width, edge_ramp_cells, momentum_kick,
            theta (float), windows (list[float])

``oracle.theta`` sets the time step of the main and Zeeman runs, and
``oracle.remainder.theta`` that of the remainder run: each run steps at
dt = theta / (its grid's spectral-radius bound).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .errors import ValidationError
from .units import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    PROTON_MASS,
    NaturalUnits,
    PhysicalParams,
    beta_from_loop,
    derive_length_unit,
    kinetic_scale,
)

PRESET_NAME = "paper-sec4"
# figure2.samples and epr.sweep_points set the length of a sample loop
MAX_SAMPLES = 100_000


def preset_config() -> dict[str, Any]:
    """Defaults reproducing the reference estimates end to end; each value
    also sets its key's type (write ``1e3``, not ``1000``, for a float)."""
    return {
        "tau": 1e-3,
        "params": {
            "alpha": -ELEMENTARY_CHARGE / (2.0 * ELECTRON_MASS),
            # beta derived from the loop, sign-matched to alpha so the
            # coupling product is positive (aligned moment conventions).
            "beta": None,
            "loop_current": 1e-6,
            "loop_radius": 1e-6,
            "mass": PROTON_MASS,
        },
        "figure2": {
            "z": 0.4,
            "x": 0.0,
            "width": 1e-3,
            "y_min": -0.5,
            "y_max": 0.5,
            "samples": 201,
            "spin": "parallel",
        },
        "deflect": {
            # Stated beam-speed scale for an oven-temperature hydrogen atom;
            # the rms value sqrt(3 k_B T / m) is ~3.0e3 m/s at 373 K.
            "speed": 1e3,
            "packet_width_si": 1e-10,
        },
        "epr": {
            "bell": "singlet",
            "p1_up": 0.1,
            "p2_up": 0.1,
            "representation": "coherent",
            "sweep_points": 99,
        },
        "oracle": {
            "variant": "full",
            "points": 32,
            # Wide enough that the packet stays clear of the Dirichlet walls
            # (gridsim.edge_density_ratio ~2e-8); at 0.05 the walls push it
            # and the free variant fits a = -0.079 at 4.8 sigma.
            "half_width": 0.0629,
            "center": [0.0, 0.0, 0.4],
            "packet_width": 0.04,
            "edge_ramp_cells": 3.0,
            # A cubic fit of the main run reads the grid's exact initial
            # acceleration (gridsim.discrete_acceleration) to 6.1e-6
            # relative here, 6.7e-6 at 0.15 and 1.4e-5 at 0.45.
            "theta": 0.3,
            "duration": 5e-5,
            "momentum_kick": 3.0,
            "zeeman": [5.0, 3.0],
            "remainder": {
                # Heavy-slow regime: the cubic coefficient is kick * kappa *
                # <dF/dz>; a small kinetic scale keeps packet spreading and
                # boundary traffic negligible over millisecond-scale windows.
                "kinetic_scale": 0.02,
                "packet_width": 0.03,
                "edge_ramp_cells": 4.0,
                "momentum_kick": 30.0,
                # Not derived from the windows: at theta 0.3 the 2.5e-4 window
                # holds 7 samples, not 8, and at the largest step that keeps 8
                # (dt 3.57e-5, 28 steps) the residual, 8.6e-11, is under the
                # noise floor, 1.7e-10.
                "theta": 0.15,
                "windows": [2.5e-4, 3.3e-4, 4.35e-4, 5.75e-4, 7.6e-4, 1.0e-3],
            },
        },
    }


def _schema_of(value: Any) -> Any:
    """Schema of a preset value: a list's is its first element's, null's
    is float or null, and any other scalar's is its type."""
    if isinstance(value, dict):
        return {k: _schema_of(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_schema_of(value[0])]
    if value is None:
        return (float, type(None))
    return type(value)


_SCHEMA: dict[str, Any] = _schema_of(preset_config())


def _type_name(t) -> str:
    if isinstance(t, tuple):
        return " or ".join(_type_name(x) for x in t)
    return getattr(t, "__name__", str(t))


def _validate(value: Any, schema: Any, path: str) -> Any:
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ValidationError(f"{path}: expected an object")
        unknown = set(value) - set(schema)
        if unknown:
            raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")
        return {k: _validate(v, schema[k], f"{path}.{k}") for k, v in value.items()}
    if isinstance(schema, list):
        if not isinstance(value, list):
            raise ValidationError(f"{path}: expected a list")
        return [_validate(v, schema[0], f"{path}[{i}]") for i, v in enumerate(value)]
    expected = schema if isinstance(schema, tuple) else (schema,)
    if float in expected and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    bad_bool = isinstance(value, bool) and bool not in expected  # bool subclasses int
    if not isinstance(value, expected) or bad_bool:
        raise ValidationError(f"{path}: expected {_type_name(schema)}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{path}: value must be finite")
    return value


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | Path | None = None, preset: str = PRESET_NAME) -> dict[str, Any]:
    """Validated configuration: user JSON (if any) merged over the preset."""
    if preset != PRESET_NAME:
        raise ValidationError(f"unknown preset {preset!r}; available: {PRESET_NAME!r}")
    cfg = preset_config()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from None
        user = _validate(raw, _SCHEMA, "config")
        cfg = _merge(cfg, user)
    if len(cfg["oracle"]["center"]) != 3:
        raise ValidationError("config.oracle.center: expected exactly 3 coordinates")
    if len(cfg["oracle"]["zeeman"]) != 2:
        raise ValidationError("config.oracle.zeeman: expected exactly 2 strengths")
    if cfg["epr"]["sweep_points"] < 1:
        raise ValidationError("config.epr.sweep_points: must be >= 1")
    for section, key in (("figure2", "samples"), ("epr", "sweep_points")):
        if cfg[section][key] > MAX_SAMPLES:
            raise ValidationError(f"config.{section}.{key}: must be <= {MAX_SAMPLES}")
    o = cfg["oracle"]
    for key, value in (
        ("oracle.theta", o["theta"]),
        ("oracle.duration", o["duration"]),
        ("oracle.remainder.theta", o["remainder"]["theta"]),
    ):
        if value <= 0:
            raise ValidationError(f"config.{key}: must be positive")
    return cfg


def resolved_beta(cfg: dict[str, Any]) -> float:
    """Loop factor: explicit if given, else derived from the loop geometry
    with its sign matched to alpha (aligned-moment convention)."""
    p = cfg["params"]
    if p["beta"] is not None:
        return p["beta"]
    if p["loop_current"] == 0.0 or p["loop_radius"] == 0.0:
        return 0.0
    magnitude = beta_from_loop(p["loop_current"], p["loop_radius"])
    return math.copysign(magnitude, p["alpha"])


def build_params(cfg: dict[str, Any]) -> PhysicalParams:
    p = cfg["params"]
    return PhysicalParams(alpha=p["alpha"], beta=resolved_beta(cfg), mass=p["mass"])


def build_units(cfg: dict[str, Any]) -> NaturalUnits:
    return derive_length_unit(build_params(cfg), cfg["tau"])


def build_kinetic_scale(cfg: dict[str, Any]) -> float:
    return kinetic_scale(build_params(cfg), build_units(cfg))
