"""Dimensional parameters and the natural length/time units.

The model's natural units (l, tau) satisfy

    l**5 = (mu0 * |alpha*beta| * hbar**2 / m) * tau**2,

which makes the dipole-coupling prefactor unity: quoting accelerations in
l/tau**2 removes mu0, alpha, beta, hbar and m from the force expressions.
Signs of the gyromagnetic factors are tracked separately (coupling_sign);
only the magnitude enters the unit definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# CODATA 2018 values. e, k_B and h are exact SI definitions since the 2019
# redefinition; hbar = h / (2 pi) to double precision.
ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
ELECTRON_MASS = 9.1093837015e-31  # kg
PROTON_MASS = 1.67262192369e-27  # kg
ATOMIC_MASS = 1.66053906660e-27  # kg
HYDROGEN_MASS = 1.00782503207 * ATOMIC_MASS  # kg (1H atomic mass)
BOLTZMANN = 1.380649e-23  # J/K (exact)
VACUUM_PERMEABILITY = 1.25663706212e-6  # N/A^2
HBAR = 1.054571817e-34  # J s


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional inputs: gyromagnetic factors, mass, external field, constants.

    alpha and beta are the particle / loop moment-per-spin ratios in
    A m^2 / (J s); b0 is the uniform external field in tesla.
    """

    alpha: float
    beta: float
    mass: float
    b0: float = 0.0
    mu0: float = VACUUM_PERMEABILITY
    hbar: float = HBAR

    def __post_init__(self):
        if self.mass <= 0:
            raise ValidationError("mass must be positive")
        if self.mu0 <= 0:
            raise ValidationError("mu0 must be positive")
        if self.hbar <= 0:
            raise ValidationError("hbar must be positive")
        if self.alpha * self.beta == 0:
            raise ValidationError("alpha*beta must be nonzero (no interaction otherwise)")

    @property
    def coupling_sign(self) -> int:
        return 1 if self.alpha * self.beta > 0 else -1

    @classmethod
    def natural(cls) -> "PhysicalParams":
        """Dimensionless stand-in with every constant set to 1 and b0 = 0."""
        return cls(alpha=1.0, beta=1.0, mass=1.0, b0=0.0, mu0=1.0, hbar=1.0)


@dataclass(frozen=True)
class NaturalUnits:
    """Derived length unit l (meters) and the chosen time unit tau (seconds)."""

    l: float
    tau: float

    def __post_init__(self):
        if self.l <= 0 or self.tau <= 0:
            raise ValidationError("natural units must be positive")


def derive_length_unit(params: PhysicalParams, tau: float) -> NaturalUnits:
    """Length unit from the coupling: l = (mu0 |alpha beta| hbar^2 tau^2 / m)^(1/5)."""
    if tau <= 0:
        raise ValidationError("tau must be positive")
    try:
        l5 = params.mu0 * abs(params.alpha * params.beta) * params.hbar**2 * tau**2 / params.mass
    except OverflowError:  # float ** raises where * returns inf
        l5 = math.inf
    if not math.isfinite(l5):
        raise ValidationError(f"tau {tau:g} s puts the length unit beyond the float range")
    return NaturalUnits(l=l5**0.2, tau=tau)


def beta_from_loop(current: float, radius: float, hbar: float = HBAR) -> float:
    """Moment-per-spin ratio of a current loop: (I pi R^2) / (hbar/2)."""
    if current <= 0 or radius <= 0:
        raise ValidationError("loop current and radius must be positive")
    moment = current * math.pi * radius**2
    return moment / (hbar / 2.0)


def thermal_speed(temperature: float, mass: float) -> float:
    """RMS thermal speed sqrt(3 k_B T / m)."""
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    if mass <= 0:
        raise ValidationError("mass must be positive")
    return math.sqrt(3.0 * BOLTZMANN * temperature / mass)


# dimension tag -> (power of l, power of tau)
_DIMENSIONS = {
    "length": (1, 0),
    "time": (0, 1),
    "speed": (1, -1),
    "acceleration": (1, -2),
}


def _si_factor(dimension: str, units: NaturalUnits) -> float:
    try:
        pl, pt = _DIMENSIONS[dimension]
    except KeyError:
        raise ValidationError(
            f"unknown dimension {dimension!r}; options: {sorted(_DIMENSIONS)}"
        ) from None
    return units.l**pl * units.tau**pt


def to_natural(value: float, dimension: str, units: NaturalUnits) -> float:
    """Convert an SI value into natural (l, tau) units."""
    return value / _si_factor(dimension, units)


def from_natural(value: float, dimension: str, units: NaturalUnits) -> float:
    """Convert a natural-unit value back to SI."""
    return value * _si_factor(dimension, units)


def kinetic_scale(params: PhysicalParams, units: NaturalUnits) -> float:
    """Dimensionless kinetic prefactor kappa = hbar tau / (m l^2).

    Fixing the coupling prefactor to 1 does not fix kappa; it must be
    carried explicitly by the grid evolution.
    """
    return params.hbar * units.tau / (params.mass * units.l**2)
