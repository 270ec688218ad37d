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
from typing import ClassVar

from .errors import ValidationError

# CODATA 2018 values. e and h are exact SI definitions since the 2019
# redefinition; hbar = h / (2 pi) to double precision.
ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
ELECTRON_MASS = 9.1093837015e-31  # kg
PROTON_MASS = 1.67262192369e-27  # kg
VACUUM_PERMEABILITY = 1.25663706212e-6  # N/A^2
HBAR = 1.054571817e-34  # J s


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional inputs: the gyromagnetic factors and the mass.

    alpha and beta are the particle / loop moment-per-spin ratios in
    A m^2 / (J s); mu0 and hbar are the SI constants, not inputs.  The sign
    of alpha * beta is the coupling sign, read as :attr:`coupling_sign`.
    """

    alpha: float
    beta: float
    mass: float
    mu0: ClassVar[float] = VACUUM_PERMEABILITY
    hbar: ClassVar[float] = HBAR

    def __post_init__(self):
        if self.mass <= 0:
            raise ValidationError("mass must be positive")
        if self.alpha * self.beta == 0:
            raise ValidationError("alpha*beta must be nonzero (no interaction otherwise)")

    @property
    def coupling_sign(self) -> int:
        return 1 if self.alpha * self.beta > 0 else -1


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


def beta_from_loop(current: float, radius: float) -> float:
    """Moment-per-spin ratio of a current loop: (I pi R^2) / (hbar/2)."""
    if current <= 0 or radius <= 0:
        raise ValidationError("loop current and radius must be positive")
    try:
        moment = current * math.pi * radius**2
    except OverflowError:  # float ** raises where * returns inf
        moment = math.inf
    beta = moment / (HBAR / 2.0)
    if not math.isfinite(beta):
        raise ValidationError(
            f"loop current {current:g} A and radius {radius:g} m put beta beyond the float range"
        )
    return beta


# dimension tag -> (power of l, power of tau)
_DIMENSIONS = {"length": (1, 0), "acceleration": (1, -2)}


def from_natural(value: float, dimension: str, units: NaturalUnits) -> float:
    """Convert a natural-unit value back to SI."""
    try:
        pl, pt = _DIMENSIONS[dimension]
    except KeyError:
        raise ValidationError(
            f"unknown dimension {dimension!r}; options: {sorted(_DIMENSIONS)}"
        ) from None
    try:
        return value * (units.l**pl * units.tau**pt)
    except OverflowError:  # float ** raises where * returns inf
        raise ValidationError(
            f"tau {units.tau:g} s puts the {dimension} unit beyond the float range"
        ) from None


def kinetic_scale(params: PhysicalParams, units: NaturalUnits) -> float:
    """Dimensionless kinetic prefactor kappa = hbar tau / (m l^2).

    Fixing the coupling prefactor to 1 does not fix kappa; it must be
    carried explicitly by the grid evolution.
    """
    return params.hbar * units.tau / (params.mass * units.l**2)
