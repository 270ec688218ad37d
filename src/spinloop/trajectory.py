"""Order-of-magnitude screen-deflection estimate from the natural-unit results.

Constant-acceleration model: the particle crosses the deflecting lobe of
the transverse profile (the lobe holding the peak |a_z|, of either sign)
at its forward speed, accumulating

    deflection = |a| * t_int^2 / 2,   t_int = region_width / speed,

with the average acceleration and region width taken from the profile in
natural units and converted to SI through the derived length unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .units import PhysicalParams, derive_length_unit, from_natural


@dataclass(frozen=True)
class DeflectionEstimate:
    """SI deflection estimate with the inputs echoed.

    Invariants: interaction_time_s = region_width_m / speed_ms and
    deflection_m = |avg_acceleration_ms2| * interaction_time_s^2 / 2, both
    exact by construction.
    """

    length_unit_m: float
    tau_s: float
    speed_ms: float
    avg_acceleration_natural: float
    region_width_natural: float
    avg_acceleration_ms2: float
    region_width_m: float
    interaction_time_s: float
    deflection_m: float


def estimate(
    params: PhysicalParams,
    tau: float,
    speed: float,
    avg_acceleration_natural: float,
    region_width_natural: float,
) -> DeflectionEstimate:
    """Convert natural-unit profile results into an SI deflection.

    The deflection magnitude is returned; its direction is the sign of the
    average acceleration (parallel spins deflect opposite to antiparallel).
    """
    if speed <= 0:
        raise ValidationError("speed must be positive")
    if region_width_natural < 0:
        raise ValidationError("region width must be non-negative")
    units = derive_length_unit(params, tau)
    a_si = from_natural(avg_acceleration_natural, "acceleration", units)
    width_si = from_natural(region_width_natural, "length", units)
    t_int = width_si / speed
    try:
        deflection = 0.5 * abs(a_si) * t_int**2
    except OverflowError:  # float ** raises where * returns inf
        deflection = math.inf
    if not math.isfinite(deflection):
        raise ValidationError(f"speed {speed:g} m/s puts the deflection beyond the float range")
    return DeflectionEstimate(
        length_unit_m=units.l,
        tau_s=tau,
        speed_ms=speed,
        avg_acceleration_natural=avg_acceleration_natural,
        region_width_natural=region_width_natural,
        avg_acceleration_ms2=a_si,
        region_width_m=width_si,
        interaction_time_s=t_int,
        deflection_m=deflection,
    )


def separation_vs_packet(deflection: float, packet_width_si: float) -> float:
    """Screen separation of the two branches relative to the packet width.

    The parallel and antiparallel branches deflect symmetrically, so their
    separation is twice the single-branch deflection.
    """
    if packet_width_si <= 0:
        raise ValidationError("packet width must be positive")
    return 2.0 * deflection / packet_width_si
