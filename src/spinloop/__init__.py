"""Deflection of a spin-1/2 particle by a magnetic dipole in a two-state
quantum superposition: exact spin algebra, square-wavepacket force
expectations, a direct Schrodinger-grid cross-check, screen-deflection
estimates and a two-wing EPR correlation model.
"""

from .errors import NumericalError, ValidationError
from .units import (
    NaturalUnits,
    PhysicalParams,
    beta_from_loop,
    derive_length_unit,
    from_natural,
    kinetic_scale,
    thermal_speed,
    to_natural,
)
from .spins import (
    basis_state,
    expectation,
    mixture,
    singlet,
    spin_dot,
    spin_generator,
    superpose,
)
from .fields import dipole_field, force_operator, interaction_hamiltonian, zeeman_term
from .packets import (
    AccelerationProfile,
    WavePacket,
    acceleration_profile,
    moment,
    moments,
    region_average,
    zero_crossings,
)
from .deflection import (
    ForceExpectation,
    classical_dipole_force,
    contract_force,
    parallel_closed_form,
    spin_correlators,
)
from .gridsim import (
    Grid,
    GridHamiltonian,
    GridOperator,
    GridSpec,
    GridState,
    OracleResult,
    TimeSeries,
    canonical_commutator_residual,
    evolve,
    expect_momentum_z,
    fit_acceleration,
    initialize,
    remainder_scaling,
    run,
    run_oracle,
)
from .trajectory import DeflectionEstimate, estimate, separation_vs_packet
from .epr import EPRScenario, JointDistribution, conditional, correlation_sweep, joint_distribution

__version__ = "0.1.0"
