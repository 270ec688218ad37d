"""Closed-form deflection expectations from spin correlators and spatial moments.

The time-squared coefficient of the propagator expansion factorizes into
spin correlators C_ij = <S_i_p S_j_l> times spatial moments of the packet
density.  Writing M[a,b,c,n] = < x^a y^b z^c / r^n >, the z-acceleration
in natural units is

    a_z = sign * (3 / 4 pi) * sum_ij C_ij * ( d_iz M[e_j; 5] + d_jz M[e_i; 5]
                                              - 5 M[e_i + e_j + e_z; 7]
                                              + d_ij M[e_z; 5] )

For a parallel-spin configuration only C_zz = 1/4 survives and the sum
collapses to the closed form (3/16 pi) (3 M[0,0,1,5] - 5 M[0,0,3,7]).
The bracket is stated once, as the term table of :func:`bracket_terms`.
Correlators beyond C_zz (present for coherent superpositions) are kept,
and ``ForceExpectation.extra_terms`` reports their part of a_z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .spins import SPIN_PAIR, density_of

MomentKey = tuple[int, int, int, int]

# Exponent tuples: _LINEAR[j] = r_j / r^5, _QUADRATIC[i][j] = r_i r_j z / r^7.
_E = np.eye(3, dtype=int)
_LINEAR: list[MomentKey] = [tuple(_E[j]) + (5,) for j in range(3)]
_QUADRATIC: list[list[MomentKey]] = [
    [tuple(_E[i] + _E[j] + _E[2]) + (7,) for j in range(3)] for i in range(3)
]

PARALLEL_TUPLES: tuple[MomentKey, ...] = ((0, 0, 1, 5), (0, 0, 3, 7))


# Correlators of magnitude under this are rounding residue and read 0.
CORRELATOR_FLOOR = 1e-14


def spin_correlators(state: np.ndarray) -> np.ndarray:
    """3x3 matrix C_ij = <S_i_p S_j_l> for a pure state or density matrix.

    Each S_i_p S_j_l is Hermitian (the slots commute), so C is real; entries
    below ``CORRELATOR_FLOOR`` in magnitude are set to 0.
    """
    rho = density_of(state)
    C = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            val = complex(np.trace(rho @ SPIN_PAIR[i][j]))
            if abs(val.imag) > 1e-10:
                raise ValidationError("spin correlator came out complex; state is invalid")
            C[i, j] = val.real
    C[np.abs(C) < CORRELATOR_FLOOR] = 0.0
    return C


def bracket_terms(C: np.ndarray) -> list[tuple[int, int, float, MomentKey]]:
    """One (i, j, coefficient, moment key) entry per term of each nonzero
    C_ij, so a_z = pref * sum C_ij coef M[key].  The terms of each C_ij run
    d_iz, d_jz, quadratic, d_ij: C_zz-only sums depend on that order bitwise."""
    terms = []
    for i in range(3):
        for j in range(3):
            if C[i, j] == 0.0:
                continue
            if i == 2:
                terms.append((i, j, 1.0, _LINEAR[j]))
            if j == 2:
                terms.append((i, j, 1.0, _LINEAR[i]))
            terms.append((i, j, -5.0, _QUADRATIC[i][j]))
            if i == j:
                terms.append((i, j, 1.0, _LINEAR[2]))
    return terms


def _require(moments: Mapping[MomentKey, float], keys: Iterable[MomentKey]) -> None:
    missing = sorted(set(keys) - set(moments))
    if missing:
        raise ValidationError(f"missing moment tuples: {missing}")


def required_tuples_for(state: np.ndarray) -> list[MomentKey]:
    """Moment keys needed to contract the force against the state."""
    return sorted({key for *_, key in bracket_terms(spin_correlators(state))})


@dataclass(frozen=True)
class ForceExpectation:
    """Spin-contracted force expectation in natural units (l / tau^2).

    ``extra_terms`` is the part of every correlator other than C_zz.  With
    array-valued moments (one entry per packet) both are arrays of that shape.
    """

    a_z: float
    extra_terms: float


def contract_force(
    state: np.ndarray,
    moments: Mapping[MomentKey, float],
    coupling_sign: int = 1,
) -> ForceExpectation:
    """Contract the force bracket against a spin state and packet moments.

    ``moments`` must contain every tuple required by the state's nonzero
    correlators (see :func:`required_tuples_for`); each value is a float
    or an array, and the contraction is elementwise.  The sign of the
    coupling is ``coupling_sign`` (``PhysicalParams.coupling_sign``), +1
    by default.
    """
    C = spin_correlators(state)
    terms = bracket_terms(C)
    _require(moments, (key for *_, key in terms))
    pref = coupling_sign * 3.0 / (4.0 * np.pi)
    a_z = extra = 0.0
    for i, j, coef, key in terms:
        term = pref * C[i, j] * coef * moments[key]
        a_z = a_z + term
        if (i, j) != (2, 2):
            extra = extra + term
    return ForceExpectation(a_z=a_z, extra_terms=extra)


def parallel_closed_form(moments: Mapping[MomentKey, float], coupling_sign: int = 1) -> float:
    """Closed form sign * (3/16 pi) (-5 M[0,0,3,7] + 3 M[0,0,1,5]), contact
    term omitted: the independent reference for the up-up contraction.
    The sign is ``coupling_sign``, as in :func:`contract_force`."""
    _require(moments, PARALLEL_TUPLES)
    m_z5 = moments[(0, 0, 1, 5)]
    m_z37 = moments[(0, 0, 3, 7)]
    return coupling_sign * 3.0 / (16.0 * np.pi) * (-5.0 * m_z37 + 3.0 * m_z5)


def classical_dipole_force(m1: float, m2: float, z: float, mu0: float) -> float:
    """On-axis force (newtons) between aligned point dipoles a distance z apart.

    F_z = -3 mu0 m1 m2 / (2 pi z^4) for z > 0; attraction for aligned
    moments.  The sign flips with either moment or with the side of the
    axis.
    """
    if z == 0.0:
        raise ValidationError("classical dipole force diverges at z = 0")
    return -3.0 * mu0 * m1 * m2 * z / (2.0 * np.pi * abs(z) ** 5)
