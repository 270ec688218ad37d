"""Position-dependent spin operators: the dipole coupling and its force.

The two operator fields built here are dimensionless natural-unit forms
evaluated at positions measured in l:

* ``interaction_hamiltonian()`` returns the coupling term whose expectation
  is an energy in units of m l^2 / tau^2,
* ``force_operator()`` returns its negative z-gradient, whose expectation
  is directly an acceleration in l / tau^2.  Its bracket is the term table
  of :func:`spinloop.deflection.bracket_terms`, which the moment
  contraction uses.

Both are 4x4 Hermitian matrices at every position away from the origin.
The point-dipole contact (Dirac delta) pieces are excluded; every
supported wavepacket lives away from the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .deflection import bracket_terms
from .errors import ValidationError
from .spins import SPIN_PAIR, spin_dot

_SPIN_DOT = spin_dot()
_FORCE_TERMS = bracket_terms(np.ones((3, 3)))  # every C_ij slot nonzero


@dataclass(frozen=True)
class OperatorField:
    """Rule mapping a position (natural units) to a 4x4 spin operator."""

    rule: Callable[[float, float, float], np.ndarray]
    label: str = ""

    def at(self, x: float, y: float, z: float) -> np.ndarray:
        if x * x + y * y + z * z == 0.0:
            raise ValidationError(f"dipole singularity: {self.label or 'operator field'} at r = 0")
        return self.rule(x, y, z)


def interaction_hamiltonian(coupling_sign: int = 1) -> OperatorField:
    """Dipole-dipole coupling term as an operator field.

    At each r the matrix is

        -sign / (4 pi r^3) * [ (3/r^2) (S_p . r)(S_l . r) - S_p . S_l ]

    with spin matrices sigma/2; its expectation is an energy in units of
    m l^2 / tau^2.  ``coupling_sign`` is sign(alpha*beta).
    """

    def rule(x: float, y: float, z: float) -> np.ndarray:
        r2 = x * x + y * y + z * z
        rv = (x, y, z)
        pr_lr = sum(rv[i] * rv[j] * SPIN_PAIR[i][j] for i in range(3) for j in range(3))
        return (-coupling_sign / (4 * np.pi * np.sqrt(r2) ** 3)) * ((3.0 / r2) * pr_lr - _SPIN_DOT)

    return OperatorField(rule=rule, label="dipole-dipole coupling")


def force_operator(coupling_sign: int = 1) -> OperatorField:
    """Negative z-gradient of the coupling term as an operator field.

    At each r the matrix is sign * 3/(4 pi) * sum coef x^a y^b z^c / r^n
    S_i_p S_j_l over the terms (i, j, coef, (a, b, c, n)) of
    :func:`spinloop.deflection.bracket_terms`; its expectation is the
    z-acceleration in l / tau^2.  The derivative-of-delta contact piece
    is excluded.
    """

    def rule(x: float, y: float, z: float) -> np.ndarray:
        r = np.sqrt(x * x + y * y + z * z)
        bracket = sum(coef * x**a * y**b * z**c / r**n * SPIN_PAIR[i][j]
                      for i, j, coef, (a, b, c, n) in _FORCE_TERMS)
        return (coupling_sign * 3.0 / (4 * np.pi)) * bracket

    return OperatorField(rule=rule, label="deflection force")
