"""Position-dependent spin operators: the dipole coupling and its force.

The two operator fields built here are dimensionless natural-unit forms
evaluated at positions measured in l:

* ``interaction_hamiltonian()`` returns the coupling term whose expectation
  is an energy in units of m l^2 / tau^2,
* ``force_operator()`` returns its negative z-gradient, whose expectation
  is directly an acceleration in l / tau^2.

Both are 4x4 Hermitian matrices at every position away from the origin.
The point-dipole contact (Dirac delta) pieces are excluded; every
supported wavepacket lives away from the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .spins import SPIN_PAIR, spin_dot

_SPIN_DOT = spin_dot()


def _radial_bilinears(x: float, y: float, z: float):
    """r, (S_p . r)(S_l . r) and helper sums reused by both fields."""
    r2 = x * x + y * y + z * z
    r = np.sqrt(r2)
    rv = (x, y, z)
    pr_lr = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for j in range(3):
            pr_lr += rv[i] * rv[j] * SPIN_PAIR[i][j]
    return r, r2, rv, pr_lr


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
        r, r2, _, pr_lr = _radial_bilinears(x, y, z)
        return (-coupling_sign / (4 * np.pi * r**3)) * ((3.0 / r2) * pr_lr - _SPIN_DOT)

    return OperatorField(rule=rule, label="dipole-dipole coupling")


def force_operator(coupling_sign: int = 1) -> OperatorField:
    """Negative z-gradient of the coupling term as an operator field.

    At each r the matrix is

        sign * 3 / (4 pi r^5) * [ S_z_p (S_l . r) + (S_p . r) S_z_l
                                  - (5/r^2) (S_p . r)(S_l . r) z
                                  + (S_p . S_l) z ]

    whose expectation over a spin state and spatial density is the
    z-acceleration in l / tau^2 (the mass is already absorbed by the
    natural units).  The derivative-of-delta contact piece is excluded.
    """

    def rule(x: float, y: float, z: float) -> np.ndarray:
        r, r2, rv, pr_lr = _radial_bilinears(x, y, z)
        szp_lr = np.zeros((4, 4), dtype=complex)
        pr_szl = np.zeros((4, 4), dtype=complex)
        for j in range(3):
            szp_lr += rv[j] * SPIN_PAIR[2][j]
            pr_szl += rv[j] * SPIN_PAIR[j][2]
        bracket = szp_lr + pr_szl - (5.0 / r2) * pr_lr * z + _SPIN_DOT * z
        return (coupling_sign * 3.0 / (4 * np.pi * r**5)) * bracket

    return OperatorField(rule=rule, label="deflection force")

