"""Exact algebra of one and two spin-1/2 systems.

Conventions used everywhere in this package:

* hbar = 1 internally; spin operators are sigma/2.  Physical hbar factors
  are applied only at the SI boundary (see :mod:`spinloop.units`).
* Two-spin product basis is ordered {up-up, up-down, down-up, down-down}
  with the particle index slow and the loop index fast, i.e.
  index = 2*particle + loop with up = 0, down = 1.

States are plain complex ndarrays: a pure state is shape (4,), a density
matrix is shape (4, 4).  Constructors in this module validate their
output; operations accept either representation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError

NORM_TOL = 1e-12
REALITY_TOL = 1e-10

AXES = "xyz"

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

IDENTITY_2 = np.eye(2, dtype=complex)


def spin_generator(axis: str) -> np.ndarray:
    """Spin-1/2 generator (hbar/2) * sigma_axis as a 2x2 matrix, hbar = 1."""
    if axis not in PAULI:
        raise ValidationError(f"unknown spin axis {axis!r}; expected one of 'x', 'y', 'z'")
    return 0.5 * PAULI[axis]


def embed(op: np.ndarray, slot: str) -> np.ndarray:
    """Promote a single-spin operator to the two-spin space.

    slot 'particle' gives op (x) I, slot 'loop' gives I (x) op.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 operator, got shape {op.shape}")
    if slot == "particle":
        return np.kron(op, IDENTITY_2)
    if slot == "loop":
        return np.kron(IDENTITY_2, op)
    raise ValidationError(f"unknown slot {slot!r}; expected 'particle' or 'loop'")


# Bilinears S_i^(p) S_j^(l); these commute slot-wise so the product order
# is immaterial and every entry is Hermitian.
SPIN_PAIR = [
    [embed(spin_generator(a), "particle") @ embed(spin_generator(b), "loop") for b in AXES]
    for a in AXES
]


def spin_dot() -> np.ndarray:
    """S^(p) . S^(l); eigenvalue 1/4 on the triplet subspace, -3/4 on the singlet."""
    return SPIN_PAIR[0][0] + SPIN_PAIR[1][1] + SPIN_PAIR[2][2]


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def basis_state(particle: str, loop: str) -> np.ndarray:
    """Product basis vector |particle, loop> with labels 'up' / 'down'."""
    labels = {"up": 0, "down": 1}
    try:
        idx = 2 * labels[particle] + labels[loop]
    except KeyError as exc:
        raise ValidationError(f"spin label must be 'up' or 'down', got {exc.args[0]!r}") from None
    vec = np.zeros(4, dtype=complex)
    vec[idx] = 1.0
    return vec


def superpose(states: Sequence[np.ndarray], amplitudes: Sequence[complex]) -> np.ndarray:
    """Normalized linear combination sum_k c_k |psi_k>."""
    if len(states) != len(amplitudes):
        raise ValidationError("states and amplitudes must have equal length")
    if not states:
        raise ValidationError("superpose needs at least one state")
    out = np.zeros(4, dtype=complex)
    for state, amp in zip(states, amplitudes):
        out += complex(amp) * np.asarray(state, dtype=complex)
    norm = np.linalg.norm(out)
    if norm < NORM_TOL:
        raise ValidationError("degenerate superposition")
    return out / norm


def mixture(states: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Incoherent mixture sum_k w_k |psi_k><psi_k| as a 4x4 density matrix."""
    if len(states) != len(weights):
        raise ValidationError("states and weights must have equal length")
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < -NORM_TOL):
        raise ValidationError("mixture weights must be non-negative")
    if abs(weights.sum() - 1.0) > NORM_TOL:
        raise ValidationError(f"mixture weights must sum to 1, got {weights.sum()!r}")
    rho = np.zeros((4, 4), dtype=complex)
    for state, w in zip(states, weights):
        vec = np.asarray(state, dtype=complex)
        rho += w * np.outer(vec, vec.conj())
    return rho


def expectation(op: np.ndarray, state: np.ndarray) -> float:
    """<psi|O|psi> or tr(rho O) for a Hermitian O; the result must be real.

    An imaginary part at or above REALITY_TOL signals a non-Hermitian
    operator (or corrupted state) and raises instead of being discarded.
    """
    op = np.asarray(op, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        value = complex(state.conj() @ (op @ state))
    elif state.ndim == 2:
        value = complex(np.trace(state @ op))
    else:
        raise ValidationError(f"state must be a vector or density matrix, got ndim={state.ndim}")
    if abs(value.imag) >= REALITY_TOL:
        raise ValidationError(f"non-Hermitian expectation: imaginary part {value.imag!r}")
    return value.real


def density_of(state: np.ndarray) -> np.ndarray:
    """Coerce a pure state or density matrix to a density matrix."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    if state.ndim == 2:
        return state
    raise ValidationError(f"state must be a vector or density matrix, got ndim={state.ndim}")


def singlet() -> np.ndarray:
    return superpose([basis_state("up", "down"), basis_state("down", "up")], [1, -1])


def parallel_coherent() -> np.ndarray:
    """(|up,up> + |down,down>) / sqrt(2)."""
    return superpose([basis_state("up", "up"), basis_state("down", "down")], [1, 1])


def antiparallel_coherent() -> np.ndarray:
    """(|up,down> + |down,up>) / sqrt(2)."""
    return superpose([basis_state("up", "down"), basis_state("down", "up")], [1, 1])


def parallel_mixture() -> np.ndarray:
    """Equal-weight incoherent mixture of |up,up> and |down,down>."""
    return mixture([basis_state("up", "up"), basis_state("down", "down")], [0.5, 0.5])


def antiparallel_mixture() -> np.ndarray:
    return mixture([basis_state("up", "down"), basis_state("down", "up")], [0.5, 0.5])


_SPIN_ALIASES = {
    "up-up": lambda: basis_state("up", "up"),
    "down-down": lambda: basis_state("down", "down"),
    "up-down": lambda: basis_state("up", "down"),
    "down-up": lambda: basis_state("down", "up"),
    "singlet": singlet,
    "parallel": parallel_mixture,
    "antiparallel": antiparallel_mixture,
    "parallel-coherent": parallel_coherent,
    "antiparallel-coherent": antiparallel_coherent,
}


def named_spin_input(name: str) -> np.ndarray:
    """Resolve a config-level spin name to a state vector or density matrix."""
    try:
        return _SPIN_ALIASES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown spin input {name!r}; options: {sorted(_SPIN_ALIASES)}"
        ) from None
