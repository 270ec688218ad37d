"""Two-wing EPR correlation model with two-state detector loops.

Each wing holds one particle of a Bell pair plus a detector loop prepared
with probability p of pointing up.  A wing's measurement only resolves
whether its (particle, loop) pair is parallel (deflects up) or
antiparallel (deflects down); the two wings' projectors commute.  Joint
outcome probabilities follow from the 16-dimensional composite state
ordered (particle1, particle2, loop1, loop2).

There is no spatial physics here: the deflection measurement is the ideal
projection onto the parallel/antiparallel subspaces.  The four wing
projectors and their four pairwise products do not depend on the
scenario, so each is built once, cached and made read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

_UP = np.array([1.0, 0.0], dtype=complex)
_DOWN = np.array([0.0, 1.0], dtype=complex)
_I2 = np.eye(2, dtype=complex)

BELL_STATES = ("singlet", "triplet0", "triplet+", "triplet-")
# Outcome probabilities this far below zero are rounding noise and clamp
# to 0; anything more negative means a broken state and is an error.
PROBABILITY_ROUNDING_TOL = 1e-12
OUTCOMES = ("up", "down")  # up = parallel pair, down = antiparallel pair


def _kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of vectors or of matrices, left to right.

    Each step is the broadcast multiply that ``np.kron`` performs, on the
    same operand layout, so numpy runs the same complex-multiply loop and the
    bits agree; only ``np.kron``'s per-call set-up is skipped.  (An
    ``np.multiply.outer`` product can take another loop and round complex
    products differently in the last bit.)
    """
    out = ops[0]
    for op in ops[1:]:
        if op.ndim == 1:
            out = (out[:, None] * op[None, :]).reshape(-1)
        else:
            prod = out[:, None, :, None] * op[None, :, None, :]
            out = prod.reshape(out.shape[0] * op.shape[0], out.shape[1] * op.shape[1])
    return out


def bell_state(name: str) -> np.ndarray:
    """Two-particle Bell state as a 4-vector ordered (particle1, particle2)."""
    if name == "singlet":
        return (_kron(_UP, _DOWN) - _kron(_DOWN, _UP)) / np.sqrt(2.0)
    if name == "triplet0":
        return (_kron(_UP, _DOWN) + _kron(_DOWN, _UP)) / np.sqrt(2.0)
    if name == "triplet+":
        return _kron(_UP, _UP)
    if name == "triplet-":
        return _kron(_DOWN, _DOWN)
    raise ValidationError(f"unknown Bell state {name!r}; options: {BELL_STATES}")


@dataclass(frozen=True)
class EPRScenario:
    """Bell pair plus two loop preparations (probability of 'up' per loop)."""

    bell: str = "singlet"
    p1_up: float = 0.1
    p2_up: float = 0.1
    loop_representation: str = "coherent"

    def __post_init__(self):
        if self.bell not in BELL_STATES:
            raise ValidationError(f"unknown Bell state {self.bell!r}; options: {BELL_STATES}")
        for p in (self.p1_up, self.p2_up):
            if not 0.0 <= p <= 1.0:
                raise ValidationError("loop probabilities must lie in [0, 1]")
        if self.loop_representation not in ("coherent", "mixture"):
            raise ValidationError("loop_representation must be 'coherent' or 'mixture'")


def build_state(scenario: EPRScenario) -> np.ndarray:
    """Composite state: 16-vector (coherent loops) or 16x16 density (mixture).

    Coherent loop: sqrt(p)|up> + sqrt(1-p)|down>; mixture loop:
    diag(p, 1-p).  Both give identical outcome statistics because the
    wing projectors are diagonal in the loop basis.
    """
    pair = bell_state(scenario.bell)
    if scenario.loop_representation == "coherent":
        loop1 = np.sqrt(scenario.p1_up) * _UP + np.sqrt(1.0 - scenario.p1_up) * _DOWN
        loop2 = np.sqrt(scenario.p2_up) * _UP + np.sqrt(1.0 - scenario.p2_up) * _DOWN
        return _kron(pair, loop1, loop2)
    rho_pair = np.outer(pair, pair.conj())
    rho1 = np.diag([scenario.p1_up, 1.0 - scenario.p1_up]).astype(complex)
    rho2 = np.diag([scenario.p2_up, 1.0 - scenario.p2_up]).astype(complex)
    return _kron(rho_pair, rho1, rho2)


@lru_cache(maxsize=None)
def wing_projector(wing: int, outcome: str) -> np.ndarray:
    """Projector onto the parallel ('up') or antiparallel ('down') subspace
    of one wing's (particle, loop) pair, embedded in the 16-dim space.

    Cached and shared by every caller, hence read-only."""
    if wing not in (1, 2):
        raise ValidationError("wing must be 1 or 2")
    if outcome not in OUTCOMES:
        raise ValidationError(f"outcome must be one of {OUTCOMES}")
    proj = np.zeros((16, 16), dtype=complex)
    basis = (_UP, _DOWN)
    for s in range(2):
        for l in range(2):
            parallel = s == l
            if (outcome == "up") != parallel:
                continue
            ps = np.outer(basis[s], basis[s].conj())
            pl = np.outer(basis[l], basis[l].conj())
            if wing == 1:
                proj += _kron(ps, _I2, pl, _I2)
            else:
                proj += _kron(_I2, ps, _I2, pl)
    proj.flags.writeable = False
    return proj


@lru_cache(maxsize=None)
def _joint_projector(o1: str, o2: str) -> np.ndarray:
    """P_o1(wing 1) P_o2(wing 2): cached and read-only like its factors."""
    P = wing_projector(1, o1) @ wing_projector(2, o2)
    P.flags.writeable = False
    return P


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities over (wing1, wing2) outcomes; up = parallel pair."""

    up_up: float
    up_down: float
    down_up: float
    down_down: float

    def __post_init__(self):
        values = self.as_dict().values()
        if min(values) < -1e-12:
            raise ValidationError("joint probabilities must be non-negative")
        if abs(sum(values) - 1.0) > 1e-12:
            raise ValidationError("joint probabilities must sum to 1")

    def as_dict(self) -> dict[tuple[str, str], float]:
        return {
            ("up", "up"): self.up_up,
            ("up", "down"): self.up_down,
            ("down", "up"): self.down_up,
            ("down", "down"): self.down_down,
        }

    def marginal(self, wing: int, outcome: str) -> float:
        d = self.as_dict()
        if wing == 1:
            return d[(outcome, "up")] + d[(outcome, "down")]
        if wing == 2:
            return d[("up", outcome)] + d[("down", outcome)]
        raise ValidationError("wing must be 1 or 2")


def joint_distribution(scenario: EPRScenario) -> JointDistribution:
    """Outcome probabilities <P_a(1) P_b(2)> on the composite state."""
    state = build_state(scenario)
    probs = {}
    for o1 in OUTCOMES:
        for o2 in OUTCOMES:
            P = _joint_projector(o1, o2)
            if state.ndim == 1:
                val = complex(state.conj() @ (P @ state))
            else:
                val = complex(np.trace(state @ P))
            if val.real < -PROBABILITY_ROUNDING_TOL:
                raise NumericalError(
                    f"negative outcome probability {val.real:.3e} for wings ({o1}, {o2})"
                )
            probs[(o1, o2)] = max(val.real, 0.0)
    return JointDistribution(
        up_up=probs[("up", "up")],
        up_down=probs[("up", "down")],
        down_up=probs[("down", "up")],
        down_down=probs[("down", "down")],
    )


def conditional(dist: JointDistribution, wing: int, outcome: str) -> dict[str, float]:
    """Probabilities for the other wing, conditioned on (wing, outcome)."""
    marg = dist.marginal(wing, outcome)
    if marg <= 0.0:
        raise ValidationError(f"cannot condition on zero-probability event ({wing}, {outcome})")
    d = dist.as_dict()
    if wing == 1:
        return {o: d[(outcome, o)] / marg for o in OUTCOMES}
    return {o: d[(o, outcome)] / marg for o in OUTCOMES}


def correlation_sweep(
    p_values: Iterable[float],
    bell: str = "singlet",
    loop_representation: str = "coherent",
) -> list[tuple[float, float]]:
    """P(up at wing 2 | down at wing 1) for equal loop weights p1 = p2 = p."""
    rows = []
    for p in p_values:
        if not 0.0 < p <= 1.0:
            raise ValidationError("sweep probabilities must lie in (0, 1]")
        scenario = EPRScenario(
            bell=bell, p1_up=p, p2_up=p, loop_representation=loop_representation
        )
        dist = joint_distribution(scenario)
        rows.append((float(p), conditional(dist, 1, "down")["up"]))
    return rows


def sweep_csv(rows: Sequence[tuple[float, float]]) -> str:
    """CSV rendering with 12 significant digits: `p,cond_up_given_down`."""
    lines = ["p,cond_up_given_down"]
    for p, c in rows:
        lines.append(f"{p:.12g},{c:.12g}")
    return "\n".join(lines) + "\n"
