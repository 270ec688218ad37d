"""Two-wing EPR correlation model with two-state detector loops.

Each wing holds one particle of a Bell pair plus a detector loop prepared
with probability p of pointing up.  A wing's measurement only resolves
whether its (particle, loop) pair is parallel (deflects up) or
antiparallel (deflects down).

There is no spatial physics here: the deflection measurement is the ideal
projection onto the parallel/antiparallel subspaces.  Those projectors are
diagonal in the particle and loop bases, so an outcome probability is the
exact sum over the particles' spins (s1, s2) of
|c_{s1 s2}|^2 w1(o1 | s1) w2(o2 | s2), where w is p or 1 - p; no composite
state is built.  The same sums, taken over arrays of p, give a whole
correlation sweep at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

# |c_{s1 s2}|^2 of each Bell state over the particles' spins (s1, s2)
_BELL_WEIGHTS = {
    "singlet": {("up", "down"): 0.5, ("down", "up"): 0.5},
    "triplet0": {("up", "down"): 0.5, ("down", "up"): 0.5},
    "triplet+": {("up", "up"): 1.0},
    "triplet-": {("down", "down"): 1.0},
}
BELL_STATES = tuple(_BELL_WEIGHTS)
OUTCOMES = ("up", "down")  # up = parallel pair, down = antiparallel pair


@dataclass(frozen=True)
class EPRScenario:
    """Bell pair plus two loop preparations (probability of 'up' per loop).

    A loop is the coherent sqrt(p)|up> + sqrt(1-p)|down> or the mixture
    diag(p, 1-p); the outcome statistics of the two are identical, so
    ``loop_representation`` is validated but does not enter the numbers.
    """

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


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities over (wing1, wing2) outcomes; up = parallel pair.  Each
    is a float, or for a sweep an array over p (every check then holds at
    every p)."""

    up_up: float | np.ndarray
    up_down: float | np.ndarray
    down_up: float | np.ndarray
    down_down: float | np.ndarray

    def __post_init__(self):
        values = list(self.as_dict().values())
        if np.min(values) < -1e-12:
            raise ValidationError("joint probabilities must be non-negative")
        if np.max(abs(sum(values) - 1.0)) > 1e-12:
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


def _joint(bell: str, p1_up, p2_up) -> JointDistribution:
    """Outcome probabilities sum over (s1, s2) of |c_{s1 s2}|^2 w1(o1|s1) w2(o2|s2),
    for float loop weights or arrays of them."""

    def wing(outcome: str, spin: str, p_up):
        # 'up' (parallel) on an up spin, or 'down' on a down spin, needs the loop up
        return p_up if outcome == spin else 1.0 - p_up

    weights = _BELL_WEIGHTS[bell]
    return JointDistribution(*(
        sum(c2 * wing(o1, s1, p1_up) * wing(o2, s2, p2_up) for (s1, s2), c2 in weights.items())
        for o1 in OUTCOMES for o2 in OUTCOMES
    ))


def joint_distribution(scenario: EPRScenario) -> JointDistribution:
    """Outcome probabilities sum over (s1, s2) of |c_{s1 s2}|^2 w1(o1|s1) w2(o2|s2)."""
    return _joint(scenario.bell, scenario.p1_up, scenario.p2_up)


def conditional(dist: JointDistribution, wing: int, outcome: str) -> dict[str, float]:
    """Probabilities for the other wing, conditioned on (wing, outcome)."""
    marg = dist.marginal(wing, outcome)
    if np.min(marg) <= 0.0:
        raise ValidationError(f"cannot condition on zero-probability event ({wing}, {outcome})")
    d = dist.as_dict()
    if wing == 1:
        return {o: d[(outcome, o)] / marg for o in OUTCOMES}
    return {o: d[(o, outcome)] / marg for o in OUTCOMES}


def correlation_sweep(
    p_values: Iterable[float], bell: str = "singlet"
) -> list[tuple[float, float]]:
    """P(up at wing 2 | down at wing 1) for equal loop weights p1 = p2 = p.

    One pass over all p: each outcome probability is one numpy expression
    over the array of p, in the order of operations of
    :func:`joint_distribution`, so every row has the bits of that p's own
    distribution."""
    p = np.array([float(v) for v in p_values])
    if not np.all((0.0 < p) & (p <= 1.0)):
        raise ValidationError("sweep probabilities must lie in (0, 1]")
    if not p.size:
        return []
    EPRScenario(bell=bell)  # refuses an unknown Bell state
    cond = conditional(_joint(bell, p, p), 1, "down")["up"]
    return list(zip(p.tolist(), cond.tolist()))
