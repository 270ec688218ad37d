"""Square-wavepacket spatial moments and the transverse acceleration profile.

A square packet has uniform probability density 1/width^3 over a cube.
Moments < x^a y^b z^c / r^n > are evaluated with tensor-product
Gauss-Legendre quadrature whose order is escalated until two consecutive
orders agree to a relative tolerance; the integrand is smooth on the cube
(the origin is excluded by construction) so convergence is spectral.

The quadrature is batched: one kernel evaluates the moments of many packet
centres at once, in blocks of at most ``_POINT_BUDGET`` nodes, and each
centre escalates its own order.  An a_z(y) profile is one kernel call and
one elementwise contraction; the scalar :func:`moments` is the one-centre
call of the same kernel.

The kernel is a separable contraction.  The integrand x^a y^b z^c r^-n is a
product of 1-D node factors, which carry the weights, and r^-n, which is
built without ``pow``: r^-2 = 1/(x^2 + y^2 + z^2) once per block, then one
sqrt for odd n and products.  Each r^-n is contracted over z once per
distinct (n, c), and the result over y and x.  The kernel also returns each
moment's L1 value (the quadrature sum of |integrand|), which sets the
convergence scale and the noise floor below which a profile sample counts
as zero.  Since r^-n and the weights are positive, the L1 value factorises
too: it is the same contraction with the absolute 1-D factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .deflection import MomentKey, contract_force, force_scale, required_tuples_for
from .errors import NumericalError, ValidationError

_GL_ORDERS = (6, 10, 14, 20, 28, 40, 56)
# Quadrature nodes (centres x order^3) per vectorised block: bounds the
# working set to a few hundred KiB per array whatever the sample count.
_POINT_BUDGET = 2**14
# |a_z| at or below this share of its L1 scale is rounding noise: the terms
# of the contraction cancel to ~1e-16 of the scale where the force vanishes.
ZERO_FLOOR = 1e-12
# r^-7 in the integrand underflows past min_float**(-1/7) ~ 1.1e44 l.
FAR_FIELD_RADIUS = 1e40


def _check_packets(centers: np.ndarray, width: float) -> None:
    """Reject packets whose moments are undefined; ``centers`` is (s, 3)."""
    if width <= 0:
        raise ValidationError("packet width must be positive")
    if not np.all(np.isfinite(centers)):
        raise ValidationError("packet center must be finite")
    # hypot, not a norm: squaring a coordinate of 1e200 already overflows.
    farthest = np.max(np.hypot.reduce(np.abs(centers) + width / 2.0, axis=1))
    if farthest > FAR_FIELD_RADIUS:
        raise ValidationError(f"packet lies beyond the far-field radius: its farthest point "
                              f"is {farthest:.3g} l out, over {FAR_FIELD_RADIUS:.0e} l")
    # The closed ball around the cube must exclude the point dipole.
    if np.any(np.linalg.norm(centers, axis=1) <= math.sqrt(3.0) * width / 2.0):
        raise ValidationError("singular support: packet cube touches the origin")


@dataclass(frozen=True)
class WavePacket:
    """Cube of uniform |psi|^2: center (natural-unit lengths) and edge width."""

    center: tuple[float, float, float]
    width: float

    def __post_init__(self):
        _check_packets(np.array([self.center], dtype=float), self.width)


@lru_cache(maxsize=None)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _inverse_powers(inv_r2: np.ndarray, exponents: Sequence[int], out: np.ndarray) -> None:
    """Fill ``out[i]`` with r^-n for the i-th of the ascending ``exponents``,
    from r^-2 by one sqrt (odd n only) and products: each power is the one
    below it of the same parity times r^-2, with no ``pow`` on the cube."""
    below: dict[int, tuple[int, np.ndarray]] = {}
    for n, p in zip(exponents, out):
        if n % 2 in below:
            m, base = below[n % 2]
            np.multiply(base, inv_r2, out=p)
            m += 2
        elif n % 2:
            m = 1
            np.sqrt(inv_r2, out=p)
        else:
            m = 0
            p.fill(1.0)
        for _ in range((n - m) // 2):
            np.multiply(p, inv_r2, out=p)
        below[n % 2] = (n, p)


@lru_cache(maxsize=64)
def _plan(tuples: tuple[MomentKey, ...]):
    """Which factor rows each contraction of :func:`_sums` takes.

    A block's factor table holds, per axis, w/2 q^e for e = 0..top and then
    the same rows in absolute value.  The sums take every tuple's signed
    factors first, then its absolute ones: moments, then L1 moments.  The z
    contractions fill one stack, n by n in ascending order, with the z rows
    each n needs; ``z_picks`` are the stack rows the x-y contraction takes.
    """
    top = max((max(k[:3]) for k in tuples), default=0)
    shifts = (0, top + 1)
    x_rows = [a + d for d in shifts for a, _, _, _ in tuples]
    y_rows = [b + d for d in shifts for _, b, _, _ in tuples]
    z_keys = sorted({(n, c + d) for _, _, c, n in tuples for d in shifts})
    z_picks = [z_keys.index((n, c + d)) for d in shifts for _, _, c, n in tuples]
    z_rows = {n: [row for m, row in z_keys if m == n] for n, _ in z_keys}
    return top, x_rows, y_rows, z_rows, z_picks


def _sums(
    centers: np.ndarray, width: float, tuples: Sequence[MomentKey], order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature sums at one order for every centre: (moments, L1 moments),
    each shaped (len(tuples), len(centers)).

    The integrand x^a y^b z^c r^-n is a product of 1-D node factors and
    r^-n, so each r^-n is contracted over z once per distinct (n, c) and the
    (centre, x, y) results are contracted with the x and y factors.  The L1
    value sets the convergence scale so that moments that vanish by symmetry
    are not compared against their own rounding noise; r^-n >= 0 and the
    weights are positive, so it is the same contraction with |factor|.
    Every sum is an ``einsum`` at its default ``optimize=False``, which
    calls no BLAS: its bits do not depend on the BLAS thread count.
    """
    top, x_rows, y_rows, z_rows, z_picks = _plan(tuple(tuples))
    nodes, wts = _leggauss(order)
    offsets = 0.5 * width * nodes
    block = max(1, _POINT_BUDGET // order**3)
    # One workspace for every block: r^-2, then r^-n per n, each laid out
    # (centre, z, x, y) so the z contraction runs over contiguous x-y planes.
    # Reusing it keeps the allocator from returning and refaulting its pages.
    work = np.empty((1 + len(z_rows), min(block, len(centers))) + (order,) * 3)
    stacked = sum(len(rows) for rows in z_rows.values())
    sums = np.empty((len(x_rows), len(centers)))
    for lo in range(0, len(centers), block):
        q = centers[lo : lo + block].T[:, :, None] + offsets  # (axis, centre, node)
        inv_r2, inv_rn = work[0, : q.shape[1]], work[1:, : q.shape[1]]
        # Each 1-D factor carries w/2, so moment(0,0,0,0) is 1 to rounding.
        table = np.empty((2 * (top + 1),) + q.shape)  # (row, axis, centre, node)
        table[0] = 0.5 * wts
        for e in range(1, top + 1):
            np.multiply(table[e - 1], q, out=table[e])
        np.abs(table[: top + 1], out=table[top + 1 :])
        q2 = q * q
        xy2 = q2[0, :, :, None] + q2[1, :, None, :]
        np.add(q2[2, :, :, None, None], xy2[:, None], out=inv_r2)
        np.divide(1.0, inv_r2, out=inv_r2)
        _inverse_powers(inv_r2, list(z_rows), inv_rn)
        z_summed = np.empty((stacked, q.shape[1], order, order))
        done = 0
        for p, rows in zip(inv_rn, z_rows.values()):
            np.einsum("skij,msk->msij", p, table[rows, 2], out=z_summed[done : done + len(rows)])
            done += len(rows)
        yz_summed = np.einsum("tsij,tsj->tsi", z_summed[z_picks], table[y_rows, 1])
        np.einsum("tsi,tsi->ts", yz_summed, table[x_rows, 0], out=sums[:, lo : lo + block])
    return sums[: len(tuples)], sums[len(tuples) :]


def _batch_moments(
    centers: np.ndarray, width: float, tuples: Sequence[MomentKey], rel_tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Converged (moments, L1 moments) for packets of one width at ``centers``.

    Each centre starts at the lowest order and moves up only while two
    consecutive orders of any of its moments differ by more than
    ``rel_tol`` times that moment's L1 value; converged centres drop out.
    Both arrays are shaped (len(tuples), len(centers)).
    """
    values = np.empty((len(tuples), len(centers)))
    l1 = np.empty_like(values)
    todo = np.arange(len(centers))
    prev, _ = _sums(centers, width, tuples, _GL_ORDERS[0])
    for order in _GL_ORDERS[1:]:
        cur, cur_l1 = _sums(centers[todo], width, tuples, order)
        done = np.all(np.abs(cur - prev) <= rel_tol * np.maximum(cur_l1, 1e-300), axis=0)
        values[:, todo[done]] = cur[:, done]
        l1[:, todo[done]] = cur_l1[:, done]
        todo, prev = todo[~done], cur[:, ~done]
        if not todo.size:
            return values, l1
    raise NumericalError(
        f"moment quadrature failed to converge to {rel_tol} by order {_GL_ORDERS[-1]} "
        f"for {todo.size} of {len(centers)} packet(s) of width {width:g}, first centred at "
        f"{centers[todo[0]].tolist()}; moments {[tuple(map(int, k)) for k in tuples]}"
    )


def moments(
    packet: WavePacket,
    tuples: Iterable[MomentKey],
    rel_tol: float = 1e-10,
) -> dict[MomentKey, float]:
    """Evaluate a batch of moments on shared quadrature nodes, adaptively.

    The Gauss-Legendre order is raised until every requested moment's
    relative change between consecutive orders drops below ``rel_tol``.
    """
    tuples = sorted(set(tuples))
    for a, b, c, n in tuples:
        if min(a, b, c, n) < 0:
            raise ValidationError(f"moment exponents must be non-negative, got {(a, b, c, n)}")
    if not tuples:
        return {}
    center = np.array([packet.center], dtype=float)
    values, _ = _batch_moments(center, packet.width, tuples, rel_tol)
    return {k: float(v) for k, v in zip(tuples, values[:, 0])}


def moment(packet: WavePacket, a: int, b: int, c: int, n: int, rel_tol: float = 1e-10) -> float:
    """Single moment < x^a y^b z^c / r^n > over the packet."""
    return moments(packet, [(a, b, c, n)], rel_tol=rel_tol)[(a, b, c, n)]


@dataclass(frozen=True)
class AccelerationProfile:
    """Sampled a_z(y) along a transverse sweep at fixed x, z and packet width.

    ``scale`` is each sample's L1 scale (see :func:`deflection.force_scale`);
    a sample with |a_z| <= ZERO_FLOOR * scale is rounding noise and counts
    as zero.  Without it only exact zeros do.
    """

    y: np.ndarray
    a_z: np.ndarray
    x: float
    z: float
    width: float
    scale: np.ndarray | None = None

    def __post_init__(self):
        if len(self.y) != len(self.a_z):
            raise ValidationError("profile arrays must have equal length")
        if self.scale is not None and len(self.scale) != len(self.a_z):
            raise ValidationError("profile arrays must have equal length")
        if len(self.y) >= 2 and not np.all(np.diff(self.y) > 0):
            raise ValidationError("profile y samples must be strictly increasing")


def acceleration_profile(
    spin: np.ndarray,
    z: float,
    x: float = 0.0,
    y_range: tuple[float, float] = (-0.5, 0.5),
    n_samples: int = 201,
    width: float = 1e-3,
    coupling_sign: int = 1,
) -> AccelerationProfile:
    """Sweep the packet center along y and contract the force at each sample.

    Works for any spin input (pure state or density matrix); the moment
    set is derived once from the state's nonzero correlators, every
    sample's moments come from one batched quadrature, and one elementwise
    contraction turns them into a_z.
    """
    if n_samples < 2:
        raise ValidationError("need at least two profile samples")
    if y_range[1] <= y_range[0]:
        raise ValidationError("y_range must be increasing")
    ys = np.linspace(y_range[0], y_range[1], n_samples)
    centers = np.column_stack([np.full_like(ys, x), ys, np.full_like(ys, z)])
    _check_packets(centers, width)
    tuples = required_tuples_for(spin)
    values, l1 = _batch_moments(centers, width, tuples)
    a_z = contract_force(spin, dict(zip(tuples, values)), coupling_sign=coupling_sign).a_z
    scale = force_scale(spin, dict(zip(tuples, l1)))
    # Both are plain 0.0, not arrays, for a state with no nonzero correlator.
    return AccelerationProfile(
        y=ys,
        a_z=np.array(np.broadcast_to(a_z, ys.shape), dtype=float),
        x=x,
        z=z,
        width=width,
        scale=np.array(np.broadcast_to(scale, ys.shape), dtype=float),
    )


def _runs(profile: AccelerationProfile) -> list[tuple[int, int, int]]:
    """Maximal runs (start, stop, sign) of same-sign samples.  Noise-level
    samples belong to no run, so they split the runs around them."""
    a = profile.a_z
    floor = 0.0 if profile.scale is None else ZERO_FLOOR * profile.scale
    signs = np.where(np.abs(a) <= floor, 0, np.sign(a)).astype(int)
    # A run starts wherever the sign changes; sentinels that match no sign
    # bound the first and the last run.
    edges = np.flatnonzero(np.diff(np.concatenate(([2], signs, [2]))))
    starts, stops = edges[:-1], edges[1:] - 1
    live = signs[starts] != 0
    return list(zip(starts[live].tolist(), stops[live].tolist(), signs[starts[live]].tolist()))


def _run_average(profile: AccelerationProfile, start: int, stop: int) -> float:
    """Trapezoidal mean of a_z over samples start..stop."""
    if start == stop:
        return float(profile.a_z[start])
    ys = profile.y[start : stop + 1]
    az = profile.a_z[start : stop + 1]
    return float(np.trapezoid(az, ys) / (ys[-1] - ys[0]))


def _crossing(profile: AccelerationProfile, i: int) -> float:
    """Linear-interpolated root between samples i and i + 1."""
    ys, az = profile.y, profile.a_z
    return float(ys[i] - az[i] * (ys[i + 1] - ys[i]) / (az[i + 1] - az[i]))


def is_noise(profile: AccelerationProfile) -> bool:
    """True when every sample is zero to rounding: the force vanishes."""
    return not _runs(profile)


def _negative_run(profile: AccelerationProfile) -> tuple[int, int]:
    """(start, stop) of the longest run of negative samples (ties: first)."""
    negative = [r for r in _runs(profile) if r[2] < 0]
    if not negative:
        raise ValidationError("no negative-acceleration samples in profile")
    start, stop, _ = max(negative, key=lambda r: r[1] - r[0])
    return start, stop


def _run_width(profile: AccelerationProfile, start: int, stop: int) -> float | None:
    """Distance between the interpolated zero crossings that bracket samples
    start..stop, or None when the run touches either end of the y range."""
    if start == 0 or stop == len(profile.y) - 1:
        return None
    return _crossing(profile, stop) - _crossing(profile, start - 1)


def region_average(profile: AccelerationProfile) -> float:
    """Trapezoidal mean of a_z over the contiguous negative-sign interval.

    With several negative runs the longest one is used (ties: first).
    """
    return _run_average(profile, *_negative_run(profile))


def region_width(profile: AccelerationProfile) -> float | None:
    """Width of the negative run that :func:`region_average` averages,
    measured as :func:`deflecting_lobe` measures its lobe; None when the run
    touches y_min or y_max."""
    return _run_width(profile, *_negative_run(profile))


def deflecting_lobe(profile: AccelerationProfile) -> tuple[float, float]:
    """(average a_z, width) of the lobe holding the peak |a_z|, either sign.

    Both come from that same lobe: the trapezoidal mean over its samples and
    the distance between the interpolated zero crossings that bracket it.
    """
    runs = _runs(profile)
    if not runs:
        raise ValidationError("no deflecting region: a_z is rounding noise at every sample")
    az = np.abs(profile.a_z)
    start, stop, _ = max(runs, key=lambda r: np.max(az[r[0] : r[1] + 1]))
    width = _run_width(profile, start, stop)
    if width is None:
        raise ValidationError(
            f"the deflecting lobe (y in [{profile.y[start]:.6g}, {profile.y[stop]:.6g}]) "
            "is not bracketed by zero crossings inside the y range; widen y_min/y_max"
        )
    return _run_average(profile, start, stop), width


def zero_crossings(profile: AccelerationProfile) -> list[float]:
    """Roots where a_z changes sign between consecutive runs: linear
    interpolation between adjacent samples, or the middle of the
    noise-level samples that separate the two runs."""
    runs = _runs(profile)
    crossings = []
    for (_, stop, s0), (start, _, s1) in zip(runs, runs[1:]):
        if s0 == s1:
            continue
        if start == stop + 1:
            crossings.append(_crossing(profile, stop))
        else:
            crossings.append(float(0.5 * (profile.y[stop + 1] + profile.y[start - 1])))
    return crossings


def profile_csv(profile: AccelerationProfile) -> str:
    """CSV rendering with 12 significant digits: header `y,a_z`, one row per sample."""
    lines = ["y,a_z"]
    for y, a in zip(profile.y, profile.a_z):
        lines.append(f"{y:.12g},{a:.12g}")
    return "\n".join(lines) + "\n"
