"""Square-wavepacket spatial moments and the transverse acceleration profile.

A square packet has uniform probability density 1/width^3 over a cube.

Profiles.  The bracket of each correlator C_ij is (1/3) d_i d_j d_z (1/r),
so a packet's z-acceleration is a_z = sign/(4 pi) sum_ij C_ij <T_ij> with
T_ij = d_i d_j d_z (1/r) averaged over the cube.  1/r is harmonic, so
T_zz = -T_xx - T_yy and the trace of C drops out: the diagonal enters as
C_xx - C_zz and C_yy - C_zz only, and an isotropic C (the singlet) gives
exactly 0.0.  Each sample takes one of two rules, by the packet width w
against its centre's distance |c|:

* w >= ``CORNER_SWITCH`` |c|: the exact cube average, (1/w^3) times the
  eight-corner alternating sum of antiderivatives G_ij with
  d_x d_y d_z G_ij = T_ij, as in the rectangular-prism formulas of geodesy
  (Nagy, Geophysics 31, 362 (1966); Nagy, Papp & Benedek, J. Geodesy 74,
  552 (2000)).  G_xy = 1/r, G_xx = -x [y/r] / (x^2 + z^2) and
  G_xz = -z [y/r] / (x^2 + z^2), and G_yy, G_yz the same with x and y
  swapped.  [y/r] is differenced along y in closed form, which neither
  cancels nor divides by x^2 + z^2 where a corner lies on an axis.
* w < ``CORNER_SWITCH`` |c|: a fixed 5-point tensor Gauss-Legendre rule of
  the point integrand, with no order escalation.  There it is accurate to
  a few 1e-14 of the L1 scale, while the corner sum cancels to (|c| / w)^2
  times its rounding.

Every sample also carries its L1 scale: the fixed rule's average of the
integrand's two terms taken in absolute value.  A sample with
|a_z| <= ``ZERO_FLOOR`` times it is rounding noise.  Each sample's
arithmetic does not depend on the others, so a one-centre call returns the
same bits as that centre inside a profile.

Moments.  :func:`moments` evaluates < x^a y^b z^c / r^n > (for the
oracle's contraction, the self-test and as the tests' independent
reference) with tensor-product Gauss-Legendre quadrature whose order is
escalated until two consecutive orders agree to a relative tolerance; the
integrand is smooth on the cube (the origin is excluded by construction)
so convergence is spectral.  The kernel is a plain tensor sum, batched over
centres in blocks of at most ``_POINT_BUDGET`` nodes: per block it builds
the weights over r^n once per distinct n, and each moment is their product
with x^a y^b z^c, summed over the cube.  It also returns each moment's L1
value (the same sum of |integrand|), which sets the convergence scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .deflection import MomentKey, spin_correlators
from .errors import NumericalError, ValidationError

_GL_ORDERS = (6, 10, 14, 20, 28, 40, 56)
# Quadrature nodes (centres x order^3) per vectorised block: bounds the
# working set to a few hundred KiB per array whatever the sample count.
_POINT_BUDGET = 2**14
# Profile samples whose width is at least this share of their centre's
# distance take the corner sum; narrower ones the fixed rule of this order.
CORNER_SWITCH = 0.1
_RULE_ORDER = 5
# |a_z| at or below this share of its L1 scale is rounding noise: both
# rules' error stays under ~2e-13 of the scale, the worst near z = 0.
ZERO_FLOOR = 1e-12
# The moment quadrature takes x^a y^b z^c / r^n with a + b + c and n at
# most MAX_MOMENT_POWER; r^7 overflows past max_float**(1/7) ~ 1.1e44 l
MAX_MOMENT_POWER = 7
FAR_FIELD_RADIUS = 1e40
# and underflows inside min_normal**(1/7) ~ 1.1e-44 l; the profile rules
# have more room on both sides (see README).
NEAR_FIELD_RADIUS = 1e-40


def _check_packets(centers: np.ndarray, width: float) -> None:
    """Reject packets whose moments are undefined; ``centers`` is (s, 3)."""
    if width <= 0:
        raise ValidationError("packet width must be positive")
    if not np.all(np.isfinite(centers)):
        raise ValidationError("packet center must be finite")
    # hypot, not a norm: squaring a coordinate of 1e200 overflows, and of 1e-200 underflows.
    farthest = np.max(np.hypot.reduce(np.abs(centers) + width / 2.0, axis=1))
    if farthest > FAR_FIELD_RADIUS:
        raise ValidationError(f"packet lies beyond the far-field radius: its farthest point "
                              f"is {farthest:.3g} l out, over {FAR_FIELD_RADIUS:.0e} l")
    # The closed ball around the cube must exclude the point dipole.
    if np.any(np.hypot.reduce(centers, axis=1) <= math.sqrt(3.0) * width / 2.0):
        raise ValidationError("singular support: packet cube touches the origin")
    nearest = np.min(np.hypot.reduce(np.maximum(np.abs(centers) - width / 2.0, 0.0), axis=1))
    if nearest < NEAR_FIELD_RADIUS:
        raise ValidationError(f"packet lies inside the near-field radius: its nearest point is "
                              f"{nearest:.3g} l from the dipole, under {NEAR_FIELD_RADIUS:.0e} l")


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


def _sums(
    centers: np.ndarray, width: float, tuples: Sequence[MomentKey], order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature sums at one order for every centre: (moments, L1 moments),
    each shaped (len(tuples), len(centers)).

    The L1 value sets the convergence scale so that moments that vanish by
    symmetry are not compared against their own rounding noise.  A centre's
    sums are elementwise products over its own cube and one pairwise
    ``np.sum`` each, so its bits do not depend on the centres that share its
    block, and no BLAS is called.
    """
    nodes, wts = _leggauss(order)
    offsets = 0.5 * width * nodes
    # Normalised so that moment(0, 0, 0, 0) is 1 to rounding.
    weights = wts[:, None, None] * wts[:, None] * wts / 8.0
    block = max(1, _POINT_BUDGET // order**3)
    sums = np.empty((2, len(tuples), len(centers)))
    for lo in range(0, len(centers), block):
        q = centers[lo : lo + block, :, None] + offsets  # (centre, axis, node)
        x, y, z = q[:, 0, :, None, None], q[:, 1, None, :, None], q[:, 2, None, None, :]
        r = np.sqrt((x * x + y * y) + z * z)
        weighted = {n: weights / r**n for n in {n for *_, n in tuples}}
        term = np.empty_like(r)
        flat = term.reshape(len(q), -1)  # one row per centre
        for k, (a, b, c, n) in enumerate(tuples):
            np.multiply(x**a * y**b, z**c, out=term)
            term *= weighted[n]
            sums[0, k, lo : lo + block] = flat.sum(axis=1)
            sums[1, k, lo : lo + block] = np.abs(flat, out=flat).sum(axis=1)
    return sums[0], sums[1]


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
    A key (a, b, c, n) needs non-negative exponents with a + b + c and n
    at most :data:`MAX_MOMENT_POWER`, the power that the field radii are
    derived for; any other key is refused.
    """
    tuples = sorted(set(tuples))
    for a, b, c, n in tuples:
        if min(a, b, c, n) < 0 or max(a + b + c, n) > MAX_MOMENT_POWER:
            raise ValidationError(f"moment key {(a, b, c, n)} needs non-negative exponents with "
                                  f"a + b + c and n at most {MAX_MOMENT_POWER}")
    if not tuples:
        return {}
    center = np.array([packet.center], dtype=float)
    values, _ = _batch_moments(center, packet.width, tuples, rel_tol)
    return {k: float(v) for k, v in zip(tuples, values[:, 0])}


def moment(packet: WavePacket, a: int, b: int, c: int, n: int, rel_tol: float = 1e-10) -> float:
    """Single moment < x^a y^b z^c / r^n > over the packet."""
    return moments(packet, [(a, b, c, n)], rel_tol=rel_tol)[(a, b, c, n)]


def _coefficients(C: np.ndarray) -> tuple[float, float, float, float, float]:
    """(k_xx, k_yy, k_xy, k_xz, k_yz) with sum_ij C_ij T_ij = sum k_ab T_ab:
    T_zz = -T_xx - T_yy takes the trace out by differences, exactly."""
    return (C[0, 0] - C[2, 2], C[1, 1] - C[2, 2], C[0, 1] + C[1, 0],
            C[0, 2] + C[2, 0], C[1, 2] + C[2, 1])


def _rule_sums(k, centers: np.ndarray, width: float) -> np.ndarray:
    """(sum k_ab <T_ab>, its L1 scale) per centre by the fixed rule, shaped (2, s).

    The point integrand is (3 lin - 15 z quad / r^2) / r^5 with
    lin = (k_xx + k_yy) z + k_xz x + k_yz y and
    quad = k_xx x^2 + k_yy y^2 + k_xy x y + (k_xz x + k_yz y) z;
    the scale averages its two terms in absolute value.  Node axes lead and
    centres run along the last axis.  The weighted sum takes one node axis
    at a time by elementwise products, so a centre's bits do not depend on
    the centres that share its block, and no BLAS is called.
    """
    k_xx, k_yy, k_xy, k_xz, k_yz = k
    n = _RULE_ORDER
    nodes, wts = _leggauss(n)
    offsets, half_weights = 0.5 * width * nodes, 0.5 * wts
    block = _POINT_BUDGET // n**3
    sums = np.empty((2, len(centers)))
    for lo in range(0, len(centers), block):
        q = offsets[:, None] + centers[lo : lo + block].T[:, None, :]  # (axis, node, centre)
        x, y, z = q[0, :, None, None], q[1, None, :, None], q[2, None, None, :]
        # The result rows hold r^-2 and r^-5 until each is last used: with
        # `quad`, three node arrays at most are alive.
        terms = np.empty((2, n, n, n, q.shape[2]))
        inv_r2, inv_r5 = terms
        np.add(x * x + y * y, z * z, out=inv_r2)
        np.divide(1.0, inv_r2, out=inv_r2)
        np.sqrt(inv_r2, out=inv_r5)
        inv_r5 *= inv_r2
        inv_r5 *= inv_r2
        lin, quad = (k_xx + k_yy) * z, k_xx * (x * x) + k_yy * (y * y) + k_xy * (x * y)
        if k_xz or k_yz:  # skipped when zero: that saves passes over the nodes, not values
            lin = lin + (k_xz * x + k_yz * y)
            quad = quad + (k_xz * x + k_yz * y) * z
        quad = quad * (-15.0 * z)
        quad *= inv_r2
        lin = np.multiply(3.0 * lin, inv_r5, out=terms[0])
        quad *= inv_r5
        np.abs(lin, out=terms[1])
        lin += quad
        terms[1] += np.abs(quad, out=quad)
        for _ in range(3):
            terms = sum(w * t for w, t in zip(half_weights, terms.swapaxes(0, 1)))
        sums[:, lo : lo + block] = terms
    return sums


def _pair(u0: np.ndarray, u1: np.ndarray, rho2: np.ndarray):
    """(u1/r1 - u0/r0) / rho2 with r^2 = u^2 + rho2, and (r0, r1).

    Ends of one sign take rho2 (u1^2 - u0^2) / (r0 r1 (u1 r0 + u0 r1)) for the
    difference, which neither cancels nor needs rho2 > 0; otherwise the two
    terms add, and rho2 > 0 because the cube avoids the origin.
    """
    r0, r1 = np.sqrt(u0 * u0 + rho2), np.sqrt(u1 * u1 + rho2)
    same = u0 * u1 > 0
    stable = (u1 - u0) * (u1 + u0) / np.where(same, r0 * r1 * (u1 * r0 + u0 * r1), 1.0)
    return np.where(same, stable, (u1 / r1 - u0 / r0) / np.where(same, 1.0, rho2)), r0, r1


def _corner_sums(k, centers: np.ndarray, width: float) -> np.ndarray:
    """sum k_ab <T_ab> per centre, exactly, by the eight-corner sum.

    G_xx, G_xz and G_xy = 1/r are differenced along y, G_yy and G_yz along
    x; what remains alternates over the four corners of the other two axes.
    """
    k_xx, k_yy, k_xy, k_xz, k_yz = k
    # (end, axis, centre), the upper end first: corners alternate +, -.
    ends = np.stack([centers + 0.5 * width, centers - 0.5 * width]).transpose(0, 2, 1)
    (x1, y1, z1), (x0, y0, z0) = ends
    x, y, z = ends[:, None, 0], ends[:, None, 1], ends[None, :, 2]  # (end, end, centre)
    p, r0, r1 = _pair(y0, y1, x * x + z * z)
    inv_r = -(y1 - y0) * (y1 + y0) / (r0 * r1 * (r0 + r1))  # 1/r1 - 1/r0
    along_y = k_xy * inv_r - (k_xx * x + k_xz * z) * p
    along_x = -(k_yy * y + k_yz * z) * _pair(x0, x1, y * y + z * z)[0]
    t = along_y + along_x
    return ((t[0, 0] - t[0, 1]) - (t[1, 0] - t[1, 1])) / width**3


def accelerations(
    spin: np.ndarray, centers, width: float, coupling_sign: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(a_z, L1 scale) of packets of one width at ``centers`` ((s, 3)).

    Works for any spin input (pure state or density matrix).  Samples of
    width at least ``CORNER_SWITCH`` times their centre's distance take the
    corner sum, the rest the fixed rule (see the module docstring).
    """
    centers = np.asarray(centers, dtype=float)
    _check_packets(centers, width)
    k = _coefficients(spin_correlators(spin))
    total, scale = _rule_sums(k, centers, width)
    wide = width >= CORNER_SWITCH * np.hypot.reduce(centers, axis=1)
    if np.any(wide):
        total[wide] = _corner_sums(k, centers[wide], width)
    # + 0.0 turns the -0.0 of a vanishing force under a negative sign into 0.0.
    return coupling_sign / (4.0 * np.pi) * total + 0.0, scale / (4.0 * np.pi)


@dataclass(frozen=True)
class AccelerationProfile:
    """Sampled a_z(y) along a transverse sweep at fixed x, z and packet width.

    ``scale`` is each sample's L1 scale (see :func:`accelerations`); a
    sample with |a_z| <= ZERO_FLOOR * scale is rounding noise and counts
    as zero.  At a zero scale only exact zeros do.
    """

    y: np.ndarray
    a_z: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if not len(self.y) == len(self.a_z) == len(self.scale):
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
    """Sweep the packet center along y: :func:`accelerations` at every sample."""
    if n_samples < 2:
        raise ValidationError("need at least two profile samples")
    if y_range[1] <= y_range[0]:
        raise ValidationError("y_range must be increasing")
    ys = np.linspace(y_range[0], y_range[1], n_samples)
    centers = np.column_stack([np.full_like(ys, x), ys, np.full_like(ys, z)])
    a_z, scale = accelerations(spin, centers, width, coupling_sign)
    return AccelerationProfile(y=ys, a_z=a_z, scale=scale)


@dataclass(frozen=True)
class Lobe:
    """A maximal run of same-sign samples ``start``..``stop`` of a profile.

    ``average`` is the trapezoidal mean of a_z over its samples, ``peak``
    its largest |a_z|, and ``width`` the distance between the interpolated
    zero crossings that bracket it, or None when it touches either end of
    the y range.
    """

    start: int
    stop: int
    sign: int
    average: float
    peak: float
    width: float | None


def _crossing(profile: AccelerationProfile, i: int) -> float:
    """Linear-interpolated root between samples i and i + 1."""
    ys, az = profile.y, profile.a_z
    return float(ys[i] - az[i] * (ys[i + 1] - ys[i]) / (az[i + 1] - az[i]))


def lobes(profile: AccelerationProfile) -> list[Lobe]:
    """The profile's lobes in y order.  Noise-level samples belong to no
    lobe, so they split the lobes around them; an empty list means every
    sample is zero to rounding: the force vanishes."""
    ys, a = profile.y, profile.a_z
    signs = np.where(np.abs(a) <= ZERO_FLOOR * profile.scale, 0, np.sign(a)).astype(int)
    # A run starts wherever the sign changes; sentinels that match no sign
    # bound the first and the last run.
    edges = np.flatnonzero(np.diff(np.concatenate(([2], signs, [2]))))
    found = []
    for start, stop in zip(edges[:-1].tolist(), (edges[1:] - 1).tolist()):
        if signs[start] == 0:
            continue
        run = a[start : stop + 1]
        average = (run[0] if start == stop
                   else np.trapezoid(run, ys[start : stop + 1]) / (ys[stop] - ys[start]))
        width = (None if start == 0 or stop == len(ys) - 1
                 else _crossing(profile, stop) - _crossing(profile, start - 1))
        found.append(Lobe(start, stop, int(signs[start]), float(average),
                          float(np.max(np.abs(run))), width))
    return found


def negative_lobe(found: Sequence[Lobe]) -> Lobe:
    """The longest negative lobe of ``found`` (ties: first)."""
    negative = [lobe for lobe in found if lobe.sign < 0]
    if not negative:
        raise ValidationError("no negative-acceleration samples in profile")
    return max(negative, key=lambda lobe: lobe.stop - lobe.start)


def deflecting_lobe(found: Sequence[Lobe], y: np.ndarray) -> Lobe:
    """The lobe of ``found`` holding the peak |a_z|, either sign (ties:
    first), which must be bracketed by zero crossings; ``y`` is the
    profile's samples, to name the lobe in a refusal."""
    if not found:
        raise ValidationError("no deflecting region: a_z is rounding noise at every sample")
    lobe = max(found, key=lambda lobe: lobe.peak)
    if lobe.width is None:
        raise ValidationError(
            f"the deflecting lobe (y in [{y[lobe.start]:.6g}, {y[lobe.stop]:.6g}]) "
            "is not bracketed by zero crossings inside the y range; widen y_min/y_max"
        )
    return lobe


def zero_crossings(profile: AccelerationProfile) -> list[float]:
    """Roots where a_z changes sign between consecutive lobes: linear
    interpolation between adjacent samples, or the middle of the
    noise-level samples that separate the two lobes."""
    found = lobes(profile)
    crossings = []
    for left, right in zip(found, found[1:]):
        if left.sign == right.sign:
            continue
        if right.start == left.stop + 1:
            crossings.append(_crossing(profile, left.stop))
        else:
            crossings.append(float(0.5 * (profile.y[left.stop + 1] + profile.y[right.start - 1])))
    return crossings
