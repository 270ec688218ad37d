"""Direct Schrodinger evolution of the 4-component wavefunction on a 3-D grid.

This is the brute-force cross-check for the perturbative deflection: the
initial packet is evolved under the full Hamiltonian

    i dPsi/ds = [ -(kappa/2) Lap + V(r) ] Psi,
    V(r) = coupling(r) / kappa + Zeeman,   kappa = hbar tau / (m l^2),

where positions are in l, times in tau, and coupling(r) is the natural-unit
dipole-dipole operator of :mod:`spinloop.fields` (whose expectation gradient
is the acceleration in l/tau^2).  A quadratic fit of <z>(t) then recovers
the initial acceleration with no perturbative input.

Discretization: 2nd-order finite-difference Laplacian and classical RK4
time stepping.  The outer layer of grid points is the Dirichlet wall: it
is held at exactly zero, so the simulated box is the (n-2)^3 interior,
one cell narrower per side than ``box_half_width``.  The momentum stencil
conjugate to this Laplacian is the plain central difference, which is
what :func:`expect_momentum_z` measures, so the fitted velocity matches
kappa * <p_z> exactly up to fit error.

The square packet is represented on the grid with cosine-smoothed edges a
few cells wide: a sharp discontinuity is not representable on a grid and
its aliased spectral tail would swamp the sub-1e-10 displacement signals
measured here.  All perturbative comparisons use the moments of the
as-initialized discrete density (same packet on both sides).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .deflection import MomentKey
from .errors import NumericalError, ValidationError
from .packets import WavePacket
from .spins import embed, spin_generator

_SZ_P = embed(spin_generator("z"), "particle")
_SZ_L = embed(spin_generator("z"), "loop")

# RK4 is stable for |lambda| dt <= 2*sqrt(2) on the imaginary axis; specs
# are rejected beyond 2.0 and defaults run far below that so that the
# amplification error stays under the norm budget.
RK4_STABILITY_LIMIT = 2.0
DEFAULT_THETA = 0.15
STEP_NORM_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Geometry and stepping of the evolution grid."""

    points_per_axis: int
    box_center: tuple[float, float, float]
    box_half_width: float
    dt: float
    steps: int
    kinetic_scale: float

    def __post_init__(self):
        if self.points_per_axis < 8:
            raise ValidationError("grid needs at least 8 points per axis")
        if self.box_half_width <= 0:
            raise ValidationError("box half width must be positive")
        if self.kinetic_scale <= 0:
            raise ValidationError("kinetic scale must be positive")
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.min_radius() <= 0:
            raise ValidationError("grid box must exclude the dipole at the origin")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        bound = spectral_radius_bound(self)
        if self.dt * bound > RK4_STABILITY_LIMIT:
            raise ValidationError(
                f"dt {self.dt} exceeds the RK4 stability bound {RK4_STABILITY_LIMIT / bound:.3e}"
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.box_half_width / (self.points_per_axis - 1)

    def min_radius(self) -> float:
        return float(np.linalg.norm(self.box_center) - math.sqrt(3.0) * self.box_half_width)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        base = np.linspace(-self.box_half_width, self.box_half_width, self.points_per_axis)
        return (base + self.box_center[0], base + self.box_center[1], base + self.box_center[2])

    def meshes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ax, ay, az = self.axes()
        return np.meshgrid(ax, ay, az, indexing="ij")


@dataclass(frozen=True)
class GridHamiltonian:
    """Which Hamiltonian terms act on the grid, in dimensionless strengths.

    ``zeeman_particle`` and ``zeeman_loop`` are alpha*B0*tau and
    beta*B0*tau respectively; the coupling term is divided by the kinetic
    scale as required by the tau-based time variable.  ``coupling_scale``
    multiplies the dipole coupling (1.0 = the natural-unit strength) so
    that sensitivity checks can strengthen or weaken the interaction.
    """

    include_kinetic: bool = True
    include_interaction: bool = True
    coupling_sign: int = 1
    coupling_scale: float = 1.0
    zeeman_particle: float = 0.0
    zeeman_loop: float = 0.0


def interaction_bound(spec: GridSpec) -> float:
    """Upper bound on the dimensionless coupling norm over the box."""
    r_min = spec.min_radius()
    return (3.0 / 2.0) / (4.0 * np.pi * r_min**3) / spec.kinetic_scale


def spectral_radius_bound(spec: GridSpec, ham: GridHamiltonian | None = None) -> float:
    """Conservative spectral-radius estimate of the discrete Hamiltonian."""
    kinetic = spec.kinetic_scale / 2.0 * 12.0 / spec.dx**2
    potential = interaction_bound(spec)
    if ham is not None:
        if not ham.include_kinetic:
            kinetic = 0.0
        potential = potential * abs(ham.coupling_scale) if ham.include_interaction else 0.0
        potential += 0.5 * (abs(ham.zeeman_particle) + abs(ham.zeeman_loop))
    return kinetic + potential


def stable_dt(spec_like: GridSpec, theta: float = DEFAULT_THETA) -> float:
    """Time step with |lambda| dt = theta against the spectral-radius bound."""
    return theta / spectral_radius_bound(spec_like)


@dataclass
class GridState:
    """Spin-first amplitudes on the grid; treated as immutable once built.

    ``amplitudes`` has shape (4, n, n, n): one contiguous n^3 block per
    two-spin component (uu, ud, du, dd).  ``norm2`` is the squared norm
    when a step has already computed it.
    """

    amplitudes: np.ndarray
    norm2: float | None = None

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.amplitudes))

    def density(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=0)

    def spin_marginal(self) -> np.ndarray:
        """Reduced 4x4 spin density matrix (trace over position)."""
        flat = self.amplitudes.reshape(4, -1)
        return flat @ flat.conj().T


def _squared_norm(psi: np.ndarray) -> float:
    flat = psi.reshape(-1)
    return float(np.vdot(flat, flat).real)


def _edge_profile(coords: np.ndarray, center: float, width: float, ramp: float) -> np.ndarray:
    """1-D density profile: flat top with half-cosine ramps of width ``ramp``."""
    d = np.abs(coords - center) - width / 2.0
    out = np.zeros_like(coords)
    out[d <= -ramp] = 1.0
    mask = np.abs(d) < ramp
    out[mask] = 0.5 * (1.0 - np.sin(0.5 * np.pi * d[mask] / ramp))
    return out


def initialize(
    packet: WavePacket,
    spin: np.ndarray,
    spec: GridSpec,
    momentum_z: float = 0.0,
    edge_ramp_cells: float = 3.0,
) -> GridState:
    """Square-packet profile (edge-smoothed) times a spin vector, grid-normalized.

    ``momentum_z`` applies a plane-wave factor exp(i k z) so that runs with
    a nonzero initial velocity can exercise the velocity and higher-order
    checks.  The packet (including ramps) must sit at least 2 cells inside
    the box, so the wall layer starts, and stays, exactly zero.
    """
    spin = np.asarray(spin, dtype=complex)
    if spin.shape != (4,):
        raise ValidationError("grid initialization needs a pure 4-component spin state")
    if edge_ramp_cells <= 0:
        raise ValidationError("edge_ramp_cells must be positive")
    ramp = edge_ramp_cells * spec.dx
    extent = packet.width / 2.0 + ramp
    margin = 2.0 * spec.dx
    for i in range(3):
        if abs(packet.center[i] - spec.box_center[i]) + extent > spec.box_half_width - margin:
            raise ValidationError("packet outside box (needs >= 2 cells of margin)")
    ax, ay, az = spec.axes()
    prof = (
        _edge_profile(ax, packet.center[0], packet.width, ramp)[:, None, None]
        * _edge_profile(ay, packet.center[1], packet.width, ramp)[None, :, None]
        * _edge_profile(az, packet.center[2], packet.width, ramp)[None, None, :]
    )
    amp = np.sqrt(prof).astype(complex)
    if momentum_z != 0.0:
        amp = amp * np.exp(1j * momentum_z * az)[None, None, :]
    psi = spin[:, None, None, None] * amp[None]
    total = math.sqrt(_squared_norm(psi))
    if total == 0.0:
        raise ValidationError("packet has no support on the grid")
    return GridState(amplitudes=psi / total)


def coupling_fields(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, ham: GridHamiltonian, kinetic_scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dipole coupling / kappa as three fields D (real), P and Q.

    With n = r/|r|, a = n_z, w = n_x - i n_y and
    g = -sign * scale / (4 pi r^3 kappa), they are D = g (3a^2 - 1)/4,
    P = 3g a w / 4 and Q = 3g w^2 / 4, and in the basis (uu, ud, du, dd)
    the coupling matrix is

        [[D,  P,  P,  Q], [P*, -D, -D, -P], [P*, -D, -D, -P], [Q*, -P*, -P*, D]].

    The ud and du rows are equal, so the singlet is annihilated.
    """
    r2 = x * x + y * y + z * z
    r = np.sqrt(r2)
    g = -ham.coupling_sign * ham.coupling_scale / (4.0 * np.pi * kinetic_scale * r2 * r)
    a = z / r
    w = (x - 1j * y) / r
    D = g * (3.0 * a * a - 1.0) / 4.0
    P = 0.75 * g * a * w
    Q = 0.75 * g * w * w
    return D, P, Q


class GridOperator:
    """The RK4 stage map psi -> -i dt H psi on the spin-first grid.

    Amplitudes are handled flat, as (4, n^3).  The six Laplacian neighbours
    are the +-1, +-n and +-n^2 offset slices of each component; the outer
    wall layer is the Dirichlet ghost and is held at exactly zero, so the
    simulated box is the (n-2)^3 interior.  The Laplacian's -6/dx^2
    diagonal and the Zeeman term are one scalar per spin component, and the
    coupling is the three fields of :func:`coupling_fields`, scaled by
    -i dt and stacked as ``potential`` (shape (3, n^3), or None without
    coupling).
    """

    def __init__(self, spec: GridSpec, ham: GridHamiltonian):
        self.spec = spec
        self.ham = ham
        self.kappa = spec.kinetic_scale if ham.include_kinetic else 0.0
        self.dx = spec.dx
        step = -1j * spec.dt
        n = spec.points_per_axis
        zeeman = -(ham.zeeman_particle * _SZ_P + ham.zeeman_loop * _SZ_L).diagonal().real
        self._diag = step * (3.0 * self.kappa / self.dx**2 + zeeman)
        self._hop = step * (-self.kappa / (2.0 * self.dx**2))
        self._offsets = (1, n, n * n)
        lo = n * n + n + 1  # flat index of the first interior cell
        self._span = (lo, n**3 - lo)
        self.potential = None
        if ham.include_interaction:
            X, Y, Z = (m.reshape(-1) for m in spec.meshes())
            self.potential = step * np.stack(coupling_fields(X, Y, Z, ham, spec.kinetic_scale))
            self._work = np.empty((3, n**3), dtype=complex)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """-i dt H psi for amplitudes of shape (4, n, n, n); walls come out zero."""
        y = psi.reshape(4, -1)
        if self.kappa:
            # out = hop * (neighbour sum + (diag / hop) psi), one component
            # at a time so that each pass works on cache-sized arrays
            out = np.empty_like(y)
            lo, hi = self._span
            for o, u, ratio in zip(out, y, self._diag / self._hop):
                np.multiply(u, ratio, out=o)
                inner = o[lo:hi]
                for k in self._offsets:
                    inner += u[lo - k : hi - k]
                    inner += u[lo + k : hi + k]
                o *= self._hop
        else:
            out = y * self._diag[:, None]
        if self.potential is not None:
            self._add_coupling(y, out)
        out = out.reshape(psi.shape)
        out[:, [0, -1]] = 0.0
        out[:, :, [0, -1]] = 0.0
        out[..., [0, -1]] = 0.0
        return out

    def _add_coupling(self, y: np.ndarray, out: np.ndarray) -> None:
        # potential holds c D, c P, c Q with c = -i dt purely imaginary, so
        # c P* = -conj(c P) and c Q* = -conj(c Q).
        D, P, Q = self.potential
        s, pc, tmp = self._work
        uu, ud, du, dd = y
        np.add(ud, du, out=s)
        np.conjugate(P, out=pc)
        # uu row: c (D uu + P s + Q dd)
        out[0] += np.multiply(D, uu, out=tmp)
        out[0] += np.multiply(P, s, out=tmp)
        out[0] += np.multiply(Q, dd, out=tmp)
        # dd row: c (Q* uu - P* s + D dd) = -conj(cQ) uu + conj(cP) s + cD dd
        out[3] += np.multiply(D, dd, out=tmp)
        out[3] += np.multiply(pc, s, out=tmp)
        np.conjugate(Q, out=tmp)
        tmp *= uu
        out[3] -= tmp
        # ud and du rows: c (P* uu - D s - P dd) = -(conj(cP) uu + cD s + cP dd)
        pc *= uu
        pc += np.multiply(D, s, out=tmp)
        pc += np.multiply(P, dd, out=tmp)
        out[1] -= pc
        out[2] -= pc


def evolve(state: GridState, spec: GridSpec, operator: GridOperator) -> GridState:
    """One RK4 step of size ``spec.dt``; errors out on a norm jump.

    H is linear and time independent, so the classical four-stage step is
    sum_{k<=4} (-i dt H)^k psi / k!, evaluated in Horner form:
    y <- psi, then y <- psi + (-i dt H y) / j for j = 4, 3, 2, 1.
    """
    psi = state.amplitudes
    y = psi
    for j in (4, 3, 2, 1):
        y = operator.apply(y)
        if j > 1:
            y *= 1.0 / j
        y += psi
    before = state.norm2 if state.norm2 is not None else _squared_norm(psi)
    after = _squared_norm(y)
    if abs(after - before) > STEP_NORM_DRIFT_LIMIT * max(before, 1e-300):
        raise NumericalError(f"unstable step: norm drifted by {after - before:.3e} in one step")
    return GridState(amplitudes=y, norm2=after)


@dataclass(frozen=True)
class TimeSeries:
    """Recorded expectation trajectory: time, <z> and total norm."""

    t: np.ndarray
    z_expect: np.ndarray
    norm: np.ndarray

    def max_norm_drift(self) -> float:
        return float(np.max(np.abs(self.norm - 1.0)))


def run(state: GridState, spec: GridSpec, operator: GridOperator) -> tuple[GridState, TimeSeries]:
    """Evolve ``spec.steps`` steps recording <z> and the norm at every step.

    Both come from one |psi|^2 pass per step: the squared real and imaginary
    parts, summed over spin and contracted against (1, z) per part.
    """
    z = np.repeat(spec.meshes()[2].reshape(-1), 2)
    weights = np.stack([np.ones_like(z), z])

    def observe(psi: np.ndarray) -> np.ndarray:
        parts = psi.reshape(4, -1).view(np.float64)
        return weights @ np.einsum("ck,ck->k", parts, parts)

    rows = [observe(state.amplitudes)]
    for _ in range(spec.steps):
        state = evolve(state, spec, operator)
        rows.append(observe(state.amplitudes))
    norms, zs = np.array(rows).T
    ts = np.arange(spec.steps + 1) * spec.dt
    return state, TimeSeries(t=ts, z_expect=zs, norm=norms)


def expect_position(state: GridState, spec: GridSpec) -> np.ndarray:
    dens = state.density()
    dens = dens / dens.sum()
    X, Y, Z = spec.meshes()
    return np.array([np.sum(dens * X), np.sum(dens * Y), np.sum(dens * Z)])


def expect_momentum_z(state: GridState, spec: GridSpec) -> float:
    """<p_z> with the central-difference stencil conjugate to the Laplacian."""
    psi = state.amplitudes
    d = np.zeros_like(psi)
    d[..., 1:-1] = (psi[..., 2:] - psi[..., :-2]) / (2.0 * spec.dx)
    val = np.sum(np.conj(psi) * (-1j) * d)
    return float(val.real) / state.norm() ** 2


def moments_from_state(
    state: GridState, spec: GridSpec, tuples: Iterable[MomentKey]
) -> dict[MomentKey, float]:
    """Spatial moments of the as-discretized density, for apples-to-apples
    comparison against the perturbative contraction."""
    dens = state.density()
    dens = dens / dens.sum()
    X, Y, Z = spec.meshes()
    R = np.sqrt(X * X + Y * Y + Z * Z)
    out = {}
    for a, b, c, n in set(tuples):
        f = dens * X**a * Y**b * Z**c
        if n:
            f = f / R**n
        out[(a, b, c, n)] = float(np.sum(f))
    return out


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares z(t) ~ z0 + v0 t + (a/2) t^2 with 2-sigma coefficient scales."""

    z0: float
    v0: float
    a: float
    residual_rms: float
    sigma_v0: float
    sigma_a: float


def fit_acceleration(t: np.ndarray, z: np.ndarray) -> QuadraticFit:
    """Quadratic least-squares fit of an expectation trajectory.

    Fitted in the scaled variable s = t / max(t) so the normal equations
    stay well conditioned for arbitrarily short windows.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    if t.ndim != 1 or t.shape != z.shape:
        raise ValidationError("fit needs matching 1-D t and z arrays")
    if len(t) < 4:
        raise ValidationError("fit needs at least 4 samples")
    if not np.all(np.diff(t) > 0):
        raise ValidationError("fit needs strictly increasing times")
    scale = float(t[-1]) if t[-1] > 0 else 1.0
    s = t / scale
    A = np.vstack([np.ones_like(s), s, s * s]).T
    gram = A.T @ A
    if np.linalg.cond(gram) > 1e12:
        raise ValidationError("degenerate fit: time samples are ill-conditioned")
    coef, *_ = np.linalg.lstsq(A, z, rcond=None)
    resid = z - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    cov = np.linalg.inv(gram)
    return QuadraticFit(
        z0=float(coef[0]),
        v0=float(coef[1] / scale),
        a=float(2.0 * coef[2] / scale**2),
        residual_rms=rms,
        sigma_v0=float(2.0 * rms * np.sqrt(cov[1, 1]) / scale),
        sigma_a=float(4.0 * rms * np.sqrt(cov[2, 2]) / scale**2),
    )


def remainder_residuals(series: TimeSeries, windows: Sequence[float]) -> list[float]:
    """RMS residual of a windowed quadratic fit, per window end time."""
    out = []
    for T in windows:
        mask = series.t <= T * (1.0 + 1e-12)
        if mask.sum() < 8:
            raise ValidationError(f"window {T} holds fewer than 8 samples")
        fit = fit_acceleration(series.t[mask], series.z_expect[mask])
        out.append(fit.residual_rms)
    return out


def remainder_scaling(
    series: TimeSeries,
    windows: Sequence[float],
    length_scale: float | None = None,
) -> float:
    """Log-log slope of the beyond-quadratic residual versus window length.

    The residual left after the best quadratic fit grows like the cube of
    the window when the leading correction is a t^3 term.  If even the
    largest window's residual sits below 10x the norm-conservation error
    (scaled by ``length_scale``, default max |<z>|), the measurement is
    noise and an error is raised.
    """
    windows = sorted(windows)
    if len(windows) < 2:
        raise ValidationError("remainder scaling needs at least two windows")
    residuals = remainder_residuals(series, windows)
    if length_scale is None:
        length_scale = float(np.max(np.abs(series.z_expect)))
    floor = 10.0 * series.max_norm_drift() * length_scale
    if max(residuals) < floor:
        raise NumericalError(
            f"below resolution: residual {max(residuals):.3e} under noise floor {floor:.3e}"
        )
    slope = np.polyfit(np.log(np.asarray(windows)), np.log(np.asarray(residuals)), 1)[0]
    return float(slope)


def canonical_commutator_residual(
    g_coeffs: Sequence[float],
    points: int = 64,
    half_width: float = 1.0,
) -> float:
    """L2 residual of [g(z), p_z] - i g'(z) applied to a smooth test packet.

    1-D check with the same central-difference momentum stencil the
    evolution uses; g is a polynomial (coefficients low to high, degree
    <= 3).  The residual is O(dx^2) for smooth packets and vanishes for
    constant g.
    """
    g_coeffs = list(g_coeffs)
    if len(g_coeffs) > 4:
        raise ValidationError("polynomial degree must be <= 3")
    z = np.linspace(-half_width, half_width, points)
    dx = z[1] - z[0]
    phi = np.exp(-(z**2) / (2.0 * (half_width / 6.0) ** 2)).astype(complex)
    phi /= np.linalg.norm(phi)
    g = np.polynomial.polynomial.polyval(z, g_coeffs)
    dg = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(g_coeffs))

    # [g, p] phi in the algebraically rearranged (exactly cancelling) form
    # i [ (g_{n+1} - g_n) phi_{n+1} + (g_n - g_{n-1}) phi_{n-1} ] / (2 dx):
    # a constant g yields an exact zero, not rounding residue.
    comm = np.zeros_like(phi)
    comm[1:-1] = 1j * ((g[2:] - g[1:-1]) * phi[2:] + (g[1:-1] - g[:-2]) * phi[:-2]) / (2.0 * dx)
    residual = comm - 1j * dg * phi
    residual[0] = residual[-1] = 0.0  # stencil undefined on the walls
    return float(np.linalg.norm(residual))


def series_csv(series: TimeSeries) -> str:
    """CSV rendering with 12 significant digits: `t,z_expect,norm`."""
    lines = ["t,z_expect,norm"]
    for t, z, n in zip(series.t, series.z_expect, series.norm):
        lines.append(f"{t:.12g},{z:.12g},{n:.12g}")
    return "\n".join(lines) + "\n"
