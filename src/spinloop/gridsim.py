"""Direct Schrodinger evolution of the two-spin wavefunction on a 3-D grid.

This is the brute-force cross-check for the perturbative deflection: the
initial packet is evolved under the full Hamiltonian

    i dPsi/ds = [ -(kappa/2) Lap + V(r) ] Psi,
    V(r) = coupling(r) / kappa + Zeeman,   kappa = hbar tau / (m l^2),

where positions are in l, times in tau, and coupling(r) is the natural-unit
dipole-dipole operator of :mod:`spinloop.fields` (whose expectation gradient
is the acceleration in l/tau^2).  A quadratic fit of <z>(t) then recovers
the initial acceleration with no perturbative input, and
:func:`discrete_acceleration` gives the grid Hamiltonian's exact value of
it, against which the time step's error is measured.

Spin basis: the grid holds the coefficients on the "magic" basis
(T_x, T_y, T_z, S) of :data:`MAGIC_BASIS`, in which the coupling is real:
g/2 (delta_ab - 3 n_a n_b) on the triplet and zero on the singlet.  Their
real and imaginary parts form one real stack, and only the components the
state and the Hamiltonian reach are carried: three (the triplet) for an
up-up packet under the coupling, four once a Zeeman term with
zeeman_particle != zeeman_loop mixes in S.  One RK4 stage is one
:meth:`GridOperator.apply`.

Discretization: 2nd-order finite-difference Laplacian and classical RK4
time stepping.  The outer layer of grid points is the Dirichlet wall: it
is held at exactly zero, so the simulated box is the (n-2)^3 interior,
one cell narrower per side than ``box_half_width``.  A wall pushes a
packet that reaches it, and the fit then measures the wall as well as the
coupling: at 32 points and half width 0.05 the ``free`` oracle variant
fits a = -0.07 (6.7 sigma) where it should fit 0.
:func:`edge_density_ratio` reads how much density sits next to the
walls: 1.5e-4 there, and 2e-8 in the preset box (half width 0.0629),
where the free fit is 3e-6, within its sigma.  The momentum stencil
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
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

from . import config, spins
from .deflection import MomentKey, contract_force, required_tuples_for
from .errors import NumericalError, ValidationError
from .packets import WavePacket, moments as quadrature_moments

_R = 1.0 / math.sqrt(2.0)
# Columns: the magic basis T_x = (dd - uu)/sqrt2, T_y = i(uu + dd)/sqrt2,
# T_z = (ud + du)/sqrt2 and S = (ud - du)/sqrt2 in the product basis
# (uu, ud, du, dd) (Hill & Wootters, PRL 78, 5022 (1997)).
MAGIC_BASIS = np.array([
    [-_R, 1j * _R, 0.0, 0.0],
    [0.0, 0.0, _R, _R],
    [0.0, 0.0, _R, -_R],
    [_R, 1j * _R, 0.0, 0.0],
])

# RK4 is stable for |lambda| dt <= 2*sqrt(2) on the imaginary axis; specs
# are rejected beyond 2.0 and defaults run far below that so that the
# amplification error stays under the norm budget.
RK4_STABILITY_LIMIT = 2.0
DEFAULT_THETA = 0.15
STEP_NORM_DRIFT_LIMIT = 1e-6
# Cells per kernel pass: 256 KiB of float64 stays in cache across the
# neighbour sums.
_BLOCK_CELLS = 32**3


# Bytes per cell for the size guard: operator fields and build temporaries
# (20 rows) and five stacks of 2 x 4 rows (a run holds four: the caller's
# initial state, its own and two RK4 buffers).  One 4-component run peaks at
# ~330 bytes per cell.
_CELL_BYTES = 8 * (20 + 5 * 8)
GRID_BYTES_BUDGET = 2 * 2**30
# Work bound of one oracle: n^3 times the steps of all its runs.  The preset
# takes 32^3 x 159 = 5.2e6 cell-steps; this allows a 64-point oracle in the
# preset's box (645 steps, 1.7e8 cell-steps at 0.24-0.35 us each on a 2-core
# Xeon, about 50 s) and refuses 100 points (1,586 steps, 1.6e9).
CELL_STEPS_BUDGET = 3 * 10**8


@dataclass(frozen=True)
class Grid:
    """Geometry of the evolution grid: n^3 points over a cube around
    ``box_center``, and the kinetic scale that sets its spectral radius."""

    points_per_axis: int
    box_center: tuple[float, float, float]
    box_half_width: float
    kinetic_scale: float

    def __post_init__(self):
        if self.points_per_axis < 8:
            raise ValidationError("grid needs at least 8 points per axis")
        need = _CELL_BYTES * self.points_per_axis**3
        if need > GRID_BYTES_BUDGET:
            raise ValidationError(
                f"grid of {self.points_per_axis}^3 points needs ~{need / 2**30:.3g} GiB, "
                f"over the {GRID_BYTES_BUDGET / 2**30:g} GiB budget"
            )
        if self.box_half_width <= 0:
            raise ValidationError("box half width must be positive")
        if self.kinetic_scale <= 0:
            raise ValidationError("kinetic scale must be positive")
        if self.min_radius() <= 0:
            raise ValidationError("grid box must exclude the dipole at the origin")

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

    def stepped(
        self, theta: float = DEFAULT_THETA, duration: float = 0.0, steps: int = 8
    ) -> GridSpec:
        """This grid at dt = stable_dt(theta), for max(ceil(duration / dt), steps) steps.

        A duration of more steps than :data:`CELL_STEPS_BUDGET` is refused
        before the steps are counted: such a run is over the budget on any
        grid, and duration / dt can overflow to inf."""
        dt = stable_dt(self, theta)
        if duration / dt > CELL_STEPS_BUDGET:
            raise ValidationError(f"a run of {duration:g} tau takes {duration / dt:.3g} steps "
                                  f"of dt {dt:.3e}, over the {CELL_STEPS_BUDGET:.3g} cell-steps "
                                  "budget")
        geometry = {f.name: getattr(self, f.name) for f in fields(Grid)}
        return GridSpec(**geometry, dt=dt, steps=max(math.ceil(duration / dt), steps))


@dataclass(frozen=True)
class GridSpec(Grid):
    """A grid with its RK4 stepping: ``steps`` steps of size ``dt``."""

    dt: float
    steps: int

    def __post_init__(self):
        super().__post_init__()
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        bound = spectral_radius_bound(self)
        if self.dt * bound > RK4_STABILITY_LIMIT:
            raise ValidationError(
                f"dt {self.dt} exceeds the RK4 stability bound {RK4_STABILITY_LIMIT / bound:.3e}"
            )

    def times(self) -> np.ndarray:
        """The times of the ``steps + 1`` states of a run, from 0."""
        return np.arange(self.steps + 1) * self.dt


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


def interaction_bound(grid: Grid) -> float:
    """Upper bound on the dimensionless coupling norm over the box."""
    return (3.0 / 2.0) / (4.0 * np.pi * grid.min_radius() ** 3) / grid.kinetic_scale


def spectral_radius_bound(grid: Grid) -> float:
    """Conservative spectral-radius estimate of the kinetic term plus the coupling."""
    return grid.kinetic_scale / 2.0 * 12.0 / grid.dx**2 + interaction_bound(grid)


def stable_dt(grid: Grid, theta: float = DEFAULT_THETA) -> float:
    """Time step with |lambda| dt = theta against the spectral-radius bound."""
    return theta / spectral_radius_bound(grid)


@dataclass
class GridState:
    """Magic-basis coefficients on the grid as one real stack; treated as
    immutable once built.

    ``stack`` has shape (2, m, n, n, n): the real parts, then the imaginary
    parts, of the coefficients on the m magic components ``first`` ..
    ``first + m - 1`` of (T_x, T_y, T_z, S) (see :data:`MAGIC_BASIS`).  The
    others are exactly zero and not stored.  :func:`initialize` keeps the
    components the spin state has weight on, and :func:`evolve` adds those
    the Hamiltonian reaches from them (the coupling links the triplet, a
    Zeeman term with zeeman_particle != zeeman_loop links T_z and S).
    ``norm2`` is the squared norm when a step has already computed it, and
    ``step`` counts the RK4 steps taken since :func:`initialize`.
    """

    stack: np.ndarray
    first: int = 0
    norm2: float | None = None
    step: int = 0

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.stack))

    def density(self) -> np.ndarray:
        """|psi|^2 per cell: the squares of the stack summed over parts and components."""
        flat = self.stack.reshape(-1, self.stack[0, 0].size)
        return np.einsum("ck,ck->k", flat, flat).reshape(self.stack.shape[2:])

    def amplitudes(self) -> np.ndarray:
        """Complex amplitudes in the product basis (uu, ud, du, dd), shape (4, n, n, n)."""
        re, im = self.stack
        basis = MAGIC_BASIS[:, self.first : self.first + len(re)]
        return np.tensordot(basis, re + 1j * im, axes=1)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # numpy's own reduction, with no temporary: np.dot is BLAS ddot, whose
    # last bits depend on the BLAS thread count
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def _squared_norm(stack: np.ndarray) -> float:
    return _dot(stack, stack)


def _edge_profile(coords: np.ndarray, center: float, width: float, ramp: float) -> np.ndarray:
    """1-D density profile: flat top with half-cosine ramps of width ``ramp``."""
    d = np.abs(coords - center) - width / 2.0
    out = np.zeros_like(coords)
    out[d <= -ramp] = 1.0
    mask = np.abs(d) < ramp
    out[mask] = 0.5 * (1.0 - np.sin(0.5 * np.pi * d[mask] / ramp))
    return out


def check_packet_fits(packet: WavePacket, grid: Grid, edge_ramp_cells: float) -> None:
    """Refuse a packet that, edge ramps included, comes within 2 cells of the
    box, so that the wall layer starts, and stays, exactly zero."""
    if edge_ramp_cells <= 0:
        raise ValidationError("edge_ramp_cells must be positive")
    extent = packet.width / 2.0 + edge_ramp_cells * grid.dx
    margin = 2.0 * grid.dx
    for i in range(3):
        if abs(packet.center[i] - grid.box_center[i]) + extent > grid.box_half_width - margin:
            raise ValidationError("packet outside box (needs >= 2 cells of margin)")


def initialize(
    packet: WavePacket,
    spin: np.ndarray,
    grid: Grid,
    momentum_z: float = 0.0,
    edge_ramp_cells: float = 3.0,
) -> GridState:
    """Square-packet profile (edge-smoothed) times a spin vector, grid-normalized.

    ``spin`` is given in the product basis (uu, ud, du, dd); the state
    carries the range of magic components on which ``spin`` has weight.
    ``momentum_z`` applies a plane-wave factor exp(i k z) so that runs with
    a nonzero initial velocity can exercise the velocity and higher-order
    checks.  The packet must fit the box (see :func:`check_packet_fits`).
    """
    spin = np.asarray(spin, dtype=complex)
    if spin.shape != (4,):
        raise ValidationError("grid initialization needs a pure 4-component spin state")
    check_packet_fits(packet, grid, edge_ramp_cells)
    ramp = edge_ramp_cells * grid.dx
    ax, ay, az = grid.axes()
    prof = (
        _edge_profile(ax, packet.center[0], packet.width, ramp)[:, None, None]
        * _edge_profile(ay, packet.center[1], packet.width, ramp)[None, :, None]
        * _edge_profile(az, packet.center[2], packet.width, ramp)[None, None, :]
    )
    amp = np.sqrt(prof).astype(complex)
    if momentum_z != 0.0:
        amp = amp * np.exp(1j * momentum_z * az)[None, None, :]
    coef = MAGIC_BASIS.conj().T @ spin
    live = np.flatnonzero(coef)
    if live.size == 0:
        raise ValidationError("grid initialization needs a nonzero spin state")
    first = int(live[0])
    psi = coef[first : live[-1] + 1, None, None, None] * amp[None]
    stack = np.stack([psi.real, psi.imag])
    total = math.sqrt(_squared_norm(stack))
    if total == 0.0:
        raise ValidationError("packet has no support on the grid")
    return GridState(stack=stack / total, first=first)


class GridOperator:
    """One RK4 stage, y -> psi + (-i dt H y) / j, on real magic-basis stacks.

    In the magic basis H is real except for the total-S_z Zeeman term, so a
    stage is "H on Im added to Re, H on Re subtracted from Im".  Each part is
    built in blocks of components about ``_BLOCK_CELLS`` cells long, so that
    every pass works on a cache-sized array.  In a block, H y / ``unit`` is
    the sum of:

    * the six-neighbour sum of the Laplacian (flat offset slices +-1, +-n
      and +-n^2), plus the diagonal field (3 kappa / dx^2 + G) / unit;
    * on the triplet, the dipole coupling g/2 (delta_ab - 3 n_a n_b) with
      g = -sign * scale / (4 pi r^3 kappa), i.e. G u - sigma q (q . u) with
      G = g/2, q = n sqrt(3 |g| / 2) and sigma = sign(g); the singlet row
      and column vanish;
    * the Zeeman term as two constant 2x2 mixes: total S_z is imaginary
      antisymmetric on (T_x, T_y) and S_z_p - S_z_l is real on (T_z, S).

    One multiply by the stage mask, dt / j * unit on the interior and 0 on
    the outer wall layer, then scales the block and clears the walls, and
    one pass adds it to (or subtracts it from) psi.  The wall layer is the
    Dirichlet ghost and is held at exactly zero, so the simulated box is
    the (n-2)^3 interior.

    ``potential`` stacks the diagonal field and q / sqrt|unit| (shape
    (4, n^3), or None without coupling).  The operator also holds the four
    stage masks (4, n^3) and two n^3 scratch rows at 32^3 (up to four on
    smaller grids): 2.5 MiB of fields at 32^3, of which ``potential`` is 1.0 MiB.
    """

    def __init__(self, spec: GridSpec, ham: GridHamiltonian):
        self.spec = spec
        self.ham = ham
        n = spec.points_per_axis
        kappa = spec.kinetic_scale if ham.include_kinetic else 0.0
        self._unit = -kappa / (2.0 * spec.dx**2) if kappa else 1.0
        self._kinetic = bool(kappa)
        self._offsets = (1, n, n * n)
        self._span_start = n * n + n + 1  # flat index of the first interior cell
        diag = 3.0 * kappa / spec.dx**2
        zp, zl = ham.zeeman_particle, ham.zeeman_loop
        # component ranges [a, b) that H couples together
        links = (((0, 3), ham.include_interaction), ((0, 2), zp + zl != 0), ((2, 4), zp != zl))
        self._links = [link for link, on in links if on]
        self.potential = None
        # (triplet, singlet) diagonal: G is zero on the singlet
        self._diag = (diag / self._unit,) * 2
        if ham.include_interaction:
            X, Y, Z = (m.reshape(-1) for m in spec.meshes())
            r = np.sqrt(X * X + Y * Y + Z * Z)
            g = -ham.coupling_sign * ham.coupling_scale / (4.0 * np.pi * spec.kinetic_scale * r**3)
            q = np.sqrt(1.5 * np.abs(g) / abs(self._unit)) / r
            self.potential = np.stack([(diag + 0.5 * g) / self._unit, q * X, q * Y, q * Z])
            self._diag = (self.potential[0], self._diag[1])
            # -(sigma / unit) q (q . u) = -sigma sign(unit) q' (q' . u)
            flip = -ham.coupling_sign * ham.coupling_scale * self._unit > 0
            self._couple = np.subtract if flip else np.add
        # Component blocks per live range; with coupling, the singlet (no G,
        # no q) is a block of its own.
        size = max(1, _BLOCK_CELLS // n**3)
        self._blocks = {}
        for first in range(4):
            for stop in range(first + 1, 5):
                edges = {*range(first, stop, size), stop}
                if ham.include_interaction and first < 3 < stop:
                    edges.add(3)
                edges = sorted(edges)
                self._blocks[first, stop] = list(zip(edges, edges[1:]))
        # Zeeman term per (part, component): (read the same part?, partner,
        # coefficient before the stage scale), or None.  Total S_z turns
        # (T_x, T_y) within a part; S_z_p - S_z_l swaps T_z and S across parts.
        spin_mix = -0.5 * (zp + zl) / self._unit
        singlet_mix = -0.5 * (zp - zl) / self._unit
        self._mixes = ([None] * 4, [None] * 4)
        for part, turn in enumerate((-spin_mix, spin_mix)):
            if turn:
                self._mixes[part][:2] = [(True, 1, turn), (True, 0, -turn)]
            if singlet_mix:
                self._mixes[part][2:] = [(False, 3, singlet_mix), (False, 2, singlet_mix)]
        # Stage scale dt / j * unit on the interior and 0 on the walls, j = 1..4:
        # (4, n^3), 1 MiB at 32^3.
        interior = np.zeros((n, n, n))
        interior[1:-1, 1:-1, 1:-1] = 1.0
        self._stage_masks = np.stack(
            [(spec.dt / j * self._unit) * interior.reshape(-1) for j in range(1, 5)]
        )
        self._dot = np.empty(n**3)
        self._tmp = np.empty((max(1, min(size, 3)), n**3))

    def closure(self, first: int, stop: int) -> tuple[int, int]:
        """Smallest range of magic components holding [first, stop) that H maps into itself."""
        grown = True
        while grown:
            grown = False
            for a, b in self._links:
                if a < stop and first < b and (a < first or stop < b):
                    first, stop, grown = min(first, a), max(stop, b), True
        return first, stop

    def apply(
        self, y: np.ndarray, psi: np.ndarray, j: int, out: np.ndarray, first: int = 0
    ) -> np.ndarray:
        """Write psi + (-i dt H y) / j into ``out``, for the stage j = 1, 2, 3 or 4.

        All three are C-contiguous real stacks of one shape (2, m, n, n, n)
        holding the magic components ``first`` .. ``first + m - 1``, a range
        that H must map into itself; ``out`` may be neither ``y`` nor ``psi``.
        The walls of ``out`` are those of ``psi``: the H y term is exactly
        zero there whatever ``y`` holds.
        """
        m = y.shape[1]
        stop = first + m
        if self.closure(first, stop) != (first, stop):
            raise ValidationError(f"H couples magic components {first}..{stop - 1} to others")
        if j not in (1, 2, 3, 4):
            raise ValidationError(f"RK4 stage {j} is not one of 1, 2, 3, 4")
        ys, ps, os = (a.reshape(2, m, -1) for a in (y, psi, out))
        mask = self._stage_masks[j - 1]
        lo = self._span_start
        tmp, dot = self._tmp, self._dot
        coupled = self.potential is not None and first == 0
        # H on Im adds into Re, H on Re subtracts from Im
        for o_part, p_part, same, src, mixes, finish in (
            (os[0], ps[0], ys[0], ys[1], self._mixes[0], np.add),
            (os[1], ps[1], ys[1], ys[0], self._mixes[1], np.subtract),
        ):
            if coupled:
                np.einsum("bk,bk->k", self.potential[1:], src[:3], out=dot)
            for c0, c1 in self._blocks[first, stop]:
                o, u = o_part[c0 - first : c1 - first], src[c0 - first : c1 - first]
                np.multiply(u, self._diag[c0 // 3], out=o)
                if self._kinetic:
                    # neighbours at flat offsets; spill-over lands on the walls only
                    of, uf = o.reshape(-1), u.reshape(-1)
                    hi = of.size - lo
                    inner = of[lo:hi]
                    for k in self._offsets:
                        inner += uf[lo - k : hi - k]
                        inner += uf[lo + k : hi + k]
                if coupled and c0 < 3:
                    q = self.potential[1 + c0 : 1 + c1]
                    self._couple(o, np.multiply(q, dot, out=tmp[: c1 - c0]), out=o)
                for c in range(c0, c1):
                    if mixes[c] is not None:
                        from_same, partner, coef = mixes[c]
                        v = (same if from_same else src)[partner - first]
                        o[c - c0] += np.multiply(v, coef, out=tmp[0])
                # stage scale on the interior, 0 on the walls (where the offset sums spill)
                np.multiply(o, mask, out=o)
                finish(p_part[c0 - first : c1 - first], o, out=o)
        return out


def _on_closure(state: GridState, operator: GridOperator) -> GridState:
    """The state on the range of magic components that H reaches from its
    own: the state itself, or a copy in a new, zero-padded stack."""
    psi, first = state.stack, state.first
    m = psi.shape[1]
    lo, hi = operator.closure(first, first + m)
    if (lo, hi) == (first, first + m):
        return state
    grown = np.zeros((2, hi - lo) + psi.shape[2:])
    grown[:, first - lo : first - lo + m] = psi
    return GridState(stack=grown, first=lo, norm2=state.norm2, step=state.step)


def evolve(
    state: GridState,
    spec: GridSpec,
    operator: GridOperator,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> GridState:
    """One RK4 step of size ``spec.dt``; errors out on a norm jump.

    H is linear and time independent, so the classical four-stage step is
    sum_{k<=4} (-i dt H)^k psi / k!, evaluated in Horner form:
    y <- psi, then y <- psi + (-i dt H y) / j for j = 4, 3, 2, 1, each
    stage one :meth:`GridOperator.apply` that alternates between two
    buffers; the second holds the new state.  The stack first grows to the
    range of magic components that H reaches from the state's.  ``out``
    gives the two buffers (stacks of the grown shape, neither of them the
    state's); without it they are allocated.
    """
    state = _on_closure(state, operator)
    psi, first = state.stack, state.first
    work, y = out if out is not None else (np.empty_like(psi), np.empty_like(psi))
    for j, src, dst in ((4, psi, work), (3, work, y), (2, y, work), (1, work, y)):
        operator.apply(src, psi, j, dst, first)
    before = state.norm2 if state.norm2 is not None else _squared_norm(psi)
    after = _squared_norm(y)
    step = state.step + 1
    if abs(after - before) > STEP_NORM_DRIFT_LIMIT * max(before, 1e-300):
        raise NumericalError(
            f"unstable step {step} (dt {spec.dt:.3e}): norm drifted by {after - before:.3e}"
        )
    return GridState(stack=y, first=first, norm2=after, step=step)


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

    Both come from one |psi|^2 pass per step, contracted against (1, z).
    Three stacks are allocated once and rotated through the steps: the
    state's and two RK4 buffers.  ``state.stack`` is read, never written.
    """
    z = spec.meshes()[2].reshape(-1)
    weights = np.stack([np.ones_like(z), z])

    def observe(state: GridState) -> np.ndarray:
        # numpy's own reduction, not a BLAS gemv whose bits depend on the thread count
        return np.einsum("ck,k->c", weights, state.density().reshape(-1))

    rows = [observe(state)]
    grown = _on_closure(state, operator)
    if grown is state:
        grown = replace(state, stack=state.stack.copy())
    state = grown
    spare = (np.empty_like(state.stack), np.empty_like(state.stack))
    for _ in range(spec.steps):
        new = evolve(state, spec, operator, out=spare)
        spare, state = (spare[0], state.stack), new
        rows.append(observe(state))
    norms, zs = np.array(rows).T
    return state, TimeSeries(t=spec.times(), z_expect=zs, norm=norms)


def _central_difference_z(stack: np.ndarray, dx: float) -> np.ndarray:
    """D = d/dz by the central difference on every row of a stack, 0 on the
    z walls: p_h = -i D is the momentum conjugate to the Laplacian."""
    d = np.zeros_like(stack)
    inner = d[..., 1:-1]
    np.subtract(stack[..., 2:], stack[..., :-2], out=inner)
    inner /= 2.0 * dx
    return d


def expect_momentum_z(state: GridState, grid: Grid) -> float:
    """<p_z> with the central-difference stencil conjugate to the Laplacian.

    With psi = a + i b per component, Re(psi* (-i d/dz) psi) = a db - b da.
    """
    re, im = state.stack
    d = _central_difference_z(state.stack, grid.dx)
    val = np.sum(re * d[1]) - np.sum(im * d[0])
    return float(val) / state.norm() ** 2


def discrete_acceleration(state: GridState, grid: Grid, ham: GridHamiltonian) -> float:
    """The grid Hamiltonian's exact d^2<z>/dt^2 at ``state``: kappa <i[V, p_h]>.

    kappa p_h = i[H, z] holds exactly on the grid, and p_h commutes with the
    Laplacian, so the Ehrenfest step one order up gives kappa i<[V, p_h]> =
    -2 kappa Im<V psi | p_h psi> = 2 kappa Re<V psi | D psi>, over the
    squared norm.  V, the potential part of ``ham``, is one
    :meth:`GridOperator.apply` with the kinetic term off: from psi = 0 at
    j = 1 it writes -i dt V psi.
    """
    spec = grid.stepped()
    operator = GridOperator(spec, replace(ham, include_kinetic=False))
    state = _on_closure(state, operator)
    psi = state.stack
    v = operator.apply(psi, np.zeros_like(psi), 1, np.empty_like(psi), state.first)
    del operator  # its fields go before D psi is built
    d = _central_difference_z(psi, grid.dx)
    # V psi = i v / dt, so Re<V psi | D psi> = (v_re . d_im - v_im . d_re) / dt
    val = _dot(v[0], d[1]) - _dot(v[1], d[0])
    return 2.0 * grid.kinetic_scale * val / (spec.dt * _squared_norm(psi))


def edge_density_ratio(state: GridState) -> float:
    """Largest |psi|^2 on the first interior layer, the cells next to the
    Dirichlet wall, over the largest |psi|^2 anywhere.  Near 0 while the
    packet stays clear of the walls; a packet that reaches them reads far
    higher, and then the walls push it."""
    dens = state.density()
    inner = dens[1:-1, 1:-1, 1:-1]
    faces = (inner[0], inner[-1], inner[:, 0], inner[:, -1], inner[:, :, 0], inner[:, :, -1])
    return float(max(face.max() for face in faces) / dens.max())


def moments_from_state(
    state: GridState, grid: Grid, tuples: Iterable[MomentKey]
) -> dict[MomentKey, float]:
    """Spatial moments of the as-discretized density, for apples-to-apples
    comparison against the perturbative contraction."""
    dens = state.density()
    dens = dens / dens.sum()
    X, Y, Z = grid.meshes()
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


def _window(t: np.ndarray, end: float) -> np.ndarray:
    """The samples t <= ``end`` of a remainder window; at least 8."""
    mask = t <= end * (1.0 + 1e-12)
    if mask.sum() < 8:
        raise ValidationError(f"window {end} holds fewer than 8 samples")
    return mask


def check_windows(t: np.ndarray, windows: Sequence[float]) -> None:
    """Refuse remainder windows over the sample times ``t`` that cannot
    give a scaling: fewer than two, or one holding fewer than 8 samples."""
    if len(windows) < 2:
        raise ValidationError("remainder scaling needs at least two windows")
    for end in windows:
        _window(t, end)


def remainder_residuals(series: TimeSeries, windows: Sequence[float]) -> list[float]:
    """RMS residual of a windowed quadratic fit, per window end time."""
    out = []
    for T in windows:
        mask = _window(series.t, T)
        fit = fit_acceleration(series.t[mask], series.z_expect[mask])
        out.append(fit.residual_rms)
    return out


def remainder_scaling(series: TimeSeries, windows: Sequence[float]) -> float:
    """Log-log slope of the beyond-quadratic residual versus window length.

    The residual left after the best quadratic fit grows like the cube of
    the window when the leading correction is a t^3 term.  If even the
    largest window's residual sits below 10x the norm-conservation error
    (scaled by max |<z>|), the measurement is noise and an error is raised.
    """
    windows = sorted(windows)
    check_windows(series.t, windows)
    residuals = remainder_residuals(series, windows)
    floor = 10.0 * series.max_norm_drift() * float(np.max(np.abs(series.z_expect)))
    if max(residuals) < floor:
        raise NumericalError(
            f"below resolution: residual {max(residuals):.3e} under noise floor {floor:.3e}"
        )
    slope = np.polyfit(np.log(np.asarray(windows)), np.log(np.asarray(residuals)), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class OracleResult:
    """One grid oracle from an up-up packet: the main run and its initial
    <p_z>; for the full variant also the Zeeman and remainder runs, both
    contractions, ``a_discrete``, and the remainder residuals and exponent.
    ``edge_density_ratio`` is the largest :func:`edge_density_ratio` over
    the final states of all runs."""

    variant: str
    spec: GridSpec
    initial: GridState
    series: TimeSeries
    fit: QuadraticFit
    edge_density_ratio: float
    initial_momentum: float
    zeeman_final: GridState | None = None
    zeeman_series: TimeSeries | None = None
    zeeman_fit: QuadraticFit | None = None
    remainder_series: TimeSeries | None = None
    a_from_grid_density: float | None = None
    a_from_quadrature: float | None = None
    a_discrete: float | None = None
    remainder_residuals: list[float] | None = None
    remainder_exponent: float | None = None


def run_oracle(cfg: dict) -> OracleResult:
    """Run and measure the grid oracle that a config's ``oracle`` section sets up.

    The main run is under the coupling for the ``full`` variant, under the
    Zeeman term alone for ``pure-zeeman`` and free for ``free``.  Every run
    steps at stable_dt(theta) for ceil(duration / dt) steps, with the
    ``theta`` of its own section: ``oracle`` for the main and Zeeman runs,
    ``oracle.remainder`` for the remainder run, which lasts until its last
    window ends.  Before any state is built, it refuses a main run of fewer
    than 8 steps, an oracle whose runs together take more than
    :data:`CELL_STEPS_BUDGET` cell-steps, a Zeeman term that puts the step
    beyond the RK4 stability limit or the first step past the norm budget
    :data:`STEP_NORM_DRIFT_LIMIT`, and remainder windows that
    :func:`check_windows` refuses.
    """
    o = cfg["oracle"]
    if o["variant"] not in ("full", "pure-zeeman", "free"):
        raise ValidationError(f"unknown oracle variant {o['variant']!r}")
    sign = config.build_params(cfg).coupling_sign
    center = tuple(o["center"])
    uu = spins.basis_state("up", "up")

    def placed(kappa: float, duration: float, run_cfg: dict) -> tuple[GridSpec, WavePacket]:
        grid = Grid(o["points"], center, o["half_width"], kappa)
        spec = grid.stepped(run_cfg["theta"], duration, steps=1)
        packet = WavePacket(center=center, width=run_cfg["packet_width"])
        check_packet_fits(packet, spec, run_cfg["edge_ramp_cells"])
        return spec, packet

    def start(spec: GridSpec, packet: WavePacket, run_cfg: dict) -> GridState:
        return initialize(
            packet, uu, spec, momentum_z=run_cfg["momentum_kick"],
            edge_ramp_cells=run_cfg["edge_ramp_cells"],
        )

    def fitted(zeeman: Sequence[float], coupled: bool = True):
        ham = GridHamiltonian(
            include_interaction=coupled, coupling_sign=sign,
            zeeman_particle=zeeman[0], zeeman_loop=zeeman[1],
        )
        final, series = run(initial, spec, GridOperator(spec, ham))
        return final, series, fit_acceleration(series.t, series.z_expect)

    # Every run's grid and packet are checked, and their work summed, before
    # the first run starts.
    spec, packet = placed(config.build_kinetic_scale(cfg), o["duration"], o)
    if spec.steps < 8:
        raise ValidationError(
            f"oracle.duration {o['duration']:g} is under 8 steps of dt {spec.dt:.3e}: "
            "the fit needs at least 8"
        )
    r = o["remainder"]  # heavy-slow regime resolving the cubic term
    steps = spec.steps
    if o["variant"] == "full":
        # fewer than two windows reach check_windows below, which refuses them
        spec_r, packet_r = placed(r["kinetic_scale"], max(r["windows"], default=0.0), r)
        steps += spec_r.steps + spec.steps  # the remainder and Zeeman runs
    if o["variant"] != "free":  # a run under the Zeeman term, at the main step
        zp, zl = o["zeeman"]
        # the Zeeman eigenvalues are +-(zp + zl) / 2 and +-(zp - zl) / 2
        radius = spectral_radius_bound(spec) + (abs(zp) + abs(zl)) / 2.0
        if spec.dt * radius > RK4_STABILITY_LIMIT:
            raise ValidationError(
                f"oracle.zeeman {[zp, zl]} puts dt {spec.dt:.3e} beyond the RK4 stability "
                f"bound {RK4_STABILITY_LIMIT / radius:.3e}"
            )
        # By Weyl's inequality every eigenvalue of H lies at least this far
        # from zero, and RK4 keeps |R(ix)|^2 = 1 - x^6/72 + x^8/576 of each
        # eigencomponent, a loss that grows with x up to sqrt(6) (x <= 2
        # here): past the norm budget the first step is certain to fail.
        x = spec.dt * (min(abs(zp + zl), abs(zp - zl)) / 2.0 - spectral_radius_bound(spec))
        loss = x**6 / 72.0 - x**8 / 576.0
        if x > 0 and loss > STEP_NORM_DRIFT_LIMIT:
            raise ValidationError(
                f"oracle.zeeman {[zp, zl]} puts dt {spec.dt:.3e} past the per-step norm "
                f"budget: RK4 loses at least {loss:.3e} of it, over {STEP_NORM_DRIFT_LIMIT:g}"
            )
    if spec.points_per_axis**3 * steps > CELL_STEPS_BUDGET:
        raise ValidationError(
            f"oracle of {steps} steps over {spec.points_per_axis}^3 points takes "
            f"{spec.points_per_axis**3 * steps:.3g} cell-steps, "
            f"over the {CELL_STEPS_BUDGET:.3g} budget"
        )
    if o["variant"] == "full":
        check_windows(spec_r.times(), r["windows"])
    initial = start(spec, packet, o)
    # Measurements follow the runs, so their temporaries do not shape the runs' heap.
    if o["variant"] != "full":
        zeeman = o["zeeman"] if o["variant"] == "pure-zeeman" else (0.0, 0.0)
        final, series, fit = fitted(zeeman, coupled=False)
        return OracleResult(o["variant"], spec, initial, series, fit, edge_density_ratio(final),
                            expect_momentum_z(initial, spec))
    # The 4-component Zeeman run sets the peak memory: it runs last, holding no spare state.
    final, series, fit = fitted((0.0, 0.0))
    edge = edge_density_ratio(final)
    del final
    state_r = start(spec_r, packet_r, r)
    ham = GridHamiltonian(coupling_sign=sign)
    final, series_r = run(state_r, spec_r, GridOperator(spec_r, ham))
    edge = max(edge, edge_density_ratio(final))
    del state_r, final
    zeeman_run = fitted(o["zeeman"])  # a uniform field must not change the fit
    edge = max(edge, edge_density_ratio(zeeman_run[0]))
    tuples = required_tuples_for(uu)

    def contraction(moments: dict[MomentKey, float]) -> float:
        return contract_force(uu, moments, coupling_sign=sign).a_z

    return OracleResult(
        "full", spec, initial, series, fit, edge, expect_momentum_z(initial, spec),
        *zeeman_run, series_r,
        a_from_grid_density=contraction(moments_from_state(initial, spec, tuples)),
        a_from_quadrature=contraction(quadrature_moments(packet, tuples)),
        a_discrete=discrete_acceleration(initial, spec, ham),
        remainder_exponent=remainder_scaling(series_r, r["windows"]),
        remainder_residuals=remainder_residuals(series_r, r["windows"]),
    )


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
