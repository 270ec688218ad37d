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

Symmetry: the quarter-turn R (x, y, z) -> (-y, x, z), taken with the spin
rotation M: T_x -> T_y, T_y -> -T_x on (T_x, T_y, T_z, S), commutes with
every term of H when the grid is centred on the z axis: the Laplacian,
whose x and y axes are the same array; the coupling, since n turns as a
vector, as the triplet does; and the Zeeman field along z, since total S_z
generates the turn and S_z_p - S_z_l is invariant.  A packet centred on
the axis is an eigenstate of it, U psi = lambda psi with U psi(r) =
M psi(R^-1 r), when its spin is up-up (lambda = -i), down-down (+i) or in
span{ud, du} (1): see :attr:`GridState.phase`.  H keeps an eigenstate
one, so the quadrant x, y >= 0 fixes it: psi(r) = (M / lambda)^k
psi(R^-k r).  Such a state holds only its quadrant box, from
:func:`initialize` to the end of :func:`run`: the cells i, j >= n // 2
plus one ghost plane on each cut face (i or j = n // 2 - 1), which the
Laplacian reads across the cut and each RK4 stage fills as the turned
image of the inner row next to the other face.  Every sum over the whole
grid (the norm, <z>, the moments, <p_z> and the discrete acceleration) is
one pairwise ``np.sum`` over the box, each cell weighted by the number of
cells it stands for (:func:`cell_weights`).  Any other state, a spin in
span{uu, dd} other than up-up or down-down among them, or any state in a
box off the axis, holds the whole grid.  This is exact up to rounding,
because the points of plane i are the mirror images of those of plane
n - 1 - i (to within an ulp of np.linspace).  Against the same state
unfolded onto the whole grid, the preset main run's <z> moves by at most
1.1e-16 and its fitted acceleration by 5e-4 of its sigma.

Discretization: 2nd-order finite-difference Laplacian and classical RK4
time stepping.  The outer layer of grid points is the Dirichlet wall: it
is held at exactly zero, so the simulated box is the (n-2)^3 interior,
one cell narrower per side than ``box_half_width``.  A wall pushes a
packet that reaches it, and the fit then measures the wall as well as the
coupling: at 32 points and half width 0.05 the ``free`` oracle variant
fits a = -0.079 (4.8 sigma) where it should fit 0.
:func:`edge_density_ratio` reads how much density sits next to the
walls: 1.5e-4 there, and 2e-8 in the preset box (half width 0.0629).
There the free fit reads -1.7e-5 (13 sigma): 4e-6 of the coupled fit,
over a sigma that the fit's 5e-16 residual makes tiny.  The momentum stencil
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

import functools
import math
import os
import pickle
import signal
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Sequence

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
# Spin part M of the quarter-turn on (T_x, T_y, T_z, S): T_x -> T_y, T_y -> -T_x.
# Integer, so that its powers take no BLAS call (see _alongside).
_QUARTER_TURN = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

# RK4 is stable for |lambda| dt <= 2*sqrt(2) on the imaginary axis; specs
# are rejected beyond 2.0 and defaults run far below that so that the
# amplification error stays under the norm budget.
RK4_STABILITY_LIMIT = 2.0
DEFAULT_THETA = 0.15
STEP_NORM_DRIFT_LIMIT = 1e-6


# Bytes per cell for the size guard: operator fields and build temporaries
# (20 rows) and five stacks of 2 x 4 rows (a run holds four: the caller's
# initial state, its own and two RK4 buffers).  One 4-component run peaks at
# ~330 bytes per cell.  The guard bounds one run: a full oracle holds two
# runs at once, one per process (the main or remainder run, and the Zeeman
# run in a forked child, see run_oracle), so its processes together can
# hold up to twice the budget.
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
    scale as required by the tau-based time variable.
    """

    include_kinetic: bool = True
    include_interaction: bool = True
    coupling_sign: int = 1
    zeeman_particle: float = 0.0
    zeeman_loop: float = 0.0

    def closure(self, first: int, stop: int) -> tuple[int, int]:
        """Smallest range of magic components holding [first, stop) that H maps into itself."""
        zp, zl = self.zeeman_particle, self.zeeman_loop
        # component ranges [a, b) that H couples together
        links = (((0, 3), self.include_interaction), ((0, 2), zp + zl != 0), ((2, 4), zp != zl))
        grown = True
        while grown:
            grown = False
            for (a, b), on in links:
                if on and a < stop and first < b and (a < first or stop < b):
                    first, stop, grown = min(first, a), max(stop, b), True
        return first, stop


def interaction_bound(grid: Grid) -> float:
    """Upper bound on the dimensionless coupling norm over the box."""
    return (3.0 / 2.0) / (4.0 * np.pi * grid.min_radius() ** 3) / grid.kinetic_scale


def spectral_radius_bound(grid: Grid) -> float:
    """Conservative spectral-radius estimate of the kinetic term plus the coupling."""
    return grid.kinetic_scale / 2.0 * 12.0 / grid.dx**2 + interaction_bound(grid)


def stable_dt(grid: Grid, theta: float = DEFAULT_THETA) -> float:
    """Time step with |lambda| dt = theta against the spectral-radius bound."""
    return theta / spectral_radius_bound(grid)


def cell_weights(n: int, phase: complex | None) -> np.ndarray:
    """Per (x, y) column of the box that a state of quarter-turn eigenvalue
    ``phase`` holds on an n-point grid (see :class:`GridState`): the number
    of the whole grid's cells that each of its cells stands for.

    Without a phase the box is the whole grid, and each cell stands for
    itself.  A quadrant cell stands for its four images, a cell of an odd
    grid's x = 0 or y = 0 face for two (two of the four half-planes that
    turn into one another lie in the quadrant), its axis column for one,
    and the ghost planes for none."""
    if phase is None:
        return np.ones((n, n, 1))
    side = n - n // 2 + 1
    weight = np.full((side, side, 1), 4.0)
    weight[0] = weight[:, 0] = 0.0
    if n % 2:
        weight[1] /= 2.0
        weight[:, 1] /= 2.0
    return weight


def box_axes(grid: Grid, phase: complex | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and z axes of the box of ``phase`` (see :func:`cell_weights`):
    the whole grid's, or from the ghost planes n // 2 - 1 on in x and y."""
    ax, ay, az = grid.axes()
    cut = grid.points_per_axis // 2 - 1 if phase is not None else 0
    return ax[cut:], ay[cut:], az


@dataclass
class GridState:
    """Magic-basis coefficients on the grid as one real stack; treated as
    immutable once built.

    ``stack`` has shape (2, m, nx, ny, n): the real parts, then the
    imaginary parts, of the coefficients on the m magic components
    ``first`` .. ``first + m - 1`` of (T_x, T_y, T_z, S) (see
    :data:`MAGIC_BASIS`), over the cells of the state's box.  The others
    are exactly zero and not stored.  :func:`initialize` keeps the
    components the spin state has weight on, and :func:`evolve` adds those
    the Hamiltonian reaches from them (the coupling links the triplet, a
    Zeeman term with zeeman_particle != zeeman_loop links T_z and S).
    ``norm2`` is the squared norm and ``z_norm2`` the sum of z |psi|^2
    (<z> times ``norm2``) when a step has already computed them, and
    ``step`` counts the RK4 steps taken since :func:`initialize`.

    ``phase`` is the eigenvalue lambda of the quarter-turn of the module
    docstring, -1j for up-up, 1j for down-down and 1 for span{ud, du}, or
    None (the default) where none is known; :func:`initialize` sets it.
    A state with a phase holds its quadrant box, nx = ny = n - n // 2 + 1,
    and one without holds the whole grid, nx = ny = n.  Every sum over the
    whole grid is :meth:`total` over the box.  The quadrant box's ghost
    planes, box index 0 in x or y, stand for no cells (weight 0): a step
    writes them as the images of the inner rows next to the other face,
    except their corner column (0, 0), which is stepped but holds no
    image.  Nothing reads it as a cell: sums weight it 0 and
    :func:`edge_density_ratio` skips the ghost planes.
    """

    stack: np.ndarray
    first: int = 0
    norm2: float | None = None
    step: int = 0
    phase: complex | None = None
    z_norm2: float | None = None

    def total(self, cells: np.ndarray) -> float:
        """The sum over the whole grid of a field given per cell of the box:
        one pairwise ``np.sum`` of it times :func:`cell_weights`.  It stays
        within about 3e-16 of an exact sum, where an ``einsum`` sum strays by
        4e-15 to 6e-15 at 32^3, so the quadrant and the whole grid agree to
        1e-15; unlike a BLAS dot, its bits do not depend on the thread count."""
        weights = cell_weights(self.stack.shape[4], self.phase)
        return float(np.sum((cells * weights).reshape(-1)))

    def norm(self) -> float:
        return math.sqrt(self.total(self.density()))

    def density(self) -> np.ndarray:
        """|psi|^2 per cell of the box: the squares of the stack summed over
        parts and components.  On the quadrant box this includes the ghost
        planes, which are no cells, and their corner column, which holds no
        image after a step (see :class:`GridState`)."""
        flat = self.stack.reshape(-1, self.stack[0, 0].size)
        return np.einsum("ck,ck->k", flat, flat).reshape(self.stack.shape[2:])

    def amplitudes(self) -> np.ndarray:
        """Complex amplitudes in the product basis (uu, ud, du, dd), shape
        (4, nx, ny, n), per cell of the box, the quadrant's ghost planes
        included as in :meth:`density`."""
        re, im = self.stack
        basis = MAGIC_BASIS[:, self.first : self.first + len(re)]
        return np.tensordot(basis, re + 1j * im, axes=1)


def _edge_profile(coords: np.ndarray, center: float, width: float, ramp: float) -> np.ndarray:
    """1-D density profile: flat top with half-cosine ramps of width ``ramp``."""
    d = np.abs(coords - center) - width / 2.0
    out = np.zeros_like(coords)
    out[d <= -ramp] = 1.0
    mask = np.abs(d) < ramp
    out[mask] = 0.5 * (1.0 - np.sin(0.5 * np.pi * d[mask] / ramp))
    return out


def _on_axis(*points: Sequence[float]) -> bool:
    """Whether every point lies on the z axis: x = y = 0 exactly."""
    return all(c == 0.0 for point in points for c in point[:2])


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
    The state carries its quarter-turn eigenvalue (see :class:`GridState`),
    and then holds its quadrant box, when the packet and the box are
    centred on the z axis and ``spin`` is up-up, down-down or in
    span{ud, du}, up to a factor.
    """
    spin = np.asarray(spin, dtype=complex)
    if spin.shape != (4,):
        raise ValidationError("grid initialization needs a pure 4-component spin state")
    check_packet_fits(packet, grid, edge_ramp_cells)
    coef = MAGIC_BASIS.conj().T @ spin
    live = np.flatnonzero(coef)
    if live.size == 0:
        raise ValidationError("grid initialization needs a nonzero spin state")
    phase = None
    if _on_axis(packet.center, grid.box_center):
        turned = _QUARTER_TURN @ coef
        phase = next((lam for lam in (1, 1j, -1j) if np.array_equal(turned, lam * coef)), None)
    ramp = edge_ramp_cells * grid.dx
    ax, ay, az = box_axes(grid, phase)
    prof = (
        _edge_profile(ax, packet.center[0], packet.width, ramp)[:, None, None]
        * _edge_profile(ay, packet.center[1], packet.width, ramp)[None, :, None]
        * _edge_profile(az, packet.center[2], packet.width, ramp)[None, None, :]
    )
    amp = np.sqrt(prof).astype(complex)
    if momentum_z != 0.0:
        amp = amp * np.exp(1j * momentum_z * az)[None, None, :]
    first = int(live[0])
    psi = coef[first : live[-1] + 1, None, None, None] * amp[None]
    state = GridState(stack=np.stack([psi.real, psi.imag]), first=first, phase=phase)
    total = state.norm()
    if total == 0.0:
        raise ValidationError("packet has no support on the grid")
    return replace(state, stack=state.stack / total)


@dataclass(frozen=True)
class _Box:
    """The fields of one box of cells that :meth:`GridOperator.apply` runs
    its passes over, each flat over the box's cells."""

    shape: tuple[int, int, int]
    offsets: tuple[int, int, int]  # flat offsets of the z, y and x neighbours
    span: int  # flat index of cell (1, 1, 1), where the neighbour sums start
    diag: float  # the diagonal off the coupling: the Laplacian's, over unit
    potential: np.ndarray | None  # the triplet's diagonal field and the coupling vector
    masks: np.ndarray
    weight: np.ndarray  # cell_weights of the box
    z: np.ndarray  # the z axis
    dot: np.ndarray
    tmp: np.ndarray


class GridOperator:
    """One RK4 stage, y -> psi + (-i dt H y) / j, on real magic-basis stacks.

    In the magic basis H is real except for the total-S_z Zeeman term, so a
    stage is "H on Im added to Re, H on Re subtracted from Im".  Each part is
    one pass over all the stack's live rows.  Every step of it is
    elementwise per row, so a row's bits do not depend on the rows beside
    it.  H y / ``unit`` is the sum of:

    * the six-neighbour sum of the Laplacian (flat offset slices +-1, +-n
      and +-n * ny over the box), plus the diagonal: the field
      (3 kappa / dx^2 + G) / unit on the triplet under the coupling, and
      the constant 3 kappa / dx^2 / unit on the other rows;
    * on the triplet, the dipole coupling g/2 (delta_ab - 3 n_a n_b) with
      g = -sign * scale / (4 pi r^3 kappa), i.e. G u - sigma q (q . u) with
      G = g/2, q = n sqrt(3 |g| / 2) and sigma = sign(g); the singlet row
      and column vanish;
    * the Zeeman term as two row-pair updates: total S_z is imaginary
      antisymmetric on (T_x, T_y), so it turns them within a part, and
      S_z_p - S_z_l is real on (T_z, S), so it swaps them across parts.

    One multiply by the stage mask, dt / j * unit on the interior and 0 on
    the outer wall layer, then scales the part and clears the walls, and
    one pass adds it to (or subtracts it from) psi.  The wall layer is the
    Dirichlet ghost and is held at exactly zero, so the simulated box is
    the (n-2)^3 interior.

    The passes run over the box of the stacks' quarter-turn eigenvalue
    (:class:`GridState`): the whole grid, or, in a grid centred on the z
    axis, the quadrant box, (n - n // 2 + 1)^2 x n cells.  :meth:`box`
    builds a box's fields on its first use, from its own meshes: the
    diagonal field, the coupling vector q / sqrt|unit| and the four stage
    masks, each a contiguous row per cell, and scratch rows: one for q . u
    and the densities of :meth:`observe`, and three for q (q . u) under the
    coupling or one without it, whose first row also takes the Zeeman
    products and the weighted cells of :meth:`observe`.  At 32^3 the
    coupled quadrant's fields take 0.85 MiB, and the whole grid's 3.0 MiB.
    """

    def __init__(self, spec: GridSpec, ham: GridHamiltonian):
        self.spec = spec
        self.ham = ham
        kappa = spec.kinetic_scale if ham.include_kinetic else 0.0
        self._unit = -kappa / (2.0 * spec.dx**2) if kappa else 1.0
        self._kinetic = bool(kappa)
        if ham.include_interaction:
            # -(sigma / unit) q (q . u) = -sigma sign(unit) q' (q' . u)
            flip = -ham.coupling_sign * self._unit > 0
            self._couple = np.subtract if flip else np.add
        # Zeeman coefficients before the stage scale: total S_z turns (T_x, T_y)
        # within a part, S_z_p - S_z_l swaps T_z and S across parts
        self._spin_mix = -0.5 * (ham.zeeman_particle + ham.zeeman_loop) / self._unit
        self._singlet_mix = -0.5 * (ham.zeeman_particle - ham.zeeman_loop) / self._unit
        self._boxes: dict[bool, _Box] = {}

    def box(self, phase: complex | None) -> _Box:
        """The fields of the box of ``phase`` (see :func:`cell_weights`),
        built on first use; the quadrant needs a grid centred on the z axis."""
        quadrant = phase is not None
        if quadrant not in self._boxes:
            if quadrant and not _on_axis(self.spec.box_center):
                raise ValidationError("the C4 quadrant needs a box centred on the z axis")
            self._boxes[quadrant] = self._build_box(phase)
        return self._boxes[quadrant]

    def _build_box(self, phase: complex | None) -> _Box:
        spec, ham, unit = self.spec, self.ham, self._unit
        n = spec.points_per_axis
        ax, ay, az = box_axes(spec, phase)
        side = len(ax)
        cells = side * side * n
        diag = 3.0 * spec.kinetic_scale / spec.dx**2 if self._kinetic else 0.0
        potential = None
        if ham.include_interaction:
            X, Y, Z = (m.reshape(-1) for m in np.meshgrid(ax, ay, az, indexing="ij"))
            r = np.sqrt(X * X + Y * Y + Z * Z)
            g = -ham.coupling_sign / (4.0 * np.pi * spec.kinetic_scale * r**3)
            q = np.sqrt(1.5 * np.abs(g) / abs(unit)) / r
            potential = np.stack([(diag + 0.5 * g) / unit, q * X, q * Y, q * Z])
        # Stage scale dt / j * unit on the interior and 0 on the walls, j = 1..4;
        # the quadrant's ghost planes are no walls
        interior = np.zeros((side, side, n))
        lo = 1 if phase is None else 0
        interior[lo:-1, lo:-1, 1:-1] = 1.0
        masks = np.stack([(spec.dt / j * unit) * interior.reshape(-1) for j in range(1, 5)])
        return _Box(
            shape=(side, side, n), offsets=(1, n, side * n), span=side * n + n + 1,
            diag=diag / unit, potential=potential, masks=masks,
            weight=cell_weights(n, phase), z=az, dot=np.empty(cells),
            tmp=np.empty((3 if potential is not None else 1, cells)),
        )

    def apply(
        self, y: np.ndarray, psi: np.ndarray, j: int, out: np.ndarray, first: int = 0,
        phase: complex | None = None,
    ) -> np.ndarray:
        """Write psi + (-i dt H y) / j into ``out``, for the stage j = 1, 2, 3 or 4.

        All three are C-contiguous real stacks of one shape (2, m, nx, ny, n)
        over the cells of the box of ``phase``, the quarter-turn eigenvalue
        of ``y`` and ``psi`` (see :class:`GridState`), holding the magic
        components ``first`` .. ``first + m - 1``, a range that H must map
        into itself; ``out`` may be neither ``y`` nor ``psi``.  The walls of
        ``out`` are those of ``psi``: the H y term is exactly zero there
        whatever ``y`` holds.  On the quadrant box, the ghost planes of
        ``out`` are written as the turned images of its inner rows, so that
        ``out`` can be the ``y`` of the next stage.
        """
        m = y.shape[1]
        stop = first + m
        if self.ham.closure(first, stop) != (first, stop):
            raise ValidationError(f"H couples magic components {first}..{stop - 1} to others")
        if j not in (1, 2, 3, 4):
            raise ValidationError(f"RK4 stage {j} is not one of 1, 2, 3, 4")
        box = self.box(phase)
        if y.shape[2:] != box.shape:
            raise ValidationError(f"stack of cells {y.shape[2:]} is not the box {box.shape}")
        ys, ps, os = (a.reshape(2, m, -1) for a in (y, psi, out))
        mask = box.masks[j - 1]
        lo, hi = box.span, ys.shape[2] - box.span
        # under the coupling a closed range holds the triplet, or the singlet alone
        coupled = box.potential is not None and first == 0
        tri = 3 if coupled else 0  # rows on the triplet's field, the rest on the constant
        # H on Im adds into Re, H on Re subtracts from Im
        for o, p, same, src, turn, finish in (
            (os[0], ps[0], ys[0], ys[1], -self._spin_mix, np.add),
            (os[1], ps[1], ys[1], ys[0], self._spin_mix, np.subtract),
        ):
            if coupled:
                np.multiply(src[:3], box.potential[0], out=o[:3])
            np.multiply(src[tri:], box.diag, out=o[tri:])
            if self._kinetic:
                # neighbours at flat offsets, row by row; spill-over lands on
                # the walls and ghost planes only
                inner = o[:, lo:hi]
                for k in box.offsets:
                    inner += src[:, lo - k : hi - k]
                    inner += src[:, lo + k : hi + k]
            if coupled:
                np.einsum("bk,bk->k", box.potential[1:], src[:3], out=box.dot)
                q_dot = np.multiply(box.potential[1:], box.dot, out=box.tmp)
                self._couple(o[:3], q_dot, out=o[:3])
            tmp = box.tmp[0]
            if turn and first == 0:
                o[0] += np.multiply(same[1], turn, out=tmp)
                o[1] -= np.multiply(same[0], turn, out=tmp)
            if self._singlet_mix and stop == 4:
                o[2 - first] += np.multiply(src[3 - first], self._singlet_mix, out=tmp)
                o[3 - first] += np.multiply(src[2 - first], self._singlet_mix, out=tmp)
            # stage scale on the interior, 0 on the walls (where the offset sums spill)
            np.multiply(o, mask, out=o)
            finish(p, o, out=o)
        if phase is not None:
            # the ghost plane i = n//2 - 1 is the image of the row j = n - n//2
            # (box index g) under one quarter-turn, the ghost plane
            # j = n//2 - 1 that of the plane i = n - n//2 under three
            g = box.shape[2] % 2 + 1
            _turn(out[:, :, 0, 1:], out[:, :, 1:, g], phase, 1, first)
            _turn(out[:, :, 1:, 0], out[:, :, g, 1:], phase, 3, first)
        return out

    def observe(self, stack: np.ndarray, phase: complex | None = None) -> tuple[float, float]:
        """The squared norm of the state that ``stack`` holds on the box of
        ``phase`` (as in :meth:`apply`), and the sum of z |psi|^2, <z> times
        it: the bits of :meth:`GridState.total` over |psi|^2 and z |psi|^2,
        from one pass over the stack into the box's own scratch rows, which
        spares a small grid's step the allocations."""
        box = self.box(phase)
        flat = stack.reshape(-1, box.dot.size)
        dens = np.einsum("ck,ck->k", flat, flat, out=box.dot)
        # np.sum over one flat row is one pairwise sum; a weight is a power of
        # two or zero, so weighting before the multiply by z moves no bit
        row = box.tmp[0]
        cells = row.reshape(box.shape)
        np.multiply(dens.reshape(box.shape), box.weight, out=cells)
        norm2 = float(np.sum(row))
        np.multiply(cells, box.z, out=cells)
        return norm2, float(np.sum(row))


@functools.lru_cache(maxsize=None)
def _turn_rows(phase: complex, k: int, first: int, m: int) -> tuple[np.ndarray, ...]:
    """(M / phase)^k on the components ``first`` .. ``first + m - 1`` as a
    signed permutation of the rows of a real stack: per (part, component)
    row, the part and component it is read from and its sign."""
    a = np.linalg.matrix_power(_QUARTER_TURN, k) * complex(phase).conjugate() ** k
    a = a[first : first + m, first : first + m]
    real = np.block([[a.real, -a.imag], [a.imag, a.real]])
    src = np.abs(real).argmax(axis=1)
    signs = real[np.arange(2 * m), src]
    return (src // m).reshape(2, m), (src % m).reshape(2, m), signs.reshape(2, m)


def _turn(dst: np.ndarray, src: np.ndarray, phase: complex, k: int, first: int) -> None:
    """dst = (M / phase)^k src on stacks (2, m, ...) of one shape: the spin
    part of k quarter-turns of a state with eigenvalue ``phase``; the cells
    of ``src`` are those that the turns carry onto the cells of ``dst``.
    One gather and one multiply."""
    parts, comps, signs = _turn_rows(phase, k, first, dst.shape[1])
    np.multiply(src[parts, comps], signs.reshape(signs.shape + (1,) * (dst.ndim - 2)), out=dst)


def _on_closure(state: GridState, operator: GridOperator) -> GridState:
    """The state on the range of magic components that H reaches from its
    own: the state itself, or a copy in a new, zero-padded stack."""
    psi, first = state.stack, state.first
    m = psi.shape[1]
    lo, hi = operator.ham.closure(first, first + m)
    if (lo, hi) == (first, first + m):
        return state
    grown = np.zeros((2, hi - lo) + psi.shape[2:])
    grown[:, first - lo : first - lo + m] = psi
    return replace(state, stack=grown, first=lo)


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
    stage one :meth:`GridOperator.apply` on the state's box that alternates
    between two buffers; the second holds the new state.  The stack first
    grows to the range of magic components that H reaches from the
    state's.  ``out`` gives the two buffers (stacks of the grown state's
    box, neither of them the state's); without it they are allocated.  The
    state's stack is never written.

    On the quadrant box the last stage writes the ghost planes, so every
    cell of the new state but those of the planes x = 0 and y = 0 of an odd
    n (which lie on both faces) equals its image bit for bit.  The new
    state carries its ``norm2`` and ``z_norm2`` from one
    :meth:`GridOperator.observe` pass over the box; the step is refused if
    the squared norm moved by more than :data:`STEP_NORM_DRIFT_LIMIT` of
    itself.  The operator's stage masks hold its own ``dt``, so a ``spec``
    that differs from ``operator.spec`` in anything but ``steps`` is
    refused.
    """
    if spec is not operator.spec:  # callers pass the operator's own spec: no field walk
        differ = [f.name for f in fields(spec)
                  if f.name != "steps" and getattr(spec, f.name) != getattr(operator.spec, f.name)]
        if differ:
            raise ValidationError(f"spec differs from the operator's in {', '.join(differ)}: "
                                  f"the operator steps at dt {operator.spec.dt:.3e}")
    state = _on_closure(state, operator)
    psi, first, phase = state.stack, state.first, state.phase
    work, y = out if out is not None else (np.empty_like(psi), np.empty_like(psi))
    for j, src, dst in ((4, psi, work), (3, work, y), (2, y, work), (1, work, y)):
        operator.apply(src, psi, j, dst, first, phase)
    before = state.norm2 if state.norm2 is not None else operator.observe(psi, phase)[0]
    after, z_norm2 = operator.observe(y, phase)
    step = state.step + 1
    if abs(after - before) > STEP_NORM_DRIFT_LIMIT * max(before, 1e-300):
        raise NumericalError(
            f"unstable step {step} (dt {spec.dt:.3e}): norm drifted by {after - before:.3e}"
        )
    return GridState(stack=y, first=first, norm2=after, step=step, phase=phase, z_norm2=z_norm2)


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

    Every step is an :func:`evolve` on the state's box, which refuses a
    ``spec`` that is not the operator's but for ``steps``, and the final
    state holds that box too.  Three stacks of the box are rotated through
    the steps: a copy of the state's and two RK4 buffers, so ``state.stack``
    is read, never written.  The recorded norm (squared) and <z> (times it)
    are the ``norm2`` and ``z_norm2`` of each state, one
    :meth:`GridOperator.observe` pass over its box.
    """
    state = _on_closure(state, operator)
    stack = state.stack.copy()
    norm2, z_norm2 = operator.observe(stack, state.phase)
    state = replace(state, stack=stack, norm2=norm2, z_norm2=z_norm2)
    rows = [(norm2, z_norm2)]
    spare = (np.empty_like(stack), np.empty_like(stack))
    for _ in range(spec.steps):
        new = evolve(state, spec, operator, out=spare)
        spare, state = (spare[0], state.stack), new
        rows.append((state.norm2, state.z_norm2))
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


def _cell_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_c a[c] b[c] per cell, for stacks (m, nx, ny, n) of one shape."""
    return np.einsum("c...,c...->...", a, b)


def expect_momentum_z(state: GridState, grid: Grid) -> float:
    """<p_z> with the central-difference stencil conjugate to the Laplacian.

    With psi = a + i b per component, Re(psi* (-i d/dz) psi) = a db - b da.
    """
    re, im = state.stack
    d = _central_difference_z(state.stack, grid.dx)
    return state.total(_cell_dot(re, d[1]) - _cell_dot(im, d[0])) / state.total(state.density())


def discrete_acceleration(state: GridState, spec: GridSpec, ham: GridHamiltonian) -> float:
    """The grid Hamiltonian's exact d^2<z>/dt^2 at ``state``: kappa <i[V, p_h]>.

    kappa p_h = i[H, z] holds exactly on the grid, and p_h commutes with the
    Laplacian, so the Ehrenfest step one order up gives kappa i<[V, p_h]> =
    -2 kappa Im<V psi | p_h psi> = 2 kappa Re<V psi | D psi>, over the
    squared norm.  V, the potential part of ``ham``, is one
    :meth:`GridOperator.apply` with the kinetic term off: from psi = 0 at
    j = 1 it writes -i dt V psi at the ``dt`` of ``spec``, which the
    result divides out again.
    """
    operator = GridOperator(spec, replace(ham, include_kinetic=False))
    state = _on_closure(state, operator)
    psi = state.stack
    v = operator.apply(psi, np.zeros_like(psi), 1, np.empty_like(psi), state.first, state.phase)
    d = _central_difference_z(psi, spec.dx)
    # V psi = i v / dt, so Re<V psi | D psi> = (v_re . d_im - v_im . d_re) / dt
    val = state.total(_cell_dot(v[0], d[1]) - _cell_dot(v[1], d[0]))
    return 2.0 * spec.kinetic_scale * val / (spec.dt * state.total(state.density()))


def edge_density_ratio(state: GridState) -> float:
    """Largest |psi|^2 on the first interior layer, the cells next to the
    Dirichlet wall, over the largest |psi|^2 anywhere.  Near 0 while the
    packet stays clear of the walls; a packet that reaches them reads far
    higher, and then the walls push it.  On the quadrant box the layer is
    that of its outer faces, the other faces being their images, and the
    ghost planes are not read: their corner column stands for no cell and
    holds no image."""
    dens = state.density()
    inner = dens[1:-1, 1:-1, 1:-1]
    faces = [inner[-1], inner[:, -1], inner[:, :, 0], inner[:, :, -1]]
    if state.phase is None:
        faces += [inner[0], inner[:, 0]]
    else:
        dens = dens[1:, 1:]
    return float(max(face.max() for face in faces) / dens.max())


def moments_from_state(
    state: GridState, grid: Grid, tuples: Iterable[MomentKey]
) -> dict[MomentKey, float]:
    """Spatial moments of the as-discretized density, for apples-to-apples
    comparison against the perturbative contraction.  On the quadrant box
    each monomial is first averaged over the four images of its cell, the
    turns (x, y) -> (-y, x), so that x^2, say, counts as (x^2 + y^2) / 2."""
    dens = state.density()
    dens = dens / state.total(dens)
    X, Y, Z = np.meshgrid(*box_axes(grid, state.phase), indexing="ij")
    R = np.sqrt(X * X + Y * Y + Z * Z)
    images = [(X, Y), (-Y, X), (-X, -Y), (Y, -X)] if state.phase is not None else [(X, Y)]
    out = {}
    for a, b, c, n in set(tuples):
        f = dens * (sum(x**a * y**b for x, y in images) / len(images)) * Z**c
        if n:
            f = f / R**n
        out[(a, b, c, n)] = state.total(f)
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


# Log-span of the remainder windows' last samples, in steps of the shortest:
# see check_windows.
WINDOW_SPAN_STEPS = 10


def _window(t: np.ndarray, end: float) -> np.ndarray:
    """The samples t <= ``end`` of a remainder window; at least 8."""
    mask = t <= end * (1.0 + 1e-12)
    if mask.sum() < 8:
        raise ValidationError(f"window {end} holds fewer than 8 samples")
    return mask


def check_windows(t: np.ndarray, windows: Sequence[float]) -> None:
    """Refuse remainder windows over the sample times ``t`` that cannot
    give a scaling: one holding fewer than 8 samples, fewer than two
    holding different samples (equal residuals would fit a slope of 0), or
    last samples too close together to resolve the slope.

    The slope is fitted against the nominal window ends, and each end lies
    up to one step past its window's last sample.  Against log-lengths
    that span L, an error e in one of them moves the fitted exponent by
    about e / L of itself; e is largest at the shortest window, one step
    there, ln(t_(k+1) / t_k).  The last samples must span
    :data:`WINDOW_SPAN_STEPS` such steps, which keeps that error under 10%
    of the exponent, the tolerance on it of acceptance criterion 7(e)."""
    held = sorted({int(_window(t, end).sum()) for end in windows})
    if len(held) < 2:
        raise ValidationError(
            "remainder scaling needs at least two windows holding different samples"
        )
    first, last = t[held[0] - 1], t[held[-1] - 1]
    need = (t[held[0]] / first) ** WINDOW_SPAN_STEPS
    if last / first < need:
        raise ValidationError(
            f"remainder windows end too close together: their last samples span a factor "
            f"{last / first:.3g}, under the {need:.3g} that resolves the exponent"
        )


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
    zeeman_series: TimeSeries | None = None
    zeeman_fit: QuadraticFit | None = None
    remainder_series: TimeSeries | None = None
    a_from_grid_density: float | None = None
    a_from_quadrature: float | None = None
    a_discrete: float | None = None
    remainder_residuals: list[float] | None = None
    remainder_exponent: float | None = None


def _alongside(task: Callable[[], object], own: Callable[[], object]) -> tuple[object, object]:
    """(own(), task()), with ``task`` in a forked child while ``own`` runs
    here, where the process may use two CPUs; one after the other, ``own``
    first, where it may use one or cannot fork.  Either way an error of
    ``own`` comes first.

    The child shares the parent's pages, sends back its result or the
    exception it raised, pickled over a pipe, and always leaves by
    ``os._exit``.  A fork copies only the calling thread, so ``task`` must
    make no BLAS or LAPACK call, whose thread pool the child lacks.  An exception that does not survive pickling comes back
    as a NumericalError naming its type and message.  The parent reads the
    pipe to its end before it reaps the child, as a result can outgrow the
    pipe's buffer; a child that ends without a result is a NumericalError.
    If ``own`` raises, the child is killed and reaped first."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if not hasattr(os, "fork") or len(cpus) < 2:
        return own(), task()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                sent = (True, task())
            except BaseException as exc:
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = NumericalError(f"{type(exc).__name__}: {exc}")
                sent = (False, exc)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(sent, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as pipe:
            mine = own()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        done, value = pickle.loads(data)
    except Exception:
        raise NumericalError(f"forked run ended without a result (exit code {code})") from None
    if not done:
        raise value
    return mine, value


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

    Once those checks pass and the initial state is built, the ``full``
    variant runs its Zeeman run in a forked child beside the main and
    remainder runs where the process may use two CPUs, and after them
    where it may use one or cannot fork (:func:`_alongside`).  The child
    sends back the run's series and its final state's edge density ratio,
    and the series is fitted here.  The outputs are the same bits either
    way, errors come in the order main, remainder, Zeeman, and no child
    outlives the call, whether it returns or raises.
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

    def measured(zeeman: Sequence[float], coupled: bool = True) -> tuple[TimeSeries, float]:
        """A run from ``initial``: its series and its final state's edge density ratio."""
        ham = GridHamiltonian(
            include_interaction=coupled, coupling_sign=sign,
            zeeman_particle=zeeman[0], zeeman_loop=zeeman[1],
        )
        final, series = run(initial, spec, GridOperator(spec, ham))
        return series, edge_density_ratio(final)

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
        # The run holds the magic components that its H reaches from up-up's
        # (T_x, T_y); on them, by Weyl's inequality, every eigenvalue of H
        # lies at least this far from zero.  RK4 keeps |R(ix)|^2 = 1 - x^6/72
        # + x^8/576 of each eigencomponent, a loss that grows with x up to
        # sqrt(6) (x <= 2 here): past the norm budget the first step is
        # certain to fail.
        lo, hi = GridHamiltonian(include_interaction=o["variant"] == "full",
                                 zeeman_particle=zp, zeeman_loop=zl).closure(0, 2)
        gaps = [abs(zp + zl)] * (lo < 2) + [abs(zp - zl)] * (hi > 2)
        x = spec.dt * (min(gaps) / 2.0 - spectral_radius_bound(spec))
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
        series, edge = measured(zeeman, coupled=False)
        return OracleResult(o["variant"], spec, initial, series,
                            fit_acceleration(series.t, series.z_expect), edge,
                            expect_momentum_z(initial, spec))
    ham = GridHamiltonian(coupling_sign=sign)

    def main_and_remainder():
        series, edge = measured((0.0, 0.0))
        fit = fit_acceleration(series.t, series.z_expect)
        final, series_r = run(start(spec_r, packet_r, r), spec_r, GridOperator(spec_r, ham))
        return series, fit, series_r, max(edge, edge_density_ratio(final))

    # The Zeeman run (a uniform field must not change the fit), the costliest
    # with four components, is the forked task, and runs last inline.  Its
    # series is fitted here, so that the child makes no BLAS or LAPACK call.
    (series, fit, series_r, edge), (series_z, edge_z) = _alongside(
        lambda: measured(o["zeeman"]), main_and_remainder
    )
    tuples = required_tuples_for(uu)

    def contraction(moments: dict[MomentKey, float]) -> float:
        return contract_force(uu, moments, coupling_sign=sign).a_z

    return OracleResult(
        "full", spec, initial, series, fit, max(edge, edge_z), expect_momentum_z(initial, spec),
        series_z, fit_acceleration(series_z.t, series_z.z_expect), series_r,
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
