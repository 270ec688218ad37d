"""Grid Schrodinger evolution: initialization, conservation, fits, checks.

Unit tests here run on deliberately small grids (16-24 points); the full
32-point validation lives in the acceptance suite.
"""

import contextlib
import copy
import dataclasses
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spinloop import config as cfgmod
from spinloop import deflection as dfl
from spinloop import fields, gridsim, packets, spins
from spinloop.errors import NumericalError, ValidationError

KAPPA = 0.8773534162632591  # reference kinetic scale
GEOMETRY = dict(points_per_axis=20, box_center=(0.0, 0.0, 0.4), box_half_width=0.05,
                kinetic_scale=KAPPA)
PROBE_DT = np.finfo(float).tiny  # a GridSpec built only to read stable_dt
POSITION_KEYS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
APPLY_HAMILTONIANS = {
    "free": gridsim.GridHamiltonian(include_interaction=False),
    "pure-zeeman": gridsim.GridHamiltonian(
        include_interaction=False, zeeman_particle=5.0, zeeman_loop=3.0),
    "coupled": gridsim.GridHamiltonian(),
    "coupled+zeeman": gridsim.GridHamiltonian(zeeman_particle=5.0, zeeman_loop=3.0),
}


def position(state, grid):
    """<x>, <y>, <z> of the as-discretized density."""
    m = gridsim.moments_from_state(state, grid, POSITION_KEYS)
    return np.array([m[k] for k in POSITION_KEYS])


def small_spec(points=20, steps=60, kappa=KAPPA, theta=0.15, half_width=0.05):
    return gridsim.Grid(points, (0.0, 0.0, 0.4), half_width, kappa).stepped(theta, steps=steps)


@pytest.fixture(scope="module")
def spec():
    return small_spec()


@pytest.fixture(scope="module")
def packet():
    return packets.WavePacket(center=(0.0, 0.0, 0.4), width=0.045)


@pytest.fixture(scope="module")
def uu():
    return spins.basis_state("up", "up")


class TestGridSpec:
    def test_rejects_origin_in_box(self):
        with pytest.raises(ValidationError, match="origin"):
            gridsim.Grid(16, (0.0, 0.0, 0.05), 0.05, 1.0)

    def test_rejects_unstable_dt(self):
        with pytest.raises(ValidationError, match="stability"):
            gridsim.GridSpec(dt=1000.0 * small_spec().dt, steps=1, **GEOMETRY)

    def test_axes_cover_box(self, spec):
        ax, ay, az = spec.axes()
        assert ax[0] == pytest.approx(-spec.box_half_width)
        assert az[0] == pytest.approx(0.4 - spec.box_half_width)
        assert az[-1] == pytest.approx(0.4 + spec.box_half_width)


class TestGrid:
    def test_oversized_grid_rejected(self):
        """Past the memory budget a grid is refused before any array exists."""
        with pytest.raises(ValidationError, match=r"grid of 100000\^3 points .* GiB budget"):
            gridsim.Grid(100000, (0.0, 0.0, 0.4), 0.05, KAPPA)

    def test_stable_dt_ignores_stepping_fields(self):
        """The benchmark's scan builds GridSpec(dt=<tiny>, steps=1, **geometry)
        to read stable_dt: that must give the Grid's value bit for bit."""
        grid = gridsim.Grid(**GEOMETRY)
        for dt in (PROBE_DT, grid.stepped().dt):
            spec = gridsim.GridSpec(dt=dt, steps=1, **GEOMETRY)
            assert gridsim.stable_dt(spec) == gridsim.stable_dt(grid)
            assert gridsim.stable_dt(spec, theta=0.3) == gridsim.stable_dt(grid, theta=0.3)

    def test_spec_passes_for_its_grid(self, packet, uu):
        grid = gridsim.Grid(**GEOMETRY)
        spec = grid.stepped(steps=3)
        assert isinstance(spec, gridsim.Grid) and spec.stepped(steps=3) == spec
        state = gridsim.initialize(packet, uu, grid, momentum_z=2.0)
        keys = dfl.required_tuples_for(uu) + list(POSITION_KEYS)
        for use in (
            lambda g: (g.dx, g.min_radius(), gridsim.interaction_bound(g),
                       gridsim.spectral_radius_bound(g)),
            lambda g: np.concatenate(gridsim.box_axes(g, -1j)),
            lambda g: gridsim.initialize(packet, uu, g, momentum_z=2.0).stack,
            lambda g: gridsim.expect_momentum_z(state, g),
            lambda g: list(gridsim.moments_from_state(state, g, keys).values()),
        ):
            assert np.array_equal(use(spec), use(grid))

    def test_stepped_covers_duration_with_floor(self):
        grid = gridsim.Grid(**GEOMETRY)
        dt = gridsim.stable_dt(grid, theta=0.1)
        assert grid.stepped(0.1, duration=100.5 * dt).steps == 101
        assert grid.stepped(0.1, duration=3 * dt).steps == 8
        assert grid.stepped(0.1, steps=120).steps == 120

    def test_preset_stepping_matches_probe_path(self, preset_cfg, preset_kappa, preset_oracle):
        """The oracle's main and remainder runs step as the old GridSpec probe path did."""
        o = preset_cfg["oracle"]
        r = o["remainder"]
        series_r = preset_oracle.remainder_series
        for run_cfg, kappa, duration, dt, steps, expected in (
            (o, preset_kappa, o["duration"], preset_oracle.spec.dt, preset_oracle.spec.steps, 54),
            (r, r["kinetic_scale"], max(r["windows"]), series_r.t[1], len(series_r.t) - 1, 51),
        ):
            probe = gridsim.GridSpec(
                points_per_axis=o["points"], box_center=tuple(o["center"]),
                box_half_width=o["half_width"], dt=PROBE_DT, steps=1, kinetic_scale=kappa,
            )
            probe_dt = gridsim.stable_dt(probe, theta=run_cfg["theta"])
            assert dt == probe_dt
            assert steps == math.ceil(duration / probe_dt) == expected


class TestInitialize:
    def test_unit_norm(self, spec, packet, uu):
        state = gridsim.initialize(packet, uu, spec)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_position_expectation_at_center(self, spec, packet, uu):
        state = gridsim.initialize(packet, uu, spec)
        pos = position(state, spec)
        assert np.allclose(pos, [0.0, 0.0, 0.4], atol=spec.dx)

    def test_spin_marginal_is_input(self, spec, packet):
        spin = spins.superpose(
            [spins.basis_state("up", "up"), spins.basis_state("down", "down")], [1, 1j]
        )
        state = gridsim.initialize(packet, spin, spec)
        flat = state.amplitudes().reshape(4, -1)
        rho = flat @ flat.conj().T  # trace over position
        assert np.allclose(rho, np.outer(spin, spin.conj()), atol=1e-12)

    def test_zero_momentum_for_real_packet(self, spec, packet, uu):
        state = gridsim.initialize(packet, uu, spec)
        assert abs(gridsim.expect_momentum_z(state, spec)) < 1e-10

    def test_momentum_kick(self, spec, packet, uu):
        # stencil + envelope corrections keep <p> within a few % of the kick
        k = 3.0
        state = gridsim.initialize(packet, uu, spec, momentum_z=k)
        assert gridsim.expect_momentum_z(state, spec) == pytest.approx(k, rel=0.05)

    def test_packet_outside_box_rejected(self, spec, uu):
        big = packets.WavePacket(center=(0.0, 0.0, 0.4), width=0.09)
        with pytest.raises(ValidationError, match="packet outside box"):
            gridsim.initialize(big, uu, spec)

    def test_translated_packet_expectation(self, spec, uu):
        shifted = packets.WavePacket(center=(0.005, -0.005, 0.405), width=0.02)
        state = gridsim.initialize(shifted, uu, spec, edge_ramp_cells=2.0)
        pos = position(state, spec)
        assert np.allclose(pos, [0.005, -0.005, 0.405], atol=spec.dx)


class TestEvolution:
    def test_zero_hamiltonian_is_identity(self, spec, packet, uu):
        state = gridsim.initialize(packet, uu, spec)
        op = gridsim.GridOperator(
            spec, gridsim.GridHamiltonian(include_kinetic=False, include_interaction=False)
        )
        out = gridsim.evolve(state, spec, op)
        assert np.allclose(out.stack, state.stack, atol=1e-15)

    def test_norm_conserved(self, spec, packet, uu):
        state = gridsim.initialize(packet, uu, spec)
        op = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
        _, series = gridsim.run(state, spec, op)
        assert series.max_norm_drift() < 1e-8

    def test_pure_zeeman_keeps_z_constant(self, spec, packet, uu):
        state = gridsim.initialize(packet, uu, spec)
        op = gridsim.GridOperator(
            spec,
            gridsim.GridHamiltonian(
                include_interaction=False, zeeman_particle=5.0, zeeman_loop=3.0
            ),
        )
        _, series = gridsim.run(state, spec, op)
        assert np.max(np.abs(series.z_expect - series.z_expect[0])) < 1e-10

    def test_attraction_toward_loop(self, spec, packet, uu):
        # parallel configuration at z = 0.4: negative acceleration, <z> falls
        state = gridsim.initialize(packet, uu, spec)
        op = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
        _, series = gridsim.run(state, spec, op)
        assert series.z_expect[-1] < series.z_expect[0]

    def test_spec_other_than_the_operators_refused(self, uu):
        """The operator steps at its own dt: a run recording the times of
        another theta would fit a wrong acceleration without a word."""
        spec = small_spec(points=16)
        op = gridsim.GridOperator(small_spec(points=16, theta=0.05), gridsim.GridHamiltonian())
        state = gridsim.initialize(SMALL_PACKET, uu, spec, edge_ramp_cells=2.0)
        for step in (gridsim.run, gridsim.evolve):
            with pytest.raises(ValidationError, match="spec differs from the operator's in dt"):
                step(state, spec, op)

    def test_spec_may_differ_in_steps(self, uu):
        spec = small_spec(points=16, steps=3)
        op = gridsim.GridOperator(small_spec(points=16), gridsim.GridHamiltonian())
        state = gridsim.initialize(SMALL_PACKET, uu, spec, edge_ramp_cells=2.0)
        final, series = gridsim.run(state, spec, op)
        assert final.step == 3 and series.t.tolist() == spec.times().tolist()

    def test_unstable_step_raises(self, uu):
        # a legal dt near the stability limit plus a nearly-sharp packet
        # dissipates visibly within one step and must be refused
        bound = gridsim.spectral_radius_bound(gridsim.Grid(**GEOMETRY))
        spec = gridsim.GridSpec(dt=1.95 / bound, steps=5, **GEOMETRY)
        packet = packets.WavePacket(center=(0.0, 0.0, 0.4), width=0.03)
        state = gridsim.initialize(packet, uu, spec, edge_ramp_cells=0.51)
        op = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
        with pytest.raises(NumericalError, match="unstable step"):
            for _ in range(spec.steps):
                state = gridsim.evolve(state, spec, op)

    def test_unstable_step_names_step_and_dt(self, uu):
        bound = gridsim.spectral_radius_bound(gridsim.Grid(**GEOMETRY))
        spec = gridsim.GridSpec(dt=1.95 / bound, steps=5, **GEOMETRY)
        packet = packets.WavePacket(center=(0.0, 0.0, 0.4), width=0.03)
        state = gridsim.initialize(packet, uu, spec, edge_ramp_cells=0.51)
        op = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
        with pytest.raises(NumericalError) as info:
            gridsim.run(state, spec, op)
        message = str(info.value)
        assert message.startswith("unstable step 1 ")
        assert f"dt {spec.dt:.3e}" in message

    @pytest.mark.parametrize("ham, live", [
        (gridsim.GridHamiltonian(include_interaction=False), 2),
        (gridsim.GridHamiltonian(), 3),
        (gridsim.GridHamiltonian(zeeman_particle=5.0), 4),
    ])
    def test_run_equals_evolve_steps_and_keeps_the_initial_stack(
        self, spec, packet, uu, ham, live
    ):
        """run rotates three stacks through its steps: the same bits as fresh
        evolve calls, whether the up-up stack (T_x, T_y) stays or grows, and
        the caller's stack is never written."""
        state = gridsim.initialize(packet, uu, spec, momentum_z=2.0)
        before = state.stack.copy()
        op = gridsim.GridOperator(spec, ham)
        final, _ = gridsim.run(state, spec, op)
        assert np.array_equal(state.stack, before)
        ref = state
        for _ in range(spec.steps):
            ref = gridsim.evolve(ref, spec, op)
        assert state.stack.shape[1] == 2 and final.stack.shape[1] == live
        assert np.array_equal(final.stack, ref.stack) and final.step == ref.step == spec.steps

    def test_same_bits_for_any_blas_thread_count(self):
        """Norms and observables use numpy's own reductions, not BLAS ddot or
        gemv, whose last bits can depend on the thread count (with np.dot
        for the norm, this 18-point run differs between 1 and 2 threads).
        The final state is the 10 x 10 x 18 quadrant box."""
        code = (
            "import sys; from spinloop import gridsim, packets, spins; "
            "spec = gridsim.Grid(18, (0.0, 0.0, 0.4), 0.05, %r).stepped(steps=4); "
            "state = gridsim.initialize(packets.WavePacket(center=(0.0, 0.0, 0.4), width=0.045), "
            "spins.basis_state('up', 'up'), spec, momentum_z=3.0, edge_ramp_cells=2.0); "
            "final, series = gridsim.run(state, spec, "
            "gridsim.GridOperator(spec, gridsim.GridHamiltonian())); "
            "sys.stdout.buffer.write(final.stack.tobytes() + series.z_expect.tobytes() "
            "+ series.norm.tobytes())" % KAPPA
        )
        src = str(Path(gridsim.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                                  timeout=120, check=True)
            outputs.append(done.stdout)
        assert len(outputs[0]) == 8 * (2 * 3 * 10 * 10 * 18 + 2 * 5) and outputs[0] == outputs[1]

    def test_fit_matches_contraction_coarse(self, spec, packet, uu):
        state = gridsim.initialize(packet, uu, spec)
        m = gridsim.moments_from_state(state, spec, dfl.required_tuples_for(uu))
        a_pred = dfl.contract_force(uu, m).a_z
        op = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
        _, series = gridsim.run(state, spec, op)
        fit = gridsim.fit_acceleration(series.t, series.z_expect)
        assert fit.a == pytest.approx(a_pred, rel=0.10)


def random_state(rng, n, walls_zero=True):
    """Random product-basis amplitudes (4, n, n, n), by default zero on the wall layer."""
    psi = rng.normal(size=(4, n, n, n)) + 1j * rng.normal(size=(4, n, n, n))
    if walls_zero:
        psi[:, [0, -1]] = 0.0
        psi[:, :, [0, -1]] = 0.0
        psi[:, :, :, [0, -1]] = 0.0
    return psi


def wall_layer(stack):
    return np.concatenate([
        stack[..., [0, -1], :, :].ravel(),
        stack[..., :, [0, -1], :].ravel(),
        stack[..., :, :, [0, -1]].ravel(),
    ])


U = gridsim.MAGIC_BASIS


def magic_state(psi):
    """All four magic components of product-basis amplitudes (4, n, n, n)."""
    coef = np.tensordot(U.conj().T, psi, axes=1)
    return gridsim.GridState(np.stack([coef.real, coef.imag]))


def step_map(operator, psi):
    """-i dt H psi in the product basis, through one stage with a zero psi term."""
    y = magic_state(psi).stack
    out = operator.apply(y, np.zeros_like(y), 1, np.empty_like(y))
    return gridsim.GridState(out).amplitudes()


def dense_hamiltonian_apply(spec, ham, psi):
    """H psi from a dense (n, n, n, 4, 4) potential and a six-neighbour
    Laplacian on the position-first layout, for amplitudes that are zero
    on the wall layer."""
    n = spec.points_per_axis
    coupling = fields.interaction_hamiltonian(ham.coupling_sign)
    sz_p = spins.embed(spins.spin_generator("z"), "particle")
    sz_l = spins.embed(spins.spin_generator("z"), "loop")
    V = np.zeros((n, n, n, 4, 4), dtype=complex)
    V += -(ham.zeeman_particle * sz_p + ham.zeeman_loop * sz_l)
    ax, ay, az = spec.axes()
    for i, x in enumerate(ax):
        for j, y in enumerate(ay):
            for k, z in enumerate(az):
                if ham.include_interaction:
                    V[i, j, k] += coupling.at(x, y, z) / spec.kinetic_scale
    u = np.moveaxis(psi, 0, -1)
    lap = -6.0 * u
    lap[1:-1] += u[2:] + u[:-2]
    lap[:, 1:-1] += u[:, 2:] + u[:, :-2]
    lap[:, :, 1:-1] += u[:, :, 2:] + u[:, :, :-2]
    kinetic = spec.kinetic_scale if ham.include_kinetic else 0.0
    out = (-kinetic / 2.0) * lap / spec.dx**2 + np.einsum("xyzab,xyzb->xyza", V, u)
    return np.moveaxis(out, -1, 0)


SMALL_PACKET = packets.WavePacket(center=(0.0, 0.0, 0.4), width=0.03)


def run_pair(spec, ham, spin):
    """(final state, series) from the minimal state and from all four magic components."""
    state = gridsim.initialize(SMALL_PACKET, spin, spec, momentum_z=2.0, edge_ramp_cells=2.0)
    full = np.zeros((2, 4) + state.stack.shape[2:])
    full[:, state.first : state.first + state.stack.shape[1]] = state.stack
    op = gridsim.GridOperator(spec, ham)
    return gridsim.run(state, spec, op), gridsim.run(
        gridsim.GridState(full, phase=state.phase), spec, op)


class TestStructuredKernel:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coupling_fields_match_pointwise_operator(self, rng, sign):
        """In the magic basis the coupling is real, zero on the singlet and
        g/2 (delta - 3 n n) on the triplet; the operator's fields rebuild it."""
        assert np.allclose(U.conj().T @ U, np.eye(4), atol=1e-15)
        field = fields.interaction_hamiltonian(sign)
        pts = rng.uniform(-1.0, 1.0, size=(40, 3))
        for p in pts[np.linalg.norm(pts, axis=1) > 0.2]:
            ref = field.at(*p) / KAPPA
            magic = U.conj().T @ ref @ U
            r = np.linalg.norm(p)
            g = -sign / (4.0 * np.pi * r**3 * KAPPA)
            tensor = 0.5 * g * (np.eye(3) - 3.0 * np.outer(p, p) / r**2)
            tol = 1e-14 * np.max(np.abs(ref))
            assert np.max(np.abs(magic.imag)) <= tol
            assert np.max(np.abs(magic[3])) <= tol and np.max(np.abs(magic[:, 3])) <= tol
            assert np.max(np.abs(magic[:3, :3] - tensor)) <= tol
        spec = small_spec(points=8)
        op = gridsim.GridOperator(spec, gridsim.GridHamiltonian(coupling_sign=sign))
        unit = -KAPPA / (2.0 * spec.dx**2)
        laplacian_diag = 3.0 * KAPPA / spec.dx**2
        potential = op.box(None).potential  # the whole grid's fields
        G = unit * potential[0] - laplacian_diag
        q = potential[1:] * math.sqrt(abs(unit))
        X, Y, Z = (m.reshape(-1) for m in np.meshgrid(*spec.axes(), indexing="ij"))
        for i in rng.choice(X.size, size=20, replace=False):
            ref = U.conj().T @ (field.at(X[i], Y[i], Z[i]) / KAPPA) @ U
            rebuilt = G[i] * np.eye(3) + sign * np.outer(q[:, i], q[:, i])
            # G shares a float with the Laplacian diagonal: rounding is relative to that
            tol = 1e-15 * laplacian_diag + 1e-14 * np.max(np.abs(ref))
            assert np.max(np.abs(rebuilt - ref[:3, :3].real)) <= tol

    @pytest.fixture(scope="class")
    def full_operator(self):
        spec = small_spec(points=12)
        ham = gridsim.GridHamiltonian(coupling_sign=-1, zeeman_particle=5.0, zeeman_loop=-2.0)
        return gridsim.GridOperator(spec, ham)

    def test_apply_matches_dense_reference(self, rng, full_operator):
        """zeeman_particle != zeeman_loop: all four magic components are live."""
        spec = full_operator.spec
        psi = random_state(rng, spec.points_per_axis)
        ref = -1j * spec.dt * dense_hamiltonian_apply(spec, full_operator.ham, psi)
        got = step_map(full_operator, psi)
        assert got.shape == psi.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "ham",
        [
            gridsim.GridHamiltonian(include_interaction=False, zeeman_particle=5.0, zeeman_loop=3.0),
            gridsim.GridHamiltonian(include_kinetic=False, zeeman_particle=1.0),
        ],
    )
    def test_other_terms_match_dense_reference(self, rng, ham):
        """Without coupling (components in one block) and without kinetic term."""
        spec = small_spec(points=12)
        psi = random_state(rng, spec.points_per_axis)
        ref = -1j * spec.dt * dense_hamiltonian_apply(spec, ham, psi)
        got = step_map(gridsim.GridOperator(spec, ham), psi)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_apply_adds_psi_over_j(self, rng, full_operator):
        n = full_operator.spec.points_per_axis
        y, psi = (magic_state(random_state(rng, n)).stack for _ in range(2))
        zero = np.zeros_like(y)
        h = full_operator.apply(y, zero, 1, np.empty_like(y))
        got = full_operator.apply(y, psi, 3, np.empty_like(y))
        assert np.max(np.abs(got - (psi + h / 3))) <= 1e-15 * np.max(np.abs(psi))

    @pytest.mark.parametrize("points", [16, 17])
    @pytest.mark.parametrize(
        "center", [(0.0, 0.0, 0.4), (0.004, 0.0, 0.4)], ids=["quadrant", "whole-grid"]
    )
    @pytest.mark.parametrize("ham", APPLY_HAMILTONIANS.values(), ids=APPLY_HAMILTONIANS.keys())
    @pytest.mark.parametrize("spin", [("up", "up"), ("up", "down")], ids="-".join)
    def test_closed_range_applies_as_the_padded_stack(self, rng, spin, ham, center, points):
        """Every step of apply is elementwise per row, so a stack of the
        closed range that H reaches from up-up or up-down ((0, 2), (2, 4),
        (0, 3) or (0, 4)) gives the bits of the zero-padded four-component
        stack on its rows, and zeros on the others."""
        spec = gridsim.Grid(points, center, 0.0629, KAPPA).stepped(steps=1)
        packet = packets.WavePacket(center=center, width=0.03)
        state = gridsim.initialize(packet, spins.basis_state(*spin), spec, edge_ramp_cells=2.0)
        first, stop = ham.closure(state.first, state.first + state.stack.shape[1])
        y, psi = (rng.standard_normal((2, stop - first) + state.stack.shape[2:]) for _ in range(2))
        padded = [np.zeros((2, 4) + y.shape[2:]) for _ in range(2)]
        padded[0][:, first:stop], padded[1][:, first:stop] = y, psi
        op = gridsim.GridOperator(spec, ham)
        got = op.apply(y, psi, 2, np.empty_like(y), first, state.phase)
        whole = op.apply(*padded, 2, np.empty_like(padded[0]), 0, state.phase)
        assert np.array_equal(whole[:, first:stop], got)
        assert not whole[:, :first].any() and not whole[:, stop:].any()

    def test_apply_holds_walls_at_zero(self, rng, full_operator):
        """The flat offset sums spill onto the walls and y is nonzero there;
        every term of H y, Zeeman mixes included, must be cleared on them."""
        n = full_operator.spec.points_per_axis
        y = magic_state(random_state(rng, n, walls_zero=False)).stack
        out = np.full_like(y, np.nan)
        assert np.all(wall_layer(full_operator.apply(y, np.zeros_like(y), 1, out)) == 0.0)

    def test_apply_refuses_open_component_range(self, rng, full_operator):
        y = magic_state(random_state(rng, full_operator.spec.points_per_axis)).stack[:, :3]
        with pytest.raises(ValidationError, match="couples magic components"):
            full_operator.apply(y, y, 1, np.empty_like(y))

    @pytest.mark.parametrize("j", [0, 5, 2.5])
    def test_apply_refuses_stage_outside_rk4(self, rng, full_operator, j):
        y = magic_state(random_state(rng, full_operator.spec.points_per_axis)).stack
        with pytest.raises(ValidationError, match="RK4 stage"):
            full_operator.apply(y, y, j, np.empty_like(y))

    def test_hermitian(self, rng, full_operator):
        n, dt = full_operator.spec.points_per_axis, full_operator.spec.dt
        phi, psi = random_state(rng, n), random_state(rng, n)

        def H(v):
            return step_map(full_operator, v) / (-1j * dt)

        lhs = np.vdot(phi, H(psi))
        rhs = np.conj(np.vdot(psi, H(phi)))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_horner_step_equals_four_stage_rk4(self, rng, full_operator):
        spec = full_operator.spec
        dt = spec.dt
        psi = random_state(rng, spec.points_per_axis)
        psi /= np.linalg.norm(psi)

        def f(v):
            return -1j * (step_map(full_operator, v) / (-1j * dt))

        k1 = f(psi)
        k2 = f(psi + 0.5 * dt * k1)
        k3 = f(psi + 0.5 * dt * k2)
        k4 = f(psi + dt * k3)
        ref = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = gridsim.evolve(magic_state(psi), spec, full_operator).amplitudes()
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(psi))

    @pytest.mark.parametrize(
        "spin, ham, first, live",
        [
            (("up", "up"), gridsim.GridHamiltonian(), 0, 3),
            (("down", "down"), gridsim.GridHamiltonian(coupling_sign=-1), 0, 3),
            (("up", "up"), gridsim.GridHamiltonian(
                include_interaction=False, zeeman_particle=5.0, zeeman_loop=3.0), 0, 2),
            (("up", "down"), gridsim.GridHamiltonian(include_interaction=False), 2, 2),
            (("up", "down"), gridsim.GridHamiltonian(
                include_interaction=False, zeeman_particle=5.0, zeeman_loop=3.0), 2, 2),
            (("up", "up"), gridsim.GridHamiltonian(zeeman_particle=5.0, zeeman_loop=3.0), 0, 4),
        ],
    )
    def test_fewer_live_components_equal_all_four(self, spin, ham, first, live):
        """Components the Hamiltonian cannot reach stay exactly zero, so the
        run on the live range equals the run on all four magic components."""
        spec = small_spec(points=16, steps=20)
        (final, series), (final4, series4) = run_pair(spec, ham, spins.basis_state(*spin))
        assert (final.first, final.stack.shape[1]) == (first, live)
        assert np.max(np.abs(series.z_expect - series4.z_expect)) <= 1e-15
        assert np.max(np.abs(series.norm - series4.norm)) <= 1e-15
        rest = np.delete(final4.stack, range(first, first + live), axis=1)
        assert np.all(rest == 0.0)

    def test_up_down_start_evolves_singlet_freely(self):
        """The coupling has no singlet row or column: S of an up-down start
        under coupling evolves as under the kinetic term alone, bit for bit."""
        spec = small_spec(points=16, steps=20)
        ud = spins.basis_state("up", "down")
        state = gridsim.initialize(SMALL_PACKET, ud, spec, momentum_z=2.0, edge_ramp_cells=2.0)
        assert (state.first, state.stack.shape[1]) == (2, 2)
        coupled, _ = gridsim.run(state, spec, gridsim.GridOperator(spec, gridsim.GridHamiltonian()))
        free_ham = gridsim.GridHamiltonian(include_interaction=False)
        free, _ = gridsim.run(state, spec, gridsim.GridOperator(spec, free_ham))
        assert (coupled.first, coupled.stack.shape[1]) == (0, 4)
        assert np.array_equal(coupled.stack[:, 3], free.stack[:, 1])
        assert np.any(coupled.stack[:, :2] != 0.0)

    def test_walls_stay_zero_on_preset_run(self, preset_cfg, preset_kappa):
        """The wall layer is a fixed Dirichlet ghost: the simulated box is
        the (n-2)^3 interior.  Checked on the preset's Zeeman run, which
        holds all four components on the quadrant box: there the walls are
        the planes i = -1, j = -1, z = 0 and z = -1, and the ghost planes
        i = 0 and j = 0 are none."""
        o = preset_cfg["oracle"]
        center = tuple(o["center"])
        spec = gridsim.Grid(o["points"], center, o["half_width"], preset_kappa).stepped(
            o["theta"], o["duration"])
        state = gridsim.initialize(
            packets.WavePacket(center=center, width=o["packet_width"]),
            spins.basis_state("up", "up"), spec, momentum_z=o["momentum_kick"],
            edge_ramp_cells=o["edge_ramp_cells"])
        sign = cfgmod.build_params(preset_cfg).coupling_sign
        ham = gridsim.GridHamiltonian(coupling_sign=sign, zeeman_particle=o["zeeman"][0],
                                      zeeman_loop=o["zeeman"][1])
        final, _ = gridsim.run(state, spec, gridsim.GridOperator(spec, ham))
        stack = final.stack
        assert final.phase == -1j and stack.shape[1:] == (4, 17, 17, 32)
        walls = (stack[..., -1, :, :], stack[..., :, -1, :], stack[..., [0, -1]])
        assert all(np.all(wall == 0.0) for wall in walls)
        assert np.any(stack[..., 0, 1:-1, 1:-1] != 0.0) and np.any(stack[..., 1:-1, 0, 1:-1] != 0.0)


class TestEdgeDensity:
    def test_preset_oracle_stays_clear_of_the_walls(self, preset_oracle):
        """The preset box leaves the packet wall-free: the cells next to the
        wall hold under 1e-6 of the peak density at the end of every run."""
        assert 0.0 < preset_oracle.edge_density_ratio < 1e-6

    @pytest.mark.parametrize("highest", ["main", "remainder", "zeeman"])
    def test_oracle_keeps_the_largest_ratio_of_its_runs(self, preset_cfg, monkeypatch,
                                                        tmp_path, highest):
        """Each of the main, remainder and Zeeman runs' final states is read,
        the 4-component Zeeman state included, and the largest value is
        kept, whichever run reads it.  The Zeeman run may run in a forked
        child, so each reading is one line appended to a file that both
        processes share."""
        cfg = copy.deepcopy(preset_cfg)
        cfg["oracle"].update(points=16, half_width=0.05, packet_width=0.03, edge_ramp_cells=2.0,
                             duration=2.5e-5)
        # theta 0.1 leaves the 8 samples the 2.5e-4 window needs at 16 points,
        # and the 1e-3 window ends far enough past it to resolve a slope
        cfg["oracle"]["remainder"].update(packet_width=0.03, edge_ramp_cells=2.0,
                                          windows=[2.5e-4, 1e-3], theta=0.1)
        others = iter([0.1, 0.2])
        values = {run: 0.3 if run == highest else next(others)
                  for run in ("main", "remainder", "zeeman")}
        log = tmp_path / "read.txt"
        coupled = iter(["main", "remainder"])  # the order the 3-component runs end in

        def reading(state):
            run = "zeeman" if state.stack.shape[1] == 4 else next(coupled)
            with open(log, "a") as f:
                f.write(run + "\n")
            return values[run]

        monkeypatch.setattr(gridsim, "edge_density_ratio", reading)
        assert gridsim.run_oracle(cfg).edge_density_ratio == 0.3
        assert sorted(log.read_text().splitlines()) == ["main", "remainder", "zeeman"]

    def test_packet_that_reaches_the_walls_reads_high(self, spec, packet, uu):
        """A packet packed into a 20-point box is clear of the walls at the
        start and presses on them after 60 steps."""
        state = gridsim.initialize(packet, uu, spec)
        assert gridsim.edge_density_ratio(state) == 0.0
        final, _ = gridsim.run(state, spec, gridsim.GridOperator(spec, gridsim.GridHamiltonian()))
        assert gridsim.edge_density_ratio(final) > 1e-3


class TestFitAcceleration:
    def test_exact_quadratic(self):
        t = np.linspace(0, 1e-4, 50)
        z = 0.4 + 2.5 * t - 3.3 * t**2
        fit = gridsim.fit_acceleration(t, z)
        assert fit.z0 == pytest.approx(0.4, abs=1e-9)
        assert fit.v0 == pytest.approx(2.5, rel=1e-6)
        assert fit.a == pytest.approx(-6.6, rel=1e-6)
        assert fit.residual_rms < 1e-14

    def test_requires_four_samples(self):
        with pytest.raises(ValidationError):
            gridsim.fit_acceleration(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))

    def test_requires_increasing_times(self):
        t = np.array([0.0, 1.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            gridsim.fit_acceleration(t, t)

    def test_cubic_contamination_grows_as_cube(self):
        # residual of the quadratic fit must scale like T^3
        c3 = 40.0
        t = np.linspace(0, 4e-4, 400)
        z = 0.4 + 0.6 * t - 2.3 * t**2 + (c3 / 6.0) * t**3
        res = []
        for T in (1e-4, 2e-4, 4e-4):
            m = t <= T
            res.append(gridsim.fit_acceleration(t[m], z[m]).residual_rms)
        slope = np.polyfit(np.log([1e-4, 2e-4, 4e-4]), np.log(res), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.3)


def same_bits(a, b, name="result"):
    """Every field of two (nested) dataclasses equal: arrays by np.array_equal
    and everything else by ==."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), name
        for f in dataclasses.fields(a):
            same_bits(getattr(a, f.name), getattr(b, f.name), f"{name}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    else:
        assert a == b, name


def assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """TimeoutError in this process if the block outlasts ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestForkedZeemanRun:
    """The full oracle runs its Zeeman run in a forked child beside the main
    and remainder runs (gridsim._alongside), and inline where it cannot fork."""

    def test_same_bits_as_inline(self, preset_cfg, forking, monkeypatch):
        forked = gridsim.run_oracle(preset_cfg)
        monkeypatch.delattr(os, "fork")
        inline = gridsim.run_oracle(preset_cfg)
        assert forked.zeeman_series is not None and forked.remainder_exponent is not None
        same_bits(forked, inline)

    def test_one_cpu_runs_inline(self, monkeypatch):
        def fork():
            raise AssertionError("forked on one CPU")

        monkeypatch.setattr(os, "fork", fork, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert gridsim._alongside(lambda: "task", lambda: "own") == ("own", "task")

    def test_result_larger_than_the_pipe_buffer(self, forking):
        """The parent reads the pipe to its end before it reaps the child."""
        big = np.arange(20000.0)  # 160 kB, over a 64 KiB pipe buffer
        with deadline(30):
            own, task = gridsim._alongside(lambda: big * 2.0, lambda: "own")
        assert own == "own" and np.array_equal(task, big * 2.0)
        assert_no_child()

    def test_child_error_is_raised_here(self, forking):
        def task():
            raise ValidationError("bad input")

        with pytest.raises(ValidationError, match="^bad input$"):
            gridsim._alongside(task, lambda: None)
        assert_no_child()

    def test_unpicklable_child_error(self, forking):
        class Local(Exception):  # a local class does not pickle
            pass

        def task():
            raise Local("boom")

        with pytest.raises(NumericalError, match="^Local: boom$"):
            gridsim._alongside(task, lambda: None)
        assert_no_child()

    def test_child_that_dies_without_a_result(self, forking):
        with pytest.raises(NumericalError,
                           match=r"^forked run ended without a result \(exit code 3\)$"):
            gridsim._alongside(lambda: os._exit(3), lambda: None)
        assert_no_child()

    @pytest.mark.parametrize("forked", [True, False])
    @pytest.mark.parametrize("failing, first", [
        (("main", "remainder", "zeeman"), "main"),
        (("remainder", "zeeman"), "remainder"),
        (("zeeman",), "zeeman"),
    ])
    def test_errors_come_main_remainder_zeeman(self, preset_cfg, forking, monkeypatch,
                                               forked, failing, first):
        real_run, remainder = gridsim.run, preset_cfg["oracle"]["remainder"]

        def run(state, spec, operator):
            if operator.ham.zeeman_particle:
                name = "zeeman"
            else:
                name = "remainder" if spec.kinetic_scale == remainder["kinetic_scale"] else "main"
            if name in failing:
                raise NumericalError(name)
            return real_run(state, spec, operator)

        monkeypatch.setattr(gridsim, "run", run)
        if not forked:
            monkeypatch.delattr(os, "fork")
        with pytest.raises(NumericalError, match=f"^{first}$"):
            gridsim.run_oracle(preset_cfg)
        assert_no_child()

    def test_main_run_error_kills_and_reaps_the_child(self, preset_cfg, forking, monkeypatch):
        """The main run fails here while the child's Zeeman run would sleep
        for a minute: the error comes at once, and the child is gone."""
        parent, real_fork, children = os.getpid(), os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                children.append(pid)
            return pid

        def run(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise NumericalError("main run failed")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(gridsim, "run", run)
        with deadline(30), pytest.raises(NumericalError, match="^main run failed$"):
            gridsim.run_oracle(preset_cfg)
        assert len(children) == 1
        assert_no_child()
        with pytest.raises(ProcessLookupError):
            os.kill(children[0], 0)


class TestOracleMeasurements:
    def test_preset_fields_equal_the_library_calls(self, preset_cfg, preset_oracle):
        """Each measurement of the preset oracle equals, bit for bit, the
        library call that reads it off the runs."""
        o, result = preset_cfg["oracle"], preset_oracle
        sign = cfgmod.build_params(preset_cfg).coupling_sign
        uu = spins.basis_state("up", "up")
        tuples = dfl.required_tuples_for(uu)
        packet = packets.WavePacket(center=tuple(o["center"]), width=o["packet_width"])
        grid_moments = gridsim.moments_from_state(result.initial, result.spec, tuples)
        windows, series_r = o["remainder"]["windows"], result.remainder_series
        ham = gridsim.GridHamiltonian(coupling_sign=sign)
        for field, expected in (
            ("initial_momentum", gridsim.expect_momentum_z(result.initial, result.spec)),
            ("a_from_grid_density", dfl.contract_force(uu, grid_moments, coupling_sign=sign).a_z),
            ("a_from_quadrature",
             dfl.contract_force(uu, packets.moments(packet, tuples), coupling_sign=sign).a_z),
            ("a_discrete", gridsim.discrete_acceleration(result.initial, result.spec, ham)),
            ("remainder_residuals", gridsim.remainder_residuals(series_r, windows)),
            ("remainder_exponent", gridsim.remainder_scaling(series_r, windows)),
        ):
            assert getattr(result, field) == expected, field

    @pytest.mark.parametrize("windows", [[2.5e-4, 5e-4], [2.5e-4, 6.1e-4, 4e-4]])
    def test_remainder_run_ends_at_its_last_window(self, preset_cfg, monkeypatch, windows):
        """The remainder run ends within one step after its last window,
        whatever the windows: it is checked before any state is built."""
        class Checked(Exception):
            pass

        times = []

        def check(t, w):
            times.append(t)
            raise Checked

        monkeypatch.setattr(gridsim, "check_windows", check)
        cfg = copy.deepcopy(preset_cfg)
        cfg["oracle"]["remainder"]["windows"] = windows
        with pytest.raises(Checked):
            gridsim.run_oracle(cfg)
        (t,) = times
        assert t[-2] < max(windows) <= t[-1]


class TestDiscreteAcceleration:
    def test_preset_cubic_fit_matches(self, preset_oracle):
        """The preset main run's time error: a cubic fit of <z>(t) reads the
        grid's exact initial acceleration to 6e-6 relative at theta 0.3
        (1.4e-5 at 0.45)."""
        exact = preset_oracle.a_discrete
        series = preset_oracle.series
        end = series.t[-1]
        coef = np.polynomial.polynomial.polyfit(series.t / end, series.z_expect, 3)
        cubic = 2.0 * coef[2] / end**2
        assert abs(cubic - exact) <= 1e-5 * abs(exact), f"cubic fit {cubic} vs {exact}"

    def test_matches_momentum_rate(self, packet, uu):
        """kappa d<p_h>/dt at t = 0 from two RK4 steps, second-order one-sided."""
        spec = small_spec(steps=2, theta=0.05)
        state = gridsim.initialize(packet, uu, spec, momentum_z=3.0)
        ham = gridsim.GridHamiltonian()
        op = gridsim.GridOperator(spec, ham)
        one = gridsim.evolve(state, spec, op)
        p = [gridsim.expect_momentum_z(s, spec) for s in (state, one, gridsim.evolve(one, spec, op))]
        rate = KAPPA * (-3.0 * p[0] + 4.0 * p[1] - p[2]) / (2.0 * spec.dt)
        exact = gridsim.discrete_acceleration(state, spec, ham)
        assert exact == pytest.approx(rate, rel=1e-7)

    @pytest.mark.parametrize("ham", [
        gridsim.GridHamiltonian(),
        gridsim.GridHamiltonian(coupling_sign=-1, zeeman_particle=5.0, zeeman_loop=3.0),
    ])
    def test_independent_of_the_time_step(self, packet, uu, ham):
        """V is applied at the spec's dt, which the result divides out: on
        one grid, theta 0.3 and 0.02 agree to rounding (they differ by at
        most 1e-15 relative at 16 to 21 points, over theta 0.001 to 0.3)."""
        grid = gridsim.Grid(**GEOMETRY)
        state = gridsim.initialize(packet, uu, grid, momentum_z=3.0)
        coarse, fine = (gridsim.discrete_acceleration(state, grid.stepped(theta), ham)
                        for theta in (0.3, 0.02))
        assert abs(coarse - fine) <= 4e-15 * abs(fine)

    def test_coupling_off_sign_and_uniform_field(self, spec, packet, uu):
        state = gridsim.initialize(packet, uu, spec)
        a = gridsim.discrete_acceleration(state, spec, gridsim.GridHamiltonian())
        assert a < 0
        off = gridsim.GridHamiltonian(include_interaction=False)
        assert gridsim.discrete_acceleration(state, spec, off) == 0.0
        flipped = gridsim.GridHamiltonian(coupling_sign=-1)
        assert gridsim.discrete_acceleration(state, spec, flipped) == -a
        # a uniform field commutes with p_h
        zeeman = gridsim.GridHamiltonian(zeeman_particle=5.0, zeeman_loop=3.0)
        assert gridsim.discrete_acceleration(state, spec, zeeman) == pytest.approx(a, rel=1e-12)


class TestRemainderScaling:
    def test_synthetic_cubic(self):
        t = np.linspace(0, 1e-3, 600)
        z = 0.4 - 2.3 * t**2 + 5.0 * t**3
        series = gridsim.TimeSeries(t=t, z_expect=z, norm=np.ones_like(t))
        exponent = gridsim.remainder_scaling(series, [2.5e-4, 5e-4, 1e-3])
        assert exponent == pytest.approx(3.0, abs=0.2)

    def test_below_resolution_raises(self):
        t = np.linspace(0, 1e-3, 300)
        z = 0.4 + 0.1 * t - 1.2 * t**2  # exact quadratic
        norm = 1.0 + 1e-9 * np.sin(t / t[-1] * np.pi)  # visible norm error
        series = gridsim.TimeSeries(t=t, z_expect=z, norm=norm)
        with pytest.raises(NumericalError, match="below resolution"):
            gridsim.remainder_scaling(series, [2.5e-4, 5e-4, 1e-3])

    def test_free_particle_below_resolution(self, uu):
        spec = small_spec(points=20, steps=60, kappa=0.02)
        packet = packets.WavePacket(center=(0.0, 0.0, 0.4), width=0.03)
        state = gridsim.initialize(packet, uu, spec, momentum_z=10.0)
        op = gridsim.GridOperator(
            spec, gridsim.GridHamiltonian(include_interaction=False)
        )
        _, series = gridsim.run(state, spec, op)
        with pytest.raises(NumericalError, match="below resolution"):
            gridsim.remainder_scaling(
                series, [series.t[-1] / 4, series.t[-1] / 2, series.t[-1]]
            )

    def test_stronger_coupling_grows_cubic_coefficient(self, uu):
        # the beyond-quadratic residual scales up with the dipole coupling:
        # a packet at 0.3 feels (0.4 / 0.3)^3 = 2.4 times the coupling at 0.4
        residuals = []
        for z in (0.4, 0.3):
            packet = packets.WavePacket(center=(0.0, 0.0, z), width=0.03)
            spec = gridsim.Grid(20, (0.0, 0.0, z), 0.05, 0.02).stepped(0.15, steps=80)
            state = gridsim.initialize(packet, uu, spec, momentum_z=20.0)
            op = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
            _, series = gridsim.run(state, spec, op)
            fit = gridsim.fit_acceleration(series.t, series.z_expect)
            residuals.append(fit.residual_rms)
        assert residuals[1] > 1.5 * residuals[0]


class TestCanonicalCommutator:
    @pytest.mark.parametrize(
        "coeffs", [[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [1.0, -2.0, 0.5, 0.3]]
    )
    def test_second_order_convergence(self, coeffs):
        r1 = gridsim.canonical_commutator_residual(coeffs, points=64)
        r2 = gridsim.canonical_commutator_residual(coeffs, points=128)
        order = math.log(r1 / r2) / math.log(127 / 63)
        assert abs(order - 2.0) < 0.2

    def test_constant_commutes_exactly(self):
        assert gridsim.canonical_commutator_residual([4.2], points=64) == 0.0

    def test_degree_cap(self):
        with pytest.raises(ValidationError):
            gridsim.canonical_commutator_residual([0, 0, 0, 0, 1.0])


class TestSeriesCsv:
    def test_format(self):
        series = gridsim.TimeSeries(
            t=np.array([0.0, 1e-6]), z_expect=np.array([0.4, 0.3999999]),
            norm=np.array([1.0, 1.0]),
        )
        lines = gridsim.series_csv(series).strip().split("\n")
        assert lines[0] == "t,z_expect,norm"
        assert lines[1] == "0,0.4,1"
        assert lines[2] == "1e-06,0.3999999,1"


def test_moments_from_state_matches_quadrature(spec, packet, uu):
    """Discrete-density moments approach the continuum quadrature values."""
    state = gridsim.initialize(packet, uu, spec, edge_ramp_cells=2.0)
    keys = list(dfl.PARALLEL_TUPLES)
    grid_m = gridsim.moments_from_state(state, spec, keys)
    quad_m = packets.moments(packet, keys)
    for k in keys:
        assert grid_m[k] == pytest.approx(quad_m[k], rel=0.02)
