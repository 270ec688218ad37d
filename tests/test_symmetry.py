"""C4 quadrant evolution: states with a quarter-turn eigenvalue step on the
quadrant x, y >= 0.

Each run here is compared with the same run on the whole grid, which is
the same state with ``phase=None``.  Some test names still say "half grid"
or "parity", from the half-turn these tests first covered; each docstring
says what it checks of the quadrant.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from spinloop import gridsim, packets, spins
from spinloop.errors import ValidationError

KAPPA = 0.8773534162632591  # reference kinetic scale
CENTER = (0.0, 0.0, 0.4)
PACKET = packets.WavePacket(center=CENTER, width=0.03)
SPINS = {("up", "up"): -1j, ("down", "down"): 1j, ("up", "down"): 1, ("down", "up"): 1}
HAMILTONIANS = {
    "coupling+": gridsim.GridHamiltonian(coupling_sign=1),
    "coupling-": gridsim.GridHamiltonian(coupling_sign=-1),
    "free": gridsim.GridHamiltonian(include_interaction=False),
    "zeeman": gridsim.GridHamiltonian(
        include_interaction=False, zeeman_particle=5.0, zeeman_loop=3.0),
    "coupling+zeeman": gridsim.GridHamiltonian(zeeman_particle=5.0, zeeman_loop=3.0),
}


def small_spec(points, center=CENTER, steps=20):
    return gridsim.Grid(points, center, 0.05, KAPPA).stepped(steps=steps)


def start(spec, spin, packet=PACKET):
    return gridsim.initialize(packet, spin, spec, momentum_z=2.0, edge_ramp_cells=2.0)


def image(state):
    """U psi / lambda as a real stack, in complex arithmetic: cell (i, j)
    holds psi(j, n - 1 - i), the cell a quarter-turn carries onto it, with
    T_x -> -T_y, T_y -> T_x, over the state's eigenvalue."""
    amp = state.stack[0] + 1j * state.stack[1]
    turned = np.swapaxes(amp[:, :, ::-1], 1, 2)
    comps = list(turned)
    if state.first == 0:
        comps[0], comps[1] = -turned[1], turned[0]
    out = np.stack(comps) * np.conj(state.phase)
    return np.stack([out.real, out.imag])


def quadrant(stack):
    cut = stack.shape[2] // 2 - 1
    return np.ascontiguousarray(stack[:, :, cut:, cut:])


@pytest.fixture(scope="module", params=[16, 17], ids=["even", "odd"])
def points(request):
    return request.param


@pytest.mark.parametrize("ham", HAMILTONIANS.values(), ids=HAMILTONIANS.keys())
@pytest.mark.parametrize("spin", SPINS, ids="-".join)
def test_half_grid_matches_whole_grid(points, spin, ham):
    """The quadrant run matches the whole-grid run."""
    spec = small_spec(points)
    state = start(spec, spins.basis_state(*spin))
    assert state.phase == SPINS[spin]
    operator = gridsim.GridOperator(spec, ham)
    turned, series = gridsim.run(state, spec, operator)
    whole, series_whole = gridsim.run(replace(state, phase=None), spec, operator)
    assert (turned.phase, whole.phase) == (SPINS[spin], None)
    assert np.max(np.abs(series.z_expect - series_whole.z_expect)) <= 1e-15
    assert np.max(np.abs(series.norm - series_whole.norm)) <= 1e-15
    assert np.max(np.abs(turned.stack - whole.stack)) <= 1e-14 * np.max(np.abs(whole.stack))


@pytest.mark.parametrize("ham", HAMILTONIANS.values(), ids=HAMILTONIANS.keys())
@pytest.mark.parametrize("spin", SPINS, ids="-".join)
def test_final_state_meets_its_parity_bit_for_bit(points, spin, ham):
    """Every cell equals its quarter-turn image exactly, except on the
    planes x = 0 and y = 0 of an odd grid: those cells lie on both faces of
    the quadrant and are computed on each."""
    spec = small_spec(points)
    final, _ = gridsim.run(start(spec, spins.basis_state(*spin)), spec,
                           gridsim.GridOperator(spec, ham))
    turned = image(final)
    both_faces = np.zeros((points, points), dtype=bool)
    if points % 2:
        both_faces[points // 2] = both_faces[:, points // 2] = True
    assert np.array_equal(final.stack[:, :, ~both_faces], turned[:, :, ~both_faces])
    scale = np.max(np.abs(final.stack))
    assert np.max(np.abs(final.stack - turned)) <= 1e-14 * scale


def mixture(first, second, weights):
    return spins.superpose([spins.basis_state(*first), spins.basis_state(*second)], weights)


@pytest.mark.parametrize(
    "spin, phase",
    [
        pytest.param(spins.basis_state("up", "up"), -1j, id="uu"),
        pytest.param(spins.basis_state("down", "down"), 1j, id="dd"),
        pytest.param(spins.basis_state("up", "down"), 1, id="ud"),
        pytest.param(spins.basis_state("down", "up"), 1, id="du"),
        pytest.param(np.exp(0.3j) * spins.basis_state("up", "up"), -1j, id="uu-times-a-phase"),
        pytest.param(mixture(("up", "down"), ("down", "up"), [0.6, -0.8]), 1, id="ud-du-mixture"),
        pytest.param(mixture(("up", "up"), ("down", "down"), [0.6, 0.8j]), None,
                     id="uu-dd-mixture"),
        pytest.param(mixture(("up", "up"), ("down", "down"), [1.0, 1.0]), None, id="uu-plus-dd"),
        pytest.param(mixture(("up", "up"), ("up", "down"), [0.6, 0.8]), None, id="uu-ud-mixture"),
        pytest.param(mixture(("down", "down"), ("down", "up"), [0.8, 0.6]), None,
                     id="dd-du-mixture"),
    ],
)
def test_phase_follows_the_spin_eigenspace(spin, phase):
    assert start(small_spec(16), spin).phase == phase


@pytest.mark.parametrize(
    "packet_center, box_center",
    [((0.002, 0.0, 0.4), CENTER), ((0.0, -0.002, 0.4), CENTER),
     (CENTER, (0.002, 0.0, 0.4)), (CENTER, (0.0, 0.002, 0.4))],
)
def test_off_axis_packet_or_box_has_no_parity(packet_center, box_center):
    """No phase off the axis, and none after a step."""
    spec = small_spec(16, center=box_center)
    packet = packets.WavePacket(center=packet_center, width=0.03)
    state = start(spec, spins.basis_state("up", "up"), packet)
    assert state.phase is None
    assert gridsim.evolve(state, spec, gridsim.GridOperator(spec, gridsim.GridHamiltonian())
                          ).phase is None


def test_off_axis_box_steps_a_parity_state_on_the_whole_grid():
    """A phase the operator's box cannot keep is dropped, and the step is
    the whole-grid step, bit for bit."""
    on_axis = start(small_spec(16), spins.basis_state("up", "up"))
    spec = small_spec(16, center=(0.002, 0.0, 0.4))
    operator = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
    stepped = gridsim.evolve(on_axis, spec, operator)
    whole = gridsim.evolve(replace(on_axis, phase=None), spec, operator)
    assert stepped.phase is None
    assert np.array_equal(stepped.stack, whole.stack)


def test_apply_refuses_parity_in_an_off_axis_box():
    """An operator off the axis has no quadrant box."""
    spec = small_spec(16, center=(0.002, 0.0, 0.4))
    operator = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
    y = np.zeros((2, 3, 9, 9, 16))
    with pytest.raises(ValidationError, match="centred on the z axis"):
        operator.apply(y, y, 1, np.empty_like(y), 0, -1j)


@pytest.mark.parametrize("shape, phase", [((9, 9, 16), None), ((16, 16, 16), -1j)])
def test_apply_refuses_a_stack_of_the_other_box(shape, phase):
    operator = gridsim.GridOperator(small_spec(16), gridsim.GridHamiltonian())
    y = np.zeros((2, 3) + shape)
    with pytest.raises(ValidationError, match="is not the box"):
        operator.apply(y, y, 1, np.empty_like(y), 0, phase)


def test_half_apply_writes_the_upper_half_and_its_ghost_plane(points):
    """A quadrant apply equals the whole apply on the quadrant's cells, and
    on its ghost planes to rounding; the inputs are not written.  The ghost
    corner, cells (n // 2 - 1, n // 2 - 1), is never read and not checked."""
    spec = small_spec(points)
    state = start(spec, spins.basis_state("up", "up"))
    ham = gridsim.GridHamiltonian(zeeman_particle=3.0, zeeman_loop=3.0)  # T_x, T_y and T_z
    operator = gridsim.GridOperator(spec, ham)
    psi = np.zeros((2, 3) + state.stack.shape[2:])
    psi[:, :2] = state.stack
    whole = operator.apply(psi, psi, 2, np.empty_like(psi))
    y = quadrant(psi)
    before = y.copy()
    turned = operator.apply(y, y, 2, np.full_like(y, 7.0), 0, -1j)
    expected = quadrant(whole)
    assert np.array_equal(y, before)
    assert np.max(np.abs(turned[:, :, 1:, 1:] - expected[:, :, 1:, 1:])) <= 1e-15
    scale = np.max(np.abs(whole))
    for face in ((slice(None), 0, slice(1, None)), (slice(None), slice(1, None), 0)):
        face = (slice(None),) + face
        assert np.max(np.abs(turned[face] - expected[face])) <= 1e-14 * scale


def test_evolve_leaves_the_callers_stack_unwritten(points):
    spec = small_spec(points)
    state = start(spec, spins.basis_state("down", "up"))
    before = state.stack.copy()
    for ham in HAMILTONIANS.values():
        new = gridsim.evolve(state, spec, gridsim.GridOperator(spec, ham))
        assert new.stack is not state.stack
        assert np.array_equal(state.stack, before)


@pytest.mark.parametrize("box", ["quadrant", "whole"])
def test_run_sums_every_step_to_fsum_and_steps_as_evolve(points, box):
    """A run stays on its box from the first step to the last: its final
    state, and the norm and <z> of every step, equal those of fresh evolve
    calls bit for bit, each of which copies the box out of a whole stack and
    unfolds the new state.  Those sums lie within 4e-16 of math.fsum over
    the whole states, and the caller's stack is left unwritten."""
    spec = small_spec(points)
    state = start(spec, spins.basis_state("up", "up"))
    if box == "whole":
        state = replace(state, phase=None)
    before = state.stack.copy()
    operator = gridsim.GridOperator(spec, HAMILTONIANS["coupling+zeeman"])
    final, series = gridsim.run(state, spec, operator)
    assert np.array_equal(state.stack, before)
    z = spec.axes()[2]
    step = state
    for k in range(spec.steps + 1):
        if k:
            step = gridsim.evolve(step, spec, operator)
            assert (step.norm2, step.z_norm2) == (series.norm[k], series.z_expect[k])
        squares = step.stack**2
        assert abs(series.norm[k] - math.fsum(squares.ravel())) <= 4e-16
        assert abs(series.z_expect[k] - math.fsum((squares * z).ravel())) <= 4e-16
    assert step.stack.shape[2:] == final.stack.shape[2:] == (points,) * 3
    assert np.array_equal(final.stack, step.stack)
    assert final.phase == step.phase == (-1j if box == "quadrant" else None)


def test_discrete_acceleration_ignores_the_parity():
    spec = small_spec(16)
    state = start(spec, spins.basis_state("up", "up"))
    ham = gridsim.GridHamiltonian()
    assert (gridsim.discrete_acceleration(state, spec, ham)
            == gridsim.discrete_acceleration(replace(state, phase=None), spec, ham))


def test_preset_oracle_steps_and_applies_on_the_half_grid(preset_cfg, monkeypatch):
    """159 steps and 637 applies, as on the whole grid: every step's four
    stages run on the quadrant, and discrete_acceleration's one apply on the
    whole grid."""
    calls = {"steps": 0, "quadrant": 0, "whole": 0}
    evolve, apply = gridsim.evolve, gridsim.GridOperator.apply

    def counted_evolve(*args, **kwargs):
        calls["steps"] += 1
        return evolve(*args, **kwargs)

    def counted_apply(self, y, psi, j, out, first=0, phase=None):
        calls["quadrant" if phase is not None else "whole"] += 1
        return apply(self, y, psi, j, out, first, phase)

    monkeypatch.setattr(gridsim, "evolve", counted_evolve)
    monkeypatch.setattr(gridsim.GridOperator, "apply", counted_apply)
    result = gridsim.run_oracle(preset_cfg)
    assert calls == {"steps": 159, "quadrant": 636, "whole": 1}
    assert result.initial.phase == -1j and result.zeeman_final.phase == -1j
