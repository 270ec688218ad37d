"""C2 half-grid evolution: states with a parity step on the x >= 0 half.

Each run here is compared with the same run on the whole grid, which is
the same state with ``parity=None``.
"""

from dataclasses import replace

import numpy as np
import pytest

from spinloop import gridsim, packets, spins
from spinloop.errors import ValidationError

KAPPA = 0.8773534162632591  # reference kinetic scale
CENTER = (0.0, 0.0, 0.4)
PACKET = packets.WavePacket(center=CENTER, width=0.03)
UU_DD = (1, 1, -1, -1)
UD_DU = (-1, -1, 1, 1)
SPINS = {
    ("up", "up"): UU_DD,
    ("down", "down"): UU_DD,
    ("up", "down"): UD_DU,
    ("down", "up"): UD_DU,
}
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
    """The C2 image of a state's stack: x and y reversed, each component
    times its parity."""
    signs = np.reshape(state.parity[state.first : state.first + state.stack.shape[1]],
                       (1, -1, 1, 1, 1))
    return state.stack[:, :, ::-1, ::-1] * signs


@pytest.fixture(scope="module", params=[16, 17], ids=["even", "odd"])
def points(request):
    return request.param


@pytest.mark.parametrize("ham", HAMILTONIANS.values(), ids=HAMILTONIANS.keys())
@pytest.mark.parametrize("spin", SPINS, ids="-".join)
def test_half_grid_matches_whole_grid(points, spin, ham):
    spec = small_spec(points)
    state = start(spec, spins.basis_state(*spin))
    assert state.parity == SPINS[spin]
    operator = gridsim.GridOperator(spec, ham)
    half, series = gridsim.run(state, spec, operator)
    whole, series_whole = gridsim.run(replace(state, parity=None), spec, operator)
    assert (half.parity, whole.parity) == (SPINS[spin], None)
    assert np.max(np.abs(series.z_expect - series_whole.z_expect)) <= 1e-15
    assert np.max(np.abs(series.norm - series_whole.norm)) <= 1e-15
    assert np.max(np.abs(half.stack - whole.stack)) <= 1e-14 * np.max(np.abs(whole.stack))


@pytest.mark.parametrize("ham", HAMILTONIANS.values(), ids=HAMILTONIANS.keys())
@pytest.mark.parametrize("spin", SPINS, ids="-".join)
def test_final_state_meets_its_parity_bit_for_bit(points, spin, ham):
    """Every plane but the centre plane of an odd grid, which is its own
    image and is computed on both sides, equals its image exactly."""
    spec = small_spec(points)
    final, _ = gridsim.run(start(spec, spins.basis_state(*spin)), spec,
                           gridsim.GridOperator(spec, ham))
    mirrored = image(final)
    k = points // 2
    assert np.array_equal(final.stack[:, :, :k], mirrored[:, :, :k])
    assert np.array_equal(final.stack[:, :, points - k :], mirrored[:, :, points - k :])
    scale = np.max(np.abs(final.stack))
    assert np.max(np.abs(final.stack[:, :, k] - mirrored[:, :, k])) <= 1e-14 * scale


@pytest.mark.parametrize(
    "spin, parity",
    [
        (spins.superpose([spins.basis_state("up", "up"), spins.basis_state("down", "down")],
                         [0.6, 0.8j]), UU_DD),
        (spins.superpose([spins.basis_state("up", "down"), spins.basis_state("down", "up")],
                         [0.6, -0.8]), UD_DU),
        (spins.superpose([spins.basis_state("up", "up"), spins.basis_state("up", "down")],
                         [0.6, 0.8]), None),
        (spins.superpose([spins.basis_state("down", "down"), spins.basis_state("down", "up")],
                         [0.8, 0.6]), None),
    ],
)
def test_parity_follows_the_spin_eigenspace(spin, parity):
    assert start(small_spec(16), spin).parity == parity


@pytest.mark.parametrize(
    "packet_center, box_center",
    [((0.002, 0.0, 0.4), CENTER), ((0.0, -0.002, 0.4), CENTER),
     (CENTER, (0.002, 0.0, 0.4)), (CENTER, (0.0, 0.002, 0.4))],
)
def test_off_axis_packet_or_box_has_no_parity(packet_center, box_center):
    spec = small_spec(16, center=box_center)
    packet = packets.WavePacket(center=packet_center, width=0.03)
    state = start(spec, spins.basis_state("up", "up"), packet)
    assert state.parity is None
    assert gridsim.evolve(state, spec, gridsim.GridOperator(spec, gridsim.GridHamiltonian())
                          ).parity is None


def test_off_axis_box_steps_a_parity_state_on_the_whole_grid():
    """A parity the operator's box cannot keep is dropped, and the step is
    the whole-grid step, bit for bit."""
    on_axis = start(small_spec(16), spins.basis_state("up", "up"))
    spec = small_spec(16, center=(0.002, 0.0, 0.4))
    operator = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
    stepped = gridsim.evolve(on_axis, spec, operator)
    whole = gridsim.evolve(replace(on_axis, parity=None), spec, operator)
    assert stepped.parity is None
    assert np.array_equal(stepped.stack, whole.stack)


def test_apply_refuses_parity_in_an_off_axis_box():
    spec = small_spec(16, center=(0.002, 0.0, 0.4))
    operator = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
    y = np.zeros((2, 3, 16, 16, 16))
    with pytest.raises(ValidationError, match="centred on the z axis"):
        operator.apply(y, y, 1, np.empty_like(y), 0, UU_DD)


def test_half_apply_writes_the_upper_half_and_its_ghost_plane(points):
    """The planes from n // 2 - 1 up equal the whole-grid apply to rounding;
    the ones below are left as they were, and the inputs are not written."""
    spec = small_spec(points)
    state = start(spec, spins.basis_state("up", "up"))
    ham = gridsim.GridHamiltonian(zeeman_particle=3.0, zeeman_loop=3.0)  # T_x, T_y and T_z
    operator = gridsim.GridOperator(spec, ham)
    psi = np.zeros((2, 3) + state.stack.shape[2:])
    psi[:, :2] = state.stack
    y, before = psi.copy(), psi.copy()
    whole = operator.apply(y, psi, 2, np.empty_like(psi))
    half = operator.apply(y, psi, 2, np.full_like(psi, 7.0), 0, UU_DD)
    k = points // 2
    assert np.all(half[:, :, : k - 1] == 7.0)
    assert np.max(np.abs(half[:, :, k - 1 :] - whole[:, :, k - 1 :])) <= 1e-15
    assert np.array_equal(y, before) and np.array_equal(psi, before)


def test_evolve_leaves_the_callers_stack_unwritten(points):
    spec = small_spec(points)
    state = start(spec, spins.basis_state("down", "up"))
    before = state.stack.copy()
    for ham in HAMILTONIANS.values():
        new = gridsim.evolve(state, spec, gridsim.GridOperator(spec, ham))
        assert new.stack is not state.stack
        assert np.array_equal(state.stack, before)


def test_discrete_acceleration_ignores_the_parity():
    spec = small_spec(16)
    state = start(spec, spins.basis_state("up", "up"))
    ham = gridsim.GridHamiltonian()
    assert (gridsim.discrete_acceleration(state, spec, ham)
            == gridsim.discrete_acceleration(replace(state, parity=None), spec, ham))


def test_preset_oracle_steps_and_applies_on_the_half_grid(preset_cfg, monkeypatch):
    """159 steps and 637 applies, as on the whole grid: every step's four
    stages take the half path, and discrete_acceleration's one apply the
    whole grid."""
    calls = {"steps": 0, "half": 0, "whole": 0}
    evolve, apply = gridsim.evolve, gridsim.GridOperator.apply

    def counted_evolve(*args, **kwargs):
        calls["steps"] += 1
        return evolve(*args, **kwargs)

    def counted_apply(self, y, psi, j, out, first=0, parity=None):
        calls["half" if parity is not None else "whole"] += 1
        return apply(self, y, psi, j, out, first, parity)

    monkeypatch.setattr(gridsim, "evolve", counted_evolve)
    monkeypatch.setattr(gridsim.GridOperator, "apply", counted_apply)
    result = gridsim.run_oracle(preset_cfg)
    assert calls == {"steps": 159, "half": 636, "whole": 1}
    assert result.initial.parity == UU_DD and result.zeeman_final.parity == UU_DD
