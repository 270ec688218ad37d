"""C4 quadrant evolution: states with a quarter-turn eigenvalue hold and
step on the quadrant x, y >= 0.

Each run here is compared with the same run on the whole grid: the state
unfolded from its box, with ``phase=None``.  Some test names still say
"half grid" or "parity", from the half-turn these tests first covered;
each docstring says what it checks of the quadrant.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from spinloop import deflection, gridsim, packets, spins
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


def unfolded(state):
    """The state on the whole grid, without a phase: the quadrant's cells,
    then three times the image() of the cells still empty."""
    n = state.stack.shape[4]
    whole = np.zeros(state.stack.shape[:2] + (n, n, n))
    filled = np.zeros((n, n, 1), dtype=bool)
    whole[:, :, n // 2 :, n // 2 :] = state.stack[:, :, 1:, 1:]
    filled[n // 2 :, n // 2 :] = True
    for _ in range(3):
        new = ~filled & np.swapaxes(filled[:, ::-1], 0, 1)
        whole = np.where(new, image(replace(state, stack=whole)), whole)
        filled |= new
    return replace(state, stack=whole, phase=None)


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
    whole, series_whole = gridsim.run(unfolded(state), spec, operator)
    assert (turned.phase, whole.phase) == (SPINS[spin], None)
    assert np.max(np.abs(series.z_expect - series_whole.z_expect)) <= 1e-15
    assert np.max(np.abs(series.norm - series_whole.norm)) <= 1e-15
    turned = unfolded(turned)
    assert np.max(np.abs(turned.stack - whole.stack)) <= 1e-14 * np.max(np.abs(whole.stack))


@pytest.mark.parametrize("ham", HAMILTONIANS.values(), ids=HAMILTONIANS.keys())
@pytest.mark.parametrize("spin", SPINS, ids="-".join)
def test_final_state_meets_its_parity_bit_for_bit(points, spin, ham):
    """Every cell of the final state equals its quarter-turn image exactly,
    except on the planes x = 0 and y = 0 of an odd grid: those cells lie on
    both faces of the quadrant and are computed on each.  The quadrant's
    ghost planes hold the images of its cells, off those planes bit for bit."""
    spec = small_spec(points)
    final, _ = gridsim.run(start(spec, spins.basis_state(*spin)), spec,
                           gridsim.GridOperator(spec, ham))
    whole = unfolded(final).stack
    turned = image(replace(final, stack=whole))
    both_faces = np.zeros((points, points), dtype=bool)
    if points % 2:
        both_faces[points // 2] = both_faces[:, points // 2] = True
    assert np.array_equal(whole[:, :, ~both_faces], turned[:, :, ~both_faces])
    scale = np.max(np.abs(whole))
    assert np.max(np.abs(whole - turned)) <= 1e-14 * scale
    box, off = quadrant(whole), 1 + points % 2
    assert np.array_equal(final.stack[:, :, 0, off:], box[:, :, 0, off:])
    assert np.array_equal(final.stack[:, :, off:, 0], box[:, :, off:, 0])


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
    assert gridsim.evolve(state, gridsim.GridOperator(spec, gridsim.GridHamiltonian())
                          ).phase is None


def test_off_axis_operator_refuses_a_quadrant_state():
    """A state on its quadrant box cannot step in a box off the axis."""
    on_axis = start(small_spec(16), spins.basis_state("up", "up"))
    spec = small_spec(16, center=(0.002, 0.0, 0.4))
    operator = gridsim.GridOperator(spec, gridsim.GridHamiltonian())
    with pytest.raises(ValidationError, match="centred on the z axis"):
        gridsim.evolve(on_axis, operator)


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
    psi = np.zeros((2, 3) + (points,) * 3)
    psi[:, :2] = unfolded(state).stack
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
        new = gridsim.evolve(state, gridsim.GridOperator(spec, ham))
        assert new.stack is not state.stack
        assert np.array_equal(state.stack, before)


@pytest.mark.parametrize("box", ["quadrant", "whole"])
def test_run_sums_every_step_to_fsum_and_steps_as_evolve(points, box):
    """A run stays on its box from the first step to the last: its final
    state, and the norm and <z> of every step, equal those of fresh evolve
    calls bit for bit.  Those sums lie within 4e-16 of math.fsum over the
    whole states, and the caller's stack is left unwritten."""
    spec = small_spec(points)
    state = start(spec, spins.basis_state("up", "up"))
    if box == "whole":
        state = unfolded(state)
    before = state.stack.copy()
    operator = gridsim.GridOperator(spec, HAMILTONIANS["coupling+zeeman"])
    final, series = gridsim.run(state, spec, operator)
    assert np.array_equal(state.stack, before)
    z = spec.axes()[2]
    step = state
    for k in range(spec.steps + 1):
        if k:
            step = gridsim.evolve(step, operator)
            assert (step.norm2, step.z_norm2) == (series.norm[k], series.z_expect[k])
        squares = (unfolded(step) if box == "quadrant" else step).stack ** 2
        assert abs(series.norm[k] - math.fsum(squares.ravel())) <= 4e-16
        assert abs(series.z_expect[k] - math.fsum((squares * z).ravel())) <= 4e-16
    side = points - points // 2 + 1 if box == "quadrant" else points
    assert step.stack.shape[2:] == final.stack.shape[2:] == (side, side, points)
    assert np.array_equal(final.stack, step.stack)
    assert final.phase == step.phase == (-1j if box == "quadrant" else None)


@pytest.mark.parametrize("spin", SPINS, ids="-".join)
def test_measurements_on_the_box_match_the_whole_grid(points, spin):
    """The norm, moments, <p_z>, discrete acceleration and edge density of a
    state on its quadrant box, after 20 steps, match those of the whole
    state unfolded from it to 2e-15 relative (they differ by at most 6.2e-16
    here).  The odd monomial xy averages to 0 over its images, and the
    whole grid's sum of it is rounding: within 1e-15 of the x^2 moment."""
    spec = small_spec(points)
    operator = gridsim.GridOperator(spec, HAMILTONIANS["coupling+zeeman"])
    state, _ = gridsim.run(start(spec, spins.basis_state(*spin)), spec, operator)
    whole = unfolded(state)
    ham = gridsim.GridHamiltonian()
    keys = deflection.required_tuples_for(spins.basis_state("up", "up")) + [
        (2, 0, 0, 0), (0, 2, 1, 3), (2, 2, 1, 5)]
    odd = (1, 1, 0, 0)
    on_box, on_whole = (gridsim.moments_from_state(s, spec, keys + [odd]) for s in (state, whole))
    assert gridsim.edge_density_ratio(state) > 0.0
    for box_value, whole_value in [
        (state.norm(), whole.norm()),
        (gridsim.expect_momentum_z(state, spec), gridsim.expect_momentum_z(whole, spec)),
        (gridsim.discrete_acceleration(state, spec, ham),
         gridsim.discrete_acceleration(whole, spec, ham)),
        (gridsim.edge_density_ratio(state), gridsim.edge_density_ratio(whole)),
    ] + [(on_box[k], on_whole[k]) for k in keys]:
        assert abs(box_value - whole_value) <= 2e-15 * abs(whole_value)
    assert abs(on_box[odd] - on_whole[odd]) <= 1e-15 * on_box[2, 0, 0, 0]


def test_ghost_planes_count_for_nothing(points):
    """The ghost planes stand for no cells: whatever they hold, and their
    corner column holds no image after a run, leaves every measurement of
    the state as it was."""
    spec = small_spec(points)
    operator = gridsim.GridOperator(spec, HAMILTONIANS["coupling+"])
    state, _ = gridsim.run(start(spec, spins.basis_state("up", "up")), spec, operator)
    stack = state.stack.copy()
    stack[:, :, 0] = stack[:, :, :, 0] = 1.0
    ghosted = replace(state, stack=stack)
    for measure in (lambda s: s.norm(), gridsim.edge_density_ratio,
                    lambda s: gridsim.expect_momentum_z(s, spec),
                    lambda s: list(gridsim.moments_from_state(s, spec, [(2, 0, 1, 3)]).values())):
        assert measure(ghosted) == measure(state)


def test_preset_oracle_steps_and_applies_on_the_half_grid(preset_cfg, monkeypatch, tmp_path):
    """159 steps and 637 applies, as on the whole grid, all on the quadrant:
    every step's four stages and discrete_acceleration's one apply.  No
    operator builds the whole grid's fields, and the initial state holds
    its quadrant box.  The Zeeman run may run in a forked child, so every
    call is one line appended to a file that both processes share."""
    log = tmp_path / "calls.txt"
    evolve, apply = gridsim.evolve, gridsim.GridOperator.apply
    build = gridsim.GridOperator._build_box

    def note(line):
        with open(log, "a") as f:
            f.write(line + "\n")

    def counted_evolve(*args, **kwargs):
        note("steps")
        return evolve(*args, **kwargs)

    def counted_apply(self, y, psi, j, out, first=0, phase=None):
        note("quadrant" if phase is not None else "whole")
        return apply(self, y, psi, j, out, first, phase)

    def counted_build(self, phase):
        note(f"box {phase}")
        return build(self, phase)

    monkeypatch.setattr(gridsim, "evolve", counted_evolve)
    monkeypatch.setattr(gridsim.GridOperator, "apply", counted_apply)
    monkeypatch.setattr(gridsim.GridOperator, "_build_box", counted_build)
    result = gridsim.run_oracle(preset_cfg)
    lines = log.read_text().splitlines()
    calls = {key: lines.count(key) for key in ("steps", "quadrant", "whole")}
    boxes = [complex(line[4:]) for line in lines if line.startswith("box ")]
    assert calls == {"steps": 159, "quadrant": 637, "whole": 0}
    assert boxes == [-1j] * 4  # the main, remainder and Zeeman runs and a_discrete
    assert result.initial.phase == -1j and result.initial.stack.shape[2:] == (17, 17, 32)
