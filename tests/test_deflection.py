"""Spin-contracted force expectations and the classical dipole limit."""

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinloop import deflection as dfl
from spinloop import packets, spins, units
from spinloop.errors import ValidationError

POINT = -4.662742473395371  # (3/16 pi)(1/0.4^4)(3 - 5)
EPS = np.finfo(float).eps
LINEAR = [(1, 0, 0, 5), (0, 1, 0, 5), (0, 0, 1, 5)]  # M[e_j; 5]


def quadratic(i, j):
    """Key of M[e_i + e_j + e_z; 7]."""
    k = [0, 0, 1]
    k[i] += 1
    k[j] += 1
    return (*k, 7)


ALL_KEYS = sorted(set(LINEAR) | {quadratic(i, j) for i, j in product(range(3), repeat=2)})


def compact_bracket(C, moments, sign=1):
    """sign (3/4 pi) [sum_j (C_zj + C_jz) M[e_j;5] - 5 sum_ij C_ij M[e_i+e_j+e_z;7]
    + tr C M[e_z;5]], the form of perfbench/check.py."""
    linear = sum((C[2, j] + C[j, 2]) * moments[LINEAR[j]] for j in range(3))
    quad = sum(C[i, j] * moments[quadratic(i, j)] for i, j in product(range(3), repeat=2))
    return sign * 3.0 / (4.0 * np.pi) * (linear - 5.0 * quad + np.trace(C) * moments[LINEAR[2]])


@st.composite
def density_matrices(draw):
    """rho = A A^dagger / tr, A a random complex 4x4 matrix."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
    A = (np.array(parts[:16]) + 1j * np.array(parts[16:])).reshape(4, 4)
    rho = A @ A.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    return rho / trace


spin_inputs = st.one_of(
    density_matrices(),
    st.sampled_from(["up-up", "down-down", "up-down", "down-up", "singlet", "parallel",
                     "antiparallel", "parallel-coherent", "antiparallel-coherent"]
                    ).map(spins.named_spin_input),
    st.just(np.eye(4) / 4),  # maximally mixed: every C_ij is 0, no moment is needed
)
positive_moments = st.lists(
    st.floats(1e-3, 1e3), min_size=len(ALL_KEYS), max_size=len(ALL_KEYS)
).map(lambda values: dict(zip(ALL_KEYS, values)))


@pytest.fixture(scope="module")
def fig_moments():
    uu = spins.basis_state("up", "up")
    par = spins.parallel_coherent()
    pk = packets.WavePacket(center=(0.0, 0.0, 0.4), width=1e-3)
    keys = set(dfl.required_tuples_for(uu)) | set(dfl.required_tuples_for(par))
    keys |= set(dfl.PARALLEL_TUPLES)
    return packets.moments(pk, keys)


@pytest.fixture(scope="module")
def off_axis_moments():
    uu = spins.basis_state("up", "up")
    par = spins.parallel_coherent()
    sing = spins.singlet()
    pk = packets.WavePacket(center=(0.0, 0.2, 0.4), width=1e-3)
    keys = (
        set(dfl.required_tuples_for(uu))
        | set(dfl.required_tuples_for(par))
        | set(dfl.required_tuples_for(sing))
        | set(dfl.PARALLEL_TUPLES)
    )
    return packets.moments(pk, keys)


class TestSpinCorrelators:
    def test_up_up(self):
        C = dfl.spin_correlators(spins.basis_state("up", "up"))
        expected = np.zeros((3, 3))
        expected[2, 2] = 0.25
        assert np.allclose(C, expected, atol=1e-14)

    def test_singlet_isotropic(self):
        C = dfl.spin_correlators(spins.singlet())
        assert np.allclose(C, -0.25 * np.eye(3), atol=1e-14)

    def test_parallel_coherent_cross_terms(self):
        C = dfl.spin_correlators(spins.parallel_coherent())
        assert np.allclose(np.diag(C), [0.25, -0.25, 0.25], atol=1e-14)

    def test_mixture_matches_pure_average(self):
        rho = spins.parallel_mixture()
        C = dfl.spin_correlators(rho)
        expected = np.zeros((3, 3))
        expected[2, 2] = 0.25
        assert np.allclose(C, expected, atol=1e-14)


class TestContractForce:
    def test_up_up_equals_closed_form(self, fig_moments):
        uu = spins.basis_state("up", "up")
        out = dfl.contract_force(uu, fig_moments)
        assert out.a_z == pytest.approx(dfl.parallel_closed_form(fig_moments), rel=1e-12)
        assert out.a_z == pytest.approx(POINT, rel=1e-6)
        assert out.extra_terms == 0.0

    def test_mixture_identical_to_pure_up_up(self, fig_moments):
        a_pure = dfl.contract_force(spins.basis_state("up", "up"), fig_moments).a_z
        a_mix = dfl.contract_force(spins.parallel_mixture(), fig_moments).a_z
        assert a_mix == pytest.approx(a_pure, rel=1e-14)

    def test_antisymmetry(self, off_axis_moments):
        a_uu = dfl.contract_force(spins.basis_state("up", "up"), off_axis_moments).a_z
        a_ud = dfl.contract_force(spins.basis_state("up", "down"), off_axis_moments).a_z
        assert a_ud == pytest.approx(-a_uu, rel=1e-12)

    def test_singlet_force_vanishes(self, off_axis_moments):
        """The singlet is isotropic: C_ij = -delta_ij/4 makes the bracket
        contraction vanish identically, so it feels no dipole force at all
        (the pointwise integrand is already zero, not just the integral)."""
        out = dfl.contract_force(spins.singlet(), off_axis_moments)
        assert abs(out.a_z) < 1e-12
        # and pointwise, via the operator field
        from spinloop import fields

        F = fields.force_operator().at(0.13, -0.21, 0.37)
        assert abs(spins.expectation(F, spins.singlet())) < 1e-13

    def test_coherent_parallel_extra_term(self, off_axis_moments):
        """For (|uu> + |dd>)/sqrt(2) the xx and yy correlators contribute
        (3/16pi)(-5)(M[2,0,1,7] - M[0,2,1,7]) beyond the closed form."""
        out = dfl.contract_force(spins.parallel_coherent(), off_axis_moments)
        m_x = off_axis_moments[(2, 0, 1, 7)]
        m_y = off_axis_moments[(0, 2, 1, 7)]
        expected_extra = 3.0 / (16 * np.pi) * (-5.0) * (m_x - m_y)
        assert out.extra_terms == pytest.approx(expected_extra, rel=1e-12)
        assert out.a_z == pytest.approx(
            dfl.parallel_closed_form(off_axis_moments) + expected_extra, rel=1e-12
        )
        # the extra term is real for off-axis packets
        assert abs(out.extra_terms) > 1e-3

    def test_coherent_equals_mixture_only_on_axis(self, fig_moments):
        a_coh = dfl.contract_force(spins.parallel_coherent(), fig_moments).a_z
        a_mix = dfl.contract_force(spins.parallel_mixture(), fig_moments).a_z
        assert a_coh == pytest.approx(a_mix, rel=1e-9)  # x<->y symmetric packet

    @given(spin_inputs, positive_moments, st.sampled_from([1, -1]))
    @settings(max_examples=200, deadline=None)
    def test_table_matches_compact_bracket(self, state, moments, sign):
        """The term table sums to the compact bracket, its non-C_zz part is
        the bracket with C_zz = 0, and its keys are those of the nonzero C_ij."""
        C = dfl.spin_correlators(state)
        out = dfl.contract_force(state, moments, coupling_sign=sign)
        tol = 8 * EPS * 3.0 / (4.0 * np.pi) * sum(
            abs(C[i, j] * coef) * moments[key] for i, j, coef, key in dfl.bracket_terms(C)
        )
        assert abs(out.a_z - compact_bracket(C, moments, sign)) <= tol
        C_rest = C.copy()
        C_rest[2, 2] = 0.0
        assert abs(out.extra_terms - compact_bracket(C_rest, moments, sign)) <= tol
        keys = {quadratic(i, j) for i, j in zip(*np.nonzero(C))}
        keys |= {LINEAR[j] for j in range(3) if C[2, j] or C[j, 2]}
        if np.trace(np.abs(C)):
            keys.add(LINEAR[2])
        assert dfl.required_tuples_for(state) == sorted(keys)

    def test_missing_moments_listed(self):
        uu = spins.basis_state("up", "up")
        with pytest.raises(ValidationError, match="missing moment tuples"):
            dfl.contract_force(uu, {(0, 0, 1, 5): 1.0})

    def test_coupling_sign_flip(self, fig_moments):
        uu = spins.basis_state("up", "up")
        plus = dfl.contract_force(uu, fig_moments, coupling_sign=1).a_z
        minus = dfl.contract_force(uu, fig_moments, coupling_sign=-1).a_z
        assert minus == pytest.approx(-plus, rel=1e-14)


class TestClosedForms:
    def test_params_supplies_sign(self, fig_moments, preset_params):
        flipped = dataclasses.replace(preset_params, beta=-preset_params.beta)
        assert (preset_params.coupling_sign, flipped.coupling_sign) == (1, -1)
        plus = dfl.parallel_closed_form(fig_moments, coupling_sign=preset_params.coupling_sign)
        assert plus == pytest.approx(POINT, rel=1e-6)
        assert dfl.parallel_closed_form(fig_moments, coupling_sign=flipped.coupling_sign) == -plus

    def test_crossing_condition(self):
        moments = {(0, 0, 3, 7): 0.6, (0, 0, 1, 5): 1.0}
        assert dfl.parallel_closed_form(moments) == pytest.approx(0.0, abs=1e-15)

    def test_on_axis_reduces_to_single_moment(self, fig_moments):
        # narrow on-axis packet: M[0,0,3,7] ~ M[0,0,1,5], so the bracket is
        # -2 M and the closed form is -(3/8pi) M
        m15 = fig_moments[(0, 0, 1, 5)]
        value = dfl.parallel_closed_form(fig_moments)
        assert value == pytest.approx(-3.0 / (8 * np.pi) * m15, rel=1e-5)

    def test_missing_moments_listed(self):
        with pytest.raises(ValidationError, match=r"missing moment tuples: \[\(0, 0, 3, 7\)\]"):
            dfl.parallel_closed_form({(0, 0, 1, 5): 1.0})


class TestClassicalDipoleForce:
    def test_inverse_fourth_power(self):
        f1 = dfl.classical_dipole_force(1e-18, 1e-18, 1e-4, units.VACUUM_PERMEABILITY)
        f2 = dfl.classical_dipole_force(1e-18, 1e-18, 2e-4, units.VACUUM_PERMEABILITY)
        assert f1 / f2 == pytest.approx(16.0, rel=1e-12)

    def test_sign_flip_with_moment(self):
        f = dfl.classical_dipole_force(1e-18, 1e-18, 1e-4, units.VACUUM_PERMEABILITY)
        g = dfl.classical_dipole_force(-1e-18, 1e-18, 1e-4, units.VACUUM_PERMEABILITY)
        assert g == pytest.approx(-f, rel=1e-14)

    def test_rejects_zero_separation(self):
        with pytest.raises(ValidationError):
            dfl.classical_dipole_force(1.0, 1.0, 0.0, units.VACUUM_PERMEABILITY)

    def test_matches_quantum_on_axis_limit(self, preset_params, preset_units):
        """A narrow on-axis packet's force (mass times natural acceleration,
        converted to SI) must match the classical formula with moments
        alpha hbar / 2 and beta hbar / 2."""
        z0 = 0.4
        pk = packets.WavePacket(center=(0.0, 0.0, z0), width=1e-3)
        m = packets.moments(pk, list(dfl.PARALLEL_TUPLES))
        a_nat = dfl.parallel_closed_form(m, coupling_sign=preset_params.coupling_sign)
        force_si = preset_params.mass * units.from_natural(
            a_nat, "acceleration", preset_units
        )
        classical = dfl.classical_dipole_force(
            preset_params.alpha * preset_params.hbar / 2,
            preset_params.beta * preset_params.hbar / 2,
            z0 * preset_units.l,
            preset_params.mu0,
        )
        assert force_si == pytest.approx(classical, rel=5e-3)
