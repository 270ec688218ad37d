"""Operator fields: coupling term, force term."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinloop import fields, spins
from spinloop.errors import ValidationError


class TestInteractionHamiltonian:
    def test_hermitian_everywhere(self, rng):
        field = fields.interaction_hamiltonian()
        for _ in range(20):
            r = rng.uniform(-1, 1, 3)
            if np.linalg.norm(r) < 0.1:
                continue
            H = field.at(*r)
            assert np.max(np.abs(H - H.conj().T)) <= 1e-12

    def test_hand_expanded_on_axis(self):
        # At r = (0,0,1): (S.r)(S.r) = Sz Sz, so the 4x4 is
        # -(1/4pi) [3 SzSz - S.S], diagonal entries from SzSz = diag(1/4,-1/4,-1/4,1/4)
        # and S.S basis action.
        H = fields.interaction_hamiltonian().at(0.0, 0.0, 1.0)
        szsz = np.diag([0.25, -0.25, -0.25, 0.25])
        sdots = np.array(
            [
                [0.25, 0, 0, 0],
                [0, -0.25, 0.5, 0],
                [0, 0.5, -0.25, 0],
                [0, 0, 0, 0.25],
            ]
        )
        expected = -(1.0 / (4 * np.pi)) * (3 * szsz - sdots)
        assert np.allclose(H, expected, atol=1e-15)

    def test_inverse_cube_scaling(self):
        field = fields.interaction_hamiltonian()
        H1 = field.at(0.12, -0.3, 0.4)
        H2 = field.at(0.24, -0.6, 0.8)
        assert np.allclose(H2, H1 / 8.0, atol=1e-14)

    def test_singlet_expectation_isotropic(self, rng):
        field = fields.interaction_hamiltonian()
        s = spins.singlet()
        r = 0.37
        values = []
        for _ in range(10):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            values.append(spins.expectation(field.at(*(r * direction)), s))
        assert np.max(np.abs(values)) < 1e-12  # singlet sees no dipole coupling

    def test_origin_rejected(self):
        with pytest.raises(ValidationError):
            fields.interaction_hamiltonian().at(0.0, 0.0, 0.0)


class TestForceOperator:
    def test_on_axis_parallel_value(self):
        # At (0,0,z): expectation on |up,up> is (3/16pi)(1/z^4)(3-5).
        z = 0.4
        F = fields.force_operator().at(0.0, 0.0, z)
        uu = spins.basis_state("up", "up")
        expected = 3.0 / (16 * np.pi) / z**4 * (3.0 - 5.0)
        assert spins.expectation(F, uu) == pytest.approx(expected, rel=1e-12)
        assert spins.expectation(F, uu) == pytest.approx(-4.662742473395371, rel=1e-10)

    def test_antiparallel_sign_flip(self):
        F = fields.force_operator().at(0.0, 0.0, 0.4)
        uu = spins.basis_state("up", "up")
        ud = spins.basis_state("up", "down")
        assert spins.expectation(F, ud) == pytest.approx(
            -spins.expectation(F, uu), rel=1e-12
        )

    @pytest.mark.parametrize("h,ratio_tol", [(1e-3, 0.05)])
    def test_equals_negative_gradient_of_coupling(self, h, ratio_tol):
        # Central finite differences of the coupling reproduce the force
        # with O(h^2) error: halving h divides the defect by ~4.
        force = fields.force_operator()
        coupling = fields.interaction_hamiltonian()
        x, y, z = 0.15, -0.2, 0.35

        def defect(step):
            fd = -(coupling.at(x, y, z + step) - coupling.at(x, y, z - step)) / (2 * step)
            return np.max(np.abs(fd - force.at(x, y, z)))

        d1, d2 = defect(h), defect(h / 2)
        order = math.log2(d1 / d2)
        assert abs(order - 2.0) < 0.2

    @given(
        st.floats(0.15, 0.8),
        st.floats(0.0, 2 * math.pi),
        st.floats(-0.6, 0.6),
    )
    @settings(max_examples=40)
    def test_axial_rotation_symmetry(self, rho, phi, z):
        # expectation depends on (rho, z) only
        F = fields.force_operator()
        uu = spins.basis_state("up", "up")
        a0 = spins.expectation(F.at(rho, 0.0, z) if rho**2 + z**2 > 0.01 else F.at(0.3, 0, 0.3), uu)
        x, y = rho * math.cos(phi), rho * math.sin(phi)
        if rho**2 + z**2 <= 0.01:
            return
        a1 = spins.expectation(F.at(x, y, z), uu)
        assert a1 == pytest.approx(a0, rel=1e-9, abs=1e-12)

    @given(st.floats(0.1, 0.6), st.floats(-0.5, -0.1), st.floats(0.1, 0.6))
    @settings(max_examples=40)
    def test_parity_odd_in_z(self, x, y, z):
        F = fields.force_operator()
        uu = spins.basis_state("up", "up")
        plus = spins.expectation(F.at(x, y, z), uu)
        minus = spins.expectation(F.at(x, y, -z), uu)
        assert minus == pytest.approx(-plus, rel=1e-10, abs=1e-12)

    def test_coupling_sign_flips_force(self):
        r = (0.1, 0.2, 0.4)
        uu = spins.basis_state("up", "up")
        a_plus = spins.expectation(fields.force_operator(1).at(*r), uu)
        a_minus = spins.expectation(fields.force_operator(-1).at(*r), uu)
        assert a_minus == pytest.approx(-a_plus, rel=1e-14)
