"""Spin algebra: generators, embeddings, states, expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinloop import spins
from spinloop.errors import ValidationError

# Hand-written matrices (hbar = 1) used as the independent reference for
# every expectation below; none of these go through spin_generator.
SX = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
SY = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
SZ = np.array([[0.5, 0], [0, -0.5]], dtype=complex)
I2 = np.eye(2)


def kron(a, b):
    return np.kron(a, b)


def assert_density(rho, tol=1e-12):
    """Hermitian, unit trace and positive semidefinite."""
    assert np.max(np.abs(rho - rho.conj().T)) <= tol
    assert abs(np.trace(rho).real - 1.0) <= tol
    assert np.min(np.linalg.eigvalsh(rho)) >= -tol


class TestGenerators:
    def test_sz_diagonal(self):
        assert np.allclose(spins.spin_generator("z"), np.diag([0.5, -0.5]))

    @pytest.mark.parametrize("axis", "xyz")
    def test_square_is_quarter_identity(self, axis):
        s = spins.spin_generator(axis)
        assert np.allclose(s @ s, 0.25 * np.eye(2))

    @pytest.mark.parametrize("axis", "xyz")
    def test_hermitian_and_eigenvalues(self, axis):
        s = spins.spin_generator(axis)
        assert np.max(np.abs(s - s.conj().T)) <= 1e-12
        assert np.allclose(np.sort(np.linalg.eigvalsh(s)), [-0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize(
        "a,b,c", [("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")]
    )
    def test_su2_commutators_exact(self, a, b, c):
        lhs = spins.commutator(spins.spin_generator(a), spins.spin_generator(b))
        assert np.max(np.abs(lhs - 1j * spins.spin_generator(c))) == 0.0

    def test_unknown_axis(self):
        with pytest.raises(ValidationError):
            spins.spin_generator("w")


class TestEmbedding:
    def test_particle_slot_diagonal(self):
        assert np.allclose(
            spins.embed(spins.spin_generator("z"), "particle"),
            np.diag([0.5, 0.5, -0.5, -0.5]),
        )

    def test_loop_slot_diagonal(self):
        assert np.allclose(
            spins.embed(spins.spin_generator("z"), "loop"),
            np.diag([0.5, -0.5, 0.5, -0.5]),
        )

    def test_double_flip(self):
        op = spins.embed(spins.spin_generator("x"), "particle") @ spins.embed(
            spins.spin_generator("x"), "loop"
        )
        out = op @ spins.basis_state("up", "up")
        assert np.allclose(out, 0.25 * spins.basis_state("down", "down"))

    @pytest.mark.parametrize("a", "xyz")
    @pytest.mark.parametrize("b", "xyz")
    def test_slots_commute(self, a, b):
        p = spins.embed(spins.spin_generator(a), "particle")
        l = spins.embed(spins.spin_generator(b), "loop")
        assert np.max(np.abs(spins.commutator(p, l))) == 0.0


class TestSpinDot:
    def test_spectrum(self):
        eigs = np.sort(np.linalg.eigvalsh(spins.spin_dot()))
        assert np.allclose(eigs, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_triplet_expectation(self):
        uu = spins.basis_state("up", "up")
        assert spins.expectation(spins.spin_dot(), uu) == pytest.approx(0.25, abs=1e-14)

    def test_singlet_expectation(self):
        assert spins.expectation(spins.spin_dot(), spins.singlet()) == pytest.approx(
            -0.75, abs=1e-14
        )

    def test_up_down_expectation(self):
        # independent route: hand-built 4x4
        ref = kron(SX, SX) + kron(SY, SY) + kron(SZ, SZ)
        ud = np.array([0, 1, 0, 0], dtype=complex)
        expected = (ud.conj() @ ref @ ud).real
        assert expected == pytest.approx(-0.25, abs=1e-15)
        assert spins.expectation(spins.spin_dot(), spins.basis_state("up", "down")) == (
            pytest.approx(-0.25, abs=1e-14)
        )


class TestStates:
    @pytest.mark.parametrize(
        "p,l,vec",
        [
            ("up", "up", [1, 0, 0, 0]),
            ("up", "down", [0, 1, 0, 0]),
            ("down", "up", [0, 0, 1, 0]),
            ("down", "down", [0, 0, 0, 1]),
        ],
    )
    def test_basis_ordering(self, p, l, vec):
        assert np.allclose(spins.basis_state(p, l), vec)

    def test_superpose_normalizes(self):
        uu, dd = spins.basis_state("up", "up"), spins.basis_state("down", "down")
        out = spins.superpose([uu, dd], [1, 1])
        assert np.allclose(out, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_superpose_rescales_single(self):
        out = spins.superpose([spins.basis_state("up", "up")], [3])
        assert np.allclose(out, [1, 0, 0, 0])

    def test_singlet_construction(self):
        assert np.allclose(spins.singlet(), np.array([0, 1, -1, 0]) / np.sqrt(2))

    def test_degenerate_superposition(self):
        uu = spins.basis_state("up", "up")
        with pytest.raises(ValidationError, match="degenerate"):
            spins.superpose([uu, uu], [1, -1])

    def test_mixture_diagonal(self):
        rho = spins.parallel_mixture()
        assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]))
        assert_density(rho)

    def test_mixture_rank_one(self):
        uu = spins.basis_state("up", "up")
        rho = spins.mixture([uu], [1.0])
        assert np.allclose(rho, np.outer(uu, uu.conj()))

    def test_pure_mixture_purity(self):
        rho = spins.mixture([spins.singlet()], [1.0])
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-14)

    def test_equal_mixture_of_basis_is_maximally_mixed(self):
        states = [
            spins.basis_state(p, l) for p in ("up", "down") for l in ("up", "down")
        ]
        rho = spins.mixture(states, [0.25] * 4)
        assert np.allclose(rho, np.eye(4) / 4)

    def test_mixture_rejects_negative_weight(self):
        uu = spins.basis_state("up", "up")
        with pytest.raises(ValidationError):
            spins.mixture([uu, uu], [1.5, -0.5])

    def test_mixture_rejects_bad_sum(self):
        uu = spins.basis_state("up", "up")
        with pytest.raises(ValidationError):
            spins.mixture([uu], [0.9])


class TestExpectation:
    def test_szsz_up_up(self):
        op = kron(SZ, SZ)
        assert spins.expectation(op, spins.basis_state("up", "up")) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_sxsx_on_parallel_coherent(self):
        # reference by direct matrix evaluation
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        ref = (psi.conj() @ kron(SX, SX) @ psi).real
        assert ref == pytest.approx(0.25, abs=1e-15)
        assert spins.expectation(kron(SX, SX), spins.parallel_coherent()) == pytest.approx(
            0.25, abs=1e-14
        )

    def test_sysy_on_parallel_coherent(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        ref = (psi.conj() @ kron(SY, SY) @ psi).real
        assert ref == pytest.approx(-0.25, abs=1e-15)
        assert spins.expectation(kron(SY, SY), spins.parallel_coherent()) == pytest.approx(
            -0.25, abs=1e-14
        )

    def test_density_route_matches_vector_route(self):
        psi = spins.parallel_coherent()
        rho = spins.mixture([psi], [1.0])
        op = kron(SX, SY)
        assert spins.expectation(op, rho) == pytest.approx(
            spins.expectation(op, psi), abs=1e-14
        )

    def test_non_hermitian_rejected(self):
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 3] = 1.0j  # one-sided coupling, expectation picks up 0.5j
        with pytest.raises(ValidationError, match="non-Hermitian"):
            spins.expectation(skew, spins.parallel_coherent())


@st.composite
def random_state(draw):
    re = draw(
        st.lists(st.floats(-1, 1, allow_nan=False, allow_infinity=False), min_size=4, max_size=4)
    )
    im = draw(
        st.lists(st.floats(-1, 1, allow_nan=False, allow_infinity=False), min_size=4, max_size=4)
    )
    vec = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = np.array([1.0, 0, 0, 0], dtype=complex)
        norm = 1.0
    return vec / norm


@given(random_state())
@settings(max_examples=60)
def test_expectation_real_for_hermitian(psi):
    for i in range(3):
        for j in range(3):
            val = spins.expectation(spins.SPIN_PAIR[i][j], psi)
            assert isinstance(val, float)
            assert -0.26 <= val <= 0.26


@given(random_state(), random_state(), st.floats(0.05, 0.95))
@settings(max_examples=40)
def test_mixture_trace_and_positivity(a, b, w):
    rho = spins.mixture([a, b], [w, 1.0 - w])
    assert_density(rho)
