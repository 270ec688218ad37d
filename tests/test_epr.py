"""EPR two-wing correlation model."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinloop import epr
from spinloop.errors import ValidationError

probs = st.floats(0.0, 1.0, allow_nan=False)

# ---------------------------------------------------------------------------
# Test oracle: the 16-dim composite state, ordered (particle1, particle2,
# loop1, loop2), and the wing projectors, built from Kronecker products
# ---------------------------------------------------------------------------

UP, DOWN = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
EYE = np.eye(2, dtype=complex)


def kron(*ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def bell_vector(name):
    return {
        "singlet": (kron(UP, DOWN) - kron(DOWN, UP)) / np.sqrt(2.0),
        "triplet0": (kron(UP, DOWN) + kron(DOWN, UP)) / np.sqrt(2.0),
        "triplet+": kron(UP, UP),
        "triplet-": kron(DOWN, DOWN),
    }[name]


def oracle_state(scenario):
    """16-vector for coherent loops sqrt(p)|up> + sqrt(1-p)|down>, 16x16
    density for mixture loops diag(p, 1-p)."""
    pair = bell_vector(scenario.bell)
    ps = (scenario.p1_up, scenario.p2_up)
    if scenario.loop_representation == "coherent":
        return kron(pair, *(np.sqrt(p) * UP + np.sqrt(1.0 - p) * DOWN for p in ps))
    return kron(np.outer(pair, pair.conj()), *(np.diag([p, 1.0 - p]).astype(complex) for p in ps))


def oracle_projector(wing, outcome):
    """Projector onto one wing's parallel ('up') or antiparallel ('down') pairs."""
    proj = np.zeros((16, 16), dtype=complex)
    for s, spin in enumerate((UP, DOWN)):
        for l, loop in enumerate((UP, DOWN)):
            if (outcome == "up") == (s == l):
                ps, pl = np.outer(spin, spin), np.outer(loop, loop)
                proj += kron(ps, EYE, pl, EYE) if wing == 1 else kron(EYE, ps, EYE, pl)
    return proj


def oracle_joint(scenario):
    state = oracle_state(scenario)
    joint = {}
    for o1 in epr.OUTCOMES:
        for o2 in epr.OUTCOMES:
            P = oracle_projector(1, o1) @ oracle_projector(2, o2)
            if state.ndim == 1:
                joint[(o1, o2)] = (state.conj() @ P @ state).real
            else:
                joint[(o1, o2)] = np.trace(state @ P).real
    return joint


class TestBuildState:
    def test_definite_loops_product_state(self):
        state = oracle_state(epr.EPRScenario(bell="singlet", p1_up=1.0, p2_up=1.0))
        expected = np.zeros(16, dtype=complex)
        # singlet (x) |up up>: indices (p1,p2,l1,l2) = (0,1,0,0) and (1,0,0,0)
        expected[0b0100] = 1 / np.sqrt(2)
        expected[0b1000] = -1 / np.sqrt(2)
        assert np.allclose(state, expected)

    @given(probs, probs)
    @settings(max_examples=40)
    def test_unit_norm(self, p1, p2):
        state = oracle_state(epr.EPRScenario(bell="singlet", p1_up=p1, p2_up=p2))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_density_trace(self):
        scenario = epr.EPRScenario(p1_up=0.3, p2_up=0.6, loop_representation="mixture")
        rho = oracle_state(scenario)
        assert rho.shape == (16, 16)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_unknown_bell_state(self):
        with pytest.raises(ValidationError):
            epr.EPRScenario(bell="bogus")

    def test_probability_range_checked(self):
        with pytest.raises(ValidationError):
            epr.EPRScenario(p1_up=1.2)


class TestProjectors:
    def test_complementary(self):
        for wing in (1, 2):
            P = oracle_projector(wing, "up") + oracle_projector(wing, "down")
            assert np.allclose(P, np.eye(16))

    def test_idempotent(self):
        P = oracle_projector(1, "up")
        assert np.allclose(P @ P, P)

    def test_wings_commute(self):
        P1 = oracle_projector(1, "up")
        P2 = oracle_projector(2, "down")
        assert np.max(np.abs(P1 @ P2 - P2 @ P1)) == 0.0


edge_probs = st.sampled_from([0.0, 1.0]) | probs


class TestCachedProjectors:
    """The closed form gives the joint the 16-dim projector build gave, for
    coherent and mixture loops alike, within 4 eps."""

    @staticmethod
    def assert_matches_16_dim_build(scenario):
        got = epr.joint_distribution(scenario).as_dict()
        ref = oracle_joint(scenario)
        for key, value in ref.items():
            assert abs(got[key] - value) <= 4 * np.finfo(float).eps, key

    def test_preset_joint_unchanged(self):
        for representation in ("coherent", "mixture"):
            self.assert_matches_16_dim_build(
                epr.EPRScenario(loop_representation=representation))

    @given(edge_probs, edge_probs, st.sampled_from(epr.BELL_STATES),
           st.sampled_from(["coherent", "mixture"]))
    @example(0.1, 0.1, "singlet", "coherent")  # the preset
    @settings(max_examples=200, deadline=None)
    def test_joint_unchanged(self, p1, p2, bell, representation):
        self.assert_matches_16_dim_build(
            epr.EPRScenario(bell=bell, p1_up=p1, p2_up=p2,
                            loop_representation=representation))


class TestReferenceNumbers:
    def test_unequal_superposition_correlation(self):
        dist = epr.joint_distribution(epr.EPRScenario(p1_up=0.1, p2_up=0.1))
        assert dist.marginal(1, "down") == pytest.approx(0.5, abs=1e-12)
        cond = epr.conditional(dist, 1, "down")
        assert cond["up"] == pytest.approx(0.82, abs=1e-9)
        assert cond["down"] == pytest.approx(0.18, abs=1e-9)

    def test_equal_superposition_no_correlation(self):
        dist = epr.joint_distribution(epr.EPRScenario(p1_up=0.5, p2_up=0.5))
        for v in dist.as_dict().values():
            assert v == pytest.approx(0.25, abs=1e-12)
        cond = epr.conditional(dist, 1, "down")
        assert cond["up"] == pytest.approx(0.5, abs=1e-12)

    def test_definite_loops_perfect_anticorrelation(self):
        dist = epr.joint_distribution(epr.EPRScenario(p1_up=1.0, p2_up=1.0))
        assert dist.up_down + dist.down_up == pytest.approx(1.0, abs=1e-12)

    def test_p09_symmetric(self):
        dist = epr.joint_distribution(epr.EPRScenario(p1_up=0.9, p2_up=0.9))
        assert epr.conditional(dist, 1, "down")["up"] == pytest.approx(0.82, abs=1e-9)

    def test_closed_form_for_singlet(self):
        # P(up@2 | down@1) = p^2 + (1-p)^2 for equal weights
        for p in (0.1, 0.25, 0.4, 0.7):
            dist = epr.joint_distribution(epr.EPRScenario(p1_up=p, p2_up=p))
            assert epr.conditional(dist, 1, "down")["up"] == pytest.approx(
                p**2 + (1 - p) ** 2, abs=1e-12
            )


class TestInvariants:
    @given(probs, probs, st.sampled_from(epr.BELL_STATES))
    @settings(max_examples=60)
    def test_distribution_valid(self, p1, p2, bell):
        dist = epr.joint_distribution(epr.EPRScenario(bell=bell, p1_up=p1, p2_up=p2))
        values = list(dist.as_dict().values())
        assert all(v >= 0 for v in values)
        assert sum(values) == pytest.approx(1.0, abs=1e-12)

    @given(probs, probs)
    @settings(max_examples=40)
    def test_singlet_wing1_marginal_always_half(self, p1, p2):
        dist = epr.joint_distribution(epr.EPRScenario(p1_up=p1, p2_up=p2))
        assert dist.marginal(1, "down") == pytest.approx(0.5, abs=1e-12)

    @given(probs, probs, st.sampled_from(epr.BELL_STATES))
    @settings(max_examples=60)
    def test_coherent_equals_mixture(self, p1, p2, bell):
        """Coherent and mixed loops give the same joint: the 16-dim builds of
        both agree with the closed form, which reads neither."""
        closed = epr.joint_distribution(epr.EPRScenario(bell=bell, p1_up=p1, p2_up=p2))
        for representation in ("coherent", "mixture"):
            built = oracle_joint(epr.EPRScenario(
                bell=bell, p1_up=p1, p2_up=p2, loop_representation=representation))
            for key, value in built.items():
                assert abs(closed.as_dict()[key] - value) <= 4 * np.finfo(float).eps, representation

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=40)
    def test_p_reflection_symmetry(self, p):
        d1 = epr.joint_distribution(epr.EPRScenario(p1_up=p, p2_up=p))
        d2 = epr.joint_distribution(epr.EPRScenario(p1_up=1 - p, p2_up=1 - p))
        assert epr.conditional(d1, 1, "down")["up"] == pytest.approx(
            epr.conditional(d2, 1, "down")["up"], abs=1e-12
        )


class TestConditional:
    def test_uniform_joint_gives_uniform_conditional(self):
        dist = epr.JointDistribution(0.25, 0.25, 0.25, 0.25)
        assert epr.conditional(dist, 2, "up") == {"up": 0.5, "down": 0.5}

    def test_degenerate_joint(self):
        dist = epr.JointDistribution(1.0, 0.0, 0.0, 0.0)
        cond = epr.conditional(dist, 1, "up")
        assert cond["up"] == 1.0 and cond["down"] == 0.0

    def test_zero_marginal_rejected(self):
        dist = epr.JointDistribution(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            epr.conditional(dist, 1, "down")


class TestSweep:
    def test_reference_points(self):
        rows = dict(epr.correlation_sweep([0.1, 0.5, 0.9]))
        assert rows[0.1] == pytest.approx(0.82, abs=1e-9)
        assert rows[0.5] == pytest.approx(0.5, abs=1e-12)
        assert rows[0.9] == pytest.approx(0.82, abs=1e-9)

    def test_rejects_zero_probability(self):
        with pytest.raises(ValidationError):
            epr.correlation_sweep([0.0, 0.5])

    def test_csv_format(self):
        text = epr.sweep_csv([(0.1, 0.82), (0.5, 0.5)])
        lines = text.strip().split("\n")
        assert lines[0] == "p,cond_up_given_down"
        assert lines[1] == "0.1,0.82"
