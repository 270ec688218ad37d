"""EPR two-wing correlation model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinloop import epr
from spinloop.errors import NumericalError, ValidationError

probs = st.floats(0.0, 1.0, allow_nan=False)


class TestBuildState:
    def test_definite_loops_product_state(self):
        scenario = epr.EPRScenario(bell="singlet", p1_up=1.0, p2_up=1.0)
        state = epr.build_state(scenario)
        expected = np.zeros(16, dtype=complex)
        # singlet (x) |up up>: indices (p1,p2,l1,l2) = (0,1,0,0) and (1,0,0,0)
        expected[0b0100] = 1 / np.sqrt(2)
        expected[0b1000] = -1 / np.sqrt(2)
        assert np.allclose(state, expected)

    @given(probs, probs)
    @settings(max_examples=40)
    def test_unit_norm(self, p1, p2):
        state = epr.build_state(epr.EPRScenario(bell="singlet", p1_up=p1, p2_up=p2))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_density_trace(self):
        scenario = epr.EPRScenario(p1_up=0.3, p2_up=0.6, loop_representation="mixture")
        rho = epr.build_state(scenario)
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
            P = epr.wing_projector(wing, "up") + epr.wing_projector(wing, "down")
            assert np.allclose(P, np.eye(16))

    def test_idempotent(self):
        P = epr.wing_projector(1, "up")
        assert np.allclose(P @ P, P)

    def test_wings_commute(self):
        P1 = epr.wing_projector(1, "up")
        P2 = epr.wing_projector(2, "down")
        assert np.max(np.abs(P1 @ P2 - P2 @ P1)) == 0.0


def kron_projector(wing, outcome):
    """The wing projector built from Kronecker products on every call."""
    basis = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
    eye = np.eye(2, dtype=complex)
    proj = np.zeros((16, 16), dtype=complex)
    for s in range(2):
        for l in range(2):
            if (outcome == "up") != (s == l):
                continue
            ps, pl = np.outer(basis[s], basis[s]), np.outer(basis[l], basis[l])
            factors = (ps, eye, pl, eye) if wing == 1 else (eye, ps, eye, pl)
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            proj += term
    return proj


def reference_joint(scenario):
    """Joint outcome probabilities with freshly built projectors."""
    state = epr.build_state(scenario)
    probs = {}
    for o1 in epr.OUTCOMES:
        for o2 in epr.OUTCOMES:
            P = kron_projector(1, o1) @ kron_projector(2, o2)
            if state.ndim == 1:
                val = complex(state.conj() @ (P @ state))
            else:
                val = complex(np.trace(state @ P))
            probs[(o1, o2)] = max(val.real, 0.0)
    return probs


class TestCachedProjectors:
    def test_read_only(self):
        for wing in (1, 2):
            for outcome in epr.OUTCOMES:
                P = epr.wing_projector(wing, outcome)
                with pytest.raises(ValueError, match="read-only"):
                    P[0, 0] = 2.0
                for other in epr.OUTCOMES:
                    with pytest.raises(ValueError, match="read-only"):
                        epr._joint_projector(outcome, other)[0, 0] = 2.0

    def test_equal_fresh_construction(self):
        for wing in (1, 2):
            for outcome in epr.OUTCOMES:
                assert np.array_equal(epr.wing_projector(wing, outcome),
                                      kron_projector(wing, outcome))

    def test_invalid_arguments_still_rejected(self):
        epr.wing_projector(1, "up")
        with pytest.raises(ValidationError):
            epr.wing_projector(3, "up")
        with pytest.raises(ValidationError):
            epr.wing_projector(1, "sideways")

    def test_preset_joint_unchanged(self):
        scenario = epr.EPRScenario()
        assert epr.joint_distribution(scenario).as_dict() == reference_joint(scenario)

    @given(probs, probs, st.sampled_from(epr.BELL_STATES),
           st.sampled_from(["coherent", "mixture"]))
    @settings(max_examples=60)
    def test_joint_unchanged(self, p1, p2, bell, representation):
        scenario = epr.EPRScenario(bell=bell, p1_up=p1, p2_up=p2,
                                   loop_representation=representation)
        assert epr.joint_distribution(scenario).as_dict() == reference_joint(scenario)


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
        coh = epr.joint_distribution(
            epr.EPRScenario(bell=bell, p1_up=p1, p2_up=p2, loop_representation="coherent")
        )
        mix = epr.joint_distribution(
            epr.EPRScenario(bell=bell, p1_up=p1, p2_up=p2, loop_representation="mixture")
        )
        for k in coh.as_dict():
            assert coh.as_dict()[k] == pytest.approx(mix.as_dict()[k], abs=1e-12)

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


class TestNegativeProbabilities:
    @staticmethod
    def diagonal_state(monkeypatch, up_up, up_down):
        # index = 8 p1 + 4 p2 + 2 l1 + l2: 0 is (up, up), 1 is (up, down)
        weights = np.zeros(16)
        weights[0], weights[1] = up_up, up_down
        monkeypatch.setattr(epr, "build_state", lambda scenario: np.diag(weights).astype(complex))

    def test_rounding_noise_clamps_to_zero(self, monkeypatch):
        self.diagonal_state(monkeypatch, -1e-15, 1.0 + 1e-15)
        dist = epr.joint_distribution(epr.EPRScenario())
        assert dist.up_up == 0.0
        assert dist.up_down == pytest.approx(1.0, abs=1e-14)

    def test_negative_probability_raises(self, monkeypatch):
        # clamping -0.1 to 0 would hide it: the rest sums to exactly 1
        self.diagonal_state(monkeypatch, -0.1, 1.0)
        with pytest.raises(NumericalError, match="negative outcome probability"):
            epr.joint_distribution(epr.EPRScenario())


# ---------------------------------------------------------------------------
# The outer-product Kronecker builder against chained np.kron, bit for bit
# ---------------------------------------------------------------------------

entries = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)


@st.composite
def kron_factors(draw):
    """2-4 factors, all vectors or all matrices, real or complex."""
    matrix = draw(st.booleans())
    complex_ = draw(st.booleans())
    factors = []
    for _ in range(draw(st.integers(2, 4))):
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3))) if matrix else (
            draw(st.integers(1, 4)),)
        size = int(np.prod(shape))
        re = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
        if complex_:
            im = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
            factors.append((re + 1j * im).reshape(shape))
        else:
            factors.append(re.reshape(shape))
    return factors


def chained_kron(*ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


class TestKron:
    @given(kron_factors())
    @settings(max_examples=200, deadline=None)
    def test_equals_chained_np_kron(self, factors):
        got, ref = epr._kron(*factors), chained_kron(*factors)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_complex_products_round_like_np_kron(self):
        # numpy has more than one complex-multiply loop, and they may round
        # differently in the last bit; about half of these products expose
        # a builder that runs another loop than np.kron (np.multiply.outer).
        rng = np.random.default_rng(5)

        def draw(*shape):
            return rng.uniform(-1e6, 1e6, shape) + 1j * rng.uniform(-1e6, 1e6, shape)

        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for _ in range(20):
                    a, b, c, d = draw(n), draw(m), draw(n, m), draw(m, n)
                    assert epr._kron(a, b).tobytes() == chained_kron(a, b).tobytes()
                    assert epr._kron(c, d).tobytes() == chained_kron(c, d).tobytes()

    @given(probs, probs, st.sampled_from(epr.BELL_STATES),
           st.sampled_from(["coherent", "mixture"]))
    @settings(max_examples=60)
    def test_build_state_equals_np_kron_build(self, p1, p2, bell, representation):
        up, down = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
        pair = {
            "singlet": (chained_kron(up, down) - chained_kron(down, up)) / np.sqrt(2.0),
            "triplet0": (chained_kron(up, down) + chained_kron(down, up)) / np.sqrt(2.0),
            "triplet+": chained_kron(up, up),
            "triplet-": chained_kron(down, down),
        }[bell]
        if representation == "coherent":
            loops = [np.sqrt(p) * up + np.sqrt(1.0 - p) * down for p in (p1, p2)]
            ref = chained_kron(pair, *loops)
        else:
            loops = [np.diag([p, 1.0 - p]).astype(complex) for p in (p1, p2)]
            ref = chained_kron(np.outer(pair, pair.conj()), *loops)
        scenario = epr.EPRScenario(bell=bell, p1_up=p1, p2_up=p2,
                                   loop_representation=representation)
        assert epr.build_state(scenario).tobytes() == ref.tobytes()
