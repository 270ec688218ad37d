"""Dimensional parameters, natural units, conversions."""

import pytest

from spinloop import units
from spinloop.errors import ValidationError

# Reference configuration, frozen from direct arithmetic with the CODATA
# constants in spinloop.units:
#   alpha = -e/(2 m_e)              = -8.79410005386e10
#   beta  = I pi R^2 / (hbar/2)     =  5.95804401928e16   (I = 1 uA, R = 1 um)
#   l     = (mu0 |ab| hbar^2 tau^2 / m_p)^(1/5), tau = 1 ms
ALPHA_REF = -units.ELEMENTARY_CHARGE / (2.0 * units.ELECTRON_MASS)
BETA_LOOP_REF = 5.958044019281416e16
L_REF = 8.477189707953325e-06


def preset_like_params():
    return units.PhysicalParams(
        alpha=ALPHA_REF, beta=-BETA_LOOP_REF, mass=units.PROTON_MASS
    )


class TestPhysicalParams:
    def test_rejects_zero_coupling(self):
        with pytest.raises(ValidationError):
            units.PhysicalParams(alpha=0.0, beta=1.0, mass=1.0)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValidationError):
            units.PhysicalParams(alpha=1.0, beta=1.0, mass=0.0)

    def test_coupling_sign(self):
        assert preset_like_params().coupling_sign == 1
        flipped = units.PhysicalParams(alpha=ALPHA_REF, beta=BETA_LOOP_REF, mass=1.0)
        assert flipped.coupling_sign == -1


class TestDeriveLengthUnit:
    def test_reference_value(self):
        nu = units.derive_length_unit(preset_like_params(), tau=1e-3)
        assert nu.l == pytest.approx(L_REF, rel=1e-12)

    def test_order_of_magnitude_band(self):
        nu = units.derive_length_unit(preset_like_params(), tau=1e-3)
        assert 3e-6 <= nu.l <= 3e-5

    def test_power_law_scaling(self):
        p = preset_like_params()
        l1 = units.derive_length_unit(p, tau=1e-3).l
        l2 = units.derive_length_unit(p, tau=2e-3).l
        assert l2 / l1 == pytest.approx(2.0 ** 0.4, rel=1e-12)

    def test_small_tau_limit(self):
        # l ~ tau^(2/5) decreases monotonically to zero with tau
        p = preset_like_params()
        l_ms = units.derive_length_unit(p, tau=1e-3).l
        l_ns = units.derive_length_unit(p, tau=1e-9).l
        l_fs = units.derive_length_unit(p, tau=1e-15).l
        assert l_fs < l_ns < l_ms
        assert l_fs < 1e-9

    def test_invariant_holds_by_construction(self):
        p = preset_like_params()
        nu = units.derive_length_unit(p, tau=1e-3)
        lhs = nu.l**5
        rhs = p.mu0 * abs(p.alpha * p.beta) * p.hbar**2 / p.mass * nu.tau**2
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValidationError):
            units.derive_length_unit(preset_like_params(), tau=0.0)


class TestBetaFromLoop:
    def test_reference_loop(self):
        beta = units.beta_from_loop(1e-6, 1e-6)
        assert beta == pytest.approx(BETA_LOOP_REF, rel=1e-12)
        assert beta / abs(ALPHA_REF) == pytest.approx(677504.6886879227, rel=1e-12)

    def test_ratio_band(self):
        ratio = units.beta_from_loop(1e-6, 1e-6) / abs(ALPHA_REF)
        assert 2e5 <= ratio <= 2e6

    def test_radius_scaling(self):
        assert units.beta_from_loop(1e-6, 0.5e-6) == pytest.approx(
            units.beta_from_loop(1e-6, 1e-6) / 4.0, rel=1e-14
        )

    def test_rejects_zero_current(self):
        with pytest.raises(ValidationError):
            units.beta_from_loop(0.0, 1e-6)


class TestConversions:
    def setup_method(self):
        self.nu = units.NaturalUnits(l=8.5e-6, tau=1e-3)

    def test_length_unit_maps_to_one(self):
        assert units.from_natural(1.0, "length", self.nu) == self.nu.l

    def test_acceleration_roundtrip_shape(self):
        assert units.from_natural(1.0, "acceleration", self.nu) == pytest.approx(
            self.nu.l / self.nu.tau**2
        )

    def test_unknown_dimension(self):
        with pytest.raises(ValidationError, match="unknown dimension"):
            units.from_natural(1.0, "charge", self.nu)


def test_kinetic_scale_reference():
    p = preset_like_params()
    nu = units.derive_length_unit(p, tau=1e-3)
    kappa = units.kinetic_scale(p, nu)
    assert kappa == pytest.approx(0.8773534162632591, rel=1e-10)


def test_natural_prefactor_is_unity():
    # mu0 |alpha beta| hbar^2 / m expressed in natural units l^5 / tau^2 is 1.
    p = preset_like_params()
    nu = units.derive_length_unit(p, tau=1e-3)
    combo = p.mu0 * abs(p.alpha * p.beta) * p.hbar**2 / p.mass
    assert combo / (nu.l**5 / nu.tau**2) == pytest.approx(1.0, rel=1e-12)
