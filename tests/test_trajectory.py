"""Screen-deflection estimate pipeline."""

import pytest

from spinloop import packets, spins, trajectory, units
from spinloop.errors import ValidationError


class TestEstimate:
    def test_reference_configuration(self, preset_params):
        est = trajectory.estimate(
            preset_params, tau=1e-3, speed=1e3,
            avg_acceleration_natural=-2.22, region_width_natural=0.65,
        )
        assert 1e-16 <= est.deflection_m <= 1e-14
        assert 1e-9 <= est.interaction_time_s <= 1e-7
        assert 3e-6 <= est.length_unit_m <= 3e-5

    def test_invariants_exact(self, preset_params):
        est = trajectory.estimate(
            preset_params, tau=1e-3, speed=1.7e3,
            avg_acceleration_natural=-2.0, region_width_natural=0.6,
        )
        assert est.interaction_time_s == est.region_width_m / est.speed_ms
        assert est.deflection_m == 0.5 * abs(est.avg_acceleration_ms2) * est.interaction_time_s**2

    def test_zero_acceleration(self, preset_params):
        est = trajectory.estimate(
            preset_params, tau=1e-3, speed=1e3,
            avg_acceleration_natural=0.0, region_width_natural=0.65,
        )
        assert est.deflection_m == 0.0

    def test_speed_scaling(self, preset_params):
        e1 = trajectory.estimate(preset_params, 1e-3, 1e3, -2.22, 0.65)
        e2 = trajectory.estimate(preset_params, 1e-3, 2e3, -2.22, 0.65)
        assert e2.interaction_time_s == pytest.approx(e1.interaction_time_s / 2, rel=1e-12)
        assert e2.deflection_m == pytest.approx(e1.deflection_m / 4, rel=1e-12)

    def test_rejects_nonpositive_speed(self, preset_params):
        with pytest.raises(ValidationError):
            trajectory.estimate(preset_params, 1e-3, 0.0, -2.22, 0.65)


class TestSeparation:
    def test_reference_ratio(self):
        assert trajectory.separation_vs_packet(1e-15, 1e-10) == pytest.approx(2e-5)

    def test_equal_values(self):
        assert trajectory.separation_vs_packet(1.0, 1.0) == 2.0

    def test_zero_deflection(self):
        assert trajectory.separation_vs_packet(0.0, 1e-10) == 0.0

    def test_rejects_zero_width(self):
        with pytest.raises(ValidationError):
            trajectory.separation_vs_packet(1e-15, 0.0)


class TestScaleConsistency:
    def test_tau_rescaling_preserves_si_prediction(self, preset_params):
        """Recomputing the whole pipeline with tau' = 4 tau (hence another l)
        at the same physical geometry must give the same SI deflection."""
        tau1, tau2 = 1e-3, 4e-3
        u1 = units.derive_length_unit(preset_params, tau1)
        u2 = units.derive_length_unit(preset_params, tau2)
        spin = spins.parallel_mixture()

        results = []
        for u, tau in ((u1, tau1), (u2, tau2)):
            # identical physical sweep, expressed in each unit system
            z_nat = 0.4 * u1.l / u.l
            width_nat = 1e-3 * u1.l / u.l
            y_max = 0.5 * u1.l / u.l
            prof = packets.acceleration_profile(
                spin, z=z_nat, x=0.0, y_range=(-y_max, y_max),
                n_samples=151, width=width_nat,
            )
            avg = packets.region_average(prof)
            crossings = packets.zero_crossings(prof)
            est = trajectory.estimate(
                preset_params, tau=tau, speed=1e3,
                avg_acceleration_natural=avg,
                region_width_natural=crossings[-1] - crossings[0],
            )
            results.append(est.deflection_m)
        assert results[1] == pytest.approx(results[0], rel=1e-2)
