"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from spinloop import config as cfgmod
from spinloop import deflection as dfl
from spinloop import epr, fields, gridsim, packets, spins, trajectory, units
from spinloop.cli import main


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({label}): PASS in {elapsed:.2f}s")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_spin_algebra_exactness():
    with criterion(1, "spin algebra exactness", 1.0):
        generators = {a: spins.spin_generator(a) for a in "xyz"}
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            defect = spins.commutator(generators[a], generators[b]) - 1j * generators[c]
            assert np.max(np.abs(defect)) < 1e-12
        eigs = np.sort(np.linalg.eigvalsh(spins.spin_dot()))
        assert np.max(np.abs(eigs - np.array([-0.75, 0.25, 0.25, 0.25]))) < 1e-12


def test_criterion_2_force_is_gradient_of_coupling():
    with criterion(2, "force equals -d/dz of coupling, order 2", 1.0):
        force = fields.force_operator()
        coupling = fields.interaction_hamiltonian()
        orders = []
        for point in [(0.15, -0.2, 0.35), (0.0, 0.25, 0.4), (0.3, 0.1, -0.3)]:
            x, y, z = point

            def defect(h):
                fd = -(coupling.at(x, y, z + h) - coupling.at(x, y, z - h)) / (2 * h)
                return np.max(np.abs(fd - force.at(x, y, z)))

            orders.append(math.log2(defect(1e-3) / defect(5e-4)))
        for order in orders:
            assert abs(order - 2.0) <= 0.2, f"convergence order {order}"


@pytest.fixture(scope="module")
def reference_profile():
    return packets.acceleration_profile(
        spins.parallel_mixture(), z=0.4, x=0.0, y_range=(-0.5, 0.5),
        n_samples=201, width=1e-3,
    )


def test_criterion_3_transverse_profile(reference_profile):
    with criterion(3, "profile peak, crossings, negative-region average", 10.0):
        idx = int(np.argmin(np.abs(reference_profile.y)))
        peak = reference_profile.a_z[idx]
        assert peak == pytest.approx(-4.66, rel=0.01)
        crossings = packets.zero_crossings(reference_profile)
        assert len(crossings) == 2
        assert crossings[0] == pytest.approx(-0.327, abs=0.005)
        assert crossings[1] == pytest.approx(+0.327, abs=0.005)
        width = crossings[1] - crossings[0]
        assert width == pytest.approx(0.65, abs=0.01)  # "approximate width 0.6"
        average = packets.region_average(reference_profile)
        assert average == pytest.approx(-2.22, rel=0.10)


def test_criterion_4_antiparallel_mirror(reference_profile):
    with criterion(4, "antiparallel profile is the exact mirror", 10.0):
        anti = packets.acceleration_profile(
            spins.antiparallel_mixture(), z=0.4, x=0.0, y_range=(-0.5, 0.5),
            n_samples=201, width=1e-3,
        )
        scale = np.max(np.abs(reference_profile.a_z))
        assert np.max(np.abs(anti.a_z + reference_profile.a_z)) <= 1e-10 * scale


def test_criterion_5_classical_dipole_limit(preset_params, preset_units):
    with criterion(5, "narrow on-axis packet matches the classical dipole force", 5.0):
        z0 = 0.4
        packet = packets.WavePacket(center=(0.0, 0.0, z0), width=1e-3)
        m = packets.moments(packet, list(dfl.PARALLEL_TUPLES))
        a_nat = dfl.parallel_closed_form(m, params=preset_params)
        force_si = preset_params.mass * units.from_natural(a_nat, "acceleration", preset_units)
        classical = dfl.classical_dipole_force(
            preset_params.alpha * preset_params.hbar / 2.0,
            preset_params.beta * preset_params.hbar / 2.0,
            z0 * preset_units.l,
            preset_params.mu0,
        )
        assert force_si == pytest.approx(classical, rel=5e-3)


def test_criterion_6_si_estimates(preset_cfg, preset_params, preset_units, reference_profile):
    with criterion(6, "SI pipeline: length unit, coupling ratio, deflection, time", 1.0):
        assert 3e-6 <= preset_units.l <= 3e-5
        ratio = preset_params.beta / preset_params.alpha
        assert 2e5 <= ratio <= 2e6
        average = packets.region_average(reference_profile)
        crossings = packets.zero_crossings(reference_profile)
        est = trajectory.estimate(
            preset_params,
            tau=preset_cfg["tau"],
            speed=preset_cfg["deflect"]["speed"],
            avg_acceleration_natural=average,
            region_width_natural=crossings[-1] - crossings[0],
        )
        assert 1e-16 <= est.deflection_m <= 1e-14
        assert 1e-9 <= est.interaction_time_s <= 1e-7


def test_criterion_7_grid_oracle(preset_cfg, preset_kappa, preset_oracle):
    with criterion(7, "Schrodinger grid versus perturbative force", 300.0):
        o = preset_cfg["oracle"]
        assert o["points"] == 32
        sign = cfgmod.build_params(preset_cfg).coupling_sign
        uu = spins.basis_state("up", "up")

        # main run at the reference kinetic scale
        spec, initial = preset_oracle.spec, preset_oracle.initial
        series, fit = preset_oracle.series, preset_oracle.fit
        assert spec.points_per_axis == o["points"] and spec.kinetic_scale == preset_kappa
        packet = packets.WavePacket(center=tuple(o["center"]), width=o["packet_width"])
        p0 = gridsim.expect_momentum_z(initial, spec)
        moments = gridsim.moments_from_state(initial, spec, dfl.required_tuples_for(uu))
        a_pred = dfl.contract_force(uu, moments, coupling_sign=sign).a_z

        # (a) fitted acceleration within 5% of the contraction
        rel = abs(fit.a - a_pred) / abs(a_pred)
        assert rel <= 0.05, f"fit {fit.a} vs contraction {a_pred} ({100 * rel:.2f}%)"
        # also against continuum-quadrature moments of the nominal packet
        quad = packets.moments(packet, dfl.required_tuples_for(uu))
        a_quad = dfl.contract_force(uu, quad, coupling_sign=sign).a_z
        assert abs(fit.a - a_quad) / abs(a_quad) <= 0.05

        # (b) fitted velocity = kappa <p_z(0)>
        v_ref = preset_kappa * p0
        assert abs(fit.v0 - v_ref) <= 1e-3 * max(abs(v_ref), abs(fit.a) * series.t[-1])

        # (c) norm conservation
        assert series.max_norm_drift() < 1e-8

        # (d) uniform field leaves the fitted acceleration unchanged
        fit_b, series_b = preset_oracle.zeeman_fit, preset_oracle.zeeman_series
        assert abs(fit_b.a - fit.a) <= fit.sigma_a
        assert series_b.max_norm_drift() < 1e-8

        # (e) beyond-quadratic remainder scales as t^3
        r = o["remainder"]
        series_r = preset_oracle.remainder_series
        exponent = gridsim.remainder_scaling(series_r, r["windows"])
        assert exponent == pytest.approx(3.0, abs=0.3), f"remainder exponent {exponent}"
        assert series_r.max_norm_drift() < 1e-8


def _momentum_identity_residual(points: int) -> float:
    """In-test check of the conjugate identity [z, f(p)] = i df/dp with
    f(p) = p^2, using the same central-difference stencil as the evolution."""
    z = np.linspace(-1.0, 1.0, points)
    dx = z[1] - z[0]
    phi = np.exp(-(z**2) / (2 * (1.0 / 6.0) ** 2)).astype(complex)
    phi /= np.linalg.norm(phi)

    def p_apply(u):
        out = np.zeros_like(u)
        out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
        return -1j * out

    lhs = z * p_apply(p_apply(phi)) - p_apply(p_apply(z * phi))
    rhs = 2j * p_apply(phi)
    residual = lhs - rhs
    residual[:2] = residual[-2:] = 0.0  # stencil undefined at the walls
    return float(np.linalg.norm(residual))


def test_criterion_8_canonical_identities():
    with criterion(8, "canonical commutator residual is second order", 30.0):
        for coeffs in ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]):
            r1 = gridsim.canonical_commutator_residual(coeffs, points=64)
            r2 = gridsim.canonical_commutator_residual(coeffs, points=128)
            order = math.log(r1 / r2) / math.log(127 / 63)
            assert abs(order - 2.0) <= 0.2, f"degree {len(coeffs) - 1}: order {order}"
        assert gridsim.canonical_commutator_residual([3.7], points=64) == 0.0
        # conjugate identity on the momentum side, same stencil
        q1 = _momentum_identity_residual(64)
        q2 = _momentum_identity_residual(128)
        order = math.log(q1 / q2) / math.log(127 / 63)
        assert abs(order - 2.0) <= 0.2, f"momentum identity: order {order}"


def test_criterion_9_epr_numbers():
    with criterion(9, "EPR reference probabilities and representation equality", 1.0):
        dist = epr.joint_distribution(epr.EPRScenario(p1_up=0.1, p2_up=0.1))
        assert dist.marginal(1, "down") == pytest.approx(0.5, abs=1e-12)
        assert epr.conditional(dist, 1, "down")["up"] == pytest.approx(0.82, abs=1e-9)
        flat = epr.joint_distribution(epr.EPRScenario(p1_up=0.5, p2_up=0.5))
        assert epr.conditional(flat, 1, "down")["up"] == pytest.approx(0.5, abs=1e-12)
        assert flat.marginal(2, "up") == pytest.approx(0.5, abs=1e-12)
        for p in np.linspace(0.01, 0.99, 99):
            coh = epr.joint_distribution(
                epr.EPRScenario(p1_up=p, p2_up=p, loop_representation="coherent")
            )
            mix = epr.joint_distribution(
                epr.EPRScenario(p1_up=p, p2_up=p, loop_representation="mixture")
            )
            for key, value in coh.as_dict().items():
                assert abs(value - mix.as_dict()[key]) <= 1e-12


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI outputs on repeated runs", 300.0):
        for command in ("figure2", "deflect", "epr", "oracle", "selftest"):
            out1 = tmp_path / command / "r1"
            out2 = tmp_path / command / "r2"
            assert main([command, "--out", str(out1)]) == 0, command
            assert main([command, "--out", str(out2)]) == 0, command
            names1 = sorted(p.name for p in out1.iterdir())
            names2 = sorted(p.name for p in out2.iterdir())
            assert names1 == names2 and names1, command
            for name in names1:
                b1 = (out1 / name).read_bytes()
                b2 = (out2 / name).read_bytes()
                assert b1 == b2, f"{command}/{name} differs between runs"
