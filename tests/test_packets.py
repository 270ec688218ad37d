"""Wavepacket moments and the transverse acceleration profile."""

import math
import warnings
from decimal import Decimal, localcontext
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinloop import deflection as dfl
from spinloop import packets, spins
from spinloop.cli import csv_text
from spinloop.deflection import PARALLEL_TUPLES
from spinloop.errors import NumericalError, ValidationError

# ---------------------------------------------------------------------------
# Independent oracle: midpoint Riemann sum over the cube.  The value below
# was produced by this very function at cells=100 (10^6 cells) for the
# reference packet, then frozen.
# ---------------------------------------------------------------------------


def riemann_moment(center, width, a, b, c, n, cells=100):
    e = (np.arange(cells) + 0.5) / cells - 0.5
    X = center[0] + width * e
    Y = center[1] + width * e
    Z = center[2] + width * e
    XX, YY, ZZ = np.meshgrid(X, Y, Z, indexing="ij")
    R = np.sqrt(XX**2 + YY**2 + ZZ**2)
    return float(np.mean(XX**a * YY**b * ZZ**c / R**n))


RIEMANN_M0015 = 39.062601714902385  # riemann_moment((0,0,0.4), 1e-3, 0,0,1,5, cells=100)
POINT_M0015 = 0.4 / 0.4**5  # = 39.0625, the width -> 0 limit


class TestWavePacket:
    def test_rejects_zero_width(self):
        with pytest.raises(ValidationError):
            packets.WavePacket(center=(0, 0, 0.4), width=0.0)

    def test_rejects_origin_in_cube(self):
        with pytest.raises(ValidationError, match="singular support"):
            packets.WavePacket(center=(0, 0, 0.01), width=0.1)

    def test_accepts_reference_packet(self):
        packets.WavePacket(center=(0, 0, 0.4), width=1e-3)


class TestMoment:
    def test_matches_riemann_oracle(self):
        pk = packets.WavePacket(center=(0, 0, 0.4), width=1e-3)
        val = packets.moment(pk, 0, 0, 1, 5)
        # oracle self-check at a coarser resolution, then the frozen value
        assert riemann_moment((0, 0, 0.4), 1e-3, 0, 0, 1, 5, cells=50) == pytest.approx(
            RIEMANN_M0015, rel=1e-8
        )
        assert val == pytest.approx(RIEMANN_M0015, rel=5e-9)

    def test_point_dipole_limit(self):
        # finite width shifts the moment by ~2.6e-6 relative; the point
        # value is recovered only as width -> 0
        pk = packets.WavePacket(center=(0, 0, 0.4), width=1e-3)
        assert packets.moment(pk, 0, 0, 1, 5) == pytest.approx(POINT_M0015, rel=5e-6)
        tiny = packets.WavePacket(center=(0, 0, 0.4), width=1e-5)
        assert packets.moment(tiny, 0, 0, 1, 5) == pytest.approx(POINT_M0015, rel=1e-9)

    def test_normalization_exact(self):
        pk = packets.WavePacket(center=(0, 0, 0.4), width=1e-3)
        assert packets.moment(pk, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-14)

    def test_odd_moment_vanishes(self):
        pk = packets.WavePacket(center=(0, 0.2, 0.4), width=1e-3)
        assert abs(packets.moment(pk, 1, 0, 0, 5)) < 1e-12

    def test_width_convergence_second_order(self):
        # |m(w) - m(0)| should shrink ~w^2: widths 1e-3 and 1e-4 differ by 1e2
        m3 = packets.moment(packets.WavePacket((0, 0, 0.4), 1e-3), 0, 0, 1, 5)
        m4 = packets.moment(packets.WavePacket((0, 0, 0.4), 1e-4), 0, 0, 1, 5)
        ratio = abs(m3 - POINT_M0015) / abs(m4 - POINT_M0015)
        assert ratio == pytest.approx(100.0, rel=0.05)

    def test_quadrature_stability_under_refinement(self):
        pk = packets.WavePacket(center=(0, 0.1, 0.4), width=1e-3)
        a = packets.moment(pk, 0, 0, 3, 7, rel_tol=1e-10)
        b = packets.moment(pk, 0, 0, 3, 7, rel_tol=1e-13)
        assert a == pytest.approx(b, rel=1e-10)

    def test_positive_moment_above_plane(self):
        pk = packets.WavePacket(center=(0.3, -0.2, 0.25), width=1e-2)
        assert packets.moment(pk, 0, 0, 1, 5) > 0

    @pytest.mark.parametrize("center,width", [
        ((0.0, 0.0, 9.9e39), 1e38),  # farthest point ~9.95e39 l, inside FAR_FIELD_RADIUS
        ((0.0, 0.0, 2e-40), 1e-40),  # nearest point 1.5e-40 l, outside NEAR_FIELD_RADIUS
    ])
    def test_finite_just_inside_the_field_radii(self, center, width):
        """r^7 overflows past ~1.1e44 l and underflows inside ~1.1e-44 l:
        just inside both radii every moment is finite and nonzero, with no
        numpy warning."""
        keys = dfl.required_tuples_for(spins.parallel_coherent())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = packets.moments(packets.WavePacket(center=center, width=width), keys)
        assert all(math.isfinite(v) and v != 0.0 for v in m.values())

    def test_rejects_negative_exponent(self):
        pk = packets.WavePacket(center=(0, 0, 0.4), width=1e-3)
        with pytest.raises(ValidationError):
            packets.moment(pk, -1, 0, 0, 5)

    @pytest.mark.parametrize("center, width, key", [
        ((0.0, 0.0, 1e7), 1.0, (0, 0, 0, 50)),  # r^50 overflows: read 0.0 with a warning
        ((0.0, 0.0, 1e-7), 1e-8, (0, 0, 0, 50)),  # r^50 underflows: divided by zero
        ((1e39, 1e39, 1e39), 1e38, (4, 4, 0, 7)),  # x^4 y^4 overflows
    ])
    def test_rejects_keys_past_the_field_radii_bound(self, center, width, key):
        """The field radii hold for a + b + c and n up to 7; any other key
        is refused by name before a node is summed."""
        pk = packets.WavePacket(center=center, width=width)
        with pytest.raises(ValidationError) as info:
            packets.moment(pk, *key)
        assert str(info.value).startswith(f"moment key {key} ")
        assert str(info.value).endswith("at most 7")

    def test_accepts_every_key_the_package_uses(self):
        keys = set(PARALLEL_TUPLES).union(*(
            dfl.required_tuples_for(spins.named_spin_input(name)) for name in SPIN_NAMES))
        assert {n for *_, n in keys} == {5, 7}
        assert max(a + b + c for a, b, c, _ in keys) <= packets.MAX_MOMENT_POWER
        packets.moments(packets.WavePacket(center=(0.02, 0.1, 0.3), width=0.05), keys)

    @given(st.floats(0.15, 0.6), st.floats(1e-4, 1e-2))
    @settings(max_examples=30, deadline=None)
    def test_odd_symmetry_property(self, z, width):
        pk = packets.WavePacket(center=(0.0, 0.0, z), width=width)
        assert abs(packets.moment(pk, 1, 0, 0, 5)) < 1e-12
        assert abs(packets.moment(pk, 0, 1, 2, 7)) < 1e-12


REFERENCE_PEAK = -4.662742473395371  # (3/16pi)(1/0.4^4)(3-5), point-packet value
REFERENCE_CROSSING = 0.4 * np.sqrt(2.0 / 3.0)  # root of 3 - 5 z^2 / r^2


@pytest.fixture(scope="module")
def fig_profile():
    return packets.acceleration_profile(
        spins.parallel_mixture(), z=0.4, x=0.0, y_range=(-0.5, 0.5),
        n_samples=201, width=1e-3,
    )


class TestAccelerationProfile:

    def test_peak_at_center(self, fig_profile):
        idx = np.argmin(np.abs(fig_profile.y))
        assert fig_profile.y[idx] == pytest.approx(0.0, abs=1e-12)
        assert fig_profile.a_z[idx] == pytest.approx(REFERENCE_PEAK, rel=1e-6)

    def test_zero_crossings(self, fig_profile):
        crossings = packets.zero_crossings(fig_profile)
        assert len(crossings) == 2
        assert crossings[0] == pytest.approx(-REFERENCE_CROSSING, abs=5e-3)
        assert crossings[1] == pytest.approx(REFERENCE_CROSSING, abs=5e-3)

    def test_negative_region_average(self, fig_profile):
        avg = packets.negative_lobe(packets.lobes(fig_profile)).average
        assert avg == pytest.approx(-2.22, rel=0.10)
        # frozen regression value from this implementation
        assert avg == pytest.approx(-2.2260495245836793, rel=1e-9)

    def test_antiparallel_is_mirror(self, fig_profile):
        anti = packets.acceleration_profile(
            spins.antiparallel_mixture(), z=0.4, x=0.0, y_range=(-0.5, 0.5),
            n_samples=201, width=1e-3,
        )
        scale = np.max(np.abs(fig_profile.a_z))
        assert np.max(np.abs(anti.a_z + fig_profile.a_z)) < 1e-10 * scale

    def test_profile_symmetric_in_y(self, fig_profile):
        assert np.allclose(fig_profile.a_z, fig_profile.a_z[::-1], rtol=1e-10)

    def test_pure_up_up_matches_mixture(self, fig_profile):
        pure = packets.acceleration_profile(
            spins.basis_state("up", "up"), z=0.4, x=0.0, y_range=(-0.1, 0.1),
            n_samples=5, width=1e-3,
        )
        ref = packets.acceleration_profile(
            spins.parallel_mixture(), z=0.4, x=0.0, y_range=(-0.1, 0.1),
            n_samples=5, width=1e-3,
        )
        assert np.allclose(pure.a_z, ref.a_z, rtol=1e-12)


class TestRegionAverage:
    def test_constant_profile(self):
        prof = packets.AccelerationProfile(
            y=np.linspace(0, 1, 11), a_z=np.full(11, -3.0), scale=np.zeros(11)
        )
        assert packets.negative_lobe(packets.lobes(prof)).average == pytest.approx(-3.0, abs=1e-15)

    def test_filter_restricts_to_negative_lobe(self):
        y = np.linspace(-1, 1, 21)
        prof = packets.AccelerationProfile(y=y, a_z=np.sin(np.pi * y), scale=np.zeros(21))
        avg = packets.negative_lobe(packets.lobes(prof)).average
        assert avg < 0  # only the negative lobe enters

    def test_all_positive_raises(self):
        prof = packets.AccelerationProfile(
            y=np.linspace(0, 1, 5), a_z=np.ones(5), scale=np.zeros(5)
        )
        with pytest.raises(ValidationError):
            packets.negative_lobe(packets.lobes(prof))


class TestZeroCrossings:
    def test_linear_profile(self):
        prof = packets.AccelerationProfile(
            y=np.linspace(-1, 1, 21), a_z=np.linspace(-1, 1, 21), scale=np.zeros(21)
        )
        crossings = packets.zero_crossings(prof)
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(0.0, abs=1e-12)

    def test_all_negative_empty(self):
        prof = packets.AccelerationProfile(
            y=np.linspace(0, 1, 5), a_z=-np.ones(5), scale=np.zeros(5)
        )
        assert packets.zero_crossings(prof) == []


class TestPathEquivalence:
    def test_closed_form_equals_operator_route(self):
        """The moment contraction must match integrating the pointwise
        force operator over the packet (two independent code paths)."""
        from spinloop import fields
        from spinloop.deflection import parallel_closed_form

        pk = packets.WavePacket(center=(0.0, 0.12, 0.4), width=2e-3)
        m = packets.moments(pk, list(PARALLEL_TUPLES))
        closed = parallel_closed_form(m)

        # operator route: Gauss-Legendre sum of <uu|F(r)|uu> over the cube
        nodes, wts = np.polynomial.legendre.leggauss(12)
        uu = spins.basis_state("up", "up")
        F = fields.force_operator()
        total = 0.0
        for i, xi in enumerate(nodes):
            for j, yj in enumerate(nodes):
                for k, zk in enumerate(nodes):
                    x = pk.center[0] + 0.5 * pk.width * xi
                    y = pk.center[1] + 0.5 * pk.width * yj
                    z = pk.center[2] + 0.5 * pk.width * zk
                    w = wts[i] * wts[j] * wts[k] / 8.0
                    total += w * spins.expectation(F.at(x, y, z), uu)
        assert closed == pytest.approx(total, rel=1e-10)


# ---------------------------------------------------------------------------
# The moment quadrature against per-sample paths.  `packets.moments` serves
# the oracle's contraction, the self-test and the references below.  Each
# per-sample path takes one packet at a time, escalating until two
# consecutive orders agree.
#
# `separable_sums` is an independent reference written out for one centre:
# w/2-weighted 1-D node factors, r^-n from one sqrt and products of r^-2,
# and einsum contractions over z, then y, then x.  The kernel (a plain
# tensor sum of the weights over r^n times x^a y^b z^c) must agree with it
# to a few ulps of each moment's L1 value, at the same order for every
# sample.
# ---------------------------------------------------------------------------

REFERENCE_ORDERS = (6, 10, 14, 20, 28, 40, 56)


def separable_sums(center, width, tuples, order):
    """({key: moment}, {key: L1 moment}) of one packet at one order."""
    nodes, wts = np.polynomial.legendre.leggauss(order)
    x, y, z = (q + 0.5 * width * nodes for q in center)
    inv_r2 = 1.0 / (z[:, None, None] * z[:, None, None] + (x[:, None] * x[:, None] + y * y))

    def factor(q, e):
        f = 0.5 * wts
        for _ in range(e):
            f = f * q
        return f

    values, l1 = {}, {}
    for a, b, c, n in tuples:
        inv_rn = np.sqrt(inv_r2) if n % 2 else np.ones_like(inv_r2)
        for _ in range(n // 2):
            inv_rn = inv_rn * inv_r2
        fx, fy, fz = factor(x, a), factor(y, b), factor(z, c)
        for out, f in ((values, np.array), (l1, np.abs)):
            along_z = np.einsum("kij,k->ij", inv_rn, f(fz))
            along_zy = np.einsum("ij,j->i", along_z, f(fy))
            out[(a, b, c, n)] = float(np.einsum("i,i->", along_zy, f(fx)))
    return values, l1


def per_sample_moments(center, width, tuples, rel_tol=1e-10):
    """(moments, L1 moments, order reached) of one packet."""
    prev, _ = separable_sums(center, width, tuples, REFERENCE_ORDERS[0])
    for order in REFERENCE_ORDERS[1:]:
        cur, cur_l1 = separable_sums(center, width, tuples, order)
        if all(abs(cur[k] - prev[k]) <= rel_tol * max(cur_l1[k], 1e-300) for k in tuples):
            return cur, cur_l1, order
        prev = cur
    raise NumericalError("per-sample reference did not converge")


def reference_scale(spin, l1_moments):
    """L1 scale of the moment contraction: every term of
    deflection.bracket_terms with |coefficient| times its L1 moment."""
    C = dfl.spin_correlators(spin)
    total = 0.0
    for i, j, coef, key in dfl.bracket_terms(C):
        total = total + abs(C[i, j] * coef) * l1_moments[key]
    return 3.0 / (4.0 * np.pi) * total


def sweep_centers(x, z, y_range, n):
    ys = np.linspace(y_range[0], y_range[1], n)
    return np.column_stack([np.full(n, x), ys, np.full(n, z)])


# One chunk of the lowest order holds this many samples.
FIRST_CHUNK = packets._POINT_BUDGET // REFERENCE_ORDERS[0] ** 3
# One block of the profile's fixed rule holds this many samples.
RULE_BLOCK = packets._POINT_BUDGET // packets._RULE_ORDER**3

EQUIVALENCE_CASES = [
    # spin, z, x, y_range, n_samples, width, coupling_sign
    ("up-up", 0.4, 0.0, (-0.5, 0.5), 41, 1e-3, 1),
    ("singlet", 0.4, 0.0, (-0.5, 0.5), 41, 1e-3, 1),
    ("parallel-coherent", 0.35, 0.03, (-0.5, 0.5), 41, 0.01, 1),
    ("antiparallel", 0.45, 0.0, (-0.5, 0.5), 41, 0.02, -1),
    # wide packet near the dipole: samples of one chunk converge at different orders
    ("parallel-coherent", 0.25, 0.01, (-0.5, 0.5), 101, 0.1, 1),
    ("antiparallel", 0.3, 0.0, (-0.2, 0.3), 2, 0.02, 1),
    ("up-up", 0.45, 0.02, (-0.5, 0.5), FIRST_CHUNK + 1, 0.005, 1),
]


class TestBatchedProfile:
    """Each profile sample equals a one-centre call of packets.accelerations
    bit for bit; the moment quadrature's batches equal its one-centre calls."""

    @pytest.mark.parametrize("name,z,x,y_range,n,width,sign", EQUIVALENCE_CASES + [
        # three fixed-rule blocks, and corner sums where |y| < 0.4
        ("antiparallel-coherent", 0.3, 0.02, (-0.5, 0.5), 2 * RULE_BLOCK + 1, 0.05, -1),
    ])
    def test_equals_per_sample_path(self, name, z, x, y_range, n, width, sign):
        spin = spins.named_spin_input(name)
        prof = packets.acceleration_profile(
            spin, z=z, x=x, y_range=y_range, n_samples=n, width=width, coupling_sign=sign
        )
        singles = [packets.accelerations(spin, [c], width, sign)
                   for c in sweep_centers(x, z, y_range, n)]
        assert prof.a_z.tobytes() == np.concatenate([a for a, _ in singles]).tobytes()
        assert prof.scale.tobytes() == np.concatenate([s for _, s in singles]).tobytes()

    def test_moment_batches_equal_one_centre_calls(self, monkeypatch):
        """The wide packet near the dipole: centres of one block converge at
        different orders, and each equals its one-centre batch bit for bit."""
        tuples = dfl.required_tuples_for(spins.parallel_coherent())
        centers = sweep_centers(0.01, 0.25, (-0.5, 0.5), 101)
        reached = {}
        kernel = packets._sums

        def spy(centers, width, tuples, order):
            reached.update({float(c[1]): order for c in centers})  # y tells the samples apart
            return kernel(centers, width, tuples, order)

        monkeypatch.setattr(packets, "_sums", spy)
        values, l1 = packets._batch_moments(centers, 0.1, tuples)
        orders = [reached[c[1]] for c in centers]
        monkeypatch.undo()
        for s, center in enumerate(centers):
            one, one_l1 = packets._batch_moments(center[None], 0.1, tuples)
            assert values[:, s].tobytes() == one[:, 0].tobytes()
            assert l1[:, s].tobytes() == one_l1[:, 0].tobytes()
        block = packets._POINT_BUDGET // REFERENCE_ORDERS[1] ** 3
        assert any(len(set(orders[i : i + block])) > 1 for i in range(0, 101, block))
        pk = packets.WavePacket(center=(0.02, 0.1, 0.3), width=0.05)
        keys = sorted(tuples)
        one, _ = packets._batch_moments(np.array([pk.center]), pk.width, keys)
        assert packets.moments(pk, keys) == dict(zip(keys, one[:, 0].tolist()))

    def test_non_convergence_raises(self):
        """The first sample's cube reaches to 1.7e-4 of the dipole: the moment
        quadrature fails there, while the profile takes the exact corner sum."""
        uu = spins.basis_state("up", "up")
        tuples = dfl.required_tuples_for(uu)
        near = packets.WavePacket(center=(0.0501, 0.0501, 0.0501), width=0.1)
        with pytest.raises(NumericalError, match="failed to converge"):
            packets.moments(near, tuples)
        with pytest.raises(NumericalError):
            per_sample_moments(near.center, near.width, tuples)
        prof = packets.acceleration_profile(
            uu, z=0.0501, x=0.0501, y_range=(0.0501, 0.4), n_samples=3, width=0.1
        )
        ref = [decimal_corner_sum(uu, c, 0.1) for c in sweep_centers(0.0501, 0.0501,
                                                                       (0.0501, 0.4), 3)]
        assert np.all(np.abs(prof.a_z - ref) <= 1e-14 * np.abs(ref))

    def test_singular_sample_rejected(self):
        with pytest.raises(ValidationError, match="singular support"):
            packets.acceleration_profile(spins.basis_state("up", "up"), z=0.04, width=0.05)


def decimal_corner_sum(spin, center, width, digits=40):
    """sign-free a_z of one packet: the plain eight-corner sum of
    G = k_xy / r - (k_xx x + k_xz z) y / ((x^2 + z^2) r)
    - (k_yy y + k_yz z) x / ((y^2 + z^2) r) in 40-digit decimals, for
    cubes with no corner on a coordinate axis."""
    C = dfl.spin_correlators(spin)
    k_xx, k_yy, k_xy, k_xz, k_yz = (Decimal(float(v)) for v in (
        C[0, 0] - C[2, 2], C[1, 1] - C[2, 2], C[0, 1] + C[1, 0],
        C[0, 2] + C[2, 0], C[1, 2] + C[2, 1]))
    with localcontext() as ctx:
        ctx.prec = digits
        half = Decimal(width) / 2
        total = Decimal(0)
        for corner in product((1, -1), repeat=3):
            x, y, z = (Decimal(float(c)) + s * half for c, s in zip(center, corner))
            r = (x * x + y * y + z * z).sqrt()
            g = (k_xy / r - (k_xx * x + k_xz * z) * y / ((x * x + z * z) * r)
                 - (k_yy * y + k_yz * z) * x / ((y * y + z * z) * r))
            total += corner[0] * corner[1] * corner[2] * g
        return float(total / Decimal(width) ** 3 / (4 * Decimal(math.pi)))


# The preset figure2 profile, with every EQUIVALENCE_CASES entry.
POW_CASES = EQUIVALENCE_CASES + [("parallel", 0.4, 0.0, (-0.5, 0.5), 201, 1e-3, 1)]
POW_TOL = 1e-14  # share of the L1 moment; measured worst 4.4e-16


class TestAgainstPowKernel:
    """The moment quadrature against the separable reference, and the
    profile's sign runs against those of the reference's contraction."""

    @pytest.mark.parametrize("name,z,x,y_range,n,width,sign", POW_CASES)
    def test_moments_orders_and_runs(self, monkeypatch, name, z, x, y_range, n, width, sign):
        spin = spins.named_spin_input(name)
        tuples = dfl.required_tuples_for(spin)
        centers = sweep_centers(x, z, y_range, n)
        reached = {}
        kernel = packets._sums

        def spy(centers, width, tuples, order):
            reached.update({float(c[1]): order for c in centers})  # y tells the samples apart
            return kernel(centers, width, tuples, order)

        monkeypatch.setattr(packets, "_sums", spy)
        values, l1 = packets._batch_moments(centers, width, tuples)
        monkeypatch.undo()
        a_z, scale = np.empty(n), np.empty(n)
        for s, center in enumerate(centers):
            m, m_l1, order = per_sample_moments(tuple(center), width, tuples)
            assert reached[center[1]] == order
            for k, key in enumerate(tuples):
                assert abs(values[k, s] - m[key]) <= POW_TOL * m_l1[key]
                assert abs(l1[k, s] - m_l1[key]) <= POW_TOL * m_l1[key]
            a_z[s] = dfl.contract_force(spin, m, coupling_sign=sign).a_z
            scale[s] = reference_scale(spin, m_l1)
        prof = packets.acceleration_profile(
            spin, z=z, x=x, y_range=y_range, n_samples=n, width=width, coupling_sign=sign
        )
        ref_prof = packets.AccelerationProfile(y=prof.y, a_z=a_z, scale=scale)
        assert spans(prof) == spans(ref_prof)


# ---------------------------------------------------------------------------
# The profile kernel against the moment quadrature converged to 1e-13 and
# contracted by deflection.contract_force.  Every sample must lie within
# REFERENCE_TOL of its reference L1 scale, the profile's noise floor must
# cover the difference, and no sample whose reference |a_z| exceeds 1e-10
# of that scale may count as noise.
# ---------------------------------------------------------------------------

REFERENCE_TOL = 1e-13
SPIN_NAMES = ("up-up", "down-down", "up-down", "down-up", "singlet", "parallel",
              "antiparallel", "parallel-coherent", "antiparallel-coherent")
# (width, z, samples) over the sweep workload's strata: widths 1e-3..0.1,
# heights 0.25..0.55, 101-401 samples; 0.1 at 0.25 is all corner sums.
SWEEP_STRATA = [(1e-3, 0.25, 101), (3.2e-3, 0.35, 201), (0.012, 0.45, 301),
                (0.1, 0.55, 401), (0.1, 0.25, 401)]


def assert_matches_moment_quadrature(spin, centers, width, sign=1):
    a_z, scale = packets.accelerations(spin, centers, width, sign)
    tuples = dfl.required_tuples_for(spin)
    values, l1 = packets._batch_moments(centers, width, tuples, rel_tol=1e-13)
    ref = dfl.contract_force(spin, dict(zip(tuples, values)), coupling_sign=sign).a_z
    ref_scale = reference_scale(spin, dict(zip(tuples, l1)))
    err = np.abs(a_z - ref)
    assert np.all(err <= REFERENCE_TOL * ref_scale)
    live = scale > 0.0  # 0 only where every coefficient is, and then a_z is exactly 0.0
    assert np.all(err[live] <= packets.ZERO_FLOOR * scale[live])
    assert np.all(a_z[~live] == 0.0)
    signal = np.abs(ref) > 1e-10 * ref_scale
    assert np.all(np.abs(a_z[signal]) > packets.ZERO_FLOOR * scale[signal])


class TestAgainstMomentQuadrature:
    @pytest.mark.parametrize("width,z,n", SWEEP_STRATA)
    @pytest.mark.parametrize("name", SPIN_NAMES)
    def test_sweep_strata(self, name, width, z, n):
        spin = spins.named_spin_input(name)
        assert_matches_moment_quadrature(spin, sweep_centers(0.0, z, (-0.5, 0.5), n), width)

    @pytest.mark.parametrize("width", [1e-6, 1e-5, 1e-4, 0.3])
    @pytest.mark.parametrize("name", SPIN_NAMES)
    def test_widths(self, name, width):
        spin = spins.named_spin_input(name)
        assert_matches_moment_quadrature(spin, sweep_centers(0.02, 0.4, (-0.5, 0.5), 41),
                                         width, sign=-1)

    @pytest.mark.parametrize("side", [1 + 1e-9, 1 - 1e-9])  # fixed rule, corner sum
    @pytest.mark.parametrize("name", SPIN_NAMES)
    def test_either_side_of_the_switch(self, name, side):
        width = 0.04
        directions = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.48, 0.6, 0.64],
                               [-0.36, 0.48, 0.8], [0.0, -0.6, 0.8]])
        centers = directions * side * width / packets.CORNER_SWITCH
        wide = width >= packets.CORNER_SWITCH * np.hypot.reduce(centers, axis=1)
        assert np.all(wide == (side < 1))
        assert_matches_moment_quadrature(spins.named_spin_input(name), centers, width)

    @pytest.mark.parametrize("name", SPIN_NAMES)
    def test_corner_on_the_y_axis(self, name):
        """figure2 {"x": 0.05, "z": 0.05, "width": 0.1, "y_min": 0.3,
        "y_max": 0.6}: every cube has a corner on the y axis, where the plain
        antiderivative -x y / ((x^2 + z^2) r) is 0/0."""
        centers = sweep_centers(0.05, 0.05, (0.3, 0.6), 201)
        (x0, _, z0), (_, y1, _) = (centers - 0.05).T, (centers + 0.05).T
        with np.errstate(invalid="ignore"):
            naive = -x0 * y1 / ((x0 * x0 + z0 * z0) * np.sqrt(x0 * x0 + y1 * y1 + z0 * z0))
        assert np.all(np.isnan(naive))
        assert_matches_moment_quadrature(spins.named_spin_input(name), centers, 0.1)

    @pytest.mark.parametrize("name", SPIN_NAMES)
    def test_axis_straddling_cube(self, name):
        # x in [-0.05, 0.05] and z in [-0.04, 0.06] straddle 0: both pairings add
        assert_matches_moment_quadrature(spins.named_spin_input(name),
                                         np.array([[0.0, 0.5, 0.01]]), 0.1)


class TestNoiseFloor:
    def test_singlet_profile_is_noise(self):
        prof = packets.acceleration_profile(spins.singlet(), z=0.4, n_samples=101, width=1e-3)
        assert np.all(prof.a_z == 0.0)  # the trace drops out exactly
        assert np.all(np.abs(prof.a_z) <= packets.ZERO_FLOOR * prof.scale)
        assert packets.lobes(prof) == []
        assert packets.zero_crossings(prof) == []
        with pytest.raises(ValidationError):
            packets.negative_lobe(packets.lobes(prof))
        with pytest.raises(ValidationError, match="no deflecting region"):
            packets.deflecting_lobe(packets.lobes(prof), prof.y)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("width", [1e-3, 0.2])  # fixed rule, corner sums
    def test_singlet_is_exactly_zero_in_both_rules(self, width, sign):
        prof = packets.acceleration_profile(spins.singlet(), z=0.4, n_samples=101,
                                            width=width, coupling_sign=sign)
        wide = width >= packets.CORNER_SWITCH * np.hypot(prof.y, 0.4)
        assert np.all(wide) == (width > 0.1)
        assert np.all(prof.a_z == 0.0) and not np.any(np.signbit(prof.a_z))
        assert packets.lobes(prof) == []

    @pytest.mark.parametrize("width", [1e-3, 0.2])
    def test_parallel_and_antiparallel_negate_exactly(self, width):
        up_up, up_down = (
            packets.acceleration_profile(spins.basis_state("up", loop), z=0.4, x=0.03,
                                         n_samples=101, width=width)
            for loop in ("up", "down")
        )
        assert np.array_equal(up_down.a_z, -up_up.a_z)
        assert np.array_equal(up_down.scale, up_up.scale)

    def test_signal_profile_is_not_noise(self, fig_profile):
        assert packets.lobes(fig_profile) != []
        assert np.all(np.abs(fig_profile.a_z) > packets.ZERO_FLOOR * fig_profile.scale)


class TestDeflectingLobe:
    def test_parallel_uses_central_lobe(self, fig_profile):
        found = packets.lobes(fig_profile)
        lobe = packets.deflecting_lobe(found, fig_profile.y)
        crossings = packets.zero_crossings(fig_profile)
        assert lobe.average == packets.negative_lobe(found).average
        assert lobe.width == crossings[-1] - crossings[0]

    def test_antiparallel_mirrors_parallel(self, fig_profile):
        anti = packets.acceleration_profile(
            spins.basis_state("up", "down"), z=0.4, x=0.0, y_range=(-0.5, 0.5),
            n_samples=201, width=1e-3,
        )
        lobe = packets.deflecting_lobe(packets.lobes(anti), anti.y)
        ref = packets.deflecting_lobe(packets.lobes(fig_profile), fig_profile.y)
        assert lobe.average == pytest.approx(-ref.average, rel=1e-12)
        assert lobe.width == pytest.approx(ref.width, rel=1e-12)

    def test_unbracketed_lobe_rejected(self):
        prof = packets.acceleration_profile(
            spins.parallel_mixture(), z=0.4, y_range=(-0.1, 0.1), n_samples=21
        )
        with pytest.raises(ValidationError, match="not bracketed"):
            packets.deflecting_lobe(packets.lobes(prof), prof.y)


def _synthetic(y, a_z):
    return packets.AccelerationProfile(y=y, a_z=np.asarray(a_z, dtype=float),
                                       scale=np.zeros(len(y)))


def negative_width(profile):
    return packets.negative_lobe(packets.lobes(profile)).width


class TestRegionWidth:
    """figure2's width belongs to the negative lobe that it averages, and is
    measured as the deflecting lobe's."""

    def test_preset_width_is_crossing_distance(self, fig_profile):
        crossings = packets.zero_crossings(fig_profile)
        assert negative_width(fig_profile) == crossings[1] - crossings[0]

    def test_width_of_longest_run_not_outermost_crossings(self):
        # negative on (0, 1) and (2, 2.55]: the bracketed (0, 1) run is longest
        y = np.linspace(-0.45, 2.55, 41)
        prof = _synthetic(y, -np.sin(np.pi * y))
        crossings = packets.zero_crossings(prof)
        assert len(crossings) == 3
        assert negative_width(prof) == crossings[1] - crossings[0]
        assert negative_width(prof) == pytest.approx(1.0, abs=1e-2)

    def test_run_touching_range_end_has_no_width(self):
        y = np.linspace(0.05, 1.45, 29)
        prof = _synthetic(y, np.cos(np.pi * y))
        assert len(packets.zero_crossings(prof)) == 1
        region = packets.negative_lobe(packets.lobes(prof))
        assert region.average < 0
        assert region.width is None

    @pytest.mark.parametrize("a_z, width", [
        # a noise sample at y_min borders the run
        ([0, -2, -2, 1, 0.5], 8 / 3),
        # noise samples between the run and its neighbours
        ([1, 0, -1, -3, -1, 0, 1, 1], 4.0),
        # a noise sample splits two negative runs: the longer one is measured
        ([1, -1, -1, 0, -1, -3, -1, 1, 1], 3.5),
    ])
    def test_same_width_as_deflecting_lobe(self, a_z, width):
        prof = _synthetic(np.arange(float(len(a_z))), a_z)
        found = packets.lobes(prof)
        region = packets.negative_lobe(found)
        assert region.width == width
        lobe = packets.deflecting_lobe(found, prof.y)
        assert (lobe.average, lobe.width) == (region.average, width)

    def test_no_negative_run_raises(self):
        with pytest.raises(ValidationError):
            negative_width(_synthetic(np.arange(3.0), [1, 2, 1]))


def spans(profile):
    """(start, stop, sign) of each of the profile's lobes."""
    return [(lobe.start, lobe.stop, lobe.sign) for lobe in packets.lobes(profile)]


def runs_by_loop(profile):
    """A per-sample loop over the sign runs, the reference for the lobes' spans."""
    a = profile.a_z
    signs = np.where(np.abs(a) <= packets.ZERO_FLOOR * profile.scale, 0, np.sign(a)).astype(int)
    runs = []
    for i, s in enumerate(signs.tolist()):
        if s and runs and runs[-1][1] == i - 1 and runs[-1][2] == s:
            runs[-1] = (runs[-1][0], i, s)
        elif s:
            runs.append((i, i, s))
    return runs


class TestRuns:
    # +-1e-13 is noise against a unit scale and signal against a zero one
    @given(st.lists(st.sampled_from([-2.0, -1e-13, 0.0, 1e-13, 3.0]), max_size=40),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_loop(self, a_z, scaled):
        prof = packets.AccelerationProfile(
            y=np.arange(float(len(a_z))), a_z=np.array(a_z),
            scale=np.full(len(a_z), float(scaled)),
        )
        runs = spans(prof)
        assert runs == runs_by_loop(prof)
        assert all(type(v) is int for run in runs for v in run)


def lobe_by_hand(profile, start, stop):
    """(average, peak, width) of samples start..stop, one step at a time."""
    y, a = profile.y, profile.a_z
    if start == stop:
        average = float(a[start])
    else:
        area = np.trapezoid(a[start : stop + 1], y[start : stop + 1])
        average = float(area / (y[stop] - y[start]))
    peak = float(max(abs(v) for v in a[start : stop + 1]))
    if start == 0 or stop == len(y) - 1:
        return average, peak, None

    def root(i):
        return float(y[i] - a[i] * (y[i + 1] - y[i]) / (a[i + 1] - a[i]))

    return average, peak, root(stop) - root(start - 1)


# Repeated levels make equal peaks and equal lengths, so ties are common;
# +-1e-13 is noise against a unit scale and signal against a zero one.
lobe_levels = st.one_of(st.sampled_from([-3.0, -2.0, -1e-13, 0.0, 1e-13, 2.0, 3.0]),
                        st.floats(-4.0, 4.0, allow_nan=False))
# (a_z, scale, step to the next y) per sample
lobe_samples = st.lists(st.tuples(lobe_levels, st.sampled_from([0.0, 1.0]), st.floats(0.01, 2.0)),
                        min_size=1, max_size=40)


class TestLobes:
    @given(lobe_samples)
    @settings(max_examples=300, deadline=None)
    def test_each_lobe_equals_its_run_by_hand(self, drawn):
        a_z, scale, steps = (np.array(v) for v in zip(*drawn))
        prof = packets.AccelerationProfile(y=np.cumsum(steps), a_z=a_z, scale=scale)
        runs = runs_by_loop(prof)
        # A noise sample next to a signal sample of the same value has no
        # crossing between them to interpolate (it divides by zero): skipped.
        signs = np.where(np.abs(a_z) <= packets.ZERO_FLOOR * scale, 0, np.sign(a_z))
        assume(not np.any((np.diff(signs) != 0) & (np.diff(a_z) == 0)))
        found = packets.lobes(prof)
        assert spans(prof) == runs
        for lobe, (start, stop, _) in zip(found, runs):
            assert (lobe.average, lobe.peak, lobe.width) == lobe_by_hand(prof, start, stop)

        negative = [lobe for lobe in found if lobe.sign < 0]
        if negative:
            longest = max(lobe.stop - lobe.start for lobe in negative)
            first = next(lobe for lobe in negative if lobe.stop - lobe.start == longest)
            assert packets.negative_lobe(found) is first
        else:
            with pytest.raises(ValidationError, match="no negative-acceleration samples"):
                packets.negative_lobe(found)
        if not found:
            with pytest.raises(ValidationError, match="no deflecting region"):
                packets.deflecting_lobe(found, prof.y)
            return
        top = max(lobe.peak for lobe in found)
        first = next(lobe for lobe in found if lobe.peak == top)
        if first.width is None:
            with pytest.raises(ValidationError, match="not bracketed"):
                packets.deflecting_lobe(found, prof.y)
        else:
            assert packets.deflecting_lobe(found, prof.y) is first


# ---------------------------------------------------------------------------
# Properties of the contraction, run through the batched profile
# ---------------------------------------------------------------------------

unit = st.floats(-1.0, 1.0, allow_nan=False)
kets = st.lists(unit, min_size=8, max_size=8).filter(lambda v: np.linalg.norm(v) > 0.1)
packet_args = st.tuples(
    st.floats(0.2, 0.6), st.floats(-0.2, 0.2), st.floats(-0.3, 0.3), st.floats(1e-3, 0.05)
)
PROPERTY_TOL = 1e-8  # share of the L1 scale


def _ket(v):
    psi = np.asarray(v[:4]) + 1j * np.asarray(v[4:])
    return psi / np.linalg.norm(psi)


def _a_z(spin, z, x, y, width):
    """(a_z, L1 scale) of one packet via a two-sample profile starting at y."""
    prof = packets.acceleration_profile(
        spin, z=z, x=x, y_range=(y, y + 0.01), n_samples=2, width=width
    )
    return prof.a_z[0], prof.scale[0]


class TestContractionProperties:
    @given(kets, kets, st.floats(0.0, 1.0), packet_args)
    @settings(max_examples=25, deadline=None)
    def test_linear_in_rho(self, v1, v2, p, args):
        rho1, rho2 = (np.outer(k, k.conj()) for k in (_ket(v1), _ket(v2)))
        a1, s1 = _a_z(rho1, *args)
        a2, s2 = _a_z(rho2, *args)
        a, _ = _a_z(p * rho1 + (1 - p) * rho2, *args)
        assert a == pytest.approx(p * a1 + (1 - p) * a2, abs=PROPERTY_TOL * (s1 + s2))

    @given(st.floats(0, np.pi), st.floats(0, 2 * np.pi), st.floats(0, np.pi),
           st.floats(0, 2 * np.pi), packet_args)
    @settings(max_examples=25, deadline=None)
    def test_antisymmetric_under_loop_flip(self, tp, fp, tl, fl, args):
        def spinor(theta, phi):
            return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])

        particle = spinor(tp, fp)
        loop = spinor(tl, fl)
        flipped = np.array([-loop[1].conj(), loop[0].conj()])  # antipodal Bloch vector
        a, s = _a_z(np.kron(particle, loop), *args)
        a_flip, _ = _a_z(np.kron(particle, flipped), *args)
        assert a_flip == pytest.approx(-a, abs=PROPERTY_TOL * s)

    @given(kets, st.integers(1, 3), packet_args)
    @settings(max_examples=25, deadline=None)
    def test_covariant_under_rotation_about_z(self, v, quarter_turns, args):
        # the cube is invariant under quarter turns, so these are exact symmetries
        z, x, y, width = args
        phi = quarter_turns * np.pi / 2
        u = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
        psi = _ket(v)
        xr, yr = {1: (-y, x), 2: (-x, -y), 3: (y, -x)}[quarter_turns]
        a, s = _a_z(psi, z, x, y, width)
        a_rot, _ = _a_z(np.kron(u, u) @ psi, z, xr, yr, width)
        assert a_rot == pytest.approx(a, abs=PROPERTY_TOL * s)

    @given(packet_args, st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_singlet_force_vanishes(self, args, n):
        z, x, y, width = args
        prof = packets.acceleration_profile(
            spins.singlet(), z=z, x=x, y_range=(y, y + 0.2), n_samples=n, width=width
        )
        assert np.all(np.abs(prof.a_z) <= packets.ZERO_FLOOR * prof.scale)
        assert packets.lobes(prof) == [] and packets.zero_crossings(prof) == []


def test_profile_csv_format():
    prof = packets.AccelerationProfile(
        y=np.array([0.0, 0.5]), a_z=np.array([-1.23456789012345, 2.0]), scale=np.zeros(2)
    )
    text = csv_text("y,a_z", prof.y, prof.a_z)
    lines = text.strip().split("\n")
    assert lines[0] == "y,a_z"
    assert lines[1] == "0,-1.23456789012"
    assert lines[2] == "0.5,2"
