"""Output checker: maps each op's result to pass or fail against references
computed here, independently of the program's own contraction and projectors.

Runs after the timed passes. A failure is tagged ``known`` when its symptom
is one of the open defects listed in ROADMAP.md item 5; known failures lower
``ok_frac`` like any other, but only unknown ones count as ``failed``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from spinloop import fields, units
from spinloop import config as cfgmod

PROFILE_TOL = 1e-8   # profile error allowed, as a share of the integrand's L1 scale
ZERO_FLOOR = 1e-12   # |a_z| below this share of the L1 scale is rounding noise
GL_ORDER = 16        # per axis; the integrand is analytic on the cube
CHUNK = 32           # profile samples per vectorised quadrature block
KNOWN_5A = "ROADMAP 5(a)"
KNOWN_5B = "ROADMAP 5(b)"

# Preset reference numbers (README, ROADMAP aim 3) with the tolerances of
# acceptance criterion 3; the deflection is quoted to two digits.
PRESET_A0, PRESET_CROSSING, PRESET_AVERAGE = -4.66, 0.327, -2.22
PRESET_DEFLECTION = 2.9e-16

# Criterion-7 thresholds of the acceptance suite, applied to oracle_report.json.
ORACLE_FIT_REL = 0.05
ORACLE_EXPONENT = (2.7, 3.3)
ORACLE_VELOCITY_REL = 1e-3
NORM_DRIFT_MAX = 1e-8
# Selftest grid-smoke agreement, used for the coarse scan.
SCAN_FIT_REL = 0.10
# A fit "consistent with zero": within 3 sigma plus 1% of the force the same
# packet feels with the coupling on (a tenth of the 10% full-run budget).
SCAN_ZERO_REL = 0.01


class Verdict:
    def __init__(self):
        self.reasons: list[str] = []
        self.known: set[str] = set()

    def fail(self, reason: str, known: str | None = None) -> None:
        self.reasons.append(f"{known}: {reason}" if known else reason)
        if known:
            self.known.add(known)

    def require(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(reason)
        return ok

    @property
    def ok(self) -> bool:
        return not self.reasons

    @property
    def unexpected(self) -> bool:
        return len(self.reasons) > len(self.known)


# ----------------------------------------------------------------------
# Spin inputs and the direct quadrature of tr(rho F)
# ----------------------------------------------------------------------

_UP, _DOWN = np.array([1.0, 0.0]), np.array([0.0, 1.0])
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _ket(p: np.ndarray, l: np.ndarray) -> np.ndarray:
    return np.kron(p, l).astype(complex)  # particle slow, loop fast


def _pure(*kets: np.ndarray, signs=(1, 1)) -> np.ndarray:
    v = sum(s * k for s, k in zip(signs, kets)) / math.sqrt(len(kets))
    return np.outer(v, v.conj())


def _mix(*kets: np.ndarray) -> np.ndarray:
    return sum(np.outer(k, k.conj()) for k in kets) / len(kets)


UU, UD, DU, DD = _ket(_UP, _UP), _ket(_UP, _DOWN), _ket(_DOWN, _UP), _ket(_DOWN, _DOWN)
DENSITY = {
    "up-up": _pure(UU), "down-down": _pure(DD), "up-down": _pure(UD), "down-up": _pure(DU),
    "singlet": _pure(UD, DU, signs=(1, -1)),
    "parallel": _mix(UU, DD), "antiparallel": _mix(UD, DU),
    "parallel-coherent": _pure(UU, DD), "antiparallel-coherent": _pure(UD, DU),
}


def correlators(rho: np.ndarray) -> np.ndarray:
    """C_ij = <S_i(particle) S_j(loop)> with S = sigma / 2."""
    return np.array([
        [np.trace(rho @ np.kron(_PAULI[i] / 2, _PAULI[j] / 2)).real for j in range(3)]
        for i in range(3)
    ])


def _force_density(C: np.ndarray, sign: int, x, y, z):
    """tr(rho F(r)) and its L1 scale, from the bracket of fields.force_operator."""
    r2 = x * x + y * y + z * z
    rv = (x, y, z)
    linear = sum((C[2, j] + C[j, 2]) * rv[j] for j in range(3))
    quadratic = sum(C[i, j] * rv[i] * rv[j] for i in range(3) for j in range(3))
    terms = (linear, -5.0 * z * quadratic / r2, z * np.trace(C))
    pref = sign * 3.0 / (4.0 * math.pi * r2**2.5)
    return pref * sum(terms), abs(pref) * sum(abs(t) for t in terms)


def verify_force_density(name: str, sign: int, points) -> None:
    """The vectorised integrand must equal tr(rho F) of fields.force_operator."""
    rho, C = DENSITY[name], correlators(DENSITY[name])
    F = fields.force_operator(sign)
    for x, y, z in points:
        value, scale = _force_density(C, sign, x, y, z)
        direct = np.trace(rho @ F.at(x, y, z)).real
        if abs(direct - value) > 1e-12 * scale:
            raise RuntimeError(f"reference integrand disagrees with fields.force_operator "
                               f"for {name} at {(x, y, z)}: {value} vs {direct}")


def profile_reference(name: str, sign: int, ys: np.ndarray, x: float, z: float, width: float):
    """a_z and its L1 scale at each y: Gauss-Legendre average over the packet cube."""
    C = correlators(DENSITY[name])
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    half = 0.5 * width
    W = np.einsum("i,j,k->ijk", weights, weights, weights) / 8.0
    X = (x + half * nodes)[None, :, None, None]
    Z = (z + half * nodes)[None, None, None, :]
    values, scales = [], []
    for start in range(0, len(ys), CHUNK):
        Y = (np.asarray(ys[start:start + CHUNK])[:, None] + half * nodes)[:, None, :, None]
        v, s = _force_density(C, sign, X, Y, Z)
        values.append(np.sum(W * v, axis=(1, 2, 3)))
        scales.append(np.sum(W * s, axis=(1, 2, 3)))
    return np.concatenate(values), np.concatenate(scales)


def _runs(a: np.ndarray, scale: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal same-sign runs (start, stop, sign), noise-level samples as zero."""
    signs = np.where(np.abs(a) <= ZERO_FLOOR * scale, 0, np.sign(a)).astype(int)
    runs, start = [], None
    for i, s in enumerate(signs):
        if start is not None and s != signs[start]:
            runs.append((start, i - 1, signs[start]))
            start = None
        if start is None and s != 0:
            start = i
    if start is not None:
        runs.append((start, len(a) - 1, signs[start]))
    return runs


def _crossing(ys: np.ndarray, a: np.ndarray, i: int) -> float:
    return float(ys[i] - a[i] * (ys[i + 1] - ys[i]) / (a[i + 1] - a[i]))


def _lobe(ys, a, run) -> tuple[float, float | None]:
    """Trapezoidal mean over a run's samples, and the width between the
    interpolated crossings that bound it (None if it touches the range end)."""
    start, stop, _ = run
    y, v = ys[start:stop + 1], a[start:stop + 1]
    mean = float(v[0]) if start == stop else float(np.trapezoid(v, y) / (y[-1] - y[0]))
    if start == 0 or stop == len(a) - 1:
        return mean, None
    return mean, _crossing(ys, a, stop) - _crossing(ys, a, start - 1)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ----------------------------------------------------------------------
# Per-command checks
# ----------------------------------------------------------------------

class Checker:
    def __init__(self):
        self.cfg = cfgmod.load_config()
        self.sign = cfgmod.build_params(self.cfg).coupling_sign
        self._profiles: dict[int, tuple] = {}
        self._verified: set[str] = set()

    def check(self, op, result: dict) -> Verdict:
        v = Verdict()
        if "exception" in result:
            v.fail(f"uncaught exception {result['exception']}")
            return v
        getattr(self, f"_{op.kind}")(op, result, v)
        return v

    def _profile(self, op):
        """Reference a_z at every sample of the case's sweep (cached per case)."""
        case = op.inputs["case"]
        if case not in self._profiles:
            f2 = {**self.cfg["figure2"], **op.inputs["config"].get("figure2", {})}
            if f2["spin"] not in self._verified:
                verify_force_density(f2["spin"], self.sign,
                                     [(0.01, -0.2, 0.3), (0.0, 0.05, 0.45), (0.02, 0.3, 0.5)])
                self._verified.add(f2["spin"])
            ys = np.linspace(f2["y_min"], f2["y_max"], f2["samples"])
            a, s = profile_reference(f2["spin"], self.sign, ys, f2["x"], f2["z"], f2["width"])
            a0, s0 = profile_reference(f2["spin"], self.sign, np.zeros(1),
                                       f2["x"], f2["z"], f2["width"])
            self._profiles[case] = (f2, ys, a, s, float(a0[0]), float(s0[0]))
        return self._profiles[case]

    def _figure2(self, op, result, v: Verdict) -> None:
        f2, ys, a_ref, s_ref, a0_ref, s0_ref = self._profile(op)
        runs = _runs(a_ref, s_ref)
        if not runs:  # identically zero force (singlet): no region may be reported
            csv = result["files"].get("figure2.csv")
            if result["rc"] != 0:
                v.require(bool(result["stderr"].strip()), "non-zero exit without a message")
                return
            rows = _csv_rows(csv, "y,a_z")
            v.require(all(abs(r[1]) <= ZERO_FLOOR * s for r, s in zip(rows, s_ref)),
                      "profile of an identically zero force is not zero")
            summary = json.loads(result["files"]["figure2_summary.json"])
            if summary["zero_crossings"]:
                v.fail(f"rounding noise reported as {len(summary['zero_crossings'])} zero "
                       f"crossings and a negative region averaging "
                       f"{summary['average_negative_region']:.3g}", KNOWN_5B)
            return
        if not v.require(result["rc"] == 0, f"exit code {result['rc']}: {result['stderr'].strip()}"):
            return
        rows = _csv_rows(result["files"].get("figure2.csv"), "y,a_z")
        if not v.require(len(rows) == len(ys), f"{len(rows)} profile rows, expected {len(ys)}"):
            return
        for (y, a), y_ref, a_r, s in zip(rows, ys, a_ref, s_ref):
            if not (_close(y, y_ref, 1e-12 + 1e-11 * abs(y_ref))
                    and _close(a, a_r, PROFILE_TOL * s + 1e-11 * abs(a_r))):
                v.fail(f"a_z({y:.6g}) = {a:.12g}, reference {a_r:.12g}")
                return
        summary = json.loads(result["files"]["figure2_summary.json"])
        v.require(_close(summary["a_z_at_y0"], a0_ref, PROFILE_TOL * s0_ref),
                  f"a_z_at_y0 {summary['a_z_at_y0']:.12g}, reference {a0_ref:.12g}")
        ref_crossings = [_crossing(ys, a_ref, i) for i in range(len(ys) - 1)
                         if a_ref[i] * a_ref[i + 1] < 0]
        got = summary["zero_crossings"]
        v.require(len(got) == len(ref_crossings)
                  and all(_close(g, r, 1e-9) for g, r in zip(got, ref_crossings)),
                  f"zero crossings {got}, reference {ref_crossings}")
        negative = [r for r in runs if r[2] < 0]
        if negative:
            longest = max(negative, key=lambda r: r[1] - r[0])
            avg = _lobe(ys, a_ref, longest)[0]
            v.require(_close(summary["average_negative_region"], avg,
                             PROFILE_TOL * float(np.max(s_ref))),
                      f"negative-region average {summary['average_negative_region']:.12g}, "
                      f"reference {avg:.12g}")
        if not op.inputs["config"]:
            _check_preset_profile(summary, v)

    def _deflect(self, op, result, v: Verdict) -> None:
        f2, ys, a_ref, s_ref, _, _ = self._profile(op)
        runs = _runs(a_ref, s_ref)
        if not runs:  # zero force: expect a clean refusal or a zero deflection
            if result["rc"] != 0:
                v.require(bool(result["stderr"].strip()), "non-zero exit without a message")
                return
            payload = json.loads(result["files"]["deflection.json"])
            d = payload.get("deflection_m", payload.get("estimate", {}).get("deflection_m"))
            if d != 0.0:
                v.fail(f"rounding noise taken as a deflecting region: deflection {d:.3g} m",
                       KNOWN_5B)
            return
        if not v.require(result["rc"] == 0, f"exit code {result['rc']}: {result['stderr'].strip()}"):
            return
        est = json.loads(result["files"]["deflection.json"])["estimate"]
        speed = {**self.cfg["deflect"], **op.inputs["config"].get("deflect", {})}["speed"]
        tol = PROFILE_TOL * float(np.max(s_ref))
        # The deflecting lobe is the one holding the peak |a_z|, whatever its sign.
        peak = max(runs, key=lambda r: np.max(np.abs(a_ref[r[0]:r[1] + 1])))
        avg, width = _lobe(ys, a_ref, peak)
        l = self._length_unit()
        deflection = 0.5 * abs(avg * l / self.cfg["tau"] ** 2) * (width * l / speed) ** 2
        width_ok = _close(est["region_width_natural"], width, 1e-9)
        if _close(abs(est["avg_acceleration_natural"]), abs(avg), tol) and width_ok:
            v.require(_close(est["length_unit_m"], l, 1e-12 * l),
                      f"length unit {est['length_unit_m']!r}, reference {l!r}")
            v.require(_close(est["deflection_m"], deflection, 1e-8 * deflection),
                      f"deflection {est['deflection_m']:.6g} m, reference {deflection:.6g} m")
        else:
            others = [_lobe(ys, a_ref, r)[0] for r in runs if r is not peak]
            mixed = width_ok and any(_close(est["avg_acceleration_natural"], o, tol) for o in others)
            v.fail(f"deflection {est['deflection_m']:.3g} m from average "
                   f"{est['avg_acceleration_natural']:.4g} over width "
                   f"{est['region_width_natural']:.4g}; the peak lobe has average {avg:.4g} "
                   f"and width {width:.4g}, giving {deflection:.3g} m",
                   KNOWN_5A if mixed else None)
        if not op.inputs["config"]:
            v.require(_close(est["deflection_m"], PRESET_DEFLECTION, 0.05e-16),
                      f"preset deflection {est['deflection_m']:.3g} m, reference ~2.9e-16 m")

    def _length_unit(self) -> float:
        """l = (mu0 |alpha beta| hbar^2 tau^2 / m)^(1/5), beta from the 1 uA / 1 um loop."""
        p = self.cfg["params"]
        beta = p["loop_current"] * math.pi * p["loop_radius"] ** 2 / (units.HBAR / 2.0)
        l5 = (units.VACUUM_PERMEABILITY * abs(p["alpha"] * beta) * units.HBAR**2
              * self.cfg["tau"] ** 2 / p["mass"])
        return l5**0.2

    def _epr(self, op, result, v: Verdict) -> None:
        if not v.require(result["rc"] == 0, f"exit code {result['rc']}: {result['stderr'].strip()}"):
            return
        e = {**self.cfg["epr"], **op.inputs["config"].get("epr", {})}
        payload = json.loads(result["files"]["epr_scenario.json"])
        ref = epr_joint(e["bell"], e["p1_up"], e["p2_up"])
        for key, value in ref.items():
            got = payload["joint"][f"{key[0]}-{key[1]}"]
            v.require(_close(got, value, 1e-12), f"P{key} = {got!r}, closed form {value!r}")
        down1 = ref[("down", "up")] + ref[("down", "down")]
        cond = ref[("down", "up")] / down1
        v.require(_close(payload["marginal_down_wing1"], down1, 1e-12),
                  f"P(down@1) {payload['marginal_down_wing1']!r}, closed form {down1!r}")
        v.require(_close(payload["conditional_wing2_given_down1"]["up"], cond, 1e-12),
                  f"P(up@2|down@1) {payload['conditional_wing2_given_down1']['up']!r}, "
                  f"closed form {cond!r}")
        v.require(abs(payload["representation_gap"]) <= 1e-12,
                  f"representation gap {payload['representation_gap']!r}")
        rows = _csv_rows(result["files"].get("epr_sweep.csv"), "p,cond_up_given_down")
        ps = np.linspace(0.01, 0.99, e["sweep_points"])
        if v.require(len(rows) == len(ps), f"{len(rows)} sweep rows, expected {len(ps)}"):
            for (p, c), p_ref in zip(rows, ps):
                j = epr_joint(e["bell"], p_ref, p_ref)
                c_ref = j[("down", "up")] / (j[("down", "up")] + j[("down", "down")])
                if not (_close(p, p_ref, 1e-12) and _close(c, c_ref, 1e-11)):
                    v.fail(f"sweep row p={p!r}: {c!r}, closed form {c_ref!r}")
                    break
        if not op.inputs["config"]:
            v.require(_close(down1, 0.5, 1e-12) and _close(cond, 0.82, 1e-9),
                      f"preset EPR numbers {down1!r}, {cond!r}; reference 0.5, 0.82")

    def _oracle(self, op, result, v: Verdict) -> None:
        if not v.require(result["rc"] == 0, f"exit code {result['rc']}: {result['stderr'].strip()}"):
            return
        r = json.loads(result["files"]["oracle_report.json"])
        a = r["fit"]["a"]
        a_grid = r["bch"]["a_from_grid_density"]
        a_quad = r["bch"]["a_from_quadrature"]
        v.require(abs(a - a_grid) / abs(a_grid) <= ORACLE_FIT_REL,
                  f"fit {a} vs grid contraction {a_grid}")
        v.require(abs(a - a_quad) / abs(a_quad) <= ORACLE_FIT_REL,
                  f"fit {a} vs quadrature contraction {a_quad}")
        vel = r["velocity"]
        t_end = r["grid"]["dt"] * r["grid"]["steps"]
        v.require(vel["difference"] <= ORACLE_VELOCITY_REL
                  * max(abs(vel["kappa_times_p0"]), abs(a) * t_end),
                  f"velocity difference {vel['difference']}")
        v.require(r["norm_drift"] < NORM_DRIFT_MAX, f"norm drift {r['norm_drift']}")
        v.require(r["zeeman"]["shift"] <= r["zeeman"]["sigma_a"],
                  f"Zeeman shift {r['zeeman']['shift']} > sigma_a {r['zeeman']['sigma_a']}")
        lo, hi = ORACLE_EXPONENT
        v.require(lo <= r["remainder"]["exponent"] <= hi,
                  f"remainder exponent {r['remainder']['exponent']}")
        v.require(r["remainder"]["norm_drift"] < NORM_DRIFT_MAX,
                  f"remainder norm drift {r['remainder']['norm_drift']}")
        rows = _csv_rows(result["files"].get("oracle_series.csv"), "t,z_expect,norm")
        v.require(len(rows) == r["grid"]["steps"] + 1,
                  f"{len(rows)} series rows for {r['grid']['steps']} steps")

    def _scan(self, op, result, v: Verdict) -> None:
        v.require(result["norm_drift"] < NORM_DRIFT_MAX, f"norm drift {result['norm_drift']:.2e}")
        a, a_ref, sigma = result["a_fit"], result["a_contraction"], result["sigma_a"]
        if op.inputs["variant"] == "full":
            gap = abs(a - a_ref) / abs(a_ref)
            v.require(gap < SCAN_FIT_REL, f"fit {a:.5g} vs contraction {a_ref:.5g} "
                                          f"({100 * gap:.1f}%)")
        else:
            v.require(abs(a) <= 3.0 * sigma + SCAN_ZERO_REL * abs(a_ref),
                      f"fitted a {a:.3g} (sigma {sigma:.2g}) not consistent with zero")


def epr_joint(bell: str, p1: float, p2: float) -> dict[tuple[str, str], float]:
    """Closed form: sum over s1, s2 of |c_{s1 s2}|^2 w1(o1|s1) w2(o2|s2); a wing
    reads 'up' when its particle and loop point the same way."""
    weights = {
        "singlet": {("up", "down"): 0.5, ("down", "up"): 0.5},
        "triplet0": {("up", "down"): 0.5, ("down", "up"): 0.5},
        "triplet+": {("up", "up"): 1.0},
        "triplet-": {("down", "down"): 1.0},
    }[bell]

    def w(outcome: str, spin: str, p_up: float) -> float:
        parallel = p_up if spin == "up" else 1.0 - p_up
        return parallel if outcome == "up" else 1.0 - parallel

    return {
        (o1, o2): sum(c2 * w(o1, s1, p1) * w(o2, s2, p2) for (s1, s2), c2 in weights.items())
        for o1 in ("up", "down") for o2 in ("up", "down")
    }


def _check_preset_profile(summary: dict, v: Verdict) -> None:
    c = summary["zero_crossings"]
    v.require(_close(summary["a_z_at_y0"], PRESET_A0, 0.01 * abs(PRESET_A0)),
              f"preset a_z(0) {summary['a_z_at_y0']}")
    v.require(len(c) == 2 and _close(c[0], -PRESET_CROSSING, 0.005)
              and _close(c[1], PRESET_CROSSING, 0.005), f"preset crossings {c}")
    v.require(_close(summary["average_negative_region"], PRESET_AVERAGE, 0.1 * abs(PRESET_AVERAGE)),
              f"preset average {summary['average_negative_region']}")


def _csv_rows(text: str | None, header: str) -> list[tuple[float, ...]]:
    if not text:
        return []
    lines = text.splitlines()
    if lines[0] != header:
        return []
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
