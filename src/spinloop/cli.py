"""Command-line front end emitting plot-ready CSV and JSON reports.

Subcommands: ``figure2``, ``deflect``, ``epr``, ``oracle``, ``selftest``.
Every command is deterministic: identical configurations produce
byte-identical data files (12 significant digits, sorted JSON keys, no
timestamps).  Exit codes: 0 success, 1 validation error or unwritable
output, 2 numerical failure, with a one-line message.  :func:`csv_text` and
:func:`exit_code` hold this contract for the commands and the scripts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from . import config as cfgmod
from . import deflection as dfl
from . import epr, fields, gridsim, packets, spins, trajectory, units
from .errors import NumericalError, ValidationError


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _write_json(out_dir: Path, name: str, payload: dict) -> None:
    _write(out_dir, name, json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n")


def csv_text(header: str, *columns: Iterable[float]) -> str:
    """A CSV file's text: ``header``, then one row per sample of the
    ``columns``, each value to 12 significant digits."""
    row = ",".join(["%.12g"] * len(columns))
    return "\n".join([header, *(row % values for values in zip(*columns))]) + "\n"


def exit_code(action: Callable[[], int]) -> int:
    """``action()``'s exit code, or 1 for a ValidationError or OSError (unwritable
    output) and 2 for a NumericalError, with a one-line message on stderr."""
    try:
        return action()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


# ----------------------------------------------------------------------
# figure2: transverse acceleration profile
# ----------------------------------------------------------------------

def _compute_profile(cfg: dict) -> tuple[packets.AccelerationProfile, np.ndarray, int]:
    """The ``figure2`` profile, with the spin input and coupling sign it used."""
    f2 = cfg["figure2"]
    sign = cfgmod.build_params(cfg).coupling_sign
    spin_input = spins.named_spin_input(f2["spin"])
    profile = packets.acceleration_profile(
        spin_input, z=f2["z"], x=f2["x"], y_range=(f2["y_min"], f2["y_max"]),
        n_samples=f2["samples"], width=f2["width"], coupling_sign=sign,
    )
    return profile, spin_input, sign


REFERENCE_NEGATIVE_AVERAGE = -2.22  # l / tau^2, transverse-profile benchmark


def cmd_figure2(cfg: dict, out_dir: Path) -> int:
    profile, spin_input, sign = _compute_profile(cfg)
    crossings = packets.zero_crossings(profile)
    found = packets.lobes(profile)
    # A vanishing force (e.g. the singlet) has no lobes, and no region to average.
    region = packets.negative_lobe(found) if found else None
    average = None if region is None else region.average
    f2 = cfg["figure2"]
    (peak,), _ = packets.accelerations(spin_input, [(f2["x"], 0.0, f2["z"])], f2["width"], sign)
    summary = {
        "average_negative_region": average,
        "reference_average": REFERENCE_NEGATIVE_AVERAGE,
        "relative_difference": None if average is None
        else abs(average - REFERENCE_NEGATIVE_AVERAGE) / abs(REFERENCE_NEGATIVE_AVERAGE),
        "zero_crossings": crossings,
        "negative_region_width": None if region is None else region.width,
        "a_z_at_y0": peak,
        "config": f2,
    }
    _write(out_dir, "figure2.csv", csv_text("y,a_z", profile.y, profile.a_z))
    _write_json(out_dir, "figure2_summary.json", summary)
    if average is None:
        print("figure2: no deflecting region, a_z is rounding noise at every sample")
    else:
        print(f"figure2: negative-region average {average:.6g} l/tau^2, crossings {crossings}")
    return 0


# ----------------------------------------------------------------------
# deflect: SI screen-deflection estimate
# ----------------------------------------------------------------------

def _no_deflection(out_dir: Path, d: dict, note: str) -> int:
    payload = {
        "degenerate": True,
        "note": note,
        "deflection_m": 0.0,
        "interaction_time_s": 0.0,
        "separation_ratio": 0.0,
        "config": d,
    }
    _write_json(out_dir, "deflection.json", payload)
    print(f"deflect: {note}")
    return 0


def cmd_deflect(cfg: dict, out_dir: Path) -> int:
    d = cfg["deflect"]
    beta = cfgmod.resolved_beta(cfg)
    if beta == 0.0 or cfg["params"]["alpha"] == 0.0:
        return _no_deflection(out_dir, d, "zero coupling: no interaction, no deflection")
    profile, _, _ = _compute_profile(cfg)
    found = packets.lobes(profile)
    if not found:
        return _no_deflection(out_dir, d, "zero force: a_z is rounding noise at every sample")
    lobe = packets.deflecting_lobe(found, profile.y)
    est = trajectory.estimate(
        cfgmod.build_params(cfg),
        tau=cfg["tau"],
        speed=d["speed"],
        avg_acceleration_natural=lobe.average,
        region_width_natural=lobe.width,
    )
    # Past the sweep line's closest approach to the dipole the packet would
    # cross the source of the force: the constant-acceleration model is void.
    closest = math.hypot(cfg["figure2"]["x"], cfg["figure2"]["z"]) * est.length_unit_m
    if est.deflection_m >= closest:
        raise ValidationError(
            f"deflection {est.deflection_m:.4g} m is not below the sweep line's distance "
            f"to the dipole, {closest:.4g} m: the constant-acceleration estimate cannot hold"
        )
    payload = {
        "estimate": est.__dict__,
        "separation_ratio": trajectory.separation_vs_packet(
            est.deflection_m, d["packet_width_si"]
        ),
        "beta_over_alpha": beta / cfg["params"]["alpha"],
        "config": d,
    }
    _write_json(out_dir, "deflection.json", payload)
    print(
        f"deflect: l={est.length_unit_m:.4g} m, t_int={est.interaction_time_s:.4g} s, "
        f"deflection={est.deflection_m:.4g} m"
    )
    return 0


# ----------------------------------------------------------------------
# epr: correlation sweep and scenario report
# ----------------------------------------------------------------------

def cmd_epr(cfg: dict, out_dir: Path) -> int:
    e = cfg["epr"]
    scenario = epr.EPRScenario(
        bell=e["bell"], p1_up=e["p1_up"], p2_up=e["p2_up"], loop_representation=e["representation"]
    )
    dist = epr.joint_distribution(scenario)
    ps = np.linspace(0.01, 0.99, e["sweep_points"])
    rows = epr.correlation_sweep(ps, bell=e["bell"])
    payload = {
        "joint": {f"{k[0]}-{k[1]}": v for k, v in dist.as_dict().items()},
        "marginal_down_wing1": dist.marginal(1, "down"),
        "conditional_wing2_given_down1": epr.conditional(dist, 1, "down"),
        # coherent and mixture loops give the same numbers: the wing projectors
        # are diagonal in the loop basis, so the gap is 0 by construction
        "representation_gap": 0.0,
        "config": e,
    }
    _write(out_dir, "epr_sweep.csv", csv_text("p,cond_up_given_down", *zip(*rows)))
    _write_json(out_dir, "epr_scenario.json", payload)
    cond = epr.conditional(dist, 1, "down")["up"]
    print(f"epr: P(down@1)={dist.marginal(1, 'down'):.6g}, P(up@2|down@1)={cond:.6g}")
    return 0


# ----------------------------------------------------------------------
# oracle: grid evolution versus the perturbative prediction
# ----------------------------------------------------------------------

def cmd_oracle(cfg: dict, out_dir: Path) -> int:
    o = cfg["oracle"]
    result = gridsim.run_oracle(cfg)
    spec, series, fit, p0 = result.spec, result.series, result.fit, result.initial_momentum
    drift = series.max_norm_drift()
    report = {
        "variant": result.variant,
        "fit": fit.__dict__,
        "norm_drift": drift,
        "grid": {"points": o["points"], "dt": spec.dt, "steps": spec.steps},
        "walls": {"edge_density_ratio": result.edge_density_ratio},
    }
    if result.variant != "full":
        report["initial_momentum"] = p0
        summary = (f"oracle[{result.variant}]: fitted a = {fit.a:.3e} (expect ~0), "
                   f"norm drift {drift:.2e}")
    else:
        a_grid, kappa = result.a_from_grid_density, spec.kinetic_scale
        report["grid"].update(half_width=o["half_width"], kinetic_scale=kappa)
        report.update({
            "bch": {
                "a_from_grid_density": a_grid,
                "a_from_quadrature": result.a_from_quadrature,
                "a_discrete": result.a_discrete,
            },
            "relative_error": abs(fit.a - a_grid) / abs(a_grid),
            "velocity": {
                "initial_momentum": p0,
                "kappa_times_p0": kappa * p0,
                "fitted_v0": fit.v0,
                "difference": abs(fit.v0 - kappa * p0),
            },
            "zeeman": {
                "strengths": o["zeeman"],
                "fitted_a": result.zeeman_fit.a,
                "shift": abs(result.zeeman_fit.a - fit.a),
                "sigma_a": fit.sigma_a,
            },
            "remainder": {
                "windows": list(o["remainder"]["windows"]),
                "residuals": result.remainder_residuals,
                "exponent": result.remainder_exponent,
                "norm_drift": result.remainder_series.max_norm_drift(),
            },
        })
        summary = (
            f"oracle: fitted a={fit.a:.5g} vs contraction {a_grid:.5g} "
            f"({100 * report['relative_error']:.2f}%), "
            f"remainder exponent {result.remainder_exponent:.2f}, norm drift {drift:.2e}"
        )
    _write(out_dir, "oracle_series.csv",
           csv_text("t,z_expect,norm", series.t, series.z_expect, series.norm))
    _write_json(out_dir, "oracle_report.json", report)
    print(summary)
    return 0


# ----------------------------------------------------------------------
# selftest: invariant suite
# ----------------------------------------------------------------------

# The grid smoke's displacement |a| t^2 / 2 over its 120 steps, in units of
# eps z0, under which the rounding of <z> ~ z0 can move its fit by more than
# half the check's 10%: the fit carries each sample's rounding, up to about
# 2 eps z0 (the residual of a smoke that reads only rounding), 1.2 times into
# the displacement, and 1.2 x 2 / 5% = 48.  The other half holds the smoke's
# own discretisation gap, about 3.3% at heavy masses.
SMOKE_SHIFT_FLOOR = 48


def _selftest_checks(cfg: dict) -> list[tuple[str, bool, str]]:
    results = []

    def check(name: str, passed: bool, detail: str) -> None:
        results.append((name, bool(passed), detail))

    # su(2) algebra and singlet/triplet spectrum
    sx, sy, sz_ = (spins.spin_generator(a) for a in "xyz")
    comm = spins.commutator(sx, sy) - 1j * sz_
    eigs = np.sort(np.linalg.eigvalsh(spins.spin_dot()))
    spec_err = np.max(np.abs(eigs - np.array([-0.75, 0.25, 0.25, 0.25])))
    check(
        "spin-algebra",
        np.max(np.abs(comm)) < 1e-15 and spec_err < 1e-12,
        f"[Sx,Sy]-iSz={np.max(np.abs(comm)):.1e}, spectrum err={spec_err:.1e}",
    )

    # force operator equals the negative z-gradient of the coupling
    force = fields.force_operator()
    coupling = fields.interaction_hamiltonian()
    x, y, z = 0.1, 0.2, 0.35
    errs = []
    for h in (1e-3, 5e-4):
        fd = -(coupling.at(x, y, z + h) - coupling.at(x, y, z - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - force.at(x, y, z))))
    order = math.log2(errs[0] / errs[1])
    check("force-gradient", abs(order - 2.0) < 0.2, f"convergence order {order:.3f}")

    # closed form matches the generic contraction
    packet = packets.WavePacket(center=(0.0, 0.1, 0.4), width=1e-3)
    uu = spins.basis_state("up", "up")
    m = packets.moments(packet, dfl.required_tuples_for(uu) + list(dfl.PARALLEL_TUPLES))
    a_generic = dfl.contract_force(uu, m).a_z
    a_closed = dfl.parallel_closed_form(m)
    gap = abs(a_generic - a_closed) / abs(a_closed)
    check("path-equivalence", gap < 1e-10, f"relative gap {gap:.1e}")

    # antiparallel symmetry
    ud = spins.basis_state("up", "down")
    a_anti = dfl.contract_force(ud, m).a_z
    gap = abs(a_anti + a_generic) / abs(a_generic)
    check("antisymmetry", gap < 1e-10, f"relative gap {gap:.1e}")

    # EPR reference numbers
    dist = epr.joint_distribution(epr.EPRScenario())
    cond = epr.conditional(dist, 1, "down")["up"]
    check(
        "epr-numbers",
        abs(dist.marginal(1, "down") - 0.5) < 1e-12 and abs(cond - 0.82) < 1e-9,
        f"P(down@1)={dist.marginal(1, 'down')!r}, P(up@2|down@1)={cond!r}",
    )

    # classical dipole limit
    params = cfgmod.build_params(cfg)
    units_ = cfgmod.build_units(cfg)
    z0 = 0.4
    on_axis = packets.WavePacket(center=(0.0, 0.0, z0), width=1e-3)
    mm = packets.moments(on_axis, list(dfl.PARALLEL_TUPLES))
    a_nat = dfl.parallel_closed_form(mm, coupling_sign=params.coupling_sign)
    force_si = params.mass * units.from_natural(a_nat, "acceleration", units_)
    classical = dfl.classical_dipole_force(
        params.alpha * params.hbar / 2.0,
        params.beta * params.hbar / 2.0,
        z0 * units_.l,
        params.mu0,
    )
    gap = abs(force_si - classical) / abs(classical)
    check("classical-limit", gap < 5e-3, f"relative gap {gap:.2e}")

    # canonical commutator convergence
    res = [gridsim.canonical_commutator_residual([0.0, 0.0, 1.0], points=n) for n in (64, 128)]
    order = math.log2(res[0] / res[1]) / math.log2(127 / 63)
    check("canonical-commutator", abs(order - 2.0) < 0.2, f"convergence order {order:.3f}")

    # small grid smoke: norm conservation and coarse agreement
    kappa = cfgmod.build_kinetic_scale(cfg)
    spec = gridsim.Grid(20, (0.0, 0.0, 0.4), 0.05, kappa).stepped(steps=120)
    state = gridsim.initialize(
        packets.WavePacket(center=(0.0, 0.0, 0.4), width=0.045),
        uu, spec, edge_ramp_cells=2.0,
    )
    gm = gridsim.moments_from_state(state, spec, dfl.required_tuples_for(uu))
    a_pred = dfl.contract_force(uu, gm, coupling_sign=params.coupling_sign).a_z
    t = spec.steps * spec.dt
    shift, floor = abs(a_pred) * t * t / 2.0, SMOKE_SHIFT_FLOOR * np.finfo(float).eps * z0
    if shift < floor:
        raise ValidationError(
            f"grid smoke: {spec.steps} steps of dt {spec.dt:.3e} move <z> by {shift:.3g} l, "
            f"under the {floor:.3g} l that its fit resolves over the rounding of <z> ~ {z0:g}"
        )
    ham = gridsim.GridHamiltonian(coupling_sign=params.coupling_sign)
    _, series = gridsim.run(state, spec, gridsim.GridOperator(spec, ham))
    fit = gridsim.fit_acceleration(series.t, series.z_expect)
    gap = abs(fit.a - a_pred) / abs(a_pred)
    check(
        "grid-smoke",
        series.max_norm_drift() < 1e-8 and gap < 0.1,
        f"norm drift {series.max_norm_drift():.1e}, fit gap {100 * gap:.2f}%",
    )
    return results


def cmd_selftest(cfg: dict, out_dir: Path) -> int:
    results = _selftest_checks(cfg)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    payload = {
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in results],
        "all_passed": all(p for _, p, _ in results),
    }
    _write_json(out_dir, "selftest_report.json", payload)
    return 0 if payload["all_passed"] else 2


# ----------------------------------------------------------------------

_COMMANDS = {
    "figure2": cmd_figure2,
    "deflect": cmd_deflect,
    "epr": cmd_epr,
    "oracle": cmd_oracle,
    "selftest": cmd_selftest,
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    on it, so every :func:`main` call shares it.  Do not modify it."""
    parser = argparse.ArgumentParser(
        prog="spinloop",
        description="Deflection of a spin-1/2 particle by a two-state magnetic dipole: "
        "profiles, estimates, EPR correlations and a Schrodinger-grid cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("figure2", "transverse acceleration profile (CSV) and summary (JSON)"),
        ("deflect", "SI screen-deflection estimate (JSON)"),
        ("epr", "EPR correlation sweep (CSV) and scenario report (JSON)"),
        ("oracle", "grid evolution versus the perturbative prediction (JSON)"),
        ("selftest", "run the invariant suite and report pass/fail"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument(
            "--preset", type=str, default=cfgmod.PRESET_NAME,
            help=f"named preset (default: {cfgmod.PRESET_NAME})",
        )
        p.add_argument("--out", type=str, default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def command() -> int:
        cfg = cfgmod.load_config(args.config, preset=args.preset)
        return _COMMANDS[args.command](cfg, Path(args.out))

    return exit_code(command)


if __name__ == "__main__":
    sys.exit(main())
