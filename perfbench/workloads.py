"""Seeded inputs and op execution for the three benchmark workloads.

Every workload is a fixed list of ops built from ``--seed`` before timing
starts. A pass runs the list once, op after op, in one process (closed loop,
one client). The seed moves continuous inputs inside fixed strata and
shuffles the op order; the cost-relevant structure (spin names, sample
counts, sweep points, grid sizes, variants, step counts) is a fixed
multiset, so pass time and the known-defect share of ops do not depend on
the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spinloop import cli, gridsim, packets, spins
from spinloop import config as cfgmod
from spinloop import deflection as dfl

SPIN_NAMES = (
    "up-up", "down-down", "up-down", "down-up", "singlet",
    "parallel", "antiparallel", "parallel-coherent", "antiparallel-coherent",
)
BELL_STATES = ("singlet", "triplet0", "triplet+", "triplet-")
CASES_PER_SPIN = 4
SAMPLE_COUNTS = (101, 201, 301, 401)
SWEEP_POINTS = (25, 50, 75, 99)
# Log-uniform width strata covering 1e-3 .. 0.1, one per case of a spin name.
WIDTH_STRATA = tuple((1e-3 * 10 ** (k / 2), 1e-3 * 10 ** ((k + 1) / 2)) for k in range(4))
# Heights keep both zero crossings (at ~ +-0.82 z) inside the preset y range.
Z_RANGE = (0.25, 0.55)

# Coarse-grid scan: per points-per-axis, the edge ramp, packet width range and
# kick range. A kicked packet whose edge sits few cells from the Dirichlet
# walls picks up a wall-driven drift in <z>, so coarser grids get smaller
# kicks; every corner of these ranges passes the scan checks with a third of
# their tolerance to spare.
SCAN_GRIDS = {
    16: {"ramp": 2.0, "width": (0.028, 0.032), "kick": (0.0, 0.3)},
    20: {"ramp": 2.0, "width": (0.030, 0.040), "kick": (0.0, 1.5)},
    24: {"ramp": 3.0, "width": (0.030, 0.040), "kick": (0.0, 3.0)},
}
SCAN_VARIANTS = ("full", "free", "pure-zeeman")
SCAN_REPEATS = 2
SCAN_STEPS = 60
SCAN_CENTER = (0.0, 0.0, 0.4)
SCAN_HALF_WIDTH = 0.05
SCAN_ZEEMAN = (5.0, 3.0)
SCAN_BASIS = (("up", "up"), ("down", "down"), ("up", "down"), ("down", "up"))


@dataclass
class Op:
    """One timed call: a CLI command (``argv``) or a gridsim scan run."""

    index: int
    kind: str
    inputs: dict
    argv: list[str] = field(default_factory=list)


def build(workload: str, seed: int, work_dir: Path) -> list[Op]:
    """The op list of one pass; CLI config files are written to ``work_dir``."""
    rng = np.random.default_rng(seed)
    if workload == "oracle":
        return [Op(0, "oracle", {"preset": cfgmod.PRESET_NAME, "variant": "full"}, ["oracle"])]
    if workload == "sweep":
        return _sweep_ops(rng, work_dir)
    if workload == "scan":
        return _scan_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_ops(rng: np.random.Generator, work_dir: Path) -> list[Op]:
    n_cases = len(SPIN_NAMES) * CASES_PER_SPIN
    sweep_points = rng.permutation(np.repeat(SWEEP_POINTS, n_cases // len(SWEEP_POINTS)))
    representation = rng.permutation(["coherent", "mixture"] * (n_cases // 2))
    bells = rng.permutation(np.repeat(BELL_STATES, n_cases // len(BELL_STATES)))
    cases = []
    for name in SPIN_NAMES:
        samples = rng.permutation(SAMPLE_COUNTS)
        z_edges = np.linspace(*Z_RANGE, CASES_PER_SPIN + 1)
        z_order = rng.permutation(CASES_PER_SPIN)
        for k, (lo, hi) in enumerate(WIDTH_STRATA):
            z_lo, z_hi = z_edges[z_order[k]], z_edges[z_order[k] + 1]
            cases.append({
                "figure2": {
                    "spin": name,
                    "width": float(math.exp(rng.uniform(math.log(lo), math.log(hi)))),
                    "z": float(rng.uniform(z_lo, z_hi)),
                    "samples": int(samples[k]),
                },
                "deflect": {"speed": float(rng.uniform(500.0, 3000.0))},
            })
    for i, case in enumerate(cases):
        case["epr"] = {
            "bell": str(bells[i]),
            "p1_up": float(rng.uniform(0.05, 0.95)),
            "p2_up": float(rng.uniform(0.05, 0.95)),
            "representation": str(representation[i]),
            "sweep_points": int(sweep_points[i]),
        }
    cases = [cases[i] for i in rng.permutation(len(cases))]
    # The unmodified preset leads, so its reference numbers are checked too.
    cases.insert(0, {})
    ops = []
    for c, case in enumerate(cases):
        path = work_dir / f"case{c:03d}.json"
        path.write_text(json.dumps(case, sort_keys=True))
        for command in ("figure2", "deflect", "epr"):
            ops.append(Op(len(ops), command, {"case": c, "config": case},
                          [command, "--config", str(path)]))
    return ops


def _scan_ops(rng: np.random.Generator) -> list[Op]:
    ops = []
    for points, spec in SCAN_GRIDS.items():
        for variant in SCAN_VARIANTS:
            for _ in range(SCAN_REPEATS):
                ops.append({
                    "variant": variant,
                    "points": points,
                    "edge_ramp_cells": spec["ramp"],
                    "width": float(rng.uniform(*spec["width"])),
                    "kick": float(rng.uniform(*spec["kick"])),
                    "spin": list(SCAN_BASIS[rng.integers(len(SCAN_BASIS))]),
                    "steps": SCAN_STEPS,
                })
    return [Op(i, "scan", ops[j]) for i, j in enumerate(rng.permutation(len(ops)))]


def run_cli(op: Op, out_dir: Path) -> tuple[float, dict]:
    """Time ``spinloop.cli.main`` in-process; collect exit code, stderr and files."""
    out, err = io.StringIO(), io.StringIO()
    result: dict = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            result["rc"] = cli.main([*op.argv, "--out", str(out_dir)])
        except SystemExit as exc:
            result["rc"] = exc.code
        except Exception as exc:  # an escaped error is a failed op, not a crashed run
            result["rc"] = None
            result["exception"] = repr(exc)
        elapsed = time.perf_counter() - t0
    result["stderr"] = err.getvalue()
    result["files"] = (
        {p.name: p.read_text() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    )
    return elapsed, result


class ScanRunner:
    """Coarse grid runs through gridsim's public API, as scripts/remainder_study.py does."""

    def __init__(self):
        cfg = cfgmod.load_config()
        self.kappa = cfgmod.build_kinetic_scale(cfg)
        self.sign = cfgmod.build_params(cfg).coupling_sign

    def hamiltonian(self, variant: str) -> gridsim.GridHamiltonian:
        if variant == "full":
            return gridsim.GridHamiltonian(coupling_sign=self.sign)
        zeeman = SCAN_ZEEMAN if variant == "pure-zeeman" else (0.0, 0.0)
        return gridsim.GridHamiltonian(
            include_interaction=False, coupling_sign=self.sign,
            zeeman_particle=zeeman[0], zeeman_loop=zeeman[1],
        )

    def run(self, op: Op) -> tuple[float, dict]:
        p = op.inputs
        t0 = time.perf_counter()
        try:
            result = self._run(p)
        except Exception as exc:  # an escaped error is a failed op, not a crashed run
            result = {"exception": repr(exc)}
        return time.perf_counter() - t0, result

    def _run(self, p: dict) -> dict:
        geometry = dict(
            points_per_axis=p["points"], box_center=SCAN_CENTER,
            box_half_width=SCAN_HALF_WIDTH, kinetic_scale=self.kappa,
        )
        probe = gridsim.GridSpec(dt=1e-30, steps=1, **geometry)
        spec = gridsim.GridSpec(dt=gridsim.stable_dt(probe), steps=p["steps"], **geometry)
        spin = spins.basis_state(*p["spin"])
        packet = packets.WavePacket(center=SCAN_CENTER, width=p["width"])
        state = gridsim.initialize(
            packet, spin, spec, momentum_z=p["kick"], edge_ramp_cells=p["edge_ramp_cells"]
        )
        grid_moments = gridsim.moments_from_state(state, spec, dfl.required_tuples_for(spin))
        a_contraction = dfl.contract_force(spin, grid_moments, coupling_sign=self.sign).a_z
        operator = gridsim.GridOperator(spec, self.hamiltonian(p["variant"]))
        _, series = gridsim.run(state, spec, operator)
        fit = gridsim.fit_acceleration(series.t, series.z_expect)
        return {
            "a_fit": fit.a,
            "sigma_a": fit.sigma_a,
            "a_contraction": a_contraction,
            "norm_drift": series.max_norm_drift(),
            "samples": int(len(series.t)),
        }
