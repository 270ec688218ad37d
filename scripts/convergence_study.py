#!/usr/bin/env python3
"""Grid convergence of the oracle's fitted acceleration in the preset box.

Runs the preset grid oracle at several points per axis (default 24, 32,
40, 48) with the main packet's edge ramp held at a fixed length, 3 cells
of the 32-point grid, so that every grid samples the same packet.  Per
grid it prints the gap 1 - fit / contraction, where the contraction uses
the moments of that grid's own initial density, against dx^2, and the
wall diagnostic (edge density ratio) of the oracle's runs.  The remainder
run keeps the preset theta on grids finer than the preset's, so its step
shrinks as dx^2 and its windows hold more samples; scaling its theta up
to hold the step raised its norm drift, and with it the noise floor of
the remainder fit, over the residual at 40 and 48 points.  On coarser
grids it keeps the preset grid's step, so its windows keep their samples.

The scheme is second order, so the gap should fall as dx^2.  Each pair of
successive grids gives a Richardson extrapolate (Richardson, Phil. Trans.
R. Soc. A 210, 307 (1911)) g0 = (h1^2 g2 - h2^2 g1) / (h1^2 - h2^2); the
finest pair's is reported with the spread of all of them and the grid
convergence index of the finest grid, GCI = 1.25 |g2 - g1| / (r^2 - 1)
with r = h1 / h2 (Roache, Verification and Validation in Computational
Science and Engineering, 1998).

Usage:  python scripts/convergence_study.py [--points 24 32 40 48] [--csv PATH]
"""

import argparse
import sys
from pathlib import Path

from spinloop import config, gridsim
from spinloop.cli import csv_text, exit_code
from spinloop.errors import ValidationError

PRESET_POINTS = 32  # the ramp is the preset's edge_ramp_cells cells of this grid


def study_config(points: int) -> dict:
    """The preset oracle at ``points`` per axis, its main packet's ramp at a
    fixed length, and its remainder run at the preset theta or, on a grid
    coarser than the preset's, at the preset grid's step (dt ~ theta dx^2),
    so that no remainder window holds fewer samples than at the preset."""
    cfg = config.load_config()
    o = cfg["oracle"]
    scale = (points - 1) / (PRESET_POINTS - 1)
    o["edge_ramp_cells"] *= scale
    o["remainder"]["theta"] *= min(1.0, scale**2)
    o["points"] = points
    return cfg


def gap_row(points: int) -> dict:
    cfg = study_config(points)
    result = gridsim.run_oracle(cfg)
    a_grid = result.a_from_grid_density
    return {
        "points": points, "dx": result.spec.dx, "fit": result.fit.a, "contraction": a_grid,
        "gap": 1.0 - result.fit.a / a_grid, "edge": result.edge_density_ratio,
    }


def extrapolate(coarse: dict, fine: dict) -> float:
    h1, h2 = coarse["dx"] ** 2, fine["dx"] ** 2
    return (h1 * fine["gap"] - h2 * coarse["gap"]) / (h1 - h2)


def study(points: list[int], csv: str | None) -> int:
    if len(points) < 2:
        raise ValidationError("the study needs at least two grids")
    rows = []
    print("points  dx^2 [1e-6 l^2]  gap [%]  gap/dx^2  fit a     contraction  edge ratio")
    for n in points:
        row = gap_row(n)
        rows.append(row)
        dx2, gap = 1e6 * row["dx"] ** 2, 100 * row["gap"]
        print(f"{n:6d}  {dx2:15.4f}  {gap:7.4f}  {gap / dx2:8.4f}  {row['fit']:<8.6g}"
              f"  {row['contraction']:<11.6g}  {row['edge']:.2e}")
    pairs = [extrapolate(c, f) for c, f in zip(rows, rows[1:])]
    for (c, f), g0 in zip(zip(rows, rows[1:]), pairs):
        print(f"extrapolate {c['points']}/{f['points']}: {100 * g0:+.4f}%")
    coarse, fine = rows[-2], rows[-1]
    gci = 1.25 * abs(fine["gap"] - coarse["gap"]) / ((coarse["dx"] / fine["dx"]) ** 2 - 1.0)
    print(f"Richardson extrapolate {100 * pairs[-1]:+.4f}%, spread of the pairwise "
          f"extrapolates {100 * (max(pairs) - min(pairs)):.4f}%, "
          f"GCI of the {fine['points']}-point gap {100 * gci:.4f}%")
    if csv:
        keys = ("points", "dx", "fit", "contraction", "gap", "edge")
        header = "points,dx,fit_a,contraction,gap,edge_density_ratio"
        Path(csv).write_text(csv_text(header, *([row[k] for row in rows] for k in keys)))
        print(f"wrote {csv}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, nargs="+", default=[24, 32, 40, 48])
    parser.add_argument("--csv", default=None, help="optional CSV output path")
    args = parser.parse_args()
    return exit_code(lambda: study(sorted(set(args.points)), args.csv))


if __name__ == "__main__":
    sys.exit(main())
