#!/usr/bin/env python3
"""Window-length study of the beyond-quadratic remainder in <z>(t).

For a set of momentum kicks, evolve the packet in the heavy-slow regime,
fit quadratics over nested windows and tabulate the rms residual per
window.  The log-log slope (printed per kick) sits near 3 when the cubic
term dominates and degrades toward the noise floor as the kick shrinks.

Usage:  python scripts/remainder_study.py [--points N] [--csv PATH]
"""

import argparse
import sys

import numpy as np

from spinloop import gridsim, packets, spins
from spinloop.errors import NumericalError, ValidationError


def run_study(points: int, kappa: float, kicks, windows) -> list[tuple]:
    rows = []
    uu = spins.basis_state("up", "up")
    packet = packets.WavePacket(center=(0.0, 0.0, 0.4), width=0.03)
    spec = gridsim.Grid(points, (0.0, 0.0, 0.4), 0.05, kappa).stepped(duration=max(windows))
    for kick in kicks:
        state = gridsim.initialize(packet, uu, spec, momentum_z=kick, edge_ramp_cells=4.0)
        _, series = gridsim.run(state, spec, gridsim.GridOperator(spec, gridsim.GridHamiltonian()))
        residuals = gridsim.remainder_residuals(series, windows)
        slope = np.polyfit(np.log(windows), np.log(residuals), 1)[0]
        print(f"kick {kick:6.2f}: slope {slope:+.3f}  residuals "
              + " ".join(f"{r:.2e}" for r in residuals))
        for w, r in zip(windows, residuals):
            rows.append((kick, w, r, slope))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=32)
    parser.add_argument("--kappa", type=float, default=0.02)
    parser.add_argument("--csv", default=None, help="optional CSV output path")
    args = parser.parse_args()
    windows = list(np.geomspace(2.5e-4, 1.0e-3, 6))
    try:
        rows = run_study(args.points, args.kappa, kicks=(5.0, 15.0, 30.0), windows=windows)
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write("kick,window,residual_rms,slope\n")
                for kick, w, r, slope in rows:
                    fh.write(f"{kick:.12g},{w:.12g},{r:.12g},{slope:.12g}\n")
            print(f"wrote {args.csv}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
