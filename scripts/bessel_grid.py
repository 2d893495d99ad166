#!/usr/bin/env python3
"""Sweep the Bessel fold against the matrix exponential over a parameter grid.

Usage:
    python scripts/bessel_grid.py [--max-n 12] [--z-scale 2.0]
"""

import argparse
import cmath

from grouplie.bessel import deviation, exp_cyclic, exp_matrix_oracle


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--z-scale", type=float, default=2.0)
    args = ap.parse_args()

    zs = [0.0, 1.0, 0.7 + 0.3j, 2j]
    zs += [args.z_scale * z for z in (1.0, 1j, 0.5 + 0.5j)]
    worst = (0.0, None)
    for n in range(2, args.max_n + 1):
        row_worst = 0.0
        for k in range(n):
            omega = cmath.exp(2j * cmath.pi * k / n)
            for z in zs:
                dev = deviation(exp_cyclic(n, omega, z), exp_matrix_oracle(n, omega, z))
                row_worst = max(row_worst, dev)
                if dev > worst[0]:
                    worst = (dev, (n, k, z))
        print(f"N = {n:2d}: worst deviation {row_worst:.3e}")
    dev, where = worst
    print(f"\noverall worst {dev:.3e} at (N, k, z) = {where}")
    return 0 if dev < 1e-9 else 2


if __name__ == "__main__":
    raise SystemExit(main())
