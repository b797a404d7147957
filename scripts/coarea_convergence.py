#!/usr/bin/env python3
"""Print the coarea residual under joint grid refinement.

The ambient integral of f times the gradient-wedge density is compared
against the stacked fiber integrals of the level decomposition for
f = exp(-|x|^2) on the disc levels of |x|^2/2, on [5e-9, lam-max] or,
with --lam-max inf, on the whole spectrum (0, inf).
"""

import argparse
import math

from weylred.dint import build_grid, coarea_check, gaussian_poly_suite
from weylred.geometry import radial_hamiltonian


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--doublings", type=int, default=5)
    parser.add_argument(
        "--lam-max",
        type=float,
        default=18.0,
        help="top level of the grid on [5e-9, lam-max] (default 18); 'inf' maps the whole "
        "half-line (0, inf), from phi(0) = 0",
    )
    args = parser.parse_args()
    lam_min = 0.0 if math.isinf(args.lam_max) else 5e-9

    ham = radial_hamiltonian(2)
    f = gaussian_poly_suite(2)[2]
    print(f"target value: pi^(3/2)/2 = {math.pi ** 1.5 / 2:.12f}")
    print(f"{'lambda-nodes':>12} {'fiber-nodes':>12} {'residual':>14}")
    nl, nf = 3, 8
    for _ in range(args.doublings):
        res = coarea_check(f, build_grid(ham, "circle", lam_min, args.lam_max, nl, nf))
        print(f"{nl:>12} {nf:>12} {res:>14.3e}")
        nl, nf = 2 * nl, 2 * nf


if __name__ == "__main__":
    main()
