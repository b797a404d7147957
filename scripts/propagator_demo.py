#!/usr/bin/env python3
"""Compare the closed-form evolution group with the exponential of the generator.

Evolves a smooth state on a circle fiber under the rotation generator and
prints the sup-distance to e^{itG/hbar} u of the discretized generator G at
a few times, plus the full-period return error. G is circulant on the
uniform circle, so its exponential is taken by FFT
(`weylred.cli.circulant_propagator`), exactly and without a dense matrix.
"""

import argparse
import math

import numpy as np

from weylred.cli import circulant_propagator
from weylred.fiber import FiberFunction, SphereFiber, evolve_group, fiber_JX_matrix
from weylred.symbols import rotation_generator


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=256)
    parser.add_argument("--hbar", type=float, default=1.0)
    args = parser.parse_args()

    fiber = SphereFiber.circle(1.0, args.nodes)
    X = rotation_generator(0, 1, 2)
    u = FiberFunction(fiber, np.exp(np.sin(fiber.thetas)) + 0j)
    G = fiber_JX_matrix(X, args.hbar, fiber).matrix

    print(f"{'t':>10} {'sup |group - exp|':>20}")
    for t in (0.5, 1.0, math.pi, 2 * math.pi):
        oracle = circulant_propagator(G, t, args.hbar, u.values)
        direct = evolve_group(X, t, args.hbar, u)
        err = float(np.max(np.abs(oracle - direct.values)))
        print(f"{t:>10.4f} {err:>20.3e}")

    back = evolve_group(X, 2 * math.pi, args.hbar, u)
    print(f"full-period return error: {np.max(np.abs(back.values - u.values)):.3e}")


if __name__ == "__main__":
    main()
