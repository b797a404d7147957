"""Command-line verification harness.

    weylred <subcommand> --config <path> [--out <dir>] [--format json,csv]

Subcommands: identities | coarea | unitarity | commutation | evolve |
kernel | sweep | all. Exit codes: 0 all checks pass, 1 check failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .config import ConfigError, SuiteConfig, parse_config
from .dint import (
    apply_Tx,
    apply_Txi,
    build_grid,
    coarea_check,
    gaussian_poly_suite,
    strong_commutation_check,
)
from .fiber import (
    FiberFunction,
    PWSymbol,
    SphereFiber,
    evolve_group,
    fiber_JX_matrix,
    kernel_quantize,
    stereo_charts,
)
from .geometry import TestFunction, half_line_rule, radial_hamiltonian
from .moyal import expand_power_in_star_basis, star_commutator
from .rational import QQi
from .report import CheckRecord, Report, emit_report
from .sweep import bump_profile, default_sweep_pair, semiclassical_sweep
from .symbols import (
    PolySymbol,
    VectorField,
    angular_momentum,
    momentum_symbol,
    rotation_generator,
    xi_norm_squared,
)

SUBCOMMANDS = (
    "identities",
    "coarea",
    "unitarity",
    "commutation",
    "evolve",
    "kernel",
    "sweep",
    "all",
)


def _timed(report: Report, name: str, params: dict, tolerance, fn: Callable) -> None:
    """Run one check; module errors become failed records, not crashes.

    `fn` returns either a bare residual, which passes below `tolerance`, or
    (residual, exact, passed) for checks that decide their own verdict.
    """
    t0 = time.perf_counter()
    try:
        out = fn()
        if isinstance(out, tuple):
            residual, exact, passed = out
        else:
            residual, exact, passed = out, None, out < tolerance
    except Exception as exc:  # deliberate: the suite must survive any check
        report.add(
            CheckRecord(
                name=name,
                params={**params, "error": f"{type(exc).__name__}: {exc}"},
                tolerance=tolerance,
                passed=False,
                wall_time_s=time.perf_counter() - t0,
            )
        )
        return
    report.add(
        CheckRecord(
            name=name,
            params=params,
            tolerance=tolerance,
            passed=bool(passed),
            residual=None if residual is None else float(residual),
            exact=None if exact is None else bool(exact),
            wall_time_s=time.perf_counter() - t0,
        )
    )


# -- individual suites --------------------------------------------------


def _run_identities(cfg: SuiteConfig, report: Report) -> None:
    expected = {
        2: {2: PolySymbol.one, 0: lambda n: PolySymbol.hbar(n, 2) * Fraction(1, 2)},
        3: {3: PolySymbol.one, 1: lambda n: PolySymbol.hbar(n, 2) * 2},
        4: {
            4: PolySymbol.one,
            2: lambda n: PolySymbol.hbar(n, 2) * 5,
            0: lambda n: PolySymbol.hbar(n, 4) * Fraction(3, 2),
        },
    }
    for n in (2, 3):
        for i in range(n):
            for j in range(i + 1, n):
                fij = angular_momentum(i, j, n)
                for m, coeffs in expected.items():

                    def check(fij=fij, m=m, coeffs=coeffs, n=n):
                        exp = expand_power_in_star_basis(fij, m)
                        got = dict(exp.coefficients)
                        ok = set(got) == set(coeffs) and all(
                            got[k] == coeffs[k](n) for k in coeffs
                        )
                        ok = ok and exp.residual().is_zero()
                        return None, ok, ok

                    _timed(
                        report,
                        f"star-expansion-n{n}-f{i+1}{j+1}-m{m}",
                        {"n": n, "pair": [i + 1, j + 1], "power": m},
                        None,
                        check,
                    )

                def comm(fij=fij, n=n):
                    ok = all(
                        star_commutator(xi_norm_squared(n), fij**m).is_zero()
                        for m in range(1, 5)
                    )
                    return None, ok, ok

                _timed(
                    report,
                    f"laplacian-commutation-n{n}-f{i+1}{j+1}",
                    {"n": n, "pair": [i + 1, j + 1], "powers": [1, 2, 3, 4]},
                    None,
                    comm,
                )

    def table_row_check():
        rng = random.Random(cfg.seed)
        ok = True
        for _ in range(10):
            X = _random_field(rng, 3, 3)
            Y = _random_field(rng, 3, 3)
            # the Lie bracket is the oracle of both the Poisson bracket and
            # the star commutator; each momentum symbol is built once
            mx, my = momentum_symbol(X), momentum_symbol(Y)
            bracket = momentum_symbol(X.lie_bracket(Y))
            ok = ok and mx.poisson(my) == bracket
            ok = ok and star_commutator(mx, my) == PolySymbol.hbar(3) * (QQi.i() * bracket)
        return None, ok, ok

    _timed(
        report,
        "momentum-bracket-table",
        {"pairs": 10, "seed": cfg.seed},
        None,
        table_row_check,
    )


def _random_field(rng: random.Random, n: int, degree: int):
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(0, degree)
            xe = [0] * n
            for _ in range(d):
                xe[rng.randrange(n)] += 1
            c = rng.randint(-3, 3) or 1
            key = (0, tuple(xe), (0,) * n)
            terms[key] = terms.get(key, QQi()) + QQi(Fraction(c))
        return PolySymbol(n, terms)

    return VectorField(n, tuple(poly() for _ in range(n)))


def _half_line_params(n_lambda: int) -> dict:
    """Report params of a lambda-grid on (0, inf); the infinite end is the string
    "inf", since json.dumps(math.inf) writes Infinity, which is not strict JSON."""
    return {"lambda_range": [0.0, "inf"], "n_lambda": n_lambda}


def _run_coarea(cfg: SuiteConfig, report: Report) -> None:
    # fixed oracle geometry: disc levels of |x|^2/2 in the plane
    ham = radial_hamiltonian(2)
    suite = gaussian_poly_suite(2)
    f = suite[2]  # exp(-|x|^2)
    kind = "circle"

    def residual_at(lam_min, lam_max, nl, nf):
        return coarea_check(f, build_grid(ham, kind, lam_min, lam_max, nl, nf))

    # the whole spectrum (0, inf) of phi, from phi(0) = 0
    n_lambda = max(cfg.n_lambda, 64)
    _timed(
        report,
        "coarea-gaussian",
        {"hamiltonian": "half-square-norm", "target": "pi^{3/2}/2",
         **_half_line_params(n_lambda)},
        1e-8,
        lambda: residual_at(0.0, math.inf, n_lambda, max(cfg.fiber_nodes, 256)),
    )

    def ladder():
        ladder_sizes = ((3, 8), (6, 16), (12, 32), (24, 64))
        resids = [residual_at(5e-9, 18.0, nl, nf) for nl, nf in ladder_sizes]
        ok = all(a > b for a, b in zip(resids, resids[1:]))
        return resids[-1], None, ok

    _timed(
        report,
        "coarea-refinement-monotone",
        {"ladder": [[3, 8], [6, 16], [12, 32], [24, 64]]},
        None,
        ladder,
    )


def _run_unitarity(cfg: SuiteConfig, report: Report) -> None:
    n = cfg.dimension
    # radial levels of |x|^2/2: the only geometry with analytic norms to
    # compare against, independent of the configured hamiltonian; over the
    # whole spectrum (0, inf), whose critical level phi(0) = 0 is a null set
    ham = radial_hamiltonian(n)
    kind = "circle" if n == 2 else "sphere2"
    n_lambda = max(cfg.n_lambda, 64)
    grid = build_grid(
        ham,
        kind,
        0.0,
        math.inf,
        n_lambda,
        cfg.fiber_nodes,
        n_polar=cfg.n_polar,
        n_azimuth=cfg.n_azimuth,
    )
    suite = gaussian_poly_suite(n)
    for idx in cfg.test_functions:
        u = suite[idx]
        for side, apply in (("Tx", apply_Tx), ("Txi", apply_Txi)):

            def check(u=u, apply=apply):
                return abs(apply(u, grid).norm() ** 2 - u.analytic_l2_norm**2)

            _timed(
                report,
                f"unitarity-{side}-{u.name}",
                {"n": n, "function": u.name, **_half_line_params(n_lambda)},
                cfg.tolerance,
                check,
            )

    def sq(p):
        return np.sum(np.asarray(p) ** 2, axis=-1)

    def phi_u(p):
        return 0.5 * sq(p) * np.exp(-0.5 * sq(p))

    u = suite[0]
    # phi u on the position side; the Fourier side of -Laplacian/2 u is phi u-hat
    for name, apply, lifted in (
        ("multiplication-intertwining", apply_Tx, TestFunction(value=phi_u, gradient=None)),
        (
            "momentum-laplacian-intertwining",
            apply_Txi,
            TestFunction(value=u.value, gradient=None, fourier=phi_u),
        ),
    ):

        def intertwining(apply=apply, lifted=lifted):
            small = build_grid(ham, kind, 0.5, 2.0, 8, 32,
                               n_polar=cfg.n_polar, n_azimuth=cfg.n_azimuth)
            lhs = apply(lifted, small)
            base = apply(u, small)
            return float(np.max(np.abs(lhs.parts - small.lambda_nodes[:, None] * base.parts)))

        _timed(report, name, {"n": n}, 1e-12, intertwining)


def _run_commutation(cfg: SuiteConfig, report: Report) -> None:
    n = cfg.dimension
    suite = gaussian_poly_suite(n)

    def check():
        # built inside the check: a level set the configured hamiltonian does
        # not have (a non-radial phi on sphere2) fails this record by name
        grid = build_grid(
            cfg.hamiltonian,
            cfg.fiber_kind,
            max(cfg.lambda_range[0], 1e-6),
            cfg.lambda_range[1],
            min(cfg.n_lambda, 16),
            cfg.fiber_nodes,
            n_polar=cfg.n_polar,
            n_azimuth=cfg.n_azimuth,
        )
        return strong_commutation_check(cfg.vector_field, suite[3], cfg.hbar_list[0], grid)

    _timed(
        report,
        "strong-commutation",
        {
            "n": n,
            "fiber_kind": cfg.fiber_kind,
            "hbar": cfg.hbar_list[0],
            "function": suite[3].name,
        },
        cfg.tolerance,
        check,
    )


class NotCirculant(ValueError):
    """A generator that is not circulant, so its FFT exponential is not e^{itG/hbar}."""


def circulant_propagator(G: np.ndarray, t: float, hbar: float, u: np.ndarray) -> np.ndarray:
    """e^{itG/hbar} u for a circulant G: ifft(e^{it lam/hbar} fft(u)), lam = fft(G[:, 0]).

    A circulant matrix is diagonal in the discrete Fourier basis, with
    eigenvalues fft of its first column, so this is exact and costs
    O(N log N). G must equal circ(G[:, 0]), whose (i, j) entry is
    G[(i - j) mod N, 0], to 1e-12 of max|G|; otherwise `NotCirculant`. The
    eigenvalues stay complex, so a non-Hermitian G shows in the result.
    """
    n = len(G)
    idx = np.arange(n)
    off = float(np.max(np.abs(G - G[(idx[:, None] - idx) % n, 0])))
    scale = float(np.max(np.abs(G)))
    if off > 1e-12 * scale:
        raise NotCirculant(
            f"generator is {off:.3e} from circulant, above 1e-12 of max|G| = {scale:.3e}"
        )
    lam = np.fft.fft(G[:, 0])
    return np.fft.ifft(np.exp((1j * t / hbar) * lam) * np.fft.fft(u))


def _run_evolve(cfg: SuiteConfig, report: Report) -> None:
    fiber = SphereFiber.circle(1.0, 256)
    X = rotation_generator(0, 1, 2)
    u = FiberFunction(fiber, np.exp(np.sin(fiber.thetas)) + 0j)
    for hbar in (1.0, 0.1):

        def vs_expm(hbar=hbar):
            """evolve_group against the FFT exponential of the discretized generator.

            The rotation field on a uniform circle makes G circulant; a G that
            is not fails this record by `NotCirculant`.
            """
            G = fiber_JX_matrix(X, hbar, fiber).matrix
            t = 2 * math.pi
            oracle = circulant_propagator(G, t, hbar, u.values)
            direct = evolve_group(X, t, hbar, u)
            return float(np.max(np.abs(oracle - direct.values)))

        _timed(
            report,
            f"propagator-vs-expm-hbar-{hbar}",
            {"nodes": 256, "t": "2*pi", "hbar": hbar, "oracle": "fft-circulant"},
            1e-6,
            vs_expm,
        )

    def full_period():
        out = evolve_group(X, 2 * math.pi, 1.0, u)
        return float(np.max(np.abs(out.values - u.values)))

    _timed(report, "propagator-full-period", {"nodes": 256}, 1e-8, full_period)


def _run_kernel(cfg: SuiteConfig, report: Report) -> None:
    fiber = SphereFiber.circle(1.0, 96)
    b = bump_profile(4.0)

    def fhat(m, v):
        a = 1.0 + 0.5 * np.asarray(m)[..., 0]
        return a * b(np.linalg.norm(v, axis=-1))

    sym = PWSymbol(fhat=fhat, support_radius=4.0)

    def hermitian():
        K = kernel_quantize(sym, 0.3, fiber).kernel_matrix()
        return float(np.max(np.abs(K - K.conj().T)))

    _timed(report, "kernel-hermitian", {"nodes": 96, "hbar": 0.3}, 1e-10, hermitian)

    def antipodal():
        K = kernel_quantize(sym, 1.0, fiber).kernel_matrix()
        res = float(max(abs(K[i, (i + 48) % 96]) for i in range(96)))
        return res, res == 0.0, res == 0.0

    _timed(report, "kernel-antipodal-zeros", {"nodes": 96}, None, antipodal)

    def density_decision():
        # the line integral as d(t) + d(-t) over (0, inf), on the half-line rule
        nodes, weights = half_line_rule(64, 1.0)
        total = 0.0
        for r in (1.0, 1.9):
            _, _, density = stereo_charts(np.array([r, 0.0]), r)
            val = sum(w * (density([t]) + density([-t])) for t, w in zip(nodes, weights))
            total = max(total, abs(val - 2 * math.pi * r))
        return total

    _timed(
        report,
        "metric-density-exponent",
        {
            "decided": "(2*lam/(lam+|z|^2))^(n-1)",
            "rejected_variant": "(2*lam/(lam+|z|^2)^2)^(n-1)",
            "oracle": "chart circumference equals 2*pi*r",
        },
        1e-8,
        density_decision,
    )


def _run_sweep(cfg: SuiteConfig, report: Report) -> None:
    f, g = default_sweep_pair()
    fiber = SphereFiber.circle(1.0, 384)

    def check():
        rows = semiclassical_sweep(f, g, list(cfg.hbar_list), fiber)
        ok = True
        for key in ("product", "jordan", "commutator"):
            seq = [r[key] for r in rows]
            ok = ok and all(a > b for a, b in zip(seq, seq[1:]))
        return rows[-1]["product"], None, ok

    _timed(
        report,
        "semiclassical-sweep-monotone",
        {"hbar": list(cfg.hbar_list), "nodes": 384},
        None,
        check,
    )


_RUNNERS = {
    "identities": _run_identities,
    "coarea": _run_coarea,
    "unitarity": _run_unitarity,
    "commutation": _run_commutation,
    "evolve": _run_evolve,
    "kernel": _run_kernel,
    "sweep": _run_sweep,
}


def run_suite(cfg: SuiteConfig, which: str) -> Report:
    report = Report(suite=which)
    names = list(_RUNNERS) if which == "all" else [which]
    for name in names:
        _RUNNERS[name](cfg, report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="weylred", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="JSON config path (defaults apply if omitted)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--format", default="json", help="comma list: json,csv")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else SuiteConfig()
        formats = tuple(s.strip() for s in args.format.split(",") if s.strip())
        if any(f not in ("json", "csv") for f in formats):
            raise ConfigError(f"unknown format in {args.format!r}")
        out_dir = Path(args.out or cfg.out_dir)
        # checked before any check runs: its nearest existing part must be a directory
        existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output directory {str(out_dir)!r}: {str(existing)!r} is not a directory")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run_suite(cfg, args.subcommand)
    paths = emit_report(report, out_dir, formats)
    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        if "error" in rec.params:
            resid = rec.params["error"]
        else:
            resid = "exact" if rec.residual is None else f"{rec.residual:.3e}"
        print(f"[{status}] {rec.name}: {resid}")
    print(f"report: {', '.join(str(p) for p in paths)}")
    return 0 if report.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
