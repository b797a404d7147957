"""weylred benchmark: one workload per run, a closed loop with one caller.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): algebra, sphere-dint, circle-fiber, verify-all.
Run from the root of a source checkout; ``weylred`` is imported from its
``src/`` tree and nowhere else.

Each pass starts after the previous one ends. Passes repeat while the next
one is expected to finish within ``--seconds``, and at least one runs. Every
pass checks its outputs; any failed check makes the run exit 1.

``--trace 0`` prints the end-to-end metrics: ``pass_s`` (median pass),
``setup_s`` (median over fresh interpreters of import plus input
construction), ``peak_rss_mb`` and ``margin_digits`` (-worst_margin_log10:
the smallest log10(tolerance / residual) over numeric checks, capped at 16).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, plus ``trace.overhead_s``. The span
trace goes to ``.bench_out/``. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # single-threaded BLAS: one caller, steady figures on a shared 2-core host
SETUP_PROBES = 3


def _import_weylred():
    """Import weylred from this checkout's src/ only; exit 1 if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import weylred
    except ImportError as exc:
        sys.exit(f"cannot import weylred from {src}: {exc}")
    if Path(weylred.__file__).resolve().parent != src / "weylred":
        sys.exit(f"weylred was imported from {weylred.__file__}, not from {src}")


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "weylred").glob("*.py")))


def _setup_seconds(workload, seed):
    """Median wall time of fresh interpreters that import and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _closed_loop(seconds, one):
    """Call one() back to back while the next call should end within seconds."""
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(one())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return durations


def _timed_pass(run, inputs, checks):
    t0 = time.perf_counter()
    result = run(inputs)
    dt = time.perf_counter() - t0
    checks.append(result)
    return dt


# per-layer metric -> (recorder field, span name)
LAYER_METRICS = {
    "symbols.evaluate_calls": ("calls", "symbols.evaluate"),
    "symbols.evaluate_s": ("seconds", "symbols.evaluate"),
    "symbols.evaluate_many_calls": ("calls", "symbols.evaluate_many"),
    "symbols.evaluate_many_points": ("size", "symbols.evaluate_many"),
    "moyal.expand_calls": ("calls", "moyal.expand"),
    "moyal.expand_s": ("seconds", "moyal.expand"),
    "moyal.star_calls": ("calls", "moyal.star"),
    "moyal.star_s": ("seconds", "moyal.star"),
    "geometry.rho_calls": ("calls", "geometry.rho"),
    "geometry.rho_s": ("seconds", "geometry.rho"),
    "geometry.wedge_calls": ("calls", "geometry.wedge"),
    "geometry.level_set_s": ("seconds", "geometry.level_set"),
    "geometry.induced_divergence_calls": ("calls", "geometry.induced_divergence"),
    "dint.build_grid_s": ("seconds", "dint.build_grid"),
    "dint.grid_nodes": ("size", "dint.build_grid"),
    "dint.apply_s": ("seconds", "dint.apply"),
    "dint.coarea_s": ("seconds", "dint.coarea"),
    "dint.coarea_points": ("size", "dint.ambient"),
    "dint.commutation_s": ("seconds", "dint.commutation"),
    "fiber.kernel_s": ("seconds", "fiber.kernel"),
    "fiber.kernel_entries": ("size", "fiber.kernel"),
    "fiber.jx_matrix_s": ("seconds", "fiber.jx_matrix"),
    "fiber.jx_apply_calls": ("calls", "fiber.jx_apply"),
    "fiber.evolve_s": ("seconds", "fiber.evolve"),
    "sweep.sweep_s": ("seconds", "sweep.sweep"),
    "sweep.profile_calls": ("calls", "sweep.profile"),
    "sweep.profile_s": ("seconds", "sweep.profile"),
    "cli.run_suite_s": ("seconds", "cli.run_suite"),
    "cli.checks": ("size", "cli.run_suite"),
    "cli.emit_s": ("seconds", "cli.emit"),
}
_FIELD = {"calls": 0, "seconds": 1, "size": 3}


def layer_metrics(rec, pass_id):
    """Per-layer metrics of one traced pass, from the recorder's totals."""
    totals = rec.pass_totals(pass_id)
    out = {"rational.qqi_ops": rec.qqi[pass_id]}
    for metric, (field, span) in LAYER_METRICS.items():
        out[metric] = totals.get(span, (0, 0.0, 0.0, 0))[_FIELD[field]]
    points = out["symbols.evaluate_calls"] + out["symbols.evaluate_many_points"]
    evals = out["symbols.evaluate_calls"] + out["symbols.evaluate_many_calls"]
    out["symbols.evals_per_point"] = evals / points if points else 0.0
    out["fiber.kernel_bytes_computed"] = 16 * out["fiber.kernel_entries"]  # complex128 N x N result
    for layer, self_s in rec.layer_self_seconds(pass_id).items():
        out[f"{layer}.self_s"] = self_s
    return out


def _missing_metrics(metrics, missing_spans):
    """Metrics that read a span whose lookup site no longer exists."""
    reads = {m: (span,) for m, (_, span) in LAYER_METRICS.items()}
    reads["rational.qqi_ops"] = ("rational.qqi",)
    reads["symbols.evals_per_point"] = ("symbols.evaluate", "symbols.evaluate_many")
    reads["fiber.kernel_bytes_computed"] = ("fiber.kernel",)
    out = []
    for metric in metrics:
        spans = reads.get(metric, ())
        if metric.endswith(".self_s"):
            layer = metric.split(".", 1)[0]
            spans = [s for s in missing_spans if s.startswith(layer + ".")]
        if any(s in missing_spans for s in spans):
            out.append(metric)
    return out


def _run_traced(args, run, inputs, checks):
    import spans

    rec = spans.Recorder()
    untraced, traced = [], []

    def pair():
        untraced.append(_timed_pass(run, inputs, checks))
        rec.install()
        rec.begin_pass(len(traced))
        try:
            traced.append(_timed_pass(run, inputs, checks))
        finally:
            rec.end_pass()
            rec.uninstall()
        return untraced[-1] + traced[-1]

    _closed_loop(args.seconds, pair)
    per_pass = [layer_metrics(rec, k) for k in range(len(traced))]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    missing = _missing_metrics(metrics, rec.missing)
    for name in missing:
        del metrics[name]
    trace = {
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "spans_fields": ["id", "name", "start", "end", "parent", "pass"],
        "spans": rec.spans,
        "totals_fields": ["calls", "seconds", "self_seconds", "size"],
        "totals": {f"{p}:{n}": v for (p, n), v in sorted(rec.totals.items())},
        "missing": missing,
    }
    return metrics, {"samples": len(traced), "missing": missing}, trace


def _run_untraced(args, run, inputs, checks):
    setup_s = _setup_seconds(args.workload, args.seed)
    durations = _closed_loop(args.seconds, lambda: _timed_pass(run, inputs, checks))
    from workloads import worst_margin_log10

    worst = worst_margin_log10(c for pass_checks in checks for c in pass_checks)
    metrics = {
        "pass_s": statistics.median(durations),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "margin_digits": -worst,
    }
    return metrics, {"samples": len(durations), "pass_times_s": durations, "worst_margin_log10": worst}, None


def _declared_units():
    """metric -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _import_weylred()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    setup, run = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    if args.probe_setup:
        return 0

    checks = []  # one list of Check per pass
    runner = _run_traced if args.trace else _run_untraced
    metrics, info, trace = runner(args, run, inputs, checks)

    units = _declared_units()
    flat = [c for pass_checks in checks for c in pass_checks]
    failed = [c for c in flat if not c.passed]
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "src_lines": _src_lines(),
        "sizes": workloads.SIZES[args.workload],
        **info,
    }
    print(json.dumps(header))
    for c in failed:
        print(f"FAILED {c.name}: residual={c.residual} tolerance={c.tolerance} {c.error or ''}".rstrip())
    print(f"check_fail_ratio = {len(failed) / len(flat)!r} ratio ({len(failed)} of {len(flat)} checks)")
    if "worst_margin_log10" in info:
        print(f"worst_margin_log10 = {info['worst_margin_log10']!r} log10")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"samples = {info['samples']} passes")
    if trace is not None:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**header, **trace}))
        print(f"trace: {path.relative_to(ROOT)}")
    result = {
        "correct": not failed,
        "attempted": len(flat),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
