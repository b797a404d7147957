"""Self-tests of the benchmark harness.

    python3 -m pytest bench/selftest.py -q

Tracing must change no result, the per-layer counts must repeat exactly,
and the counters must separate the layers as the workloads intend.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _fingerprint(checks):
    return [(c.name, c.passed, None if c.residual is None else c.residual.hex()) for c in checks]


@pytest.fixture(scope="module")
def passes():
    """workload -> (untraced checks, [traced checks] * 2, [per-layer metrics] * 2)."""
    out = {}
    for name, (setup, run) in workloads.WORKLOADS.items():
        inputs = setup(SEED)
        plain = run(inputs)
        rec = spans.Recorder()
        traced, metrics = [], []
        for k in range(2):
            rec.install()
            rec.begin_pass(k)
            try:
                traced.append(run(inputs))
            finally:
                rec.end_pass()
                rec.uninstall()
            metrics.append(harness.layer_metrics(rec, k))
        out[name] = (plain, traced, metrics)
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_residual_or_verdict(passes, workload):
    plain, traced, _ = passes[workload]
    assert all(c.passed for c in plain)
    for checks in traced:
        assert _fingerprint(checks) == _fingerprint(plain)


@pytest.mark.parametrize(
    "workload,metric",
    [
        ("sphere-dint", "symbols.evaluate_calls"),
        ("algebra", "rational.qqi_ops"),
        ("circle-fiber", "fiber.jx_apply_calls"),
        ("circle-fiber", "sweep.profile_calls"),
    ],
)
def test_counts_repeat_across_traced_passes(passes, workload, metric):
    first, second = passes[workload][2]
    assert first[metric] > 0
    assert first[metric] == second[metric]


def test_counters_separate_the_layers(passes):
    metrics = {name: p[2][0] for name, p in passes.items()}
    assert metrics["circle-fiber"]["symbols.evaluate_calls"] == 0
    assert metrics["algebra"]["symbols.evaluate_calls"] == 0
    assert metrics["sphere-dint"]["symbols.evaluate_calls"] >= 100_000
    assert metrics["sphere-dint"]["rational.qqi_ops"] == 0
    assert metrics["circle-fiber"]["rational.qqi_ops"] == 0
    assert metrics["algebra"]["rational.qqi_ops"] > 0
    assert metrics["verify-all"]["rational.qqi_ops"] > 0


def test_missing_lookup_site_is_reported_not_zero(monkeypatch):
    from weylred import dint
    from weylred.rational import QQi

    add = QQi.__dict__["__add__"]
    monkeypatch.delattr(dint, "rho_at")
    rec = spans.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.missing == {"geometry.rho"}
    assert QQi.__dict__["__add__"] is add
    rec.begin_pass(0)
    rec.end_pass()
    missing = harness._missing_metrics(harness.layer_metrics(rec, 0), rec.missing)
    assert set(missing) == {"geometry.rho_calls", "geometry.rho_s", "geometry.self_s"}


def test_per_layer_metrics_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    rec = spans.Recorder()
    rec.begin_pass(0)
    rec.end_pass()
    produced = set(harness.layer_metrics(rec, 0)) | {"trace.overhead_s"}
    assert produced == {m["name"] for m in declared}
