"""Configuration parsing, report emission, and CLI exit-code contract."""

import json
import re

import numpy as np
import pytest

from weylred import cli
from weylred.cli import _timed, main, run_suite
from weylred.config import (
    ConfigError,
    SuiteConfig,
    config_from_dict,
    parse_config,
)
from weylred.dint import DirectIntegralSection
from weylred.report import CheckRecord, Report, emit_report, report_to_dict


class TestConfigDefaults:
    def test_empty_dict_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg.dimension == 2
        assert cfg.fiber_kind == "circle"
        assert cfg.n_lambda == 64
        assert cfg.fiber_nodes == 256
        assert cfg.tolerance == 1e-6
        assert cfg.lambda_range == (0.5, 2.0)
        assert cfg.hbar_list == (0.5, 0.25, 0.125, 0.0625)

    def test_default_hamiltonian_is_radial(self):
        cfg = SuiteConfig()
        import numpy as np

        p = np.array([3.0, 4.0])
        assert cfg.hamiltonian.value(p) == pytest.approx(12.5)

    def test_overrides_apply(self):
        cfg = config_from_dict(
            {"n": 3, "fiber_kind": "sphere2", "n_lambda": 10, "tolerance": 1e-4}
        )
        assert cfg.dimension == 3
        assert cfg.n_lambda == 10
        assert cfg.tolerance == 1e-4


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="foo"):
            config_from_dict({"foo": 1})

    def test_singular_endpoint_rejected(self):
        # level 0 of |x|^2/2 is a point, not a circle
        with pytest.raises(ConfigError, match="singular"):
            config_from_dict({"lambda_range": [0.0, 1.0]})

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError, match="lambda_range"):
            config_from_dict({"lambda_range": [2.0, 2.0]})

    def test_negative_hbar_rejected(self):
        with pytest.raises(ConfigError, match="hbar"):
            config_from_dict({"hbar": [0.5, -0.1]})

    @pytest.mark.parametrize("ladder", [(0.1, 0.5), (0.5, 0.5), (0.5, 0.25, 0.3)])
    def test_hbar_ladder_must_strictly_decrease(self, ladder):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            SuiteConfig(hbar_list=ladder)

    def test_kind_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            config_from_dict({"n": 3, "fiber_kind": "circle"})
        with pytest.raises(ConfigError):
            config_from_dict({"n": 2, "fiber_kind": "sphere2"})

    def test_unknown_hamiltonian_name(self):
        with pytest.raises(ConfigError, match="hamiltonian"):
            config_from_dict({"hamiltonian": "no-such-thing"})

    def test_half_square_norm_is_the_radial_hamiltonian(self):
        from weylred.geometry import radial_hamiltonian

        for n, kind in ((2, "circle"), (3, "sphere2")):
            cfg = config_from_dict({"n": n, "fiber_kind": kind, "hamiltonian": "half-square-norm"})
            assert cfg.hamiltonian.phi == radial_hamiltonian(n).phi
            default = SuiteConfig(dimension=n, fiber_kind=kind).hamiltonian
            assert default.phi == radial_hamiltonian(n).phi

    def test_boolean_in_a_literal_rejected(self):
        term = {"re": "1", "hbar": True, "x": [True, False], "xi": [0, 0]}
        with pytest.raises(ConfigError, match="field 'hamiltonian': hbar"):
            config_from_dict({"hamiltonian": [term]})

    def test_ellipse_needs_n2(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                {"n": 3, "fiber_kind": "sphere2", "hamiltonian": "ellipse"}
            )

    def test_test_function_indices_bounded(self):
        with pytest.raises(ConfigError, match="test_functions"):
            config_from_dict({"test_functions": [0, 7]})

    def test_json_error_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2,}')
        with pytest.raises(ConfigError, match=r"bad\.json:1:"):
            parse_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.json")

    def test_vector_field_literal(self):
        cfg = config_from_dict(
            {
                "vector_field": [
                    [{"re": "-1", "x": [0, 1]}],
                    [{"re": "1", "x": [1, 0]}],
                ]
            }
        )
        from weylred.symbols import rotation_generator

        assert cfg.vector_field == rotation_generator(0, 1, 2)


class TestReportEmission:
    def _sample_report(self):
        r = Report(suite="demo")
        r.add(
            CheckRecord(
                name="a", params={"k": 1}, tolerance=1e-8, passed=True, residual=1e-9
            )
        )
        r.add(CheckRecord(name="b", params={}, tolerance=None, passed=True, exact=True))
        return r

    def test_json_round_trip(self, tmp_path):
        report = self._sample_report()
        (path,) = emit_report(report, tmp_path)
        assert json.loads(path.read_text()) == report_to_dict(report)

    def test_csv_row_count(self, tmp_path):
        report = self._sample_report()
        paths = emit_report(report, tmp_path, formats=("json", "csv"))
        csv_path = [p for p in paths if p.suffix == ".csv"][0]
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.records)
        assert lines[0].startswith("name,residual")

    def test_verdict_fails_on_any_failure(self):
        report = self._sample_report()
        report.add(CheckRecord(name="c", params={}, tolerance=1e-3, passed=False))
        assert report.verdict is False
        assert report_to_dict(report)["verdict"] == "fail"


class TestPassRule:
    """A bare residual passes strictly below its tolerance, and NaN never passes."""

    @pytest.mark.parametrize(
        "residual, passed",
        [(1e-8, False), (float(np.nextafter(1e-8, 0)), True), (float("nan"), False)],
        ids=["at-tolerance", "just-below", "nan"],
    )
    def test_bare_residual(self, residual, passed):
        report = Report(suite="demo")
        _timed(report, "probe", {}, 1e-8, lambda: residual)
        (record,) = report.records
        assert record.passed is passed


class TestIntertwiningTolerance:
    """The intertwining records pass below 1e-12: a shift of 10x that on the
    lifted side fails them, one of 0.1x passes."""

    @pytest.mark.parametrize(
        "record, apply_name",
        [("multiplication-intertwining", "apply_Tx"), ("momentum-laplacian-intertwining", "apply_Txi")],
    )
    @pytest.mark.parametrize("shift, passed", [(1e-11, False), (1e-13, True)], ids=["10x", "0.1x"])
    def test_boundary_pair(self, monkeypatch, record, apply_name, shift, passed):
        apply = getattr(cli, apply_name)
        lifted = []

        def shifted(u, grid):
            out = apply(u, grid)
            if u.gradient is None:  # phi u, the one function the runner builds without a gradient
                lifted.append(u)
                out = DirectIntegralSection(grid, out.parts + shift)
            return out

        monkeypatch.setattr(cli, apply_name, shifted)
        report = run_suite(SuiteConfig(test_functions=(0,)), "unitarity")
        (rec,) = [r for r in report.records if r.name == record]
        assert lifted
        assert rec.residual == pytest.approx(shift, rel=1e-3)
        assert rec.passed is passed


class TestCLI:
    def test_kernel_exit_zero(self, tmp_path, capsys):
        assert main(["kernel", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "metric-density-exponent" in out
        assert (tmp_path / "kernel.json").exists()

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"foo": 1}')
        assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_removed_box_key_exit_two(self, tmp_path, capsys):
        # the line fibers of a config never read "box"; it is an unknown key now
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"box": 5}))
        assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "box" in capsys.readouterr().err

    def test_unordered_hbar_ladder_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hbar": [0.125, 0.5]}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "strictly decreasing" in capsys.readouterr().err

    def test_boolean_exponent_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        term = {"re": "1", "x": [True, False], "xi": [0, 0]}
        cfg.write_text(json.dumps({"hamiltonian": [term]}))
        assert main(["identities", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "x exponents" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"hbar": 0.5}, "hbar"),
            ({"test_functions": 3}, "test_functions"),
            ({"lambda_range": ["a", 1]}, "lambda_range"),
            ({"hbar": ["x"]}, "hbar"),
            ({"seed": None}, "seed"),
            ({"n": 2.7}, "n"),
            ({"n_lambda": 64.9}, "n_lambda"),
            ({"fiber_nodes": True}, "fiber_nodes"),
            ({"tolerance": float("nan")}, "tolerance"),
        ],
        ids=["hbar-scalar", "test-functions-scalar", "lambda-range-string", "hbar-string",
             "seed-null", "n-float", "n-lambda-float", "fiber-nodes-bool", "tolerance-nan"],
    )
    def test_malformed_value_exit_two(self, tmp_path, capsys, raw, field):
        # neither a traceback (exit 1, a failed check) nor a silent int() cut
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["identities", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config error: field '{field}':" in capsys.readouterr().err

    def test_bad_format_exit_two(self, tmp_path, capsys):
        assert main(["kernel", "--out", str(tmp_path), "--format", "xml"]) == 2

    def test_out_naming_a_file_exit_two_before_any_check(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")

        def no_run(cfg, which):
            raise AssertionError("a check ran")

        monkeypatch.setattr("weylred.cli.run_suite", no_run)
        for out in (taken, taken / "sub"):
            assert main(["kernel", "--out", str(out)]) == 2
            assert "not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep me\n"

    def test_check_failure_exit_one(self, tmp_path, capsys):
        # unreachable tolerance turns the commutation residual into a failure
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 1e-30, "n_lambda": 4,
                                   "fiber_nodes": 64}))
        code = main(["commutation", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "commutation.json").read_text())
        assert payload["verdict"] == "fail"

    def test_off_level_sphere_grid_fails_by_name(self, tmp_path, capsys):
        # a non-radial phi has no sphere levels: the record names the node
        # instead of reporting a residual on the wrong fibers
        ellipsoid = [
            {"re": "1", "x": [2, 0, 0], "xi": [0, 0, 0]},
            {"re": "2", "x": [0, 2, 0], "xi": [0, 0, 0]},
            {"re": "1", "x": [0, 0, 2], "xi": [0, 0, 0]},
        ]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "fiber_kind": "sphere2", "hamiltonian": ellipsoid,
                                   "n_lambda": 4, "n_polar": 6, "n_azimuth": 12}))
        code = main(["commutation", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        (record,) = json.loads((tmp_path / "commutation.json").read_text())["records"]
        assert record["pass"] is False and record["residual"] is None
        assert re.match(r"OffLevel: node \d+ \(.*\) off the level set", record["params"]["error"])
        assert "off the level set" in capsys.readouterr().out

    def test_reports_are_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"

        def no_constants(name):
            raise AssertionError(f"{name} is not strict JSON")

        for suite in ("evolve", "identities", "unitarity", "coarea"):
            assert main([suite, "--out", str(a)]) == 0
            assert main([suite, "--out", str(b)]) == 0
            assert (a / f"{suite}.json").read_bytes() == (b / f"{suite}.json").read_bytes()
            json.loads((a / f"{suite}.json").read_text(), parse_constant=no_constants)

    def test_whole_spectrum_records_carry_their_grid(self):
        # the half-line end is written "inf": json.dumps(math.inf) gives Infinity
        cfg = SuiteConfig()
        records = run_suite(cfg, "unitarity").records + run_suite(cfg, "coarea").records
        grids = {r.name: (r.params.get("lambda_range"), r.params.get("n_lambda")) for r in records}
        whole = [name for name in grids if name.startswith("unitarity-")] + ["coarea-gaussian"]
        assert len(whole) == 11
        for name in whole:
            assert grids[name] == ([0.0, "inf"], 64), name
            assert next(r for r in records if r.name == name).residual < 1e-12
        for name in ("coarea-refinement-monotone", "multiplication-intertwining"):
            assert grids[name] == (None, None)

    def test_evolve_checks_run_the_fft_oracle(self):
        report = run_suite(SuiteConfig(), "evolve")
        assert [r.name for r in report.records] == [
            "propagator-vs-expm-hbar-1.0",
            "propagator-vs-expm-hbar-0.1",
            "propagator-full-period",
        ]
        assert all(r.passed for r in report.records)
        assert [r.params.get("oracle") for r in report.records[:2]] == ["fft-circulant"] * 2

    def test_errors_become_failed_records(self, tmp_path):
        # an unordered sweep hbar list, set past config validation (which
        # rejects it): deviations cannot decrease monotonically, but the run
        # must still emit a report
        cfg = SuiteConfig()
        cfg.hbar_list = (0.0625, 0.5)
        report = run_suite(cfg, "sweep")
        assert len(report.records) == 1
        assert report.records[0].passed is False

    def test_run_suite_all_covers_every_module(self):
        report = run_suite(SuiteConfig(n_lambda=4, fiber_nodes=64), "all")
        names = {r.name for r in report.records}
        assert any(n.startswith("star-expansion") for n in names)
        assert "coarea-gaussian" in names
        assert "strong-commutation" in names
        assert "metric-density-exponent" in names
        assert report.verdict

    def test_every_residual_is_judged_against_its_tolerance(self):
        report = run_suite(SuiteConfig(), "all")
        judged = [r for r in report.records if r.tolerance is not None and r.residual is not None]
        assert len(judged) >= 15
        for record in judged:
            assert record.passed == (record.residual < record.tolerance), record.name
