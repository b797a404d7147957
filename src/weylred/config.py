"""Strict JSON configuration for the verification suites."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .geometry import ScalarHamiltonian, radial_hamiltonian
from .symbols import PolySymbol, VectorField, rotation_generator, symbol_from_literal


class ConfigError(ValueError):
    """Malformed or invalid configuration; exits with code 2 in the CLI."""


_KNOWN_KEYS = {
    "hamiltonian",
    "n",
    "fiber_kind",
    "lambda_range",
    "n_lambda",
    "fiber_nodes",
    "n_polar",
    "n_azimuth",
    "hbar",
    "vector_field",
    "test_functions",
    "tolerance",
    "seed",
    "out",
}


def _ellipse(n: int) -> ScalarHamiltonian:
    if n != 2:
        raise ConfigError("the 'ellipse' hamiltonian requires n = 2")
    x0, x1 = PolySymbol.x(0, 2), PolySymbol.x(1, 2)
    return ScalarHamiltonian((x0 * x0 + 2 * (x1 * x1)) * Fraction(1, 2))


_NAMED_HAMILTONIANS = {
    "half-square-norm": radial_hamiltonian,
    "ellipse": _ellipse,
    "linear-x1": lambda n: ScalarHamiltonian(PolySymbol.x(0, n)),
}


@dataclass
class SuiteConfig:
    dimension: int = 2
    hamiltonian: ScalarHamiltonian = None  # filled by parse/finalize
    fiber_kind: str = "circle"
    lambda_range: Tuple[float, float] = (0.5, 2.0)
    n_lambda: int = 64
    fiber_nodes: int = 256
    n_polar: int = 24
    n_azimuth: int = 48
    hbar_list: Tuple[float, ...] = (0.5, 0.25, 0.125, 0.0625)
    vector_field: Optional[VectorField] = None
    test_functions: Tuple[int, ...] = (0, 1, 2, 3, 4)
    tolerance: float = 1e-6
    seed: int = 20240817
    out_dir: str = "reports"

    def __post_init__(self):
        if self.hamiltonian is None:
            self.hamiltonian = radial_hamiltonian(self.dimension)
        if self.vector_field is None:
            self.vector_field = rotation_generator(0, 1, self.dimension)
        self._validate()

    def _validate(self):
        if self.dimension not in (2, 3):
            raise ConfigError(f"field 'n': unsupported dimension {self.dimension}")
        if self.tolerance <= 0:
            raise ConfigError("field 'tolerance': must be positive")
        for name in ("n_lambda", "fiber_nodes", "n_polar", "n_azimuth"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"field '{name}': must be positive")
        lo, hi = self.lambda_range
        if not lo < hi:
            raise ConfigError("field 'lambda_range': empty range")
        if any(h <= 0 for h in self.hbar_list):
            raise ConfigError("field 'hbar': values must be positive")
        if any(a <= b for a, b in zip(self.hbar_list, self.hbar_list[1:])):
            raise ConfigError("field 'hbar': values must be strictly decreasing")
        if self.fiber_kind not in ("circle", "sphere2", "implicit-curve", "line"):
            raise ConfigError(f"field 'fiber_kind': unknown kind {self.fiber_kind!r}")
        if self.fiber_kind in ("circle", "sphere2", "implicit-curve") and lo <= 0:
            raise ConfigError(
                "field 'lambda_range': endpoint touches the singular level 0"
            )
        if self.fiber_kind == "circle" and self.dimension != 2:
            raise ConfigError("field 'fiber_kind': circle fibers need n = 2")
        if self.fiber_kind == "sphere2" and self.dimension != 3:
            raise ConfigError("field 'fiber_kind': sphere2 fibers need n = 3")


def _parse_hamiltonian(spec, n: int) -> ScalarHamiltonian:
    if isinstance(spec, str):
        if spec not in _NAMED_HAMILTONIANS:
            raise ConfigError(f"field 'hamiltonian': unknown name {spec!r}")
        return _NAMED_HAMILTONIANS[spec](n)
    if isinstance(spec, list):
        try:
            sym = symbol_from_literal(spec, n)
            return ScalarHamiltonian(sym)
        except ValueError as exc:
            raise ConfigError(f"field 'hamiltonian': {exc}") from exc
    raise ConfigError("field 'hamiltonian': expected a name or literal records")


def _parse_vector_field(spec, n: int) -> VectorField:
    if isinstance(spec, str):
        if spec == "rotation":
            return rotation_generator(0, 1, n)
        if spec == "ellipse-tangent":
            if n != 2:
                raise ConfigError("field 'vector_field': ellipse-tangent needs n = 2")
            return VectorField(
                2, (-2 * PolySymbol.x(1, 2), PolySymbol.x(0, 2))
            )
        raise ConfigError(f"field 'vector_field': unknown name {spec!r}")
    if isinstance(spec, list):
        try:
            comps = tuple(symbol_from_literal(c, n) for c in spec)
            return VectorField(n, comps)
        except ValueError as exc:
            raise ConfigError(f"field 'vector_field': {exc}") from exc
    raise ConfigError("field 'vector_field': expected a name or component literals")


def _integer(value, key: str) -> int:
    # type, not isinstance: JSON true and false arrive as bools, a subclass of int
    if type(value) is not int:
        raise ConfigError(f"field {key!r}: expected an integer, got {value!r}")
    return value


def _number(value, key: str) -> float:
    # Python's json reads NaN, which passes every <= check of _validate
    if type(value) not in (int, float) or math.isnan(value):
        raise ConfigError(f"field {key!r}: expected a number, got {value!r}")
    return float(value)


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"field {key!r}: expected a string, got {value!r}")
    return value


def _list(value, key: str, convert, what: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"field {key!r}: expected a list of {what}, got {value!r}")
    return tuple(convert(v, key) for v in value)


def config_from_dict(raw: dict) -> SuiteConfig:
    """The SuiteConfig of a parsed JSON object; any malformed field raises ConfigError naming it."""
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    n = _integer(raw.get("n", 2), "n")
    kwargs = {"dimension": n}
    if "hamiltonian" in raw:
        kwargs["hamiltonian"] = _parse_hamiltonian(raw["hamiltonian"], n)
    if "vector_field" in raw:
        kwargs["vector_field"] = _parse_vector_field(raw["vector_field"], n)
    if "lambda_range" in raw:
        rng = raw["lambda_range"]
        if not (isinstance(rng, list) and len(rng) == 2):
            raise ConfigError("field 'lambda_range': expected [min, max]")
        kwargs["lambda_range"] = tuple(_number(v, "lambda_range") for v in rng)
    if "hbar" in raw:
        kwargs["hbar_list"] = _list(raw["hbar"], "hbar", _number, "numbers")
    if "test_functions" in raw:
        sel = _list(raw["test_functions"], "test_functions", _integer, "integers")
        if any(i < 0 or i > 4 for i in sel) or not sel:
            raise ConfigError("field 'test_functions': indices must be in 0..4")
        kwargs["test_functions"] = sel
    for json_key, attr, conv in (
        ("fiber_kind", "fiber_kind", _string),
        ("n_lambda", "n_lambda", _integer),
        ("fiber_nodes", "fiber_nodes", _integer),
        ("n_polar", "n_polar", _integer),
        ("n_azimuth", "n_azimuth", _integer),
        ("tolerance", "tolerance", _number),
        ("seed", "seed", _integer),
        ("out", "out_dir", _string),
    ):
        if json_key in raw:
            kwargs[attr] = conv(raw[json_key], json_key)
    try:
        return SuiteConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path) -> SuiteConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)
