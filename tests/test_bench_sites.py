"""The benchmark's span recorder must find every lookup site it wraps.

`bench/spans.py` wraps functions where their callers look them up (a module
global, an import alias, a class attribute). A site that a refactor renames
or removes is skipped by the recorder, and the traced run then reports the
layer as missing instead of failing. This module loads the recorder as it
is and resolves each of its sites the way `Recorder.install` does.

A site that resolves can still be dead: an import that no code of its
module calls any more keeps resolving, and its layer then reads 0 with no
warning. So each module site must also be defined or read in its module.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from weylred.rational import QQi

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
SITES = [(owner, attr, name) for owner, attr, name, _, _ in spans.targets()]


def _resolve(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


@pytest.mark.parametrize(
    "owner,attr,name", SITES, ids=[f"{o.__name__}.{a}" for o, a, _ in SITES]
)
def test_lookup_site_resolves(owner, attr, name):
    raw = _resolve(owner, attr)
    assert raw is not None, f"{name}: {owner.__name__}.{attr} is gone"
    assert callable(raw) or isinstance(raw, classmethod), f"{owner.__name__}.{attr}"


MODULE_SITES = [(o, a, n) for o, a, n in SITES if inspect.ismodule(o)]


@pytest.mark.parametrize(
    "owner,attr,name", MODULE_SITES, ids=[f"{o.__name__}.{a}" for o, a, _ in MODULE_SITES]
)
def test_module_site_is_defined_or_used(owner, attr, name):
    tree = ast.parse(inspect.getsource(owner))
    defined = any(
        isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == attr
        for node in tree.body
    )
    loaded = any(
        isinstance(node, ast.Name) and node.id == attr and isinstance(node.ctx, ast.Load)
        for node in ast.walk(tree)
    )
    assert defined or loaded, f"{name}: {owner.__name__}.{attr} is imported but never read"


@pytest.mark.parametrize("attr", spans._QQI_OPS)
def test_qqi_operator_resolves(attr):
    assert callable(_resolve(QQi, attr)), f"QQi.{attr} is gone"


def test_sites_cover_every_traced_layer():
    layers = {name.split(".", 1)[0] for _, _, name in SITES}
    assert layers == set(spans.LAYERS)
