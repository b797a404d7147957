"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``weylred`` at the place where each
caller looks them up (a module global, an import alias such as
``dint.rho_at``, or a class attribute) and restores the originals on
``uninstall``. Nothing under ``src/`` is edited.

Each wrapped call pushes a frame; on return its duration is charged to the
parent frame, so self time (duration minus time in wrapped children) is
exact per call. Calls of functions marked hot (millions per pass, such as
``PolySymbol.evaluate``) are folded into per-pass totals instead of being
kept one span each; every other call is kept as a span
``(id, name, start, end, parent, pass)`` until the run ends. ``QQi``
arithmetic is counted per pass, not timed: a timer per operation would
dominate what it measures.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("symbols", "moyal", "geometry", "dint", "fiber", "sweep", "cli")

_QQI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__")


INTEGRAND_POINTS = "integrand-points"  # size: points the integrand (argument 0) is asked for


def _grid_nodes(args, kwargs, result):
    return sum(len(f.nodes) for f in result.fibers)


def _kernel_entries(args, kwargs, result):
    return result.matrix.size


def _rows(args, kwargs, result):
    return len(args[1])


def _records(args, kwargs, result):
    return len(result.records)


def targets():
    """(owner, attribute, span name, hot, size) for every lookup site.

    ``size`` maps (args, kwargs, result) to the problem size of one call,
    or is ``INTEGRAND_POINTS``.
    """
    from weylred import cli, dint, fiber, geometry, moyal, report, sweep
    from weylred.fiber import SphereFiber
    from weylred.sweep import Profile
    from weylred.symbols import PolySymbol

    return [
        (PolySymbol, "evaluate", "symbols.evaluate", True, None),
        (PolySymbol, "evaluate_many", "symbols.evaluate_many", True, _rows),
        (moyal, "moyal_star", "moyal.star", False, None),
        (moyal, "expand_power_in_star_basis", "moyal.expand", False, None),
        (cli, "expand_power_in_star_basis", "moyal.expand", False, None),
        (geometry, "rho", "geometry.rho", True, None),
        (dint, "rho_at", "geometry.rho", True, None),
        (geometry, "jacobian_wedge_norm", "geometry.wedge", True, None),
        (dint, "jacobian_wedge_norm", "geometry.wedge", True, None),
        (dint, "circle_level_set", "geometry.level_set", False, None),
        (dint, "implicit_curve_level_set", "geometry.level_set", False, None),
        (dint, "line_level_set", "geometry.level_set", False, None),
        (geometry, "induced_divergence", "geometry.induced_divergence", True, None),
        (fiber, "induced_divergence", "geometry.induced_divergence", True, None),
        (dint, "build_grid", "dint.build_grid", False, _grid_nodes),
        (cli, "build_grid", "dint.build_grid", False, _grid_nodes),
        (dint, "apply_Tx", "dint.apply", False, None),
        (cli, "apply_Tx", "dint.apply", False, None),
        (dint, "apply_Txi", "dint.apply", False, None),
        (cli, "apply_Txi", "dint.apply", False, None),
        (dint, "coarea_check", "dint.coarea", False, None),
        (cli, "coarea_check", "dint.coarea", False, None),
        (dint, "ambient_integral", "dint.ambient", False, INTEGRAND_POINTS),
        (dint, "strong_commutation_check", "dint.commutation", False, None),
        (cli, "strong_commutation_check", "dint.commutation", False, None),
        (SphereFiber, "sphere", "fiber.build", False, None),
        (SphereFiber, "circle", "fiber.build", False, None),
        (fiber, "kernel_quantize", "fiber.kernel", False, _kernel_entries),
        (sweep, "kernel_quantize", "fiber.kernel", False, _kernel_entries),
        (cli, "kernel_quantize", "fiber.kernel", False, _kernel_entries),
        (fiber, "fiber_JX_matrix", "fiber.jx_matrix", False, None),
        (cli, "fiber_JX_matrix", "fiber.jx_matrix", False, None),
        (fiber, "fiber_JX_apply", "fiber.jx_apply", False, None),
        (dint, "fiber_JX_apply", "fiber.jx_apply", False, None),
        (fiber, "evolve_group", "fiber.evolve", False, None),
        (cli, "evolve_group", "fiber.evolve", False, None),
        (sweep, "semiclassical_sweep", "sweep.sweep", False, None),
        (cli, "semiclassical_sweep", "sweep.sweep", False, None),
        (Profile, "__call__", "sweep.profile", False, None),
        (cli, "run_suite", "cli.run_suite", False, _records),
        (cli, "emit_report", "cli.emit", False, None),
        (report, "emit_report", "cli.emit", False, None),
    ]


class Recorder:
    """Installs the wrappers and keeps spans and per-pass totals in memory."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, pass)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0])  # (pass, name) -> calls, s, self s, size
        self.qqi = defaultdict(int)  # pass -> QQi operations
        self.missing = set()  # span names with a lookup site that no longer exists
        self.pass_id = None
        self._stack = []  # frames: [child seconds, span id of the nearest kept span]
        self._next_id = 0
        self._qqi_count = [0]
        self._qqi_start = 0
        self._saved = []

    # -- installation -------------------------------------------------
    def install(self):
        from weylred.rational import QQi

        for owner, attr, name, hot, size in targets():
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                self.missing.add(name)
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, hot, size)))
            else:
                setattr(owner, attr, self._wrap(raw, name, hot, size))
        counter = self._qqi_count
        for attr in _QQI_OPS:
            raw = QQi.__dict__.get(attr)
            if raw is None:
                self.missing.add("rational.qqi")
                continue
            self._saved.append((QQi, attr, raw))
            setattr(QQi, attr, _counting(raw, counter))

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- passes -------------------------------------------------------
    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self._qqi_start = self._qqi_count[0]

    def end_pass(self):
        self.qqi[self.pass_id] = self._qqi_count[0] - self._qqi_start

    def _wrap(self, fn, name, hot, size):
        stack = self._stack
        totals = self.totals
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if size is INTEGRAND_POINTS:
                args, points = _counting_integrand(args)
            parent = stack[-1][1] if stack else None
            if hot:
                sid = parent
            else:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                entry = totals[(self.pass_id, name)]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if not hot:
                    spans.append((sid, name, t0, t1, parent, self.pass_id))
            if size is INTEGRAND_POINTS:
                entry[3] += points[0]
            elif size is not None:
                entry[3] += size(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- summaries ----------------------------------------------------
    def pass_totals(self, pass_id):
        """name -> (calls, seconds, self seconds, size) for one pass."""
        return {n: tuple(v) for (p, n), v in self.totals.items() if p == pass_id}

    def layer_self_seconds(self, pass_id):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s, _) in self.pass_totals(pass_id).items():
            out[name.split(".", 1)[0]] += self_s
        return out


def _counting_integrand(args):
    func, points = args[0], [0]

    def integrand(p):
        shape = getattr(p, "shape", ())
        points[0] += shape[0] if len(shape) == 2 else 1
        return func(p)

    return (integrand,) + tuple(args[1:]), points


def _counting(fn, counter):
    def op(self, other):
        counter[0] += 1
        return fn(self, other)

    op.__wrapped__ = fn
    return op
