"""Per-module spans for the traced run.

The tracer wraps the public functions at each module boundary of
``tvadmm`` and patches every name where its caller looks it up, so the
program itself is unchanged: ``tvadmm.filters.solve`` (the engine as
the filters call it), ``tvadmm.admm.project`` and
``tvadmm.admm.residuals`` (as the engine calls them), the problem's
``phi_prox_batch``, ``psi_prox_batch`` and ``objective`` callables
(replaced on the problem handed to the engine), the ``tvadmm.linalg``
functions the prox maps and filters call through the module, and the
CSV helpers and filter entry points as ``tvadmm.cli`` names them.

Spans nest on a stack. Each closed span adds its duration to its
name's total and to its parent's child time, so a span's self time is
its duration minus the time covered by the spans it caused, and the
self times of all spans add up to the time of the outermost ones.
"""

from collections import Counter, defaultdict
from contextlib import contextmanager
import dataclasses
import os
from time import perf_counter

import tvadmm.admm
import tvadmm.cli
import tvadmm.filters
import tvadmm.linalg

class Tracer:
    """Span totals (durations, self times, call counts) and event counts."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` timed as span ``name``.

        ``observe(tracer, args, kwargs, result)`` runs after the span
        closes, for counts that need the call's arguments or result.
        """
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - begin
                self._stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch the traced names into ``tvadmm`` for the duration of the block."""
        patches = []
        for module, attr, name, observe, inner in _targets(self):
            original = getattr(module, attr)
            patches.append((module, attr, original))
            setattr(module, attr, self.wrap(name, inner or original, observe))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)


def _targets(tracer):
    # (module, name to patch, span name, observer, function to time when
    # it is not the patched name's current value)
    solve = tvadmm.filters.solve

    def solve_traced_problem(problem, *args, **kwargs):
        problem = dataclasses.replace(
            problem,
            phi_prox_batch=_maybe_wrap(tracer, "prox.phi", problem.phi_prox_batch),
            psi_prox_batch=_maybe_wrap(tracer, "prox.psi", problem.psi_prox_batch),
            objective=_maybe_wrap(tracer, "admm.objective", problem.objective),
        )
        return solve(problem, *args, **kwargs)

    out = [
        (tvadmm.filters, "solve", "admm.solve", _observe_solve, solve_traced_problem),
        (tvadmm.admm, "project", "projection.project", _observe_project, None),
        (tvadmm.admm, "residuals", "admm.residuals", None, None),
    ]
    out += [(tvadmm.linalg, fn, "linalg." + fn, None, None)
            for fn in ("sym_eig", "spd_factor", "spd_solve")]
    for module in (tvadmm.filters, tvadmm.cli):
        out += [
            (module, "mean_filter", "filters.mean_filter", _observe_filter, None),
            (module, "variance_filter", "filters.variance_filter", _observe_filter, None),
            (module, "lambda_max_mean", "filters.lambda_max_mean", None, None),
        ]
    out += [
        (tvadmm.cli, "read_matrix_csv", "cli.read", _observe_read, None),
        (tvadmm.cli, "write_matrix_csv", "cli.write", _observe_write, None),
        (tvadmm.cli, "write_history_csv", "cli.write", _observe_write, None),
        (tvadmm.cli, "main", "cli.main", None, None),
    ]
    return out


def _maybe_wrap(tracer, name, fn):
    return None if fn is None else tracer.wrap(name, fn)


def _observe_solve(tracer, args, kwargs, report):
    tracer.counts["admm.iterations"] += report.iterations


def _observe_filter(tracer, args, kwargs, result):
    report = result[1]
    tracer.counts["filters.certified"] += bool(report.polished)
    tracer.counts["filters.checked"] += report.certificate_gap is not None


def _observe_project(tracer, args, kwargs, result):
    # Computed, not measured: w, v and the band factor read once, z and s
    # written once, 8 bytes each.
    chol, w, v = args
    tracer.counts["projection.bytes"] += 8 * (2 * (w.size + v.size) + chol.band.size)


def _observe_read(tracer, args, kwargs, result):
    tracer.counts["cli.read_bytes"] += os.path.getsize(args[0])


def _observe_write(tracer, args, kwargs, result):
    tracer.counts["cli.write_bytes"] += os.path.getsize(args[0])


FILTER_SPANS = ("filters.mean_filter", "filters.variance_filter", "filters.lambda_max_mean")

# Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "cli.read_s": "s",
    "cli.write_s": "s",
    "cli.read_mb_per_s": "MB/s",
    "cli.write_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "filters.call_s": "s",
    "filters.self_s": "s",
    "filters.certified": "count",
    "filters.checked": "count",
    "admm.iterations": "count",
    "admm.solve_s": "s",
    "admm.us_per_iter": "us",
    "admm.self_s": "s",
    "admm.residuals_s": "s",
    "admm.objective_s": "s",
    "prox.phi_s": "s",
    "prox.psi_s": "s",
    "projection.project_s": "s",
    "projection.us_per_call": "us",
    "projection.computed_gb_per_s": "GB/s",
    "linalg.sym_eig_calls": "count",
    "linalg.sym_eig_s": "s",
    "linalg.spd_factor_calls": "count",
    "linalg.spd_factor_s": "s",
    "linalg.spd_solve_s": "s",
    "trace.spanned_s": "s",
}

# Metrics that count events; they must repeat exactly from pass to pass.
COUNTS = tuple(name for name, unit in LAYER_UNITS.items() if unit == "count")


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer):
    """Per-layer figures of the spans one tracer recorded."""
    total, counts, calls = tracer.total, tracer.counts, tracer.calls
    filters_s = sum(total[name] for name in FILTER_SPANS)
    solve_s = total["admm.solve"]
    iterations = counts["admm.iterations"]
    project_s = total["projection.project"]
    return {
        "cli.read_s": total["cli.read"],
        "cli.write_s": total["cli.write"],
        "cli.read_mb_per_s": _ratio(counts["cli.read_bytes"] / 1e6, total["cli.read"]),
        "cli.write_mb_per_s": _ratio(counts["cli.write_bytes"] / 1e6, total["cli.write"]),
        "cli.self_s": tracer.self_time["cli.main"],
        "filters.call_s": filters_s,
        "filters.self_s": filters_s - solve_s,
        "filters.certified": counts["filters.certified"],
        "filters.checked": counts["filters.checked"],
        "admm.iterations": iterations,
        "admm.solve_s": solve_s,
        "admm.us_per_iter": _ratio(1e6 * solve_s, iterations),
        "admm.self_s": tracer.self_time["admm.solve"],
        "admm.residuals_s": total["admm.residuals"],
        "admm.objective_s": total["admm.objective"],
        "prox.phi_s": total["prox.phi"],
        "prox.psi_s": total["prox.psi"],
        "projection.project_s": project_s,
        "projection.us_per_call": _ratio(1e6 * project_s, calls["projection.project"]),
        "projection.computed_gb_per_s": _ratio(counts["projection.bytes"] / 1e9, project_s),
        "linalg.sym_eig_calls": calls["linalg.sym_eig"],
        "linalg.sym_eig_s": total["linalg.sym_eig"],
        "linalg.spd_factor_calls": calls["linalg.spd_factor"],
        "linalg.spd_factor_s": total["linalg.spd_factor"],
        "linalg.spd_solve_s": total["linalg.spd_solve"],
        # Time inside the outermost spans: the sum of every span's self time.
        "trace.spanned_s": sum(tracer.self_time.values()),
    }


# Figures of the traced run itself: the traced pass, and its excess over
# the untraced pass run beside it.
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s"}
