"""The benchmark's traced mode still sees every layer of the engine.

``bench/spans.py`` patches the engine's calls by module name and wraps
the problem's callables. If a refactor of the loop bypassed one of those
names, the per-layer metrics would silently read 0; these tests catch
that. They import the tracer from ``bench/`` without changing it.
"""

import importlib.util
from pathlib import Path

import numpy as np

from oracles import objective_schedule
import tvadmm.filters
from tvadmm.filters import MeanFilterSpec, Penalty, VarianceFilterSpec

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# Spans that must close exactly once per iteration.
PER_ITERATION = ("admm.residuals", "projection.project", "prox.phi", "prox.psi")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(call):
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        report = call()[1]
    return spans, tracer, report


def assert_one_span_per_iteration(spans, tracer, report):
    assert report.iterations > 1
    assert tracer.counts["admm.iterations"] == report.iterations
    for name in PER_ITERATION:
        assert tracer.calls[name] == report.iterations, name
        assert tracer.total[name] > 0.0, name
    # The objective spans are the engine's own scheduled evaluations; the
    # polish entry is computed outside the engine, untraced.
    evaluated = report.objective_iters.tolist()
    if report.polished:
        evaluated = evaluated[:-1]
    assert evaluated == objective_schedule(report.iterations)
    assert tracer.calls["admm.objective"] == len(evaluated)
    assert tracer.total["admm.objective"] > 0.0
    metrics = spans.layer_metrics(tracer)
    assert metrics["admm.iterations"] == report.iterations
    assert metrics["projection.us_per_call"] > 0.0


def mean_data():
    rng = np.random.default_rng(70)
    data = np.repeat(rng.normal(scale=2.0, size=(3, 2)), 20, axis=0)
    return data + 0.3 * rng.normal(size=data.shape)


def test_mean_filter_layers_traced():
    # The group penalty with n > 1 has no certified start, so it iterates.
    data = mean_data()
    spec = MeanFilterSpec(lam=1.0, penalty=Penalty.GROUP)
    assert_one_span_per_iteration(
        *traced(lambda: tvadmm.filters.mean_filter(data, spec)))


def test_certified_mean_filter_traces_its_one_iteration():
    data = mean_data()
    spec = MeanFilterSpec(lam=1.0, penalty=Penalty.ELEMENTWISE)
    spans, tracer, report = traced(lambda: tvadmm.filters.mean_filter(data, spec))
    assert report.polished and report.iterations == 1
    assert tracer.counts["admm.iterations"] == 1
    for name in PER_ITERATION + ("admm.objective",):
        assert tracer.calls[name] == 1, name
    assert spans.layer_metrics(tracer)["admm.iterations"] == 1


def test_variance_filter_layers_traced():
    rng = np.random.default_rng(71)
    data = np.concatenate([rng.normal(size=40), 3.0 * rng.normal(size=40)])
    spec = VarianceFilterSpec(lam=2.0)
    assert_one_span_per_iteration(
        *traced(lambda: tvadmm.filters.variance_filter(data, spec)))
