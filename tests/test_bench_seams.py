"""The benchmark's span tracer wraps package names from the outside.

Installing it on the package, without a run, proves that every function,
method and module attribute it patches still exists; uninstalling must then
leave the package exactly as it was.
"""

import importlib.util
from pathlib import Path

import causalstream as cs

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _namespaces():
    mp, ev = cs.mappers, cs.evaluate
    return (
        cs, cs.generator, cs.drift, cs.analysis, cs.generator.StreamGenerator,
        mp.MLPMapper, mp.RegressionTreeMapper, mp.SGDLinearMapper, mp.PrototypeMapper,
        mp.GaussianPrototypeMapper, mp.RadialBasisMapper, mp.HyperplaneMapper,
        ev.LogisticLearner, ev.NaiveBayesLearner,
    )


def test_tracer_installs_and_uninstalls_cleanly():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = [dict(vars(ns)) for ns in _namespaces()]
    tracer = tracing.Tracer()
    tracer.install(cs)
    assert [dict(vars(ns)) for ns in _namespaces()] != before
    tracer.uninstall()
    assert [dict(vars(ns)) for ns in _namespaces()] == before
