"""The benchmark's span tracer wraps package names from the outside.

Installing it on the package, without a run, proves that every function,
method and module attribute it patches still exists; uninstalling must then
leave the package exactly as it was.  A short traced run proves that the
per-kind mapper spans still see every ``predict`` call, once.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from conftest import preset_prefix
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


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = _tracing()
    before = [dict(vars(ns)) for ns in _namespaces()]
    tracer = tracing.Tracer()
    tracer.install(cs)
    assert [dict(vars(ns)) for ns in _namespaces()] != before
    tracer.uninstall()
    assert [dict(vars(ns)) for ns in _namespaces()] == before


def test_every_mapper_kind_of_a_run_records_its_predict_spans(monkeypatch):
    """``predict`` lives on the mapper base; the tracer wraps it per class, so
    each kind's span count must equal that kind's calls."""
    calls = Counter()
    base = cs.mappers.Mapper.predict

    def counted(self, x):
        calls[self.kind] += 1
        return base(self, x)

    monkeypatch.setattr(cs.mappers.Mapper, "predict", counted)
    tracer = _tracing().Tracer()
    tracer.install(cs)
    try:
        gen = cs.build_stream(preset_prefix("dataset1", 50))
        gen.take(50)
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    kinds = {m.kind for m in gen.concept.mappers.values()}
    assert kinds == {"learned-mlp", "random-mlp", "sgd-linear", "prototype"}
    for kind in kinds:
        assert spans[f"mappers.{kind}.predict"]["calls"] == calls[kind] > 0, kind
