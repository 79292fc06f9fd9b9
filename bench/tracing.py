"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of ``causalstream`` from the
outside: nothing under ``src/`` is edited.  Names that a module binds at
import time (``from .drift import apply_abrupt`` in ``generator``) are
patched in the module that calls them, and methods are patched on their
classes.  ``Tracer.install`` applies every patch and ``Tracer.uninstall``
restores the originals, so traced and untraced passes alternate in one
process.

Each span is (name, start, end, parent, stream id), kept in flat arrays and
written to disk only when the run ends.  A span's self time is its duration
minus the time its direct children cover; the benchmark's own stage spans
are the roots, so their self time is the part of a stage that no layer span
explains, which is reported as the gap instead of being hidden.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "presets",
    "concept",
    "generator",
    "mappers",
    "temporal",
    "drift",
    "stream_io",
    "evaluate",
    "analysis",
)
MAPPER_KINDS = (
    "learned-mlp",
    "random-mlp",
    "regression-tree",
    "sgd-linear",
    "prototype",
    "gaussian-prototype",
    "random-rbf",
    "hyperplane",
)
# the linear regressor is deliberately not measured
LEARNERS = ("logistic", "naive-bayes")


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._stream = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.stream_id = -1
        self.counters: dict[str, float] = {}
        self.errors = {m: 0 for m in MODULES}
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self._start)
        self._name.append(self._name_id(name))
        self._parent.append(self._stack[-1])
        self._stream.append(self.stream_id)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def mark(self) -> int:
        """Span index to pass to ``summary`` so it covers later spans only."""
        return len(self._start)

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """``name`` is a span name, or a function of the call's first
        argument that returns one."""

        tracer = self
        named = isinstance(name, str)
        module = (name if named else name(None)).split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name if named else name(args[0]))
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[module] += 1
                raise
            finally:
                tracer.close(i)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _patch(self, owner, attr, name, after=None) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, had_own, original))
        setattr(owner, attr, self._wrap(original, name, after))

    def install(self, cs) -> None:
        """Wrap the layers of the imported ``causalstream`` package ``cs``."""

        gen_mod, drift_mod, ana_mod = cs.generator, cs.drift, cs.analysis
        # called from the benchmark through the package namespace
        self._patch(cs, "preset_config", "presets.config")
        self._patch(cs, "build_stream", "generator.build")
        self._patch(cs, "write_stream_csv", "stream_io.write", _count_file_bytes)
        self._patch(cs, "write_sidecar", "stream_io.write", _count_sidecar_bytes)
        self._patch(cs, "read_stream_csv", "stream_io.read")
        self._patch(cs, "make_learner", "evaluate.make_learner")
        self._patch(cs, "prequential_run", "evaluate.prequential")
        self._patch(cs, "drift_response_metrics", "evaluate.response")
        self._patch(cs, "acf", "analysis.acf")
        self._patch(cs, "ljung_box", "analysis.ljungbox")
        self._patch(cs, "mmd_heatmap", "analysis.mmd")
        # bound at import time: patched where they are called from
        self._patch(ana_mod, "median_bandwidth", "analysis.bandwidth")
        self._patch(ana_mod, "mmd2_rbf", "analysis.mmd_pair")
        self._patch(gen_mod, "init_concept", "concept.init")
        self._patch(drift_mod, "simulate_concept_samples", "concept.simulate", _count_sim_rows)
        self._patch(gen_mod, "root_value_step", "temporal.root_step")
        self._patch(gen_mod, "ar_noise_step", "temporal.ar_step")
        for fn in ("apply_abrupt", "apply_recurrent", "begin_gradual", "begin_incremental"):
            self._patch(gen_mod, fn, "drift.apply")
        for fn in ("gradual_selector", "incremental_step"):
            self._patch(gen_mod, fn, "drift.window_step")
        self._patch(gen_mod, "draw_interventions", "drift.interventions", _count_fired)
        self._patch(gen_mod, "draw_missing", "drift.missing", _count_masked)
        self._patch(gen_mod.StreamGenerator, "step", "generator.step")
        # every mapper class, named by the instance's kind at call time
        mp = cs.mappers
        for cls in (
            mp.MLPMapper,
            mp.RegressionTreeMapper,
            mp.SGDLinearMapper,
            mp.PrototypeMapper,
            mp.GaussianPrototypeMapper,
            mp.RadialBasisMapper,
            mp.HyperplaneMapper,
        ):
            self._patch(cls, "predict", _mapper_span_name)
        ev = cs.evaluate
        for cls, learner in ((ev.LogisticLearner, "logistic"), (ev.NaiveBayesLearner, "naive-bayes")):
            self._patch(cls, "learn", f"evaluate.{learner}.learn")
            self._patch(cls, "predict", f"evaluate.{learner}.predict")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------------

    def summary(self, first: int = 0) -> dict:
        """Per span name from span ``first`` on: calls and self seconds, plus
        the whole durations of ``generator.step``."""

        # slicing copies, so no numpy view pins the growing arrays
        names = np.array(self._name[first:], dtype=np.int32)
        parent = np.array(self._parent[first:], dtype=np.int32) - first
        dur = np.array(self._end[first:]) - np.array(self._start[first:])
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for nid, name in enumerate(self._names):
            sel = names == nid
            if not sel.any():
                continue
            out[name] = {"calls": int(sel.sum()), "self_s": float(self_t[sel].sum())}
            if name == "generator.step":
                out[name]["durations"] = dur[sel]
        return out

    def write(self, path) -> None:
        """Write every span to ``path`` as npz; ``name`` indexes ``names``."""

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name=np.array(self._name, dtype=np.int32),
            parent=np.array(self._parent, dtype=np.int32),
            stream=np.array(self._stream, dtype=np.int32),
            start=np.array(self._start),
            end=np.array(self._end),
        )

    @property
    def n_spans(self) -> int:
        return len(self._start)


def _mapper_span_name(mapper) -> str:
    return "mappers.predict" if mapper is None else f"mappers.{mapper.kind}.predict"


def _count_file_bytes(tracer, args, result) -> None:
    tracer.count("stream_io.bytes", os.path.getsize(args[0]))


def _count_sidecar_bytes(tracer, args, result) -> None:
    tracer.count("stream_io.bytes", os.path.getsize(result))


def _count_sim_rows(tracer, args, result) -> None:
    tracer.count("concept.simulate_rows", len(result))


def _count_fired(tracer, args, result) -> None:
    if result:
        tracer.count("drift.interventions_fired")


def _count_masked(tracer, args, result) -> None:
    if result:
        tracer.count("drift.masked_rows")


def layer_metrics(summaries: list[dict], counters: dict, errors: dict) -> dict:
    """Per-layer metrics, averaged per traced pass.

    Every ``*_s`` figure is self time: the span's duration minus the time of
    the traced calls made inside it.  ``<module>.self_s`` sums the self time
    of a module's spans and ``trace.gap_s`` is the self time of the
    benchmark's stage spans, so the module figures plus the gap add up to
    ``trace.stage_s``.
    """

    n = len(summaries)
    merged: dict[str, dict] = {}
    steps = []
    for s in summaries:
        for name, rec in s.items():
            m = merged.setdefault(name, {"calls": 0, "self_s": 0.0})
            m["calls"] += rec["calls"]
            m["self_s"] += rec["self_s"]
            if "durations" in rec:
                steps.append(rec["durations"])

    def calls(name):
        return merged.get(name, {}).get("calls", 0) / n

    def self_s(name):
        return merged.get(name, {}).get("self_s", 0.0) / n

    out = {
        "presets.config_s": (self_s("presets.config"), "s"),
        "concept.init_s": (self_s("concept.init"), "s"),
        "concept.init_calls": (calls("concept.init"), "count"),
        "concept.simulate_rows": (counters.get("concept.simulate_rows", 0.0) / n, "count"),
        "concept.simulate_s": (self_s("concept.simulate"), "s"),
        "generator.build_s": (self_s("generator.build"), "s"),
        "generator.step_s": (self_s("generator.step"), "s"),
        "generator.rows": (calls("generator.step"), "count"),
    }
    step_ms = np.concatenate(steps) * 1e3 if steps else np.zeros(1)
    out["generator.step_ms.p50"] = (float(np.percentile(step_ms, 50)), "ms")
    out["generator.step_ms.p99"] = (float(np.percentile(step_ms, 99)), "ms")
    for kind in MAPPER_KINDS:
        out[f"mappers.{kind}.predict_calls"] = (calls(f"mappers.{kind}.predict"), "count")
        out[f"mappers.{kind}.predict_s"] = (self_s(f"mappers.{kind}.predict"), "s")
    for short in ("root_step", "ar_step"):
        out[f"temporal.{short}_calls"] = (calls(f"temporal.{short}"), "count")
        out[f"temporal.{short}_s"] = (self_s(f"temporal.{short}"), "s")
    out.update(
        {
            "drift.events_applied": (calls("drift.apply"), "count"),
            "drift.apply_s": (self_s("drift.apply"), "s"),
            "drift.window_rows": (calls("drift.window_step"), "count"),
            "drift.window_step_s": (self_s("drift.window_step"), "s"),
            "drift.interventions_fired": (
                counters.get("drift.interventions_fired", 0.0) / n,
                "count",
            ),
            "drift.interventions_s": (self_s("drift.interventions"), "s"),
            "drift.masked_rows": (counters.get("drift.masked_rows", 0.0) / n, "count"),
            "drift.missing_s": (self_s("drift.missing"), "s"),
            "stream_io.write_s": (self_s("stream_io.write"), "s"),
            "stream_io.bytes": (counters.get("stream_io.bytes", 0.0) / n, "bytes"),
            "stream_io.read_s": (self_s("stream_io.read"), "s"),
        }
    )
    for learner in LEARNERS:
        for op in ("learn", "predict"):
            out[f"evaluate.{learner}.{op}_calls"] = (
                calls(f"evaluate.{learner}.{op}"),
                "count",
            )
            out[f"evaluate.{learner}.{op}_s"] = (self_s(f"evaluate.{learner}.{op}"), "s")
    out["evaluate.prequential_s"] = (self_s("evaluate.prequential"), "s")
    out["evaluate.response_s"] = (self_s("evaluate.response"), "s")
    out.update(
        {
            "analysis.acf_s": (self_s("analysis.acf"), "s"),
            "analysis.ljungbox_s": (self_s("analysis.ljungbox"), "s"),
            "analysis.bandwidth_s": (self_s("analysis.bandwidth"), "s"),
            "analysis.mmd_pairs": (calls("analysis.mmd_pair"), "count"),
            "analysis.mmd_pair_s": (self_s("analysis.mmd_pair"), "s"),
            "analysis.mmd_s": (self_s("analysis.mmd"), "s"),
        }
    )
    for module in MODULES:
        out[f"{module}.errors"] = (float(errors.get(module, 0)), "count")
        out[f"{module}.self_s"] = (
            sum(self_s(name) for name in merged if name.split(".")[0] == module),
            "s",
        )
    stage_s = sum(self_s(name) for name in merged)
    gap = sum(self_s(name) for name in merged if name.startswith("stage."))
    out["trace.stage_s"] = (stage_s, "s")
    out["trace.gap_s"] = (gap, "s")
    return out
