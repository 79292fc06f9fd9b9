"""JSON run-configuration parsing with a strict schema.

Unknown keys are rejected at every nesting level so typos fail loudly
instead of silently running defaults.  Value errors raised by the domain
dataclasses are re-raised as ConfigError with the offending path.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from .concept import NODE_PIN_KEYS, ConceptParams
from .drift import DriftSchedule, InterventionPolicy, ShiftAction, ShiftSpec
from .evaluate import LEARNER_NAMES
from .generator import GeneratorConfig
from .graph import CausalGraph
from .temporal import TemporalParams

__all__ = [
    "ConfigError",
    "EvalOptions",
    "AnalysisOptions",
    "RunConfig",
    "parse_config",
    "load_config",
    "config_to_document",
]


class ConfigError(ValueError):
    """Configuration document violates the schema."""


@dataclass(frozen=True)
class EvalOptions:
    learner: str | None = None
    window: int = 100
    initial_train: int = 100
    delay: int = 0
    label_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.learner is not None and self.learner not in LEARNER_NAMES:
            raise ValueError(
                f"unknown learner {self.learner!r}; pick one of {LEARNER_NAMES}"
            )
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.initial_train < 0:
            raise ValueError("initial_train must be non-negative")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if not 0.0 <= self.label_fraction <= 1.0:
            raise ValueError("label_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class AnalysisOptions:
    batch_size: int = 500
    lags: int = 20
    include_label: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.lags < 1:
            raise ValueError("lags must be positive")


@dataclass(frozen=True)
class RunConfig:
    generator: GeneratorConfig
    evaluation: EvalOptions = field(default_factory=EvalOptions)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    out: str | None = None


def _keys(cls, *computed: str) -> frozenset:
    """Field names of a dataclass, less those computed rather than given."""
    return frozenset(f.name for f in fields(cls)) - set(computed)


# top level: the generator's own fields plus the run's other sections
_TOP_KEYS = _keys(GeneratorConfig) | _keys(RunConfig, "generator")
# the top-level p_i and p_m own the policy's two rates
_POLICY_KEYS = _keys(InterventionPolicy, "p_intervene", "p_missing")
_POLICY_VALUE_KEYS = {"dist", "params"}


def _check_keys(doc: dict, allowed: set, path: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {path or 'config'}")


@contextmanager
def _section(path: str, *errors):
    """Re-raise a domain error met while binding ``path`` as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError, *errors) as e:
        raise ConfigError(f"{path}: {e}" if path else str(e)) from None


def _flat_section(doc: dict, key: str, cls):
    """Bind an optional section whose keys are exactly the fields of ``cls``."""
    if key not in doc:
        return cls()
    _check_keys(doc[key], _keys(cls), key)
    with _section(key):
        return cls(**doc[key])


def _int_keyed(doc: dict, path: str) -> dict[int, dict]:
    out = {}
    for key, value in doc.items():
        try:
            node = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"{path} keys must be node ids, got {key!r}") from None
        out[node] = value
    return out


def parse_config(doc: dict, require_seed: bool = True) -> RunConfig:
    """Validate a JSON document and bind it to runtime objects."""

    _check_keys(doc, _TOP_KEYS, "")
    if require_seed and "seed" not in doc:
        raise ConfigError("seed is mandatory")
    if "dataset_size" not in doc:
        raise ConfigError("dataset_size is mandatory")
    task = doc.get("task", "classification")

    temporal = _flat_section(doc, "temporal", TemporalParams)

    graph = None
    if doc.get("graph") is not None:
        _check_keys(doc["graph"], _keys(CausalGraph, "topo_order"), "graph")
        with _section("graph", KeyError):
            graph = CausalGraph.from_dict(doc["graph"])

    concept = None
    if doc.get("concept") is not None:
        cdoc = dict(doc["concept"])
        _check_keys(cdoc, _keys(ConceptParams, "task"), "concept")
        nodes = {}
        for node, pin in _int_keyed(cdoc.pop("nodes", {}), "concept.nodes").items():
            _check_keys(pin, NODE_PIN_KEYS, f"concept.nodes.{node}")
            nodes[node] = dict(pin)
        for key in ("feature_classes_range", "centroids_per_class", "mean_range",
                    "variance_range", "low_range", "width_range"):
            if key in cdoc:
                cdoc[key] = tuple(cdoc[key])
        with _section("concept"):
            concept = ConceptParams(task=task, nodes=nodes, **cdoc)

    schedule = DriftSchedule()
    if doc.get("schedule") is not None:
        _check_keys(doc["schedule"], _keys(DriftSchedule), "schedule")
        for i, event in enumerate(doc["schedule"].get("events", [])):
            _check_keys(event, _keys(ShiftSpec), f"schedule.events[{i}]")
            for j, action in enumerate(event.get("actions", [])):
                _check_keys(action, _keys(ShiftAction), f"schedule.events[{i}].actions[{j}]")
        with _section("schedule"):
            schedule = DriftSchedule.from_dict(doc["schedule"])

    policy = None
    if doc.get("policy") is not None:
        pdoc = dict(doc["policy"])
        _check_keys(pdoc, _POLICY_KEYS, "policy")
        values = _int_keyed(pdoc.get("values", {}), "policy.values")
        for node, spec in values.items():
            _check_keys(spec, _POLICY_VALUE_KEYS, f"policy.values.{node}")
            if spec.get("dist") not in ("normal", "uniform"):
                raise ConfigError(
                    f"policy.values.{node}: forced-value dist must be normal or uniform"
                )
            params = spec.get("params")
            if not isinstance(params, (list, tuple)) or len(params) != 2:
                raise ConfigError(f"policy.values.{node}: params must be two numbers")
        pdoc["values"] = values
        with _section("policy"):
            policy = InterventionPolicy.from_dict(pdoc)

    bound = dict(
        task=task,
        temporal=temporal,
        schedule=schedule,
        concept=concept,
        policy=policy,
        graph=graph,
    )
    # the remaining generator fields are plain values, passed as given
    plain = {k: doc[k] for k in _keys(GeneratorConfig) - set(bound) if doc.get(k) is not None}
    with _section(""):
        plain["dataset_size"] = int(doc["dataset_size"])
        plain["seed"] = int(doc.get("seed", 0))
        generator = GeneratorConfig(**bound, **plain)
    late = [e.t_start for e in schedule if e.t_start >= generator.dataset_size]
    if late:
        raise ConfigError(
            f"schedule: event at t={late[0]} starts at or after the end of the "
            f"stream (dataset_size {generator.dataset_size})"
        )
    evaluation = _flat_section(doc, "evaluation", EvalOptions)
    analysis = _flat_section(doc, "analysis", AnalysisOptions)

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")
    return RunConfig(generator=generator, evaluation=evaluation, analysis=analysis, out=out)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config(doc)


def config_to_document(cfg: GeneratorConfig) -> dict:
    """Resolved generator config as a plain JSON document.

    Feeding this document back through parse_config reproduces the stream
    byte for byte (the regeneration contract of the metadata sidecar).
    """

    doc = {
        "seed": cfg.seed,
        "dataset_size": cfg.dataset_size,
        "task": cfg.task,
        "d": cfg.d,
        "n_roots": cfg.n_roots,
        "min_parents": cfg.min_parents,
        "max_parents": cfg.max_parents,
        "p_i": cfg.p_i,
        "p_m": cfg.p_m,
        "temporal": cfg.temporal.to_dict(),
        "feature_subsample": cfg.feature_subsample,
        "graph": None if cfg.graph is None else cfg.graph.to_dict(),
        "schedule": cfg.schedule.to_dict(),
        "policy": None
        if cfg.policy is None
        else {k: v for k, v in cfg.policy.to_dict().items() if k in _POLICY_KEYS},
    }
    if cfg.concept is not None:
        cdoc = cfg.concept.to_dict()
        cdoc.pop("task", None)
        doc["concept"] = cdoc
    return doc
