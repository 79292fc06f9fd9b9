"""Streaming engine: topological value propagation with temporal state,
per-instance interventions and missingness, drift-schedule execution.

Reproducibility contract: one master seed spawns five independent substreams
(concept init, node values, interventions, missing masks, drift schedule).
Toggling interventions, missingness, or the schedule therefore never perturbs
the value draws of the untouched parts of a paired run with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .concept import (
    Concept,
    ConceptParams,
    ConceptSnapshot,
    init_concept,
    snapshot_concept,
)
from .drift import (
    DriftSchedule,
    InterventionPolicy,
    apply_abrupt,
    apply_recurrent,
    begin_gradual,
    begin_incremental,
    draw_interventions,
    draw_missing,
    gradual_selector,
    incremental_step,
    validate_schedule_against,
)
from .graph import CausalGraph, build_dag
from .temporal import TemporalParams, ar_noise_step, root_value_step

__all__ = [
    "GeneratorConfig",
    "Instance",
    "StreamRngs",
    "StreamFrame",
    "StreamGenerator",
    "spawn_streams",
    "build_stream",
    "generate",
    "collect",
]


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of one stream run.  ``d`` counts feature nodes; the target node
    is always added on top."""

    dataset_size: int
    seed: int
    d: int = 5
    n_roots: int = 2
    min_parents: int = 1
    max_parents: int = 3
    p_i: float = 0.0
    p_m: float = 0.0
    task: str = "classification"
    temporal: TemporalParams = field(default_factory=TemporalParams)
    schedule: DriftSchedule = field(default_factory=DriftSchedule)
    feature_subsample: int | None = None
    concept: ConceptParams | None = None
    policy: InterventionPolicy | None = None
    graph: CausalGraph | None = None

    def __post_init__(self) -> None:
        if self.dataset_size < 0:
            raise ValueError("dataset_size must be non-negative")
        if not 0.0 <= self.p_i <= 1.0 or not 0.0 <= self.p_m <= 1.0:
            raise ValueError("p_i and p_m must lie in [0, 1]")
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.feature_subsample is not None and not (
            1 <= self.feature_subsample <= self.d
        ):
            raise ValueError("feature_subsample must lie in [1, d]")
        if self.concept is not None and self.concept.task != self.task:
            raise ValueError("concept params disagree with task")
        if self.graph is not None and self.graph.n_nodes != self.d + 1:
            raise ValueError("pinned graph must have d + 1 nodes")


@dataclass(frozen=True)
class Instance:
    """One emitted stream element.

    ``features`` follows the emitted node order; masked entries are ``None``,
    never a sentinel number.  ``values`` keeps every hidden node's
    post-intervention value for diagnostics.  ``concept_id`` leaks ground
    truth and is diagnostic only.
    """

    t: int
    features: tuple
    label: float | int
    values: dict[int, float | int]
    intervened: tuple[int, ...]
    missing: tuple[int, ...]
    concept_id: str


@dataclass
class StreamRngs:
    init: np.random.Generator
    values: np.random.Generator
    interventions: np.random.Generator
    missing: np.random.Generator
    schedule: np.random.Generator


def spawn_streams(seed: int) -> StreamRngs:
    """Fixed substream layout; keep the spawn order stable forever."""

    ss = np.random.SeedSequence(int(seed))
    kids = ss.spawn(5)
    return StreamRngs(*(np.random.default_rng(k) for k in kids))


class StreamGenerator:
    """Sequential state machine producing one instance per ``step`` call.

    Temporal dependence forbids parallel instance generation; independent
    streams parallelize freely.
    """

    def __init__(
        self,
        concept: Concept,
        rngs: StreamRngs,
        schedule: DriftSchedule | None = None,
        policy: InterventionPolicy | None = None,
        emitted_features: tuple[int, ...] | None = None,
    ):
        self.schedule = schedule if schedule is not None else DriftSchedule()
        self.policy = policy if policy is not None else InterventionPolicy()
        validate_schedule_against(self.schedule, concept)
        self.concept = concept
        self.rngs = rngs
        self.state = concept.initial_state()
        graph = concept.graph
        if emitted_features is None:
            emitted_features = graph.feature_nodes
        else:
            emitted_features = tuple(sorted(emitted_features))
            bad = [n for n in emitted_features if n == graph.target or not 0 <= n < graph.n_nodes]
            if bad:
                raise ValueError(f"cannot emit node {bad[0]}")
        self.emitted_features = emitted_features
        self.feature_names = tuple(f"x{i + 1}" for i in range(len(emitted_features)))
        self.t = 0
        self.snapshots: dict[str, ConceptSnapshot] = {}
        self._concept_id = "concept0"
        self.snapshots["concept0"] = snapshot_concept(concept, self.state)
        self._next_event = 0
        # the open gradual or incremental window, if any (windows are
        # disjoint): its spec, its concept id, and the endpoint concept of a
        # gradual window or the plan of an incremental one
        self._window: tuple | None = None

    # -- event machinery ---------------------------------------------------

    def _complete(self, event_id: str) -> None:
        self._concept_id = event_id
        self.snapshots[event_id] = snapshot_concept(self.concept, self.state)

    def _advance_events(self) -> None:
        t = self.t
        if self._window is not None and t >= self._window[0].t_end:
            spec, event_id, shift = self._window
            if spec.rate == "gradual":
                self.concept = shift
            # incremental concepts already sit exactly on the endpoint
            self._complete(event_id)
            self._window = None
        while self._next_event < len(self.schedule.events):
            spec = self.schedule.events[self._next_event]
            if spec.t_start > t:
                break
            self._next_event += 1
            event_id = f"concept{self._next_event}"
            if spec.kind == "recurrent":
                snap = self.snapshots.get(spec.snapshot_id)
                if snap is None:
                    raise ValueError(f"unknown snapshot id {spec.snapshot_id!r}")
                self.concept = apply_recurrent(self.concept, snap)
                self._complete(event_id)
            elif spec.rate == "abrupt":
                self.concept = apply_abrupt(self.concept, spec, self.rngs.schedule)
                self._complete(event_id)
            elif spec.rate == "gradual":
                endpoint = begin_gradual(self.concept, spec, self.rngs.schedule)
                self._window = (spec, event_id, endpoint)
            else:
                self.concept = self.concept.copy()
                plan = begin_incremental(self.concept, spec, self.rngs.schedule)
                self._window = (spec, event_id, plan)

    def _instance_concept(self) -> tuple[Concept, str]:
        """Pick which concept produces the current instance."""

        if self._window is None:
            return self.concept, self._concept_id
        spec, event_id, shift = self._window
        if spec.rate == "gradual":
            if gradual_selector(self.t, spec, self.rngs.schedule):
                return shift, event_id
            return self.concept, self._concept_id
        incremental_step(self.concept, shift, self.t - spec.t_start, self.rngs.schedule)
        return self.concept, event_id

    # -- intervention helpers ------------------------------------------------

    def _value_spec(self, concept: Concept, node: int) -> tuple:
        if concept.is_categorical(node):
            return ("classes", concept.mappers[node].n_classes)
        override = self.policy.values.get(node)
        if override is not None:
            return (override["dist"], *override["params"])
        if concept.graph.is_root(node):
            dist = concept.root_dists[node]
            if dist.kind == "normal":
                return ("normal", dist.p1, float(np.sqrt(dist.p2)))
            return ("uniform", dist.p1, dist.p2)
        mapper = concept.mappers[node]
        return ("normal", mapper.out_mean, mapper.out_scale)

    # -- the stream loop -----------------------------------------------------

    def step(self) -> Instance:
        """Generate the next instance (Algorithm: events, interventions,
        missing mask, topological walk, emission mask, advance time)."""

        self._advance_events()
        concept, concept_id = self._instance_concept()
        graph = concept.graph

        eligible = graph.feature_nodes
        if self.policy.include_target:
            eligible = tuple(sorted(eligible + (graph.target,)))
        specs = {n: self._value_spec(concept, n) for n in eligible}
        interventions = draw_interventions(
            self.policy, eligible, specs, self.rngs.interventions
        )
        missing = draw_missing(self.policy, self.emitted_features, self.rngs.missing)

        values: dict[int, float | int] = {}
        vr = self.rngs.values
        for node in graph.topo_order:
            forced = interventions.get(node)
            if graph.is_root(node):
                # natural draw always happens and feeds the temporal state,
                # so paired runs with and without interventions stay aligned
                x_nat, n_new = root_value_step(
                    self.state.ewma[node],
                    self.state.ar[node],
                    concept.root_dists[node],
                    concept.temporal,
                    vr,
                )
                self.state.ewma[node] = x_nat
                self.state.ar[node] = n_new
                values[node] = x_nat if forced is None else float(forced)
                continue
            parents = np.array([values[p] for p in graph.parents[node]], dtype=float)
            if concept.is_categorical(node):
                if forced is not None:
                    values[node] = int(forced)
                elif node == graph.target:
                    raw = int(concept.mappers[node].predict(parents))
                    values[node] = int(concept.class_permutation[raw])
                else:
                    values[node] = int(concept.mappers[node].predict(parents))
            else:
                n_new = ar_noise_step(
                    self.state.ar[node],
                    concept.temporal,
                    vr,
                    sigma_scale=concept.noise_scale(node),
                )
                self.state.ar[node] = n_new
                if forced is None:
                    values[node] = float(concept.mappers[node].predict(parents)) + n_new
                else:
                    values[node] = float(forced)

        features = tuple(
            None if n in missing else values[n] for n in self.emitted_features
        )
        inst = Instance(
            t=self.t,
            features=features,
            label=values[graph.target],
            values=values,
            intervened=tuple(sorted(interventions)),
            missing=missing,
            concept_id=concept_id,
        )
        self.t += 1
        return inst

    def take(self, n: int) -> list[Instance]:
        return [self.step() for _ in range(n)]

    def __iter__(self):
        return self

    def __next__(self) -> Instance:
        return self.step()


def build_stream(config: GeneratorConfig) -> StreamGenerator:
    """Wire config to a ready generator: graph, concept, substreams."""

    rngs = spawn_streams(config.seed)
    graph = config.graph
    if graph is None:
        graph = build_dag(
            config.d, config.n_roots, config.min_parents, config.max_parents, rngs.init
        )
    params = config.concept
    if params is None:
        params = ConceptParams(task=config.task)
    concept = init_concept(graph, params, rngs.init, temporal=config.temporal)
    emitted = None
    if config.feature_subsample is not None:
        feats = graph.feature_nodes
        idx = rngs.init.choice(len(feats), size=config.feature_subsample, replace=False)
        emitted = tuple(sorted(feats[int(i)] for i in idx))
    # the config's top-level p_i and p_m own the two rates
    policy = replace(
        config.policy or InterventionPolicy(), p_intervene=config.p_i, p_missing=config.p_m
    )
    return StreamGenerator(
        concept, rngs, schedule=config.schedule, policy=policy, emitted_features=emitted
    )


def generate(config: GeneratorConfig):
    """Yield exactly ``dataset_size`` instances for ``config``."""

    gen = build_stream(config)
    for _ in range(config.dataset_size):
        yield gen.step()


@dataclass
class StreamFrame:
    """Column view of a finished stream chunk.  Missing entries are NaN in
    ``X`` and flagged in ``missing_mask``."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    task: str
    missing_mask: np.ndarray
    intervened: list[tuple[int, ...]]
    concept_ids: list[str]

    @property
    def n(self) -> int:
        return self.X.shape[0]


def collect(source, n: int | None = None, task: str | None = None) -> StreamFrame:
    """Materialize instances into arrays.

    ``source`` is a StreamGenerator (then ``n`` is required) or any iterable
    of Instance.
    """

    if isinstance(source, StreamGenerator):
        if n is None:
            raise ValueError("n is required when collecting from a generator")
        if task is None:
            task = source.concept.task
        names = source.feature_names
        instances = source.take(n)
    else:
        instances = list(source)
        if n is not None:
            instances = instances[:n]
        names = None
    k = len(instances[0].features) if instances else 0
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(k))
    X = np.full((len(instances), k), np.nan)
    mask = np.zeros((len(instances), k), dtype=bool)
    y = np.empty(len(instances))
    for i, inst in enumerate(instances):
        for j, v in enumerate(inst.features):
            if v is None:
                mask[i, j] = True
            else:
                X[i, j] = v
        y[i] = inst.label
    if task is None:
        task = "classification" if np.allclose(y, np.round(y)) else "regression"
    if task == "classification":
        y = y.astype(int)
    return StreamFrame(
        X=X,
        y=y,
        feature_names=names,
        task=task,
        missing_mask=mask,
        intervened=[inst.intervened for inst in instances],
        concept_ids=[inst.concept_id for inst in instances],
    )
