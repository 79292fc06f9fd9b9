"""Streaming engine: drift-schedule execution, temporal state, per-instance
interventions and missingness, and value propagation through the graph.

The concept is fixed between two event boundaries, and the temporal state
never reads a node's value, so the engine builds the stream in segments:
the draws of a segment are made row by row, then every node is computed for
all of its rows with one batched ``predict`` (see ``StreamGenerator``).

Reproducibility contract: one master seed spawns five independent substreams
(concept init, node values, interventions, missing masks, drift schedule).
Toggling interventions, missingness, or the schedule therefore never perturbs
the value draws of the untouched parts of a paired run with the same seed.
Where segments end changes neither the draws nor the bytes of a stream.
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
    concept_id,
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

# rows per segment at most; a segment also ends at the next event boundary.
# Larger segments batch more rows per ``predict`` call, but the engine may
# build up to one segment past the last row a consumer asks for.
_SEGMENT_ROWS = 256


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
    """State machine that builds the stream in segments and hands out rows.

    A segment runs from the first unbuilt row to the next event boundary, at
    most ``_SEGMENT_ROWS`` rows, and one concept produces all of it; a row
    inside a gradual or incremental window is a segment of its own.  A
    segment is built in two phases:

    1. a row loop makes the segment's draws, row by row, in the order of a
       row-at-a-time walk: on ``values`` the root and AR noise steps in
       topological order, then ``draw_interventions`` and ``draw_missing``;
    2. one batched ``predict`` per inner node, in topological order; forced
       values overwrite their rows before the children read them.

    Temporal state never reads a node's value, so phase 1 needs no mapper,
    and every ``predict`` gives a row the same bits however many rows share
    the call.  A stream's bytes therefore do not depend on where segments
    end.  ``step``, ``take`` and iteration read rows from the current
    segment; ``state`` and the substreams may run up to one segment ahead of
    the rows handed out.  ``length``, when given, is one more segment
    boundary: a consumer that takes ``length`` rows leaves nothing built
    past them.
    """

    def __init__(
        self,
        concept: Concept,
        rngs: StreamRngs,
        schedule: DriftSchedule | None = None,
        policy: InterventionPolicy | None = None,
        emitted_features: tuple[int, ...] | None = None,
        length: int | None = None,
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
        # ``t`` is the next row ``step`` hands out; ``_built`` the next row
        # the engine builds
        self.t = 0
        self._built = 0
        self._length = length
        self._rows = iter(())
        self.snapshots: dict[str, ConceptSnapshot] = {}
        self._concept_id = concept_id(0)
        self.snapshots[self._concept_id] = snapshot_concept(concept, self.state)
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
        t = self._built
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
            event_id = concept_id(self._next_event)
            if spec.kind == "recurrent":
                # the schedule only names concepts of earlier events
                snap = self.snapshots[spec.snapshot_id]
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

    def _segment_concept(self) -> tuple[Concept, str, int]:
        """The concept of the next segment, its id and the segment's length.

        Inside a window this makes the row's schedule draw, and the segment
        is that one row.
        """

        t = self._built
        if self._window is None:
            n = _SEGMENT_ROWS
            if self._next_event < len(self.schedule.events):
                n = min(n, self.schedule.events[self._next_event].t_start - t)
            if self._length is not None and t < self._length:
                n = min(n, self._length - t)
            return self.concept, self._concept_id, n
        spec, event_id, shift = self._window
        if spec.rate == "gradual":
            if gradual_selector(t, spec, self.rngs.schedule):
                return shift, event_id, 1
            return self.concept, self._concept_id, 1
        incremental_step(self.concept, shift, t - spec.t_start, self.rngs.schedule)
        return self.concept, event_id, 1

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

    # -- the segment engine --------------------------------------------------

    def _segment(self) -> list[Instance]:
        """Apply due events, then build the rows of the next segment."""

        self._advance_events()
        t0 = self._built
        concept, concept_id, n = self._segment_concept()
        drawn, forced, missing = self._draw_rows(concept, n)
        V = self._walk(concept, drawn, forced, n)
        self._built = t0 + n
        return self._emit(concept, concept_id, t0, V, forced, missing)

    def _draw_rows(self, concept: Concept, n: int):
        """Phase 1: every draw of ``n`` rows, row by row.

        Returns the per-node draws on ``values`` (a root's natural value, a
        continuous inner node's AR noise), and per row the forced values and
        the masked features.
        """

        graph = concept.graph
        eligible = graph.feature_nodes
        if self.policy.include_target:
            eligible = tuple(sorted(eligible + (graph.target,)))
        specs = {node: self._value_spec(concept, node) for node in eligible}
        # roots step their EWMA and noise, continuous inner nodes their AR
        # noise, in topological order; the natural root draw always happens,
        # so paired runs with and without interventions stay aligned
        walk = [
            (node, concept.root_dists.get(node), concept.noise_scale(node), [])
            for node in graph.topo_order
            if not concept.is_categorical(node)
        ]
        ewma, ar, temporal = self.state.ewma, self.state.ar, concept.temporal
        policy, emitted, rngs = self.policy, self.emitted_features, self.rngs
        vr = rngs.values
        forced, missing = [], []
        for _ in range(n):
            for node, dist, scale, path in walk:
                if dist is None:
                    e = ar[node] = ar_noise_step(ar[node], temporal, vr, sigma_scale=scale)
                    path.append(e)
                else:
                    x, ar[node] = root_value_step(ewma[node], ar[node], dist, temporal, vr)
                    ewma[node] = x
                    path.append(x)
            forced.append(draw_interventions(policy, eligible, specs, rngs.interventions))
            missing.append(draw_missing(policy, emitted, rngs.missing))
        drawn = {node: path for node, _, _, path in walk}
        return drawn, forced, missing

    @staticmethod
    def _walk(concept: Concept, drawn: dict, forced: list, n: int) -> np.ndarray:
        """Phase 2: every node's value on all ``n`` rows, one batched
        ``predict`` per inner node in topological order.  Column ``j`` of the
        result holds node ``j``; forced values overwrite their rows before
        the children read them."""

        graph = concept.graph
        overrides: dict[int, tuple[list[int], list]] = {}
        for i, row in enumerate(forced):
            for node, value in row.items():
                rows, vals = overrides.setdefault(node, ([], []))
                rows.append(i)
                vals.append(value)
        V = np.empty((n, graph.n_nodes))
        for node in graph.topo_order:
            if graph.is_root(node):
                V[:, node] = drawn[node]
            else:
                out = concept.mappers[node].predict(V.take(graph.parents[node], axis=1))
                if node in drawn:
                    out = out + np.asarray(drawn[node])
                elif node == graph.target:
                    out = np.asarray(concept.class_permutation)[out]
                V[:, node] = out
            if node in overrides:
                rows, vals = overrides[node]
                V[rows, node] = vals
        return V

    def _emit(self, concept, concept_id, t0, V, forced, missing) -> list[Instance]:
        """The segment's instances: Python ints for categorical nodes and
        floats for continuous ones, ``None`` for masked features."""

        topo = concept.graph.topo_order
        columns = [
            (V[:, node].astype(int) if concept.is_categorical(node) else V[:, node]).tolist()
            for node in topo
        ]
        pos = {node: i for i, node in enumerate(topo)}
        emit = [(node, pos[node]) for node in self.emitted_features]
        label = pos[concept.graph.target]
        out = []
        for i, vals in enumerate(zip(*columns)):
            masked = missing[i]
            if masked:
                features = tuple(None if node in masked else vals[j] for node, j in emit)
            else:
                features = tuple([vals[j] for _, j in emit])
            values = dict(zip(topo, vals))
            intervened = tuple(sorted(forced[i]))
            out.append(
                Instance(t0 + i, features, vals[label], values, intervened, masked, concept_id)
            )
        return out

    def step(self) -> Instance:
        """The next row, building a new segment when the current one is spent."""

        inst = next(self._rows, None)
        if inst is None:
            self._rows = iter(self._segment())
            inst = next(self._rows)
        self.t = inst.t + 1
        return inst

    def take(self, n: int) -> list[Instance]:
        return [self.step() for _ in range(n)]

    def __iter__(self):
        return self

    def __next__(self) -> Instance:
        return self.step()


def build_stream(config: GeneratorConfig) -> StreamGenerator:
    """Wire config to a ready generator: graph, concept, substreams."""

    from .config import ConfigError

    base = config.policy or InterventionPolicy()
    # the config's top-level p_i and p_m own the two rates
    for owner, name in (("p_i", "p_intervene"), ("p_m", "p_missing")):
        rate, own = getattr(base, name), getattr(config, owner)
        if rate and rate != own:
            raise ConfigError(f"policy.{name} is {rate!r} but {owner} is {own!r}; set {owner}")
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
    for node in base.values:
        if node not in range(graph.n_nodes) or concept.is_categorical(node):
            raise ConfigError(
                f"policy.values.{node}: node {node} is not a continuous node of the graph"
            )
    emitted = None
    if config.feature_subsample is not None:
        feats = graph.feature_nodes
        idx = rngs.init.choice(len(feats), size=config.feature_subsample, replace=False)
        emitted = tuple(sorted(feats[int(i)] for i in idx))
    policy = replace(base, p_intervene=config.p_i, p_missing=config.p_m)
    return StreamGenerator(
        concept,
        rngs,
        schedule=config.schedule,
        policy=policy,
        emitted_features=emitted,
        length=config.dataset_size,
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
