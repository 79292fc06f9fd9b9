"""Streaming engine: drift-schedule execution, temporal state, per-instance
interventions and missingness, and value propagation through the graph.

The concept is fixed between two event boundaries and moves row by row
only inside a gradual or incremental window, and the temporal state never
reads a node's value, so the engine builds the stream in segments: the
draws of a segment are made in batches, in the order of a row-at-a-time
walk, each row with its own concept version's parameters, then every node
is computed for all of its rows with one batched ``predict`` per distinct
mapper (see ``StreamGenerator``).

Reproducibility contract: one master seed spawns five independent substreams
(concept init, node values, interventions, missing masks, drift schedule).
Toggling interventions, missingness, or the schedule therefore never perturbs
the value draws of the untouched parts of a paired run with the same seed.
Each substream is read in row order, in the same sequence as a walk that
draws one row at a time, so where segments end changes neither the draws
nor the bytes of a stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .concept import (
    Concept,
    ConceptParams,
    ConceptSnapshot,
    _ancestor_walk,
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
from .mappers import copy_mapper
from .temporal import TemporalParams, _one_pole, root_value_path

# not called here; ``bench/tracing.py`` patches these one-row steps on this
# module
from .temporal import ar_noise_step, root_value_step  # noqa: F401

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
        if self.graph is not None and self.graph.n_nodes != self.d + 1:
            raise ValueError("pinned graph must have d + 1 nodes")
        late = [e.t_start for e in self.schedule if e.t_start >= self.dataset_size]
        if late:
            raise ValueError(
                f"schedule: event at t={late[0]} starts at or after the end of the "
                f"stream (dataset_size {self.dataset_size})"
            )


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
    """Fixed substream layout; keep the spawn order stable forever.

    ``StreamGenerator`` reads ``values``, ``interventions`` and ``missing``
    one row after the next.  Per row, ``values`` gives each continuous node
    its draws in topological order: a root its natural value, then its
    noise innovation; an inner node its AR innovation.  ``interventions``
    and ``missing`` each give the row one uniform gate, then, if the gate
    opens, that row's nodes and forced values or masked features.
    """

    ss = np.random.SeedSequence(int(seed))
    kids = ss.spawn(5)
    return StreamRngs(*(np.random.default_rng(k) for k in kids))


class StreamGenerator:
    """State machine that builds the stream in segments and hands out rows.

    A segment runs from the first unbuilt row to the next event, the end of
    the open window or ``length``, at most ``_SEGMENT_ROWS`` rows.  Outside
    a window one concept produces all of it; inside a gradual or incremental
    window each row has a concept version of its own (see
    ``_segment_concept``).  A segment is built in two phases:

    1. the segment's draws, in the order of a row-at-a-time walk (see
       ``spawn_streams``): on ``values`` one call per run of normal or
       uniform draws, scaled by each row's version, then each node's
       temporal recursion over its column, carried from ``state`` with the
       float operations of ``root_value_step`` and ``ar_noise_step``; per
       row ``draw_interventions`` and ``draw_missing``;
    2. the ancestor walk, which also serves concept init and drift
       re-simulation: per inner node in topological order, one batched
       ``predict`` per distinct mapper among the rows' versions, each
       version's class permutation on the target; forced values overwrite
       their rows before the children read them.

    Temporal state never reads a node's value, so phase 1 needs no mapper,
    and every ``predict`` gives a row the same bits however many rows share
    the call.  A stream's bytes therefore do not depend on where segments
    end.  ``step``, ``take`` and iteration read rows from the current
    segment; ``concept``, ``state`` and the substreams may run up to one
    segment ahead of the rows handed out.  ``length``, when given, is one
    more segment boundary: a consumer that takes ``length`` rows leaves
    nothing built past them.
    """

    def __init__(
        self,
        concept: Concept,
        rngs: StreamRngs,
        schedule: DriftSchedule | None = None,
        policy: InterventionPolicy | None = None,
        emitted_features: tuple[int, ...] | None = None,
        length: int | None = None,
        p_i: float = 0.0,
        p_m: float = 0.0,
    ):
        self.schedule = schedule if schedule is not None else DriftSchedule()
        self.policy = policy if policy is not None else InterventionPolicy()
        self.p_i, self.p_m = p_i, p_m
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

    def _segment_concept(self) -> tuple[list[Concept], list[str], list[int]]:
        """The concept versions of the next segment, the concept id of each,
        and the version of each of the segment's rows.

        The segment ends at ``_SEGMENT_ROWS`` rows, at the next event, at
        the end of the open window and at ``length``, whichever comes first.
        Outside a window one concept makes every row.  Inside a gradual
        window each row's ``gradual_selector`` draw picks the start concept
        or the endpoint.  Inside an incremental window each row's
        ``incremental_step`` moves ``concept``, and the row gets a version
        of its own, which shares every mapper that no action moves.  The
        schedule draws are made one row after the next.
        """

        t = self._built
        ends = [t + _SEGMENT_ROWS]
        if self._window is not None:
            ends.append(self._window[0].t_end)
        if self._next_event < len(self.schedule.events):
            ends.append(self.schedule.events[self._next_event].t_start)
        if self._length is not None and t < self._length:
            ends.append(self._length)
        rows = range(t, min(ends))
        if self._window is None:
            return [self.concept], [self._concept_id], [0] * len(rows)
        spec, event_id, shift = self._window
        if spec.rate == "gradual":
            which = [int(gradual_selector(r, spec, self.rngs.schedule)) for r in rows]
            return [self.concept, shift], [self._concept_id, event_id], which
        c = self.concept
        moved = [a.node for a in spec.actions if a.node in c.mappers]
        versions = []
        for r in rows:
            incremental_step(c, shift, r - spec.t_start, self.rngs.schedule)
            mappers = {**c.mappers, **{node: copy_mapper(c.mappers[node]) for node in moved}}
            versions.append(replace(c, root_dists=dict(c.root_dists), mappers=mappers))
        return versions, [event_id] * len(rows), list(range(len(rows)))

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
        versions, ids, which = self._segment_concept()
        drawn, forced, missing = self._draw_rows(versions, which)
        overrides: dict[int, tuple[list[int], list]] = {}
        for i, row in enumerate(forced):
            for node, value in row.items():
                rows, vals = overrides.setdefault(node, ([], []))
                rows.append(i)
                vals.append(value)
        concept = versions[0]
        mapper, permutation = (lambda node, P: concept.mappers[node]), concept.class_permutation
        if len(versions) > 1:
            mapper, permutation = (lambda node, P: _RowMappers(versions, which, node)), None
        V = _ancestor_walk(
            concept.graph,
            len(which),
            drawn.__getitem__,
            mapper,
            lambda node, m: drawn[node],
            permutation,
            overrides,
        )
        self._built = t0 + len(which)
        return self._emit(concept, [ids[k] for k in which], t0, V, forced, missing)

    def _draw_rows(self, versions: list[Concept], which: list[int]):
        """Phase 1: every draw of the segment's rows, in the order of a
        row-at-a-time walk, batched; row ``i`` draws with the parameters of
        ``versions[which[i]]``.

        Returns the per-node draws on ``values`` (a root's natural value, a
        continuous inner node's AR noise), and per row the forced values and
        the masked features.
        """

        concept, n = versions[0], len(which)
        graph, temporal = concept.graph, concept.temporal
        # no drift changes which draws a row makes, only their loc and scale
        params = [_draw_params(v) for v in versions]
        walk, loc, scale, uniform = params[0]
        if len(params) > 1:
            loc = np.asarray([p[1] for p in params])[which]
            scale = np.asarray([p[2] for p in params])[which]
        draws = _draw_in_rows(self.rngs.values, n, loc, scale, uniform).T.tolist()
        ewma, ar = self.state.ewma, self.state.ar
        drawn, j = {}, 0
        for node, root in walk:
            path = _one_pole(draws[j + root], temporal.rho, ar[node])
            ar[node] = path[-1]
            if root:
                path = root_value_path(draws[j], path, temporal, ewma[node])
                ewma[node] = path[-1]
            drawn[node] = path
            j += 1 + root
        # per row, one gate on each substream, then the row's payload if it
        # opens
        policy, emitted, rngs = self.policy, self.emitted_features, self.rngs
        eligible = graph.feature_nodes
        if policy.include_target:
            eligible = tuple(sorted(eligible + (graph.target,)))
        specs = [{node: self._value_spec(v, node) for node in eligible} for v in versions]
        forced = [
            draw_interventions(self.p_i, policy, eligible, specs[k], rngs.interventions)
            for k in which
        ]
        missing = [draw_missing(self.p_m, policy, emitted, rngs.missing) for _ in which]
        return drawn, forced, missing

    def _emit(self, concept, ids, t0, V, forced, missing) -> list[Instance]:
        """The segment's instances, row ``i`` with concept id ``ids[i]``:
        Python ints for categorical nodes and floats for continuous ones,
        ``None`` for masked features."""

        topo = concept.graph.topo_order
        columns = {
            node: (V[:, node].astype(int) if concept.is_categorical(node) else V[:, node]).tolist()
            for node in topo
        }
        emitted, n = self.emitted_features, len(V)
        features = list(zip(*(columns[node] for node in emitted))) or [()] * n
        for i, masked in enumerate(missing):
            if masked:
                features[i] = tuple(
                    None if node in masked else v for node, v in zip(emitted, features[i])
                )
        values = [dict(zip(topo, row)) for row in zip(*(columns[node] for node in topo))]
        labels = columns[concept.graph.target]
        return [
            Instance(t0 + i, f, y, v, tuple(sorted(forced[i])), missing[i], ids[i])
            for i, (f, y, v) in enumerate(zip(features, labels, values))
        ]

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


def _draw_params(concept: Concept) -> tuple[list, list, list, list]:
    """A row's draws on ``values`` under ``concept``: per continuous node in
    topological order, a root's natural value, then the node's AR
    innovation.  Returns the walk of (node, is root) and each draw's loc,
    scale and whether it is uniform."""

    walk, loc, scale, uniform = [], [], [], []
    for node in concept.graph.topo_order:
        if concept.is_categorical(node):
            continue
        dist = concept.root_dists.get(node)
        if dist is not None:
            normal = dist.kind == "normal"
            loc.append(dist.p1)
            scale.append(dist.std() if normal else dist.p2 - dist.p1)
            uniform.append(not normal)
        loc.append(0.0)
        scale.append(concept.temporal.sigma * concept.noise_scale(node))
        uniform.append(False)
        walk.append((node, dist is not None))
    return walk, loc, scale, uniform


class _RowMappers:
    """One node's mappers in a segment whose rows come from several concept
    versions, read by the ancestor walk as one mapper: ``predict`` runs each
    distinct mapper once, on its rows, and relabels the target's classes by
    each version's permutation.  ``predict`` is row-independent, so a row
    gets the bits that a segment of its version alone would give it."""

    def __init__(self, versions: list[Concept], which: list[int], node: int):
        self.kind = versions[0].mappers[node].kind
        target = node == versions[0].graph.target
        self.groups: dict[tuple, tuple] = {}
        for i, k in enumerate(which):
            m, perm = versions[k].mappers[node], versions[k].class_permutation
            perm = perm if target else None
            self.groups.setdefault((id(m), perm), (m, perm, []))[2].append(i)

    def predict(self, P: np.ndarray) -> np.ndarray:
        out = np.empty(len(P))
        for m, perm, rows in self.groups.values():
            y = m.predict(P[rows])
            out[rows] = y if perm is None else np.asarray(perm)[y]
        return out


def _draw_in_rows(rng, n: int, loc, scale, uniform: list) -> np.ndarray:
    """``n`` rows of draws on ``rng``: draw ``j`` of row ``i`` is
    ``loc[j] + scale[j] * u``, where ``u`` is a standard uniform draw if
    ``uniform[j]`` and a standard normal one otherwise.  ``loc`` and
    ``scale`` may also be ``(n, m)`` arrays, one row of parameters per row.

    The draws are made in row-major order, one call per run of draws of one
    kind.  They give the bits of as many one-draw ``rng.uniform(low, high)``
    and ``rng.normal(mean, std)`` calls, which compute ``loc + scale * u``
    from the same ``u``.
    """

    m = len(uniform)
    # where a run of one kind starts inside a row, and at a row's start
    starts = [j for j in range(1, m) if uniform[j] != uniform[j - 1]]
    if uniform[0] != uniform[-1]:
        starts.insert(0, 0)
    cuts = [r * m + j for r in range(n) for j in starts if r or j]
    out = np.empty(n * m)
    for a, b in zip([0, *cuts], [*cuts, n * m]):
        (rng.random if uniform[a % m] else rng.standard_normal)(out=out[a:b])
    out = out.reshape(n, m)
    out *= scale
    out += loc
    return out


def build_stream(config: GeneratorConfig) -> StreamGenerator:
    """Wire config to a ready generator: graph, concept, substreams."""

    from .config import ConfigError

    policy = config.policy or InterventionPolicy()
    rngs = spawn_streams(config.seed)
    graph = config.graph or build_dag(
        config.d, config.n_roots, config.min_parents, config.max_parents, rngs.init
    )
    params = config.concept or ConceptParams()
    concept = init_concept(graph, params, rngs.init, temporal=config.temporal, task=config.task)
    for node in policy.values:
        if node not in range(graph.n_nodes) or concept.is_categorical(node):
            raise ConfigError(
                f"policy.values.{node}: node {node} is not a continuous node of the graph"
            )
    emitted = None
    if config.feature_subsample is not None:
        feats = graph.feature_nodes
        idx = rngs.init.choice(len(feats), size=config.feature_subsample, replace=False)
        emitted = tuple(sorted(feats[int(i)] for i in idx))
    return StreamGenerator(
        concept,
        rngs,
        schedule=config.schedule,
        policy=policy,
        emitted_features=emitted,
        length=config.dataset_size,
        p_i=config.p_i,
        p_m=config.p_m,
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
    cells = np.array([inst.features for inst in instances], dtype=object)
    cells = cells.reshape(len(instances), k)
    mask = cells == None  # noqa: E711 -- elementwise: a masked feature is None
    X = cells.astype(float)  # None becomes NaN
    y = np.array([inst.label for inst in instances], dtype=float)
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
