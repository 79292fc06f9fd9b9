"""Streaming engine: drift-schedule execution, temporal state, per-instance
interventions and missingness, and value propagation through the graph.

The concept changes at an abrupt event and moves row by row only inside a
gradual or incremental window, and the temporal state never reads a node's
value, so the engine builds the stream in segments: the draws of a segment
are made in batches, in the order of a row-at-a-time walk, each row with
its own concept version's parameters, then every node is computed for all
of its rows with one batched ``predict`` per distinct mapper (see
``StreamGenerator``).  Drift replaces only the mappers its actions name, so
the versions of a segment share the rest.

Reproducibility contract: one master seed spawns five independent substreams
(concept init, node values, interventions, missing masks, drift schedule).
Toggling interventions, missingness, or the schedule therefore never perturbs
the value draws of the untouched parts of a paired run with the same seed.
Each substream is read in row order, in the same sequence as a walk that
draws one row at a time, so where segments end changes neither the draws
nor the bytes of a stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .concept import (
    Concept,
    ConceptParams,
    ConceptSnapshot,
    _ancestor_walk,
    init_concept,
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
from .temporal import TemporalParams, TemporalState, _one_pole, root_value_path

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
    "collect",
]

# rows per segment at most; a segment also ends where a window starts or
# ends.  Larger segments batch more rows per ``predict`` call, but the engine may
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

    A segment runs from the first unbuilt row to ``length``, the start or
    end of a gradual or incremental window, at most ``_SEGMENT_ROWS`` rows
    (see ``_segment_concept``).  Outside a window each abrupt or recurrent
    event inside the segment adds a concept version, which makes the rows
    from its event on; inside a window each row has a version of its own.
    A drift event replaces only the mappers its actions name, so versions
    share every other mapper.  A segment is built in two phases:

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
    end.  An event inside a segment is snapshotted after phase 1, with the
    temporal state after the row before it, read from the nodes' paths.
    The built segment is the one row buffer of two readers: ``step``,
    ``take`` and iteration build its ``Instance``s on their first read of
    it, and ``collect`` slices its arrays and builds none.  Either reader
    goes on from the row the other stopped at.  ``concept``, ``state`` and
    the substreams may run up to one segment ahead of the rows handed out.
    ``length``, when given, is one more segment boundary: a consumer that
    takes ``length`` rows leaves nothing built past them.
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
        # ``t`` is the next row handed out; ``_built`` the next row the
        # engine builds
        self.t = 0
        self._built = 0
        self._length = length
        # the segment that ends at ``_built``: its first row, node values,
        # forced values, masked features and row concept ids; ``_rows`` holds
        # its instances once ``step`` has read it
        self._seg: tuple | None = None
        self._rows: list[Instance] | None = None
        self.snapshots: dict[str, ConceptSnapshot] = {}
        self._concept_id = concept_id(0)
        self.snapshots[self._concept_id] = ConceptSnapshot(concept, self.state)
        self._next_event = 0
        # the open gradual or incremental window, if any (windows are
        # disjoint): its spec, its concept id, and the endpoint concept of a
        # gradual window or the plan of an incremental one
        self._window: tuple | None = None

    # -- event machinery ---------------------------------------------------

    def _advance_events(self) -> None:
        """Close the open window at its end and open a gradual or
        incremental window at its start; ``_segment_concept`` applies the
        abrupt and recurrent events."""

        t = self._built
        if self._window is not None and t >= self._window[0].t_end:
            spec, event_id, shift = self._window
            if spec.rate == "gradual":
                self.concept = shift
            # incremental concepts already sit exactly on the endpoint
            self._concept_id, self._window = event_id, None
            self.snapshots[event_id] = ConceptSnapshot(self.concept, self.state)
        events = self.schedule.events[self._next_event :]
        if not events or events[0].t_start > t or events[0].rate == "abrupt":
            return
        spec = events[0]
        self._next_event += 1
        begin = begin_gradual if spec.rate == "gradual" else begin_incremental
        shift = begin(self.concept, spec, self.rngs.schedule)
        self._window = (spec, concept_id(self._next_event), shift)

    def _segment_concept(self) -> tuple[list[Concept], list[str], np.ndarray, list[int]]:
        """The concept versions of the next segment, the concept id of each,
        the version of each of the segment's rows, and the row where each
        version after the first begins.

        The segment ends at ``_SEGMENT_ROWS`` rows, at ``length``, at the
        end of the open window and at the start of the next one, whichever
        comes first.  Outside a window the abrupt and recurrent events that
        start inside the segment are applied here, in row order, each on
        the version before it: each adds a version, which makes the rows
        from its event on.  A recurrent event that restores a concept
        completed inside the segment ends the segment before it instead.
        Inside a gradual window each row's ``gradual_selector`` draw picks
        the start concept or the endpoint.  Inside an incremental window
        each row's ``incremental_step`` gives the row a version of its own,
        which shares every mapper that no action moves.  The schedule draws
        are made one row after the next.
        """

        t = self._built
        end = t + _SEGMENT_ROWS
        if self._length is not None and t < self._length:
            end = min(end, self._length)
        if self._window is None:
            versions, ids, starts = [self.concept], [self._concept_id], []
            events = self.schedule.events
            while self._next_event < len(events) and events[self._next_event].t_start < end:
                spec = events[self._next_event]
                if spec.rate != "abrupt" or spec.snapshot_id in ids[1:]:
                    end = spec.t_start
                    break
                self._next_event += 1
                if spec.kind == "recurrent":
                    concept = apply_recurrent(versions[-1], self.snapshots[spec.snapshot_id])
                else:
                    concept = apply_abrupt(versions[-1], spec, self.rngs.schedule)
                versions.append(concept)
                ids.append(concept_id(self._next_event))
                starts.append(spec.t_start - t)
            self.concept, self._concept_id = versions[-1], ids[-1]
            return versions, ids, np.searchsorted(starts, np.arange(end - t), "right"), starts
        spec, event_id, shift = self._window
        rows = range(t, min(end, spec.t_end))
        if spec.rate == "gradual":
            which = [int(gradual_selector(r, spec, self.rngs.schedule)) for r in rows]
            return [self.concept, shift], [self._concept_id, event_id], np.array(which), []
        versions = []
        for r in rows:
            step = r - spec.t_start
            self.concept = incremental_step(self.concept, shift, step, self.rngs.schedule)
            versions.append(self.concept)
        return versions, [event_id] * len(rows), np.arange(len(rows)), []

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

    def _segment(self) -> None:
        """Open or close a window, plan the next segment, then build its
        rows and snapshot each concept its events completed."""

        self._advance_events()
        t0 = self._built
        versions, ids, which, starts = self._segment_concept()
        drawn, forced, missing, states = self._draw_rows(versions, which, starts)
        for k, state in enumerate(states, start=1):
            self.snapshots[ids[k]] = ConceptSnapshot(versions[k], state)
        overrides: dict[int, tuple[list[int], list]] = {}
        for i, row in enumerate(forced):
            for node, value in row.items():
                rows, vals = overrides.setdefault(node, ([], []))
                rows.append(i)
                vals.append(value)
        # each version's rows, grouped once for every node
        order = np.argsort(which, kind="stable")
        groups = np.split(order, np.searchsorted(which[order], range(1, len(versions))))
        V = _ancestor_walk(
            versions[0].graph,
            len(which),
            drawn.__getitem__,
            lambda node, P: _RowMappers(versions, groups, node),
            lambda node, m: drawn[node],
            forced=overrides,
        )
        self._built = t0 + len(which)
        self._seg = (t0, V, forced, missing, [ids[k] for k in which.tolist()])
        self._rows = None

    def _draw_rows(self, versions: list[Concept], which: np.ndarray, cuts: list[int]):
        """Phase 1: every draw of the segment's rows, in the order of a
        row-at-a-time walk, batched; row ``i`` draws with the parameters of
        ``versions[which[i]]``.

        Returns the per-node draws on ``values`` (a root's natural value, a
        continuous inner node's AR noise), per row the forced values and
        the masked features, and the temporal state before each row of
        ``cuts``, read from the nodes' paths; ``state`` moves past the
        segment's last row.
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
        drawn, noise, j = {}, {}, 0
        for node, root in walk:
            drawn[node] = noise[node] = _one_pole(draws[j + root], temporal.rho, ar[node])
            if root:
                drawn[node] = root_value_path(draws[j], noise[node], temporal, ewma[node])
            j += 1 + root
        states = [
            TemporalState(
                {node: drawn[node][k - 1] if k else x for node, x in ewma.items()},
                {node: noise[node][k - 1] if k else x for node, x in ar.items()},
            )
            for k in [*cuts, n]
        ]
        self.state = states.pop()
        # per row, one gate on each substream, then the row's payload if it
        # opens
        policy, emitted, rngs = self.policy, self.emitted_features, self.rngs
        eligible = graph.feature_nodes
        if policy.include_target:
            eligible = tuple(sorted(eligible + (graph.target,)))
        specs = [{node: self._value_spec(v, node) for node in eligible} for v in versions]
        forced = [
            draw_interventions(self.p_i, policy, eligible, specs[k], rngs.interventions)
            for k in which.tolist()
        ]
        missing = [draw_missing(self.p_m, policy, emitted, rngs.missing) for _ in range(n)]
        return drawn, forced, missing, states

    def _emit(self) -> list[Instance]:
        """The built segment's instances: Python ints for categorical nodes
        and floats for continuous ones, ``None`` for masked features."""

        t0, V, forced, missing, ids = self._seg
        concept = self.concept
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
        """The next row, building a new segment when the current one is spent
        and the segment's instances on their first read."""

        if self.t == self._built:
            self._segment()
        if self._rows is None:
            self._rows = self._emit()
        inst = self._rows[self.t - self._seg[0]]
        self.t += 1
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
    """One node's mappers in a segment whose rows come from one or more
    concept versions, read by the ancestor walk as one mapper: ``predict``
    runs each distinct mapper once, on the rows of every version that holds
    it, and relabels the target's classes by each version's permutation.
    Drift replaces only the mappers it names, so a node that no event of the
    segment names costs one call.  ``predict`` is row-independent, so a row
    gets the bits that a segment of its version alone would give it."""

    def __init__(self, versions: list[Concept], rows: list[np.ndarray], node: int):
        self.kind = versions[0].mappers[node].kind
        target = node == versions[0].graph.target
        groups: dict[tuple, tuple] = {}
        for version, r in zip(versions, rows):
            if len(r):
                m, perm = version.mappers[node], version.class_permutation if target else None
                groups.setdefault((id(m), perm), (m, perm, []))[2].append(r)
        self.groups = [(m, perm, np.concatenate(r)) for m, perm, r in groups.values()]

    def predict(self, P: np.ndarray) -> np.ndarray:
        out = np.empty(len(P))
        for m, perm, rows in self.groups:
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


def collect(gen: StreamGenerator, n: int) -> StreamFrame:
    """The next ``n`` rows of ``gen`` as arrays, sliced from its segments
    with no ``Instance`` built; ``step`` goes on from the row after them."""

    V, forced, missing, ids = [np.empty((0, gen.concept.graph.n_nodes))], [], [], []
    end = gen.t + n
    while gen.t < end:
        if gen.t == gen._built:
            gen._segment()
        t0, v, f, m, c = gen._seg
        a, b = gen.t - t0, min(end, gen._built) - t0
        gen.t += b - a
        V.append(v[a:b])
        forced += f[a:b]
        missing += m[a:b]
        ids += c[a:b]
    V = np.concatenate(V)
    emitted, task = gen.emitted_features, gen.concept.task
    X = V[:, list(emitted)]
    # every masked cell set by one assignment, not one call per row
    col = {node: j for j, node in enumerate(emitted)}
    mask = np.zeros(X.shape, dtype=bool)
    mask[[i for i, m in enumerate(missing) for _ in m], [col[v] for m in missing for v in m]] = True
    X[mask] = np.nan
    return StreamFrame(
        X=X,
        y=V[:, gen.concept.graph.target].astype(int if task == "classification" else float),
        feature_names=gen.feature_names,
        task=task,
        missing_mask=mask,
        intervened=[tuple(sorted(row)) for row in forced],
        concept_ids=ids,
    )
