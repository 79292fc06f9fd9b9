"""Streaming engine: drift-schedule execution, temporal state, per-instance
interventions and missingness, and value propagation through the graph.

The temporal state never reads a node's value, so the engine builds the
stream in segments: one walk over a segment's rows, in row order, makes
each row's schedule, intervention and missingness draws, each on its own
substream, and gives the row its concept version; the draws on the values
substream are then made in batches, in the order of a row-at-a-time walk,
each row with its version's parameters, and every node is computed for all
of its rows with one batched ``predict`` per mapper.  The walk records the
nodes each version moves, and both phases read that record (see
``StreamGenerator``).

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

# rows per segment at most; a segment also ends at the stream's length, and
# nowhere else.  Larger segments batch more rows per ``predict`` call, but
# the engine may build up to one segment past the last row a consumer asks
# for.
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
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
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

    ``config`` gives the run's schedule, policy, rates and length.  A
    segment runs from the first unbuilt row for ``_SEGMENT_ROWS`` rows, or
    to ``config.dataset_size`` if that comes first; drift events and
    windows do not end it.  ``_walk`` makes every per-row draw but the
    values in one pass and gives each row its concept version, recording
    for each version the nodes whose source it replaced.  The segment is
    then built in two phases, each of which reads that record:

    1. the draws on ``values``, in the order of a row-at-a-time walk (see
       ``spawn_streams``): one call per run of normal or uniform draws,
       scaled by each row's version, then each node's temporal recursion
       over its column, carried from ``state`` with the float operations of
       ``root_value_step`` and ``ar_noise_step``;
    2. the ancestor walk, which also serves concept init and drift
       re-simulation: per inner node in topological order, one batched
       ``predict`` per version that moved the node, on the rows it holds;
       forced values overwrite their rows before the children read them.

    Temporal state never reads a node's value, so phase 1 needs no mapper;
    every ``predict`` gives a row the same bits however many rows share the
    call, so a stream's bytes do not depend on where segments end.  Each
    concept an event completes, a window's at the window's end, is
    snapshotted with the temporal state after the row before it.  The built
    segment is the one row buffer of two readers: ``step``, ``take`` and
    iteration build its ``Instance``s on their first read of it, and
    ``collect`` slices its arrays and builds none; either goes on from the
    row the other stopped at.  ``concept``, ``state`` and the substreams may
    run up to one segment ahead of the rows handed out, but a consumer that
    takes ``config.dataset_size`` rows leaves nothing built past them.
    """

    def __init__(
        self,
        config: GeneratorConfig,
        concept: Concept,
        rngs: StreamRngs,
        emitted_features: tuple[int, ...],
    ):
        validate_schedule_against(config.schedule, concept)
        self._config = config
        self.policy = config.policy or InterventionPolicy()
        self.concept = concept
        self.rngs = rngs
        self.state = concept.initial_state()
        self.emitted_features = emitted_features
        extra = (concept.graph.target,) if self.policy.include_target else ()
        self._eligible = tuple(sorted(concept.graph.feature_nodes + extra))
        self.feature_names = tuple(f"x{i + 1}" for i in range(len(emitted_features)))
        # ``t`` is the next row handed out; ``_built`` the next row the
        # engine builds
        self.t = 0
        self._built = 0
        # the segment that ends at ``_built``: its first row, node values,
        # intervened nodes, masked features and row concept ids; ``_rows`` holds
        # its instances once ``step`` has read it
        self._seg: tuple | None = None
        self._rows: list[Instance] | None = None
        self.snapshots: dict[str, ConceptSnapshot] = {}
        self._concept_id = concept_id(0)
        self.snapshots[self._concept_id] = ConceptSnapshot(concept, self.state)
        self._next_event = 0
        # the open gradual or incremental window, if any (windows are
        # disjoint): its spec, its concept id, a gradual window's endpoint or
        # an incremental one's plan, and the nodes the endpoint or a step moves
        self._window: tuple | None = None

    # -- the event walk ------------------------------------------------------

    def _walk(self) -> tuple:
        """Plan the next segment in one pass over its rows, in row order;
        the pass makes each row's schedule, intervention and missingness
        draws, each on its own substream.

        At each row the walk closes the open window if it ends there, then
        applies the event that starts there, on the schedule substream: an
        abrupt or recurrent event adds a concept version, a gradual event
        adds its endpoint and an incremental event opens its plan.  Then it
        gives the row its version: the current one; in a gradual window the
        start concept or the endpoint, by the row's ``gradual_selector``
        draw; in an incremental window a version of its own, from the row's
        ``incremental_step``.  Last, ``draw_interventions`` draws the row's
        forced values from its version and ``draw_missing`` its masked
        features.  Each version records the nodes it moved: the segment's
        first every node, an incremental step its plan's nodes, any other
        version those of one identity diff per event (``_moved``).

        Returns the versions, the moved nodes and concept id of each, and
        each row's version; per concept an event completed, in row order,
        its version and the row before which its snapshot's state is read;
        per forced node the (rows, values) that overwrite its column; per
        row its intervened nodes and its masked features, each sorted.
        """

        t0, size = self._built, self._config.dataset_size
        n = min(_SEGMENT_ROWS, size - t0) if t0 < size else _SEGMENT_ROWS
        events, e, rng = self._config.schedule.events, self._next_event, self.rngs.schedule
        versions, moved, ids = [self.concept], [self.concept.graph.topo_order], [self._concept_id]
        which, done, forced, intervened, missing = [], {}, {}, [], []
        p_i, p_m, policy, rngs = self._config.p_i, self._config.p_m, self.policy, self.rngs
        eligible, emitted = self._eligible, self.emitted_features
        window = self._window
        if window is not None and window[0].rate == "gradual":
            versions.append(window[2])
            moved.append(window[3])
            ids.append(window[1])
        for i, t in enumerate(range(t0, t0 + n)):
            if window is not None and t == window[0].t_end:
                # the endpoint, or the last step, which sits exactly on it
                done[window[1]] = (len(versions) - 1, i)
                window = None
            if e < len(events) and events[e].t_start == t:
                spec, e = events[e], e + 1
                event_id = concept_id(e)
                if spec.kind == "recurrent":
                    sid = spec.snapshot_id
                    # a concept completed in this segment has no snapshot yet
                    was = versions[done[sid][0]] if sid in done else self.snapshots[sid].concept
                    shift = apply_recurrent(versions[-1], was)
                elif spec.rate == "abrupt":
                    shift = apply_abrupt(versions[-1], spec, rng)
                else:
                    begin = begin_gradual if spec.rate == "gradual" else begin_incremental
                    shift = begin(versions[-1], spec, rng)
                if spec.rate == "incremental":
                    window = (spec, event_id, shift, {node for node, _ in shift.steppers})
                else:
                    moved.append(_moved(versions[-1], shift))
                    versions.append(shift)
                    ids.append(event_id)
                    if spec.rate == "abrupt":
                        done[event_id] = (len(versions) - 1, i)
                    else:
                        window = (spec, event_id, shift, moved[-1])
            if window is None:
                which.append(len(versions) - 1)
            elif window[0].rate == "gradual":
                which.append(len(versions) - 2 + gradual_selector(t, window[0], rng))
            else:
                spec, event_id, plan, steps = window
                versions.append(incremental_step(versions[-1], plan, t - spec.t_start, rng))
                moved.append(steps)
                ids.append(event_id)
                which.append(len(versions) - 1)
            row = draw_interventions(p_i, policy, eligible, versions[which[-1]], rngs.interventions)
            for node, value in row.items():
                rows, vals = forced.setdefault(node, ([], []))
                rows.append(i)
                vals.append(value)
            intervened.append(tuple(row))
            missing.append(draw_missing(p_m, policy, emitted, rngs.missing))
        self._next_event, self._window = e, window
        # inside a gradual window the current concept is its start
        k = -2 if window is not None and window[0].rate == "gradual" else -1
        self.concept, self._concept_id = versions[k], ids[k]
        return versions, moved, ids, np.array(which), done, forced, intervened, missing

    # -- the segment engine --------------------------------------------------

    def _segment(self) -> None:
        """Walk the next segment's events, then build its rows and snapshot
        each concept that an event completed in it."""

        t0 = self._built
        versions, moved, ids, which, done, forced, intervened, missing = self._walk()
        drawn, states = self._draw_rows(versions, moved, which, [i for _, i in done.values()])
        for (event_id, (k, _)), state in zip(done.items(), states):
            self.snapshots[event_id] = ConceptSnapshot(versions[k], state)
        runs = {}  # per node, the versions that moved it, in order
        for k, nodes in enumerate(moved):
            for node in nodes:
                runs.setdefault(node, []).append(k)
        V = _ancestor_walk(
            versions[0].graph,
            len(which),
            drawn.__getitem__,
            lambda node, P: _RowMappers(versions, runs[node], which, node),
            lambda node, m: drawn[node],
            forced=forced,
        )
        self._built = t0 + len(which)
        self._seg = (t0, V, intervened, missing, [ids[k] for k in which.tolist()])
        self._rows = None

    def _draw_rows(self, versions: list[Concept], moved: list, which: np.ndarray, cuts: list[int]):
        """Phase 1: every draw of the segment's rows on the values
        substream, in the order of a row-at-a-time walk, batched; row ``i``
        draws with the parameters of ``versions[which[i]]``.  ``_walk`` has
        made the rows' draws on every other substream.

        Returns the per-node draws (a root's natural value, a continuous
        inner node's AR noise) and the temporal state before each row of
        ``cuts``, read from the nodes' paths; ``state`` moves past the
        segment's last row.
        """

        n, temporal = len(which), versions[0].temporal
        walk, loc, scale, uniform = _draw_params(versions, moved, which)
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
        return drawn, states

    def _emit(self) -> list[Instance]:
        """The built segment's instances: Python ints for categorical nodes
        and floats for continuous ones, ``None`` for masked features."""

        t0, V, intervened, missing, ids = self._seg
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
            Instance(t0 + i, f, y, v, intervened[i], missing[i], ids[i])
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


def _moved(was: Concept, now: Concept) -> set[int]:
    """The nodes whose source ``now`` replaced in ``was``: a root's
    distribution, an inner node's mapper, or the target's class permutation."""

    moved = {node for node, m in now.mappers.items() if m is not was.mappers[node]}
    moved.update(node for node, d in now.root_dists.items() if d is not was.root_dists[node])
    if now.class_permutation != was.class_permutation:
        moved.add(now.graph.target)
    return moved


def _draw_params(versions: list[Concept], moved: list, which: np.ndarray) -> tuple:
    """Each row's draws on ``values``: per continuous node in topological
    order, a root's natural value, then the node's AR innovation.  Returns
    the walk of (node, is root), each row's draw locs and scales, from its
    version, and whether each draw is uniform.  No drift changes which draws
    a row makes, and a node's loc and scale read only its source, so a
    version recomputes only the nodes ``moved`` records for it.
    """

    first, walk, slot, size = versions[0], [], {}, 0
    for node in first.graph.topo_order:
        if not first.is_categorical(node):
            walk.append((node, node in first.root_dists))
            slot[node], size = size, size + 1 + walk[-1][1]
    loc, scale = np.zeros((2, len(versions), size))
    uniform = [False] * size
    for k, (concept, nodes) in enumerate(zip(versions, moved)):
        # a version starts from the one before it; the first moves every node
        loc[k], scale[k] = loc[k - 1], scale[k - 1]
        for node in slot.keys() & nodes:
            i = slot[node]
            dist = concept.root_dists.get(node)
            if dist is not None:
                normal = dist.kind == "normal"
                loc[k, i], uniform[i] = dist.p1, not normal
                scale[k, i] = dist.std() if normal else dist.p2 - dist.p1
                i += 1
            scale[k, i] = concept.temporal.sigma * concept.noise_scale(node)
    return walk, loc[which], scale[which], uniform


class _RowMappers:
    """One node's mappers in a segment, read by the ancestor walk as one
    mapper.  ``runs`` lists the versions that moved the node; a row takes
    the mapper, and on the target the class permutation, of the last of
    them at or before its own version.  ``predict`` runs each once, on its
    rows, and is row-independent: a row gets the bits that a segment of its
    version alone would give it."""

    def __init__(self, versions: list[Concept], runs: list[int], which: np.ndarray, node: int):
        self.kind = versions[0].mappers[node].kind
        target, self.groups = node == versions[0].graph.target, []
        # each row's run, counted from 1; a node with one run has every row in it
        run = np.searchsorted(runs, which, side="right") if len(runs) > 1 else None
        for j, k in enumerate(runs, 1):
            rows = slice(None) if run is None else np.flatnonzero(run == j)
            if run is None or len(rows):
                perm = versions[k].class_permutation if target else None
                self.groups.append((versions[k].mappers[node], perm, rows))

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

    rngs = spawn_streams(config.seed)
    graph = config.graph or build_dag(
        config.d, config.n_roots, config.min_parents, config.max_parents, rngs.init
    )
    params = config.concept or ConceptParams()
    concept = init_concept(graph, params, rngs.init, temporal=config.temporal, task=config.task)
    for node in config.policy.values if config.policy else ():
        if node not in range(graph.n_nodes) or concept.is_categorical(node):
            raise ConfigError(
                f"policy.values.{node}: node {node} is not a continuous node of the graph"
            )
    emitted = graph.feature_nodes
    if config.feature_subsample is not None:
        feats = graph.feature_nodes
        idx = rngs.init.choice(len(feats), size=config.feature_subsample, replace=False)
        emitted = tuple(sorted(feats[int(i)] for i in idx))
    return StreamGenerator(config, concept, rngs, emitted)


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

    V, intervened, missing, ids = [np.empty((0, gen.concept.graph.n_nodes))], [], [], []
    end = gen.t + n
    while gen.t < end:
        if gen.t == gen._built:
            gen._segment()
        t0, v, f, m, c = gen._seg
        a, b = gen.t - t0, min(end, gen._built) - t0
        gen.t += b - a
        V.append(v[a:b])
        intervened += f[a:b]
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
        intervened=intervened,
        concept_ids=ids,
    )
