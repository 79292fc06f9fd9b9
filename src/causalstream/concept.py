"""A concept binds a graph to concrete distributions and mappers.

Initialization walks the graph in topological order.  Each root draws a
distribution; each inner node draws a mapper kind (the target's kind is
forced by the task) and is fitted on a warmup simulation of its parents:
1024 steps of the same temporal process the generator will run, so fit-time
marginals match generation-time marginals even at small alpha, where root
values concentrate far below the raw distribution spread.

Nothing a concept holds is mutable, so drift builds a new concept, and
concept versions and snapshots share every mapper that no event replaces.
A snapshot is a frozen value: the concept itself and the frozen temporal
state at capture, neither copied.  Its JSON document (graph, distributions,
mapper parameters, class permutation, state) round-trips every float
exactly.  Restoring one never restores the temporal state, which keeps
dynamics continuous across recurrent drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._codec import Serializable
from .graph import CausalGraph
from .mappers import (
    CATEGORICAL_KINDS,
    CENTROID_KINDS,
    CONTINUOUS_KINDS,
    FITTABLE_KINDS,
    TARGET_FN_KINDS,
    Mapper,
    ParentStats,
    PrototypeMapper,
    RootDistribution,
    draw_target_function,
    fit_continuous_mapper,
    init_categorical_mapper,
    init_random_mlp,
)
from .temporal import TemporalParams, TemporalState, simulate_ar_noise, simulate_root_values
from .temporal import _ar_path, _root_path

__all__ = [
    "NODE_PIN_KEYS",
    "ConceptParams",
    "Concept",
    "ConceptSnapshot",
    "init_concept",
    "deterministic_label",
    "simulate_concept_samples",
]


# keys of a ``ConceptParams.nodes`` pin, each read by the initialization
NODE_PIN_KEYS = frozenset({"dist", "dist_params", "mapper", "n_classes", "distance", "target_fn"})


@dataclass(frozen=True)
class ConceptParams(Serializable):
    """Ranges and pins controlling concept initialization.

    ``nodes`` maps node id to a pin dict with keys from ``NODE_PIN_KEYS``;
    ``n_classes``, the target's class count, applies to classification only.
    The params keep read-only views of the pins, with tuples for lists.
    """

    n_classes: int = 2
    p_categorical: float = 0.25
    feature_classes_range: tuple[int, int] = (2, 5)
    centroids_per_class: tuple[int, int] = (1, 3)
    eps_scale: float = 0.05
    fit_samples: int = 1024
    mean_range: tuple[float, float] = (-5.0, 5.0)
    variance_range: tuple[float, float] = (0.25, 4.0)
    low_range: tuple[float, float] = (-5.0, 0.0)
    width_range: tuple[float, float] = (1.0, 10.0)
    nodes: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        if not 0.0 <= self.p_categorical <= 1.0:
            raise ValueError("p_categorical must lie in [0, 1]")
        if self.fit_samples < 2:
            raise ValueError("fit_samples must be at least 2")
        if self.eps_scale < 0:
            raise ValueError("eps_scale must be non-negative")
        for name in ("mean_range", "variance_range", "low_range", "width_range"):
            low, high = getattr(self, name)
            if not (np.isfinite([low, high]).all() and low <= high):
                raise ValueError(f"{name} must be finite with low <= high, not {[low, high]}")
        for node, pin in self.nodes.items():
            unknown = sorted(set(pin) - NODE_PIN_KEYS)
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r} in nodes.{node}")
        frozen = {
            node: MappingProxyType(
                {key: tuple(v) if isinstance(v, list) else v for key, v in pin.items()}
            )
            for node, pin in self.nodes.items()
        }
        object.__setattr__(self, "nodes", MappingProxyType(frozen))


@dataclass(frozen=True, eq=False)
class Concept(Serializable):
    """Everything needed to turn the graph into values at one point in time;
    it holds read-only views of copies of the two dicts it is given."""

    graph: CausalGraph
    params: ConceptParams
    temporal: TemporalParams
    root_dists: dict[int, RootDistribution]
    mappers: dict[int, Mapper]
    class_permutation: tuple[int, ...] | None

    def __post_init__(self) -> None:
        # ``copy`` and ``|`` copy a view at C speed; ``dict(view)`` does not
        object.__setattr__(self, "root_dists", MappingProxyType(self.root_dists.copy()))
        object.__setattr__(self, "mappers", MappingProxyType(self.mappers.copy()))

    def with_mapper(self, node: int, mapper: Mapper) -> "Concept":
        return replace(self, mappers=self.mappers | {node: mapper})

    def with_root_dist(self, node: int, dist: RootDistribution) -> "Concept":
        return replace(self, root_dists=self.root_dists | {node: dist})

    @property
    def task(self) -> str:
        return "regression" if self.class_permutation is None else "classification"

    @property
    def n_classes(self) -> int | None:
        if self.task == "regression":
            return None
        return self.mappers[self.graph.target].n_classes

    def is_categorical(self, node: int) -> bool:
        return (
            node in self.mappers and self.mappers[node].kind in CATEGORICAL_KINDS
        )

    @property
    def continuous_nodes(self) -> tuple[int, ...]:
        """Nodes that carry AR noise: roots plus continuous-mapped inners."""
        out = list(self.graph.roots)
        for node in self.graph.topo_order:
            if node in self.mappers and self.mappers[node].kind in CONTINUOUS_KINDS:
                out.append(node)
        return tuple(sorted(out))

    def noise_scale(self, node: int) -> float:
        """Per-node AR innovation multiplier, in the node's own output units."""
        if self.graph.is_root(node):
            return self.root_dists[node].std()
        return float(self.mappers[node].out_scale)

    def initial_state(self) -> TemporalState:
        return TemporalState.initial(self.root_dists, self.continuous_nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Concept):
            return NotImplemented
        return self.to_dict() == other.to_dict()


@dataclass(frozen=True)
class ConceptSnapshot(Serializable):
    """A concept plus the temporal state at capture, both shared with the
    stream, since neither can change.

    Restoring applies the concept only; the captured state is recorded for
    run files and inspection but deliberately not fed back into a stream.
    """

    concept: Concept
    state: TemporalState

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def deterministic_label(concept: Concept, node_values: Mapping[int, float]) -> int:
    """Noise-free label for explicit target-parent values.

    Applies the target mapper, then the concept's class permutation.  Values
    for every parent of the target must be supplied.
    """

    if concept.task != "classification":
        raise ValueError("deterministic labels exist only for classification")
    target = concept.graph.target
    parents = concept.graph.parents[target]
    try:
        vec = np.asarray([float(node_values[p]) for p in parents])
    except KeyError as missing:
        raise ValueError(f"missing value for target parent {missing}") from None
    raw = concept.mappers[target].predict(vec)
    return int(concept.class_permutation[raw])


# ---------------------------------------------------------------------------
# initialization


def _pick(menu: tuple, rng):
    return menu[int(rng.integers(len(menu)))]


def _draw_root_dist(params: ConceptParams, pin: dict, rng) -> RootDistribution:
    kind = pin.get("dist")
    if kind is None:
        kind = _pick(("normal", "uniform"), rng)
    if "dist_params" in pin:
        p1, p2 = (float(v) for v in pin["dist_params"])
        return RootDistribution(kind, p1, p2)
    if kind == "normal":
        mean = float(rng.uniform(*params.mean_range))
        var = float(rng.uniform(*params.variance_range))
        return RootDistribution("normal", mean, var)
    if kind == "uniform":
        low = float(rng.uniform(*params.low_range))
        width = float(rng.uniform(*params.width_range))
        return RootDistribution("uniform", low, low + width)
    raise ValueError(f"unknown distribution kind {kind!r}")


def _categorical_menu(n_classes: int) -> tuple[str, ...]:
    return CATEGORICAL_KINDS if n_classes == 2 else CENTROID_KINDS


def _resolve_inner_kind(
    node: int, target: int, task: str, params: ConceptParams, pin: dict, rng
) -> tuple[str, int | None]:
    """Returns (mapper kind, n_classes or None) for an inner node."""

    pinned = pin.get("mapper")
    if node == target:
        if task == "classification":
            if pinned is not None and pinned not in CATEGORICAL_KINDS:
                raise ValueError(
                    f"target {node} pinned to {pinned!r}; classification "
                    "requires a categorical mapper"
                )
            return pinned or _pick(_categorical_menu(params.n_classes), rng), params.n_classes
        if pinned is not None and pinned not in CONTINUOUS_KINDS:
            raise ValueError(
                f"target {node} pinned to {pinned!r}; regression requires "
                "a continuous mapper"
            )
        return pinned or _pick(FITTABLE_KINDS, rng), None
    if pinned is not None and pinned not in CATEGORICAL_KINDS + CONTINUOUS_KINDS:
        raise ValueError(f"unknown mapper kind {pinned!r} pinned on node {node}")
    if pinned in CONTINUOUS_KINDS or (pinned is None and rng.random() >= params.p_categorical):
        return pinned or _pick(CONTINUOUS_KINDS, rng), None
    lo, hi = params.feature_classes_range
    # a pinned class count is honoured only on a node whose kind is pinned
    ncls = (int(pin.get("n_classes", 0)) if pinned else 0) or int(rng.integers(lo, hi + 1))
    kind = pinned or _pick(_categorical_menu(ncls), rng)
    if kind == "hyperplane" and ncls != 2:
        raise ValueError("hyperplane feature nodes must be binary")
    return kind, ncls


def _init_mapper(node: int, graph: CausalGraph, task: str, params: ConceptParams, P, rng):
    """Draw the kind of inner ``node``, then fit its mapper on parent sample ``P``."""

    pin = params.nodes.get(node, {})
    kind, ncls = _resolve_inner_kind(node, graph.target, task, params, pin, rng)
    if kind in CATEGORICAL_KINDS:
        stats = ParentStats.from_samples(P)
        distance = pin.get("distance")
        if kind == "prototype" and distance is None:
            distance = _pick(PrototypeMapper.DISTANCES, rng)
        return init_categorical_mapper(
            kind,
            ncls,
            stats,
            rng,
            n_centroids_range=params.centroids_per_class,
            distance=distance or "euclidean",
        )
    if kind == "random-mlp":
        return init_random_mlp(P.shape[1], rng).calibrate(P)
    fn_kind = pin.get("target_fn")
    if fn_kind is None:
        fn_kind = _pick(TARGET_FN_KINDS, rng)
    elif fn_kind not in TARGET_FN_KINDS:
        raise ValueError(f"unknown target function {fn_kind!r} on node {node}")
    fn = draw_target_function(fn_kind, P.shape[1], rng)
    return fit_continuous_mapper(kind, P, fn, rng, eps_scale=params.eps_scale)


def _ancestor_walk(
    graph, n, root, mapper, noise, permutation=None, forced=None, nodes=None
) -> np.ndarray:
    """Every node's value on ``n`` rows, one batched ``predict`` per inner
    node in topological order; column ``j`` holds node ``j``.

    ``root(node)`` gives a root's column and ``mapper(node, P)`` an inner
    node's mapper for its parent columns ``P``; ``noise(node, m)`` gives the
    additive noise of a continuous node after its mapper.  The callbacks run
    in topological order, so callers that draw from one generator keep their
    draw order.  ``permutation`` relabels the target's classes, and
    ``forced`` maps a node to the (rows, values) that overwrite its column
    before its children read it.  With ``nodes`` given, the walk computes
    only those nodes and their ancestors, and calls the callbacks for them
    alone; the other columns are left empty.
    """

    order = graph.topo_order
    if nodes is not None:
        wanted = set(nodes).union(*map(graph.ancestors, nodes))
        order = [node for node in order if node in wanted]
    V = np.empty((n, graph.n_nodes))
    for node in order:
        if graph.is_root(node):
            V[:, node] = root(node)
        else:
            P = V[:, graph.parents[node]]
            m = mapper(node, P)
            out = m.predict(P)
            if m.kind in CONTINUOUS_KINDS:
                out = out + noise(node, m)
            elif node == graph.target and permutation is not None:
                out = np.asarray(permutation)[out]
            V[:, node] = out
        if forced and node in forced:
            rows, vals = forced[node]
            V[rows, node] = vals
    return V


def _init_once(
    graph: CausalGraph, params: ConceptParams, temporal: TemporalParams, task: str, rng
) -> Concept:
    root_dists: dict[int, RootDistribution] = {}
    mappers: dict[int, object] = {}

    n = params.fit_samples

    def draw_root(node):
        root_dists[node] = _draw_root_dist(params, params.nodes.get(node, {}), rng)
        return simulate_root_values(n, root_dists[node], temporal, rng)

    def init_mapper(node, P):
        mappers[node] = _init_mapper(node, graph, task, params, P, rng)
        return mappers[node]

    _ancestor_walk(graph, n, draw_root, init_mapper, _ar_noise(n, temporal, rng))
    permutation = tuple(range(params.n_classes)) if task == "classification" else None
    return Concept(
        graph=graph,
        params=params,
        temporal=temporal,
        root_dists=root_dists,
        mappers=mappers,
        class_permutation=permutation,
    )


def init_concept(
    graph: CausalGraph,
    params: ConceptParams,
    rng: np.random.Generator,
    temporal: TemporalParams | None = None,
    task: str = "classification",
) -> Concept:
    """Initialize a concept for ``task``, retrying on a fresh seed if a fit fails.

    There are up to four tries.  The first two take the two seeds that
    ``rng`` gives first; a later try draws its seed from ``rng`` only then,
    so a concept that builds within two tries leaves ``rng`` where it always
    did.
    """

    if task not in ("classification", "regression"):
        raise ValueError(f"unknown task {task!r}")
    temporal = temporal if temporal is not None else TemporalParams()
    seeds = rng.integers(0, 2**63, size=2, dtype=np.uint64)
    for attempt in range(4):
        seed = seeds[attempt] if attempt < 2 else rng.integers(0, 2**63, dtype=np.uint64)
        try:
            return _init_once(graph, params, temporal, task, np.random.default_rng(int(seed)))
        except ValueError as e:
            constant = temporal.alpha == temporal.sigma == 0
            if attempt and constant and "degenerate parent box" in str(e):
                raise ValueError(
                    f"{e}: temporal alpha = 0 and sigma = 0 hold every node at a "
                    "constant, so a categorical node has no parent spread to fit"
                ) from e
            if attempt == 3:
                raise


def simulate_concept_samples(
    concept: Concept,
    n: int,
    rng: np.random.Generator,
    nodes: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Fresh ancestor simulation with the concept's current parameters.

    Walks the same warmup process used at fit time, and relabels the target
    by the concept's class permutation, as the stream does.  With ``nodes``
    given, only those nodes and their ancestors are computed (a drift refit
    reads one node's parents), but every draw of every node up to the last
    of ``nodes`` in topological order is made, in walk order: a root's
    thetas and then its innovations, a continuous inner node's innovations.
    So ``rng`` ends as a full walk that stops there leaves it, and each
    computed column has that walk's bits.
    """

    graph, temporal = concept.graph, concept.temporal
    walked = graph.topo_order
    if nodes is not None:
        walked = walked[: 1 + max(map(walked.index, nodes))]
    theta, eps = {}, {}
    for node in walked:
        if graph.is_root(node):
            theta[node] = concept.root_dists[node].sample(rng, size=n)
        elif concept.is_categorical(node):
            continue
        eps[node] = rng.normal(0.0, temporal.sigma * concept.noise_scale(node), size=n)
    return _ancestor_walk(
        graph,
        n,
        lambda node: _root_path(
            theta[node], _ar_path(eps[node], temporal), temporal, concept.root_dists[node].mean()
        ),
        lambda node, P: concept.mappers[node],
        lambda node, m: _ar_path(eps[node], temporal),
        concept.class_permutation,
        nodes=nodes,
    )


def _ar_noise(n: int, temporal: TemporalParams, rng):
    """The walk's noise callback: ``n`` AR(1) draws in the node's output units."""
    return lambda node, m: simulate_ar_noise(n, temporal, rng, sigma_scale=m.out_scale)
