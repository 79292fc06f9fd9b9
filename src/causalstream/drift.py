"""Concept drift events, intervention policies, and their application.

A shift event carries one or more actions applied atomically: the paper-style
schedules pair e.g. a centroid move with a target-function change in a single
event.  Event windows ``[t_start, t_start + duration)`` never overlap.

Rates: ``abrupt`` events apply instantly (duration 1).  ``gradual`` events
keep the old and new concept alive over the window and pick, per instance,
which one generates it (linear ramp).  ``incremental`` events interpolate
numeric parameters toward the endpoint in equal fractions per step, and the
last step puts the endpoint itself.  The endpoint comes from the plan: a
mechanism's plan makes the endpoint's draws, and its abrupt event is that
plan run to the end at once, so both rates land on the same concept bit for
bit.  An sgd-linear target-function change instead takes one partial-fit
step per instance on a sample from the new function; its abrupt event is a
full refit.
``recurrent`` events restore an earlier concept snapshot, never its temporal
state.  The initial concept is ``concept0`` and the k-th event completes
``concept<k>``, so a recurrent event may name only a concept of an earlier
event.

Every mechanism is one entry of the ``_MECHANISMS`` table: the shift kinds it
serves, what it may act on (a root, the label or mapper kinds), its
incremental plan, an abrupt apply where the abrupt event is not the plan run
to the end, and its parameter check.  Event validation, abrupt application
and incremental plans all read the table, so a new mechanism is added there
and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._codec import Serializable
from .concept import (
    Concept,
    ConceptSnapshot,
    restore_concept,
    simulate_concept_samples,
)
from .mappers import (
    CENTROID_KINDS,
    FITTABLE_KINDS,
    TARGET_FN_KINDS,
    ParentStats,
    PrototypeMapper,
    RootDistribution,
    copy_mapper,
    draw_target_function,
    eval_target_function,
    fit_continuous_mapper,
)

__all__ = [
    "MECHANISMS",
    "SHIFT_KINDS",
    "SHIFT_RATES",
    "ShiftAction",
    "ShiftSpec",
    "DriftSchedule",
    "InterventionPolicy",
    "concept_id",
    "apply_abrupt",
    "apply_recurrent",
    "begin_gradual",
    "gradual_selector",
    "begin_incremental",
    "incremental_step",
    "IncrementalPlan",
    "draw_interventions",
    "draw_missing",
    "validate_schedule_against",
]

SHIFT_KINDS = ("distributional", "covariate", "severe", "local", "recurrent")
SHIFT_RATES = ("abrupt", "gradual", "incremental")


@dataclass(frozen=True)
class ShiftAction(Serializable):
    mechanism: str
    node: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mechanism not in _MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if _MECHANISMS[self.mechanism].targets == (_LABEL,):
            if self.node is not None:
                raise ValueError(f"{self.mechanism} acts on the label, not a node")
        elif self.node is None:
            raise ValueError(f"{self.mechanism} needs a node")


@dataclass(frozen=True)
class ShiftSpec(Serializable):
    kind: str
    rate: str
    t_start: int
    duration: int = 1
    actions: tuple[ShiftAction, ...] = ()
    snapshot_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if self.rate not in SHIFT_RATES:
            raise ValueError(f"unknown shift rate {self.rate!r}")
        if self.t_start < 0:
            raise ValueError("t_start must be non-negative")
        if self.duration < 1:
            raise ValueError("duration must be at least 1")
        if (self.rate == "abrupt") != (self.duration == 1):
            raise ValueError("abrupt events have duration 1, and only they do")
        if self.kind == "recurrent":
            if self.snapshot_id is None:
                raise ValueError("recurrent shift needs a snapshot id")
            if self.actions:
                raise ValueError("recurrent shift takes no actions")
            if self.rate != "abrupt":
                raise ValueError("recurrent shifts are abrupt")
            return
        if self.snapshot_id is not None:
            raise ValueError("snapshot id is only for recurrent shifts")
        if not self.actions:
            raise ValueError("shift needs at least one action")
        for action in self.actions:
            mech = _MECHANISMS[action.mechanism]
            if self.kind not in mech.shift_kinds:
                raise ValueError(f"{self.kind} shift cannot use {action.mechanism!r}")
            if self.rate == "incremental" and mech.plan is None:
                raise ValueError(f"{action.mechanism!r} cannot be applied incrementally")
        if self.kind in ("local", "severe") and len(self.actions) != 1:
            raise ValueError(f"{self.kind} shift takes exactly one action")

    @property
    def t_end(self) -> int:
        return self.t_start + self.duration


def concept_id(k: int) -> str:
    """Id of the concept completed by the k-th event; 0 is the initial one."""
    return f"concept{k}"


@dataclass(frozen=True)
class DriftSchedule(Serializable):
    events: tuple[ShiftSpec, ...] = ()

    def __post_init__(self) -> None:
        starts = [e.t_start for e in self.events]
        if starts != sorted(starts):
            raise ValueError("events must be sorted by t_start")
        for a, b in zip(self.events, self.events[1:]):
            if a.t_end > b.t_start:
                raise ValueError(
                    f"event windows overlap: [{a.t_start},{a.t_end}) and "
                    f"[{b.t_start},{b.t_end})"
                )
        # events are sorted and disjoint, so every earlier event has
        # completed its concept when a recurrent event starts
        for k, e in enumerate(self.events, start=1):
            if e.kind == "recurrent" and e.snapshot_id not in map(concept_id, range(k)):
                raise ValueError(
                    f"recurrent event at t={e.t_start} restores {e.snapshot_id!r}, "
                    f"which is not a concept completed before it"
                )

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class InterventionPolicy(Serializable):
    """How many nodes a forced or masked row picks (the run's ``p_i`` and
    ``p_m`` give the chances of each row), and the forced values.

    ``values`` maps a node id to the spec its forced values are drawn from,
    ``{"dist": "normal", "params": [mean, std]}`` or
    ``{"dist": "uniform", "params": [low, high]}``.
    """

    count_range: tuple[int, int] = (1, 3)
    include_target: bool = False
    values: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lo, hi = self.count_range
        if not 1 <= lo <= hi <= 3:
            raise ValueError("count range must lie within [1, 3]")
        for node, spec in self.values.items():
            unknown = sorted(set(spec) - {"dist", "params"})
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r} in values.{node}")
            if spec.get("dist") not in ("normal", "uniform"):
                raise ValueError(f"values.{node}: forced-value dist must be normal or uniform")
            params = spec.get("params")
            if not (
                isinstance(params, (list, tuple))
                and len(params) == 2
                and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in params)
            ):
                raise ValueError(f"values.{node}: params must be two numbers")
            if spec["dist"] == "normal" and params[1] < 0:
                raise ValueError(f"values.{node}: a normal spec needs a non-negative std")


# ---------------------------------------------------------------------------
# mechanisms
#
# A plan draws the endpoint of an incremental window up front and returns a
# stepper ``step(concept, frac, rng)`` that moves the concept to fraction
# ``frac`` of the way there, and onto the endpoint itself at ``frac = 1``.
# An abrupt event runs the plan to ``frac = 1`` at once, so both rates reach
# the same endpoint with the same draws.  Only a mechanism without a plan,
# or whose plan steps toward its endpoint by samples (the sgd-linear
# refit), has an abrupt apply of its own.

_ROOT = "root"
_LABEL = "label"


def _parent_matrix(concept: Concept, node: int, rng) -> np.ndarray:
    """Fresh ancestor sample of ``node``'s parents under the current concept."""

    parents = concept.graph.parents[node]
    sim = simulate_concept_samples(concept, concept.params.fit_samples, rng, nodes=parents)
    return sim[:, parents]


def _new_target_fn_kind(concept: Concept, node: int, params: dict, rng) -> str:
    kind = params.get("target_fn")
    if kind is None:
        current = concept.mappers[node].fitted_target
        menu = [k for k in TARGET_FN_KINDS if current is None or k != current.kind]
        kind = menu[int(rng.integers(len(menu)))]
    return kind


def _check_refit(concept: Concept, params: dict) -> None:
    if params.get("target_fn") not in (None, *TARGET_FN_KINDS):
        raise ValueError(f"unknown target function {params['target_fn']!r}")


def _refit(concept: Concept, action: ShiftAction, rng) -> None:
    node, kind = action.node, concept.mappers[action.node].kind
    fn_kind = _new_target_fn_kind(concept, node, action.params, rng)
    P = _parent_matrix(concept, node, rng)
    fn = draw_target_function(fn_kind, P.shape[1], rng)
    concept.mappers[node] = fit_continuous_mapper(
        kind, P, fn, rng, eps_scale=concept.params.eps_scale
    )


def _plan_sgd_refit(concept: Concept, action: ShiftAction, rng):
    """One partial-fit step per instance toward a new target function."""

    node, mapper = action.node, concept.mappers[action.node]
    fn_kind = _new_target_fn_kind(concept, node, action.params, rng)
    fn = draw_target_function(fn_kind, mapper.n_inputs, rng)
    mapper.reset_partial_schedule()

    def step(c: Concept, frac: float, rng) -> None:
        m = c.mappers[node]
        z = rng.normal(size=m.n_inputs)
        m.partial_fit(z, float(eval_target_function(fn, z)))
        if frac >= 1.0:
            m.fitted_target = fn

    return step


def _lerp(put, start: list, end: list):
    """Stepper that puts ``start + frac * (end - start)``, item by item, and
    ``end`` itself from ``frac = 1`` on."""

    def step(c: Concept, frac: float, rng) -> None:
        put(c, end if frac >= 1.0 else [s + frac * (e - s) for s, e in zip(start, end)])

    return step


def _plan_reinit(concept: Concept, action: ShiftAction, rng):
    node, mapper = action.node, concept.mappers[action.node]
    end = copy_mapper(mapper)
    end.reinit(rng)

    def put(c: Concept, vals: list) -> None:
        m = c.mappers[node]
        m.W1, m.b1, m.w2 = vals[:3]
        m.b2 = float(vals[3])

    start = [mapper.W1.copy(), mapper.b1.copy(), mapper.w2.copy(), mapper.b2]
    return _lerp(put, start, [end.W1, end.b1, end.w2, end.b2])


def _plan_move_prototypes(concept: Concept, action: ShiftAction, rng):
    node, mapper = action.node, concept.mappers[action.node]
    end = copy_mapper(mapper)
    P = _parent_matrix(concept, node, rng)
    end.move_centroids(rng, ParentStats.from_samples(P))

    def put(c: Concept, vals: list) -> None:
        c.mappers[node].centroids = vals[0]
        c.mappers[node].stats = end.stats

    return _lerp(put, [mapper.centroids.copy()], [end.centroids])


def _check_distance(concept: Concept, params: dict) -> None:
    if params.get("distance") not in (None, *PrototypeMapper.DISTANCES):
        raise ValueError(f"unknown distance {params['distance']!r}")


def _change_distance(concept: Concept, action: ShiftAction, rng) -> None:
    mapper = concept.mappers[action.node]
    new = action.params.get("distance")
    if new is None:
        new = "manhattan" if mapper.distance == "euclidean" else "euclidean"
    mapper.distance = new


def _orthogonal_unit(w: np.ndarray, rng) -> np.ndarray:
    if w.shape[0] == 1:
        return np.zeros(1)
    for _ in range(8):
        v = rng.normal(size=w.shape[0])
        v = v - (v @ w) / (w @ w) * w
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm
    raise ValueError("could not draw a direction orthogonal to the hyperplane")


def _rotation(mapper, params: dict, rng) -> tuple[float, np.ndarray]:
    """(angle in radians, unit direction orthogonal to ``w``); angle first."""

    angle = params.get("angle_deg")
    if angle is None:
        angle = float(rng.uniform(30.0, 150.0))
    return np.deg2rad(float(angle)), _orthogonal_unit(mapper.w, rng)


def _plan_rotate(concept: Concept, action: ShiftAction, rng):
    node, mapper = action.node, concept.mappers[action.node]
    angle, u = _rotation(mapper, action.params, rng)
    w0 = mapper.w.copy()

    def step(c: Concept, frac: float, rng) -> None:
        m = c.mappers[node]
        m.w = w0
        m.rotate(frac * angle, u)

    return step


def _check_swap(concept: Concept, params: dict) -> None:
    n = concept.n_classes
    if n is None:
        raise ValueError("swap-classes requires a classification concept")
    c1, c2 = params.get("c1"), params.get("c2")
    if (c1 is None) != (c2 is None):
        raise ValueError("swap-classes needs both c1 and c2, or neither")
    if c1 is not None:
        c1, c2 = int(c1), int(c2)
        if c1 == c2 or not (0 <= c1 < n and 0 <= c2 < n):
            raise ValueError(f"cannot swap classes {c1} and {c2} of {n}")


def _swap_classes(concept: Concept, action: ShiftAction, rng) -> None:
    c1, c2 = action.params.get("c1"), action.params.get("c2")
    if c1 is None:
        c1, c2 = rng.choice(concept.n_classes, size=2, replace=False)
    swap = {int(c1): int(c2), int(c2): int(c1)}
    concept.class_permutation = tuple(swap.get(v, v) for v in concept.class_permutation)


# root-params keys that take a number; ``low`` and ``high`` can only be
# checked against each other once the event knows the distribution
_ROOT_NUMBERS = ("shift_std", "scale_factor", "mean", "variance", "low", "high")


def _check_root(concept: Concept, params: dict) -> None:
    for key in _ROOT_NUMBERS:
        if key not in params:
            continue
        try:
            value = float(params[key])
        except (TypeError, ValueError):
            raise ValueError(f"root-params {key} must be a number, not {params[key]!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"root-params {key} must be finite")
        if key in ("scale_factor", "variance") and value <= 0:
            raise ValueError(f"{key} must be positive")


def _shift_root_dist(
    dist: RootDistribution, params: dict, concept: Concept, rng
) -> RootDistribution:
    if params.get("redraw"):
        cp = concept.params
        if dist.kind == "normal":
            return RootDistribution(
                "normal",
                float(rng.uniform(*cp.mean_range)),
                float(rng.uniform(*cp.variance_range)),
            )
        low = float(rng.uniform(*cp.low_range))
        return RootDistribution("uniform", low, low + float(rng.uniform(*cp.width_range)))
    p1, p2 = dist.p1, dist.p2
    if "shift_std" in params:
        delta = float(params["shift_std"]) * dist.std()
        p1 += delta
        if dist.kind == "uniform":
            p2 += delta
    if "scale_factor" in params:
        f = float(params["scale_factor"])
        if dist.kind == "normal":
            p2 *= f * f
        else:
            c = (p1 + p2) / 2.0
            half = (p2 - p1) / 2.0 * f
            p1, p2 = c - half, c + half
    if dist.kind == "normal":
        p1 = float(params.get("mean", p1))
        p2 = float(params.get("variance", p2))
    else:
        p1 = float(params.get("low", p1))
        p2 = float(params.get("high", p2))
    return RootDistribution(dist.kind, p1, p2)


def _plan_root(concept: Concept, action: ShiftAction, rng):
    node, start = action.node, concept.root_dists[action.node]
    end = _shift_root_dist(start, action.params, concept, rng)

    def put(c: Concept, vals: list) -> None:
        c.root_dists[node] = RootDistribution(start.kind, float(vals[0]), float(vals[1]))

    return _lerp(put, [start.p1, start.p2], [end.p1, end.p2])


@dataclass(frozen=True)
class _Mechanism:
    shift_kinds: tuple[str, ...]
    # what the action's node may be: _ROOT, _LABEL or mapper kinds
    targets: tuple[str, ...]
    plan: Callable | None = None
    # the abrupt apply, for a mechanism whose abrupt event is not its plan
    # run to the end
    apply: Callable | None = None
    check: Callable | None = None
    # narrower targets for the incremental plan, when they differ
    plan_targets: tuple[str, ...] | None = None

    def abrupt(self, concept: Concept, action: ShiftAction, rng) -> None:
        if self.apply is not None:
            self.apply(concept, action, rng)
        else:
            self.plan(concept, action, rng)(concept, 1.0, rng)


_MECHANISMS = {
    "refit-new-target-fn": _Mechanism(
        ("distributional",),
        FITTABLE_KINDS,
        _plan_sgd_refit,
        _refit,
        _check_refit,
        plan_targets=("sgd-linear",),
    ),
    "reinit-random-mlp": _Mechanism(("distributional",), ("random-mlp",), _plan_reinit),
    "move-prototypes": _Mechanism(("distributional",), CENTROID_KINDS, _plan_move_prototypes),
    "change-distance": _Mechanism(
        ("distributional",), ("prototype",), apply=_change_distance, check=_check_distance
    ),
    "rotate-hyperplane": _Mechanism(("distributional",), ("hyperplane",), _plan_rotate),
    "swap-classes": _Mechanism(("severe",), (_LABEL,), apply=_swap_classes, check=_check_swap),
    "root-params": _Mechanism(("covariate", "local"), (_ROOT,), _plan_root, check=_check_root),
}
MECHANISMS = tuple(_MECHANISMS)


def _checked(concept: Concept, action: ShiftAction, incremental: bool = False) -> _Mechanism:
    """The table entry of ``action``, once the action fits ``concept``."""

    mech = _MECHANISMS[action.mechanism]
    node = action.node
    if node is None:
        target = _LABEL
    elif not 0 <= node < concept.graph.n_nodes:
        raise ValueError(f"shift action names unknown node {node}")
    else:
        target = _ROOT if concept.graph.is_root(node) else concept.mappers[node].kind
    targets = mech.targets
    if incremental:
        targets = () if mech.plan is None else mech.plan_targets or mech.targets
    if target not in targets:
        how = " incrementally" if incremental else ""
        raise ValueError(
            f"mechanism {action.mechanism!r} does not apply{how} to node {node} ({target})"
        )
    if mech.check is not None:
        mech.check(concept, action.params)
    return mech


def validate_schedule_against(schedule: DriftSchedule, concept: Concept) -> None:
    """Check every action of every event against the concept's nodes and
    classes, so a bad schedule fails before the first row."""

    for event in schedule:
        for action in event.actions:
            _checked(concept, action, incremental=event.rate == "incremental")


def apply_abrupt(concept: Concept, spec: ShiftSpec, rng) -> Concept:
    """Apply all actions of an event to a copy of the concept."""

    out = concept.copy()
    for action in spec.actions:
        _checked(out, action).abrupt(out, action, rng)
    return out


def apply_recurrent(concept: Concept, snap: ConceptSnapshot) -> Concept:
    """Bring back a snapshotted concept; temporal state is left alone."""

    return restore_concept(snap)


def begin_gradual(concept: Concept, spec: ShiftSpec, rng) -> Concept:
    """Build the fully-shifted endpoint concept for a gradual window."""

    return apply_abrupt(concept, spec, rng)


def gradual_selector(t: int, spec: ShiftSpec, rng) -> bool:
    """True when instance ``t`` should come from the new concept.

    Inside the window the probability ramps linearly: (t - t_start) / duration.
    """

    if t < spec.t_start:
        return False
    if t >= spec.t_end:
        return True
    p = (t - spec.t_start) / spec.duration
    return bool(rng.random() < p)


@dataclass
class IncrementalPlan:
    spec: ShiftSpec
    steppers: list

    def step(self, concept: Concept, step_index: int, rng) -> None:
        """Advance to position ``(step_index + 1) / duration`` of the window."""
        frac = (step_index + 1) / self.spec.duration
        for step in self.steppers:
            step(concept, frac, rng)


def begin_incremental(concept: Concept, spec: ShiftSpec, rng) -> IncrementalPlan:
    """Freeze start/end parameters for every action of an incremental event.

    Endpoint draws (new distribution parameters, centroid positions, rotation
    angle, fresh weights, new target function) all happen here, before the
    first step.
    """

    steppers = [
        _checked(concept, action, incremental=True).plan(concept, action, rng)
        for action in spec.actions
    ]
    return IncrementalPlan(spec=spec, steppers=steppers)


def incremental_step(concept: Concept, plan: IncrementalPlan, step_index: int, rng) -> None:
    plan.step(concept, step_index, rng)


# ---------------------------------------------------------------------------
# interventions and missing masks


def draw_interventions(
    p_i: float,
    policy: InterventionPolicy,
    eligible: tuple[int, ...],
    value_specs: dict[int, tuple],
    rng,
) -> dict[int, float | int]:
    """Draw one instance's intervened nodes and forced values, with chance ``p_i``.

    The probability gate always consumes exactly one draw so toggling the
    policy never shifts other substreams.  Forced values ignore parents by
    construction: they come from the per-node policy distribution.
    """

    gate = rng.random()
    if gate >= p_i or not eligible:
        return {}
    lo, hi = policy.count_range
    k = min(int(rng.integers(lo, hi + 1)), len(eligible))
    idx = rng.choice(len(eligible), size=k, replace=False)
    nodes = sorted(eligible[int(i)] for i in idx)
    out: dict[int, float | int] = {}
    for node in nodes:
        spec = value_specs[node]
        if spec[0] == "normal":
            out[node] = float(rng.normal(spec[1], spec[2]))
        elif spec[0] == "uniform":
            out[node] = float(rng.uniform(spec[1], spec[2]))
        elif spec[0] == "classes":
            out[node] = int(rng.integers(spec[1]))
        else:
            raise ValueError(f"unknown forced-value spec {spec!r}")
    return out


def draw_missing(
    p_m: float, policy: InterventionPolicy, feature_nodes: tuple[int, ...], rng
) -> tuple[int, ...]:
    """Draw one instance's masked emitted-feature nodes, with chance ``p_m``."""

    gate = rng.random()
    if gate >= p_m or not feature_nodes:
        return ()
    lo, hi = policy.count_range
    k = min(int(rng.integers(lo, hi + 1)), len(feature_nodes))
    idx = rng.choice(len(feature_nodes), size=k, replace=False)
    return tuple(sorted(feature_nodes[int(i)] for i in idx))
