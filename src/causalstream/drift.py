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
bit, also for an event of several actions: each action is planned on the
concept as it stands after the endpoints of the actions before it.  An
sgd-linear target-function change instead takes one partial-fit step per
instance on a sample from the new function; its abrupt event is a full
refit.
``recurrent`` events restore an earlier concept snapshot, never its temporal
state.  The initial concept is ``concept0`` and the k-th event completes
``concept<k>``, so a recurrent event may name only a concept of an earlier
event.

Every mechanism is one entry of the ``_MECHANISMS`` table: the shift kinds it
serves, what it may act on (a root, the label or mapper kinds), its
incremental plan, an abrupt apply where the abrupt event is not the plan run
to the end, the keys its params may hold and its parameter check.  Event
validation, abrupt application and incremental plans all read the table, so
a new mechanism is added there and nowhere else.  Concepts are immutable:
every apply and every step returns a new concept.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from ._codec import Serializable
from .concept import Concept, simulate_concept_samples
from .mappers import (
    CENTROID_KINDS,
    FITTABLE_KINDS,
    TARGET_FN_KINDS,
    Mapper,
    ParentStats,
    PrototypeMapper,
    RootDistribution,
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
        mech = _MECHANISMS.get(self.mechanism)
        if mech is None:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if mech.targets == (_LABEL,):
            if self.node is not None:
                raise ValueError(f"{self.mechanism} acts on the label, not a node")
        elif self.node is None:
            raise ValueError(f"{self.mechanism} needs a node")
        unknown = sorted(set(self.params) - set(mech.keys))
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in {self.mechanism} params")


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
            if not all(math.isfinite(p) for p in params):
                raise ValueError(f"values.{node}: params must be finite, not {params!r}")
            if spec["dist"] == "normal" and params[1] < 0:
                raise ValueError(f"values.{node}: a normal spec needs a non-negative std")
            if spec["dist"] == "uniform" and not params[0] < params[1]:
                raise ValueError(f"values.{node}: a uniform spec needs low below high")


# ---------------------------------------------------------------------------
# mechanisms
#
# A plan draws the endpoint of an incremental window up front and returns a
# stepper ``step(current, frac, rng)`` that returns the action's node's
# mapper or root distribution moved from ``current`` to fraction ``frac`` of
# the way there, and the endpoint itself, with no draw, at ``frac = 1``.  An
# abrupt event runs the plan to ``frac = 1`` at once, so both rates reach
# the same endpoint with the same draws.  Only a mechanism without a plan,
# or whose plan steps toward its endpoint by samples (the sgd-linear refit),
# has an abrupt apply of its own.

_ROOT = "root"
_LABEL = "label"


def _step(concept: Concept, steppers, frac: float, rng) -> Concept:
    """One new concept, with the node of each (node, stepper) pair of
    ``steppers`` moved to ``frac``, in order, each stepper from the node as
    the ones before it left it."""

    roots, mappers = {}, {}
    for node, step in steppers:
        root = node in concept.root_dists
        moved, was = (roots, concept.root_dists) if root else (mappers, concept.mappers)
        moved[node] = step(moved.get(node, was[node]), frac, rng)
    root_dists, mappers = concept.root_dists | roots, concept.mappers | mappers
    return replace(concept, root_dists=root_dists, mappers=mappers)


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


def _check_number(what: str, value) -> None:
    """Raise unless ``value`` is a finite int or float; a bool is neither."""

    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, not {value!r}")


def _check_refit(concept: Concept, params: dict) -> None:
    if params.get("target_fn") not in (None, *TARGET_FN_KINDS):
        raise ValueError(f"unknown target function {params['target_fn']!r}")


def _refit(concept: Concept, action: ShiftAction, rng) -> Concept:
    node, kind = action.node, concept.mappers[action.node].kind
    fn_kind = _new_target_fn_kind(concept, node, action.params, rng)
    P = _parent_matrix(concept, node, rng)
    fn = draw_target_function(fn_kind, P.shape[1], rng)
    return concept.with_mapper(
        node, fit_continuous_mapper(kind, P, fn, rng, eps_scale=concept.params.eps_scale)
    )


def _plan_sgd_refit(concept: Concept, action: ShiftAction, rng):
    """One partial-fit step per instance toward a new target function; the
    step that finds the mapper the plan found restarts the schedule."""

    node, start = action.node, concept.mappers[action.node]
    fn_kind = _new_target_fn_kind(concept, node, action.params, rng)
    fn = draw_target_function(fn_kind, start.n_inputs, rng)

    def step(m: Mapper, frac: float, rng) -> Mapper:
        if m is start:
            m = m.reset_partial_schedule()
        z = rng.normal(size=m.n_inputs)
        m = m.partial_fit(z, float(eval_target_function(fn, z)))
        return m._with(fitted_target=fn) if frac >= 1.0 else m

    return step


def _lerp(start, end, fields: tuple[str, ...]):
    """Stepper that gives the mapper or root distribution ``start`` with
    each of ``fields`` at ``s + frac * (e - s)``, from its value on
    ``start`` to that on ``end``, and ``end`` from ``frac = 1`` on."""

    build = start._with if isinstance(start, Mapper) else partial(replace, start)
    pairs = {f: (getattr(start, f), getattr(end, f)) for f in fields}

    def step(current, frac: float, rng):
        if frac >= 1.0:
            return end
        return build(**{f: s + frac * (e - s) for f, (s, e) in pairs.items()})

    return step


def _plan_reinit(concept: Concept, action: ShiftAction, rng):
    mapper = concept.mappers[action.node]
    return _lerp(mapper, mapper.reinit(rng), ("W1", "b1", "w2", "b2"))


def _plan_move_prototypes(concept: Concept, action: ShiftAction, rng):
    node, mapper = action.node, concept.mappers[action.node]
    P = _parent_matrix(concept, node, rng)
    end = mapper.move_centroids(rng, ParentStats.from_samples(P))
    # the window's steps take the new parent box at once
    return _lerp(mapper._with(stats=end.stats), end, ("centroids",))


def _check_distance(concept: Concept, params: dict) -> None:
    if params.get("distance") not in (None, *PrototypeMapper.DISTANCES):
        raise ValueError(f"unknown distance {params['distance']!r}")


def _change_distance(concept: Concept, action: ShiftAction, rng) -> Concept:
    mapper = concept.mappers[action.node]
    new = action.params.get("distance")
    if new is None:
        new = "manhattan" if mapper.distance == "euclidean" else "euclidean"
    return concept.with_mapper(action.node, mapper._with(distance=new))


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


def _check_rotate(concept: Concept, params: dict) -> None:
    if params.get("angle_deg") is not None:
        _check_number("rotate-hyperplane angle_deg", params["angle_deg"])


def _plan_rotate(concept: Concept, action: ShiftAction, rng):
    mapper = concept.mappers[action.node]
    angle = action.params.get("angle_deg")
    if angle is None:
        angle = float(rng.uniform(30.0, 150.0))
    # the angle is drawn before the unit direction orthogonal to ``w``
    angle, u = np.deg2rad(float(angle)), _orthogonal_unit(mapper.w, rng)

    def step(current: Mapper, frac: float, rng) -> Mapper:
        return mapper.rotate(frac * angle, u)

    return step


def _check_swap(concept: Concept, params: dict) -> None:
    n = concept.n_classes
    if n is None:
        raise ValueError("swap-classes requires a classification concept")
    c1, c2 = params.get("c1"), params.get("c2")
    if (c1 is None) != (c2 is None):
        raise ValueError("swap-classes needs both c1 and c2, or neither")
    if c1 is not None:
        for c in (c1, c2):
            if isinstance(c, bool) or not isinstance(c, numbers.Integral):
                raise ValueError(f"swap-classes classes must be integers, not {c!r}")
        if c1 == c2 or not (0 <= c1 < n and 0 <= c2 < n):
            raise ValueError(f"cannot swap classes {c1} and {c2} of {n}")


def _swap_classes(concept: Concept, action: ShiftAction, rng) -> Concept:
    c1, c2 = action.params.get("c1"), action.params.get("c2")
    if c1 is None:
        c1, c2 = rng.choice(concept.n_classes, size=2, replace=False)
    swap = {int(c1): int(c2), int(c2): int(c1)}
    permutation = tuple(swap.get(v, v) for v in concept.class_permutation)
    return replace(concept, class_permutation=permutation)


# root-params keys that take a number; ``low`` and ``high`` can only be
# checked against each other once the event knows the distribution
_ROOT_NUMBERS = ("shift_std", "scale_factor", "mean", "variance", "low", "high")


def _check_root(concept: Concept, params: dict) -> None:
    if not isinstance(params.get("redraw", False), bool):
        raise ValueError(f"root-params redraw must be true or false, not {params['redraw']!r}")
    for key in _ROOT_NUMBERS:
        if key not in params:
            continue
        _check_number(f"root-params {key}", params[key])
        if key in ("scale_factor", "variance") and params[key] <= 0:
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
    start = concept.root_dists[action.node]
    end = _shift_root_dist(start, action.params, concept, rng)
    return _lerp(start, end, ("p1", "p2"))


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
    # the keys the action's params may hold
    keys: tuple[str, ...] = ()

    def abrupt(self, concept: Concept, action: ShiftAction, rng) -> Concept:
        if self.apply is not None:
            return self.apply(concept, action, rng)
        return _step(concept, [(action.node, self.plan(concept, action, rng))], 1.0, rng)


_MECHANISMS = {
    "refit-new-target-fn": _Mechanism(
        ("distributional",),
        FITTABLE_KINDS,
        _plan_sgd_refit,
        _refit,
        _check_refit,
        plan_targets=("sgd-linear",),
        keys=("target_fn",),
    ),
    "reinit-random-mlp": _Mechanism(("distributional",), ("random-mlp",), _plan_reinit),
    "move-prototypes": _Mechanism(("distributional",), CENTROID_KINDS, _plan_move_prototypes),
    "change-distance": _Mechanism(
        ("distributional",),
        ("prototype",),
        apply=_change_distance,
        check=_check_distance,
        keys=("distance",),
    ),
    "rotate-hyperplane": _Mechanism(
        ("distributional",),
        ("hyperplane",),
        _plan_rotate,
        check=_check_rotate,
        keys=("angle_deg",),
    ),
    "swap-classes": _Mechanism(
        ("severe",), (_LABEL,), apply=_swap_classes, check=_check_swap, keys=("c1", "c2")
    ),
    "root-params": _Mechanism(
        ("covariate", "local"),
        (_ROOT,),
        _plan_root,
        check=_check_root,
        keys=(*_ROOT_NUMBERS, "redraw"),
    ),
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
    classes, so a bad schedule fails before the first row, at its path."""

    for i, event in enumerate(schedule):
        for j, action in enumerate(event.actions):
            try:
                _checked(concept, action, incremental=event.rate == "incremental")
            except ValueError as e:
                raise ValueError(f"schedule.events[{i}].actions[{j}]: {e}") from None


def apply_abrupt(concept: Concept, spec: ShiftSpec, rng) -> Concept:
    """The concept after all actions of an event, applied in order.

    It has new mappers for the nodes the actions name and shares every
    other mapper with ``concept``.  The segment engine runs one ``predict``
    per distinct mapper, so a shared mapper costs one call for the rows of
    both concepts.
    """

    for action in spec.actions:
        concept = _checked(concept, action).abrupt(concept, action, rng)
    return concept


def apply_recurrent(concept: Concept, restored: Concept) -> Concept:
    """Bring back ``restored``, a concept an earlier event completed, in
    place of ``concept``; the temporal state is left alone.  The engine
    takes it from its snapshot, or from the segment that completed it."""

    return restored


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


@dataclass(frozen=True)
class IncrementalPlan:
    spec: ShiftSpec
    # per action, its node and its stepper
    steppers: tuple[tuple[int, Callable], ...]


def begin_incremental(concept: Concept, spec: ShiftSpec, rng) -> IncrementalPlan:
    """Fix start/end parameters for every action of an incremental event.

    Endpoint draws (new distribution parameters, centroid positions, rotation
    angle, fresh weights, new target function) all happen here, before the
    first step.  Each action is planned on the concept after the endpoints
    of the actions before it, as the abrupt event applies them; an sgd
    refit has no endpoint without its per-step draws, so it moves none.
    """

    steppers = []
    for action in spec.actions:
        mech = _checked(concept, action, incremental=True)
        steppers.append((action.node, mech.plan(concept, action, rng)))
        if mech.apply is None:  # the stepper gives its endpoint without a draw
            concept = _step(concept, steppers[-1:], 1.0, None)
    return IncrementalPlan(spec, tuple(steppers))


def incremental_step(concept: Concept, plan: IncrementalPlan, step_index: int, rng) -> Concept:
    """The concept at position ``(step_index + 1) / duration`` of the
    window, built once for all the actions."""

    return _step(concept, plan.steppers, (step_index + 1) / plan.spec.duration, rng)


# ---------------------------------------------------------------------------
# interventions and missing masks


def _picked(p: float, policy: InterventionPolicy, nodes: tuple[int, ...], rng) -> list[int]:
    """One row's gate, open with chance ``p``, then, if it opens, a count
    from ``policy.count_range`` and that many of ``nodes``, sorted.  The
    gate always consumes exactly one draw, so toggling ``p`` never shifts
    the rows after it."""

    if rng.random() >= p or not nodes:
        return []
    lo, hi = policy.count_range
    k = min(int(rng.integers(lo, hi + 1)), len(nodes))
    idx = rng.choice(len(nodes), size=k, replace=False)
    return sorted(nodes[int(i)] for i in idx)


def draw_interventions(
    p_i: float, policy: InterventionPolicy, eligible: tuple[int, ...], concept: Concept, rng
) -> dict[int, float | int]:
    """Draw one instance's intervened nodes, sorted, and their forced
    values, with chance ``p_i``.

    A forced node ignores its parents (the do-operator): a categorical node
    takes a uniform class of ``concept``; a node with a ``policy.values``
    spec draws from it; a root draws from its distribution under
    ``concept`` and an inner node from ``normal(out_mean, out_scale)`` of
    its mapper.
    """

    out: dict[int, float | int] = {}
    for node in _picked(p_i, policy, eligible, rng):
        if concept.is_categorical(node):
            out[node] = int(rng.integers(concept.mappers[node].n_classes))
            continue
        spec, root = policy.values.get(node), concept.root_dists.get(node)
        if spec is not None:
            dist, (a, b) = spec["dist"], spec["params"]
        elif root is not None:
            dist, a, b = root.kind, root.p1, root.std() if root.kind == "normal" else root.p2
        else:
            mapper = concept.mappers[node]
            dist, a, b = "normal", mapper.out_mean, mapper.out_scale
        out[node] = float((rng.normal if dist == "normal" else rng.uniform)(a, b))
    return out


def draw_missing(
    p_m: float, policy: InterventionPolicy, feature_nodes: tuple[int, ...], rng
) -> tuple[int, ...]:
    """Draw one instance's masked emitted-feature nodes, with chance ``p_m``."""

    return tuple(_picked(p_m, policy, feature_nodes, rng))
