"""Named stream presets.

``dataset1``..``dataset3`` pin the six-node example graph, its node bindings,
and four-event drift schedules (2,500 rows, concepts of 500).  ``dataset4``..
``dataset8`` are parameterized templates matching the larger benchmark shapes
(dimensionality, class count, concept count, missingness, interventions).
``regression1`` is a regression stream with a target-function change every
2,000 instances.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .concept import ConceptParams
from .drift import DriftSchedule, InterventionPolicy, ShiftAction, ShiftSpec
from .generator import GeneratorConfig
from .graph import CausalGraph, build_dag
from .temporal import TemporalParams

__all__ = ["PRESET_NAMES", "preset_config", "describe_preset", "list_presets"]

# magnitude of a "mean changed" covariate event, in units of the root's std;
# kept small so P(X) moves while the labeling stays untouched
_COVARIATE_SHIFT_STD = 0.1

# shared operating point for the classification presets; alpha/rho follow the
# small-scale benchmark setting, sigma=0.4 keeps the wandering region wide
# enough that shift events relabel a visible share of each evaluation window
_PRESET_TEMPORAL = TemporalParams(alpha=0.05, rho=0.5, sigma=0.4)

# regression targets carry additive AR(1) noise scaled by sigma; the default
# 0.1 keeps the noise floor of the windowed error well under the jump a
# target-function swap produces
_REGRESSION_TEMPORAL = TemporalParams(alpha=0.05, rho=0.5, sigma=0.1)

# one prototype per class keeps class regions convex, so baseline linear
# learners can track a concept to a stable plateau between events
_PRESET_CENTROIDS = (1, 1)


def example_graph() -> CausalGraph:
    """x1, x2 roots; x3 <- (x1, x2); x4 <- x3; x5 <- x3; y <- (x3, x4, x5)."""

    return CausalGraph(
        n_nodes=6,
        parents={0: (), 1: (), 2: (0, 1), 3: (2,), 4: (2,), 5: (2, 3, 4)},
        target=5,
    )


def _move_and_refit(y_node: int, refit_node: int, fn: str) -> tuple[ShiftAction, ...]:
    return (
        ShiftAction("move-prototypes", y_node),
        ShiftAction("refit-new-target-fn", refit_node, {"target_fn": fn}),
    )


_SWAP_0_1 = (ShiftAction("swap-classes", None, {"c1": 0, "c2": 1}),)


def _example(seed: int, n_classes: int, nodes: dict, events: list) -> GeneratorConfig:
    """A 2,500-row classification stream on ``example_graph()``: root x1 is
    normal and x2 uniform, ``nodes`` pins the inner nodes, and ``events`` is
    the schedule."""

    return GeneratorConfig(
        dataset_size=2500,
        seed=seed,
        d=5,
        graph=example_graph(),
        temporal=_PRESET_TEMPORAL,
        concept=ConceptParams(
            n_classes=n_classes,
            centroids_per_class=_PRESET_CENTROIDS,
            nodes={0: {"dist": "normal"}, 1: {"dist": "uniform"}, **nodes},
        ),
        schedule=DriftSchedule(tuple(events)),
    )


def _dataset1(seed: int) -> GeneratorConfig:
    nodes = {
        2: {"mapper": "learned-mlp", "target_fn": "sine"},
        3: {"mapper": "random-mlp"},
        4: {"mapper": "sgd-linear", "target_fn": "checkerboard"},
        5: {"mapper": "prototype"},
    }
    shift = (ShiftAction("root-params", 0, {"shift_std": _COVARIATE_SHIFT_STD}),)
    return _example(seed, 4, nodes, [
        ShiftSpec("covariate", "abrupt", 500, 1, shift),
        ShiftSpec("distributional", "abrupt", 1000, 1, _move_and_refit(5, 4, "sine")),
        ShiftSpec("severe", "abrupt", 1500, 1, _SWAP_0_1),
        ShiftSpec("distributional", "abrupt", 2000, 1, _move_and_refit(5, 2, "step")),
    ])


def _dataset2(seed: int) -> GeneratorConfig:
    nodes = {
        2: {"mapper": "regression-tree", "target_fn": "linear"},
        3: {"mapper": "random-mlp"},
        4: {"mapper": "sgd-linear", "target_fn": "rbf"},
        5: {"mapper": "random-rbf"},
    }
    shift = (ShiftAction("root-params", 1, {"shift_std": _COVARIATE_SHIFT_STD}),)
    refit = _move_and_refit(5, 4, "checkerboard")
    return _example(seed, 5, nodes, [
        ShiftSpec("covariate", "abrupt", 500, 1, shift),
        ShiftSpec("distributional", "incremental", 1000, 250, refit),
        ShiftSpec("severe", "gradual", 1500, 250, _SWAP_0_1),
        ShiftSpec("distributional", "abrupt", 2000, 1, _move_and_refit(5, 2, "sine")),
    ])


def _dataset3(seed: int) -> GeneratorConfig:
    nodes = {
        2: {"mapper": "regression-tree", "target_fn": "step"},
        3: {"mapper": "random-mlp"},
        4: {"mapper": "sgd-linear", "target_fn": "sine"},
        5: {"mapper": "gaussian-prototype"},
    }
    move = (ShiftAction("move-prototypes", 5), ShiftAction("reinit-random-mlp", 3))
    return _example(seed, 3, nodes, [
        ShiftSpec("distributional", "abrupt", 500, 1, move),
        ShiftSpec("recurrent", "abrupt", 1000, 1, snapshot_id="concept0"),
        ShiftSpec("severe", "gradual", 1500, 250, _SWAP_0_1),
        ShiftSpec("distributional", "abrupt", 2000, 1, _move_and_refit(5, 2, "linear")),
    ])


# (d, n_classes, n_concepts, dataset_size, p_m, p_i) per large-benchmark row
_TEMPLATE_SHAPES = {
    "dataset4": (10, 10, 10, 10_000, 0.0, 0.10),
    "dataset5": (25, 2, 10, 10_000, 0.10, 0.10),
    "dataset6": (100, 3, 20, 10_000, 0.10, 0.10),
    "dataset7": (10, 7, 20, 100_000, 0.0, 0.10),
    "dataset8": (25, 2, 100, 100_000, 0.0, 0.10),
}


def _template(name: str, seed: int) -> GeneratorConfig:
    d, n_classes, n_concepts, size, p_m, p_i = _TEMPLATE_SHAPES[name]
    n_roots = max(2, d // 5)
    graph = build_dag(
        d, n_roots, 1, 3, np.random.default_rng(np.random.SeedSequence((seed, 1)))
    )
    target = graph.target
    first_root = graph.roots[0]
    concept_len = size // n_concepts
    events = []
    cycle = ("distributional", "severe", "covariate")
    for i in range(1, n_concepts):
        kind = cycle[(i - 1) % len(cycle)]
        t0 = i * concept_len
        if kind == "distributional":
            actions = (ShiftAction("move-prototypes", target),)
        elif kind == "severe":
            actions = (ShiftAction("swap-classes"),)
        else:
            actions = (
                ShiftAction("root-params", first_root, {"shift_std": _COVARIATE_SHIFT_STD}),
            )
        events.append(ShiftSpec(kind, "abrupt", t0, 1, actions))
    nodes = {target: {"mapper": "prototype"}}
    return GeneratorConfig(
        dataset_size=size,
        seed=seed,
        d=d,
        n_roots=n_roots,
        graph=graph,
        p_i=p_i,
        p_m=p_m,
        temporal=_PRESET_TEMPORAL,
        concept=ConceptParams(
            n_classes=n_classes,
            centroids_per_class=_PRESET_CENTROIDS,
            nodes=nodes,
        ),
        schedule=DriftSchedule(tuple(events)),
    )


def _regression1(seed: int) -> GeneratorConfig:
    nodes = {
        0: {"dist": "normal"},
        1: {"dist": "uniform"},
        2: {"mapper": "learned-mlp", "target_fn": "sine"},
        3: {"mapper": "random-mlp"},
        4: {"mapper": "learned-mlp", "target_fn": "rbf"},
        5: {"mapper": "learned-mlp", "target_fn": "linear"},
    }
    fns = ("sine", "step", "linear", "rbf")
    events = tuple(
        ShiftSpec(
            "distributional",
            "abrupt",
            2000 * (i + 1),
            1,
            (ShiftAction("refit-new-target-fn", 5, {"target_fn": fns[i]}),),
        )
        for i in range(4)
    )
    return GeneratorConfig(
        dataset_size=10_000,
        seed=seed,
        d=5,
        task="regression",
        graph=example_graph(),
        temporal=_REGRESSION_TEMPORAL,
        concept=ConceptParams(nodes=nodes),
        schedule=DriftSchedule(events),
    )


_PRESETS = {
    "dataset1": _dataset1,
    "dataset2": _dataset2,
    "dataset3": _dataset3,
    **{name: partial(_template, name) for name in _TEMPLATE_SHAPES},
    "regression1": _regression1,
}
PRESET_NAMES = tuple(_PRESETS)

# the seed of every preset when none is given
_DEFAULT_SEED = 7


def preset_config(name: str, seed: int | None = None) -> GeneratorConfig:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    if seed is None:
        seed = _DEFAULT_SEED
    return _PRESETS[name](int(seed))


def list_presets() -> list[str]:
    return list(PRESET_NAMES)


def describe_preset(name: str) -> str:
    cfg = preset_config(name)
    lines = [
        f"{name}: task={cfg.task}, rows={cfg.dataset_size}, features={cfg.d}",
    ]
    if cfg.concept is not None and cfg.task == "classification":
        lines[0] += f", classes={cfg.concept.n_classes}"
    if cfg.p_i or cfg.p_m:
        lines.append(f"  interventions p_i={cfg.p_i}, missing p_m={cfg.p_m}")
    if cfg.graph is not None and cfg.concept is not None and cfg.concept.nodes:
        lines.append("  node bindings:")
        for node in sorted(cfg.concept.nodes):
            pin = cfg.concept.nodes[node]
            label = "y" if node == cfg.graph.target else f"x{node + 1}"
            desc = pin.get("mapper") or pin.get("dist") or "?"
            if "target_fn" in pin:
                desc += f"/{pin['target_fn']}"
            lines.append(f"    {label}: {desc}")
    lines.append(f"  shift events: {len(cfg.schedule)}")
    for event in cfg.schedule:
        what = (
            f"restore {event.snapshot_id}"
            if event.kind == "recurrent"
            else "; ".join(
                a.mechanism + (f"(node {a.node})" if a.node is not None else "")
                for a in event.actions
            )
        )
        lines.append(
            f"    t={event.t_start} {event.rate} {event.kind}"
            f" (len {event.duration}): {what}"
        )
    return "\n".join(lines)
