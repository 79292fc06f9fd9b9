"""Property-based invariants over small random configs and schedules.

Each example draws a graph (pinned in the config, so the event can name one
of its nodes), a task, temporal parameters at their edges, intervention and
missing rates, and one abrupt, gradual or incremental event.  An incremental
event moves a root's distribution, or one inner node's mapper, which the
config pins to a kind that the mechanism moves.  The ``ci`` profile in
``conftest.py`` makes the draws deterministic and bounds their number.

A run either raises ``ValueError`` before its first row or yields its rows;
the properties compare these outcomes.  Toggling a rate flips it between 0
and 0.3; the interventions, the missing masks and the values each draw from
their own substream.  With ``alpha = sigma = 0`` every
node is constant, so a concept with a categorical node has a degenerate
parent box and is rejected at init.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import causalstream.generator as generator_module
from causalstream.concept import ConceptParams, simulate_concept_samples
from causalstream.config import config_to_document, parse_config
from causalstream.drift import (
    DriftSchedule,
    ShiftAction,
    ShiftSpec,
    apply_abrupt,
    begin_incremental,
)
from causalstream.generator import GeneratorConfig, build_stream
from causalstream.graph import build_dag
from causalstream.mappers import CATEGORICAL_KINDS, CENTROID_KINDS, CONTINUOUS_KINDS
from causalstream.stream_io import write_stream_csv
from causalstream.temporal import TemporalParams


# per incremental mechanism on an inner node, the mapper kinds it moves
_INNER_PLANS = {
    "move-prototypes": CENTROID_KINDS,
    "reinit-random-mlp": ("random-mlp",),
    "rotate-hyperplane": ("hyperplane",),
    "refit-new-target-fn": ("sgd-linear",),
}


@st.composite
def configs(draw):
    d = draw(st.integers(2, 6))
    graph = build_dag(
        d,
        draw(st.integers(1, d)),
        1,
        draw(st.integers(1, 3)),
        np.random.default_rng(draw(st.integers(0, 2**16))),
    )
    task = draw(st.sampled_from(["classification", "regression"]))
    rows = draw(st.integers(40, 120))
    t_start = draw(st.integers(1, rows - 1))
    rate = draw(st.sampled_from(["abrupt", "gradual", "incremental"]))
    duration = 1 if rate == "abrupt" else draw(st.integers(2, max(2, rows - t_start)))
    concept = None
    if rate == "incremental" and draw(st.booleans()):
        # one mechanism on one inner node, pinned to a kind it moves; the
        # target's kind must also fit the task
        node = draw(st.sampled_from([n for n in range(graph.n_nodes) if not graph.is_root(n)]))
        fits = CATEGORICAL_KINDS if task == "classification" else CONTINUOUS_KINDS
        menu = [
            (mechanism, kind)
            for mechanism, kinds in _INNER_PLANS.items()
            for kind in kinds
            if node != graph.target or kind in fits
        ]
        mechanism, kind = draw(st.sampled_from(menu))
        concept = ConceptParams(nodes={node: {"mapper": kind, "n_classes": 2}})
        kind, action = "distributional", ShiftAction(mechanism, node)
    elif rate != "incremental" and task == "classification" and draw(st.booleans()):
        kind, action = "severe", ShiftAction("swap-classes")
    else:
        root = draw(st.sampled_from(graph.roots))
        params = draw(st.sampled_from([{"redraw": True}, {"shift_std": 1.0, "scale_factor": 1.5}]))
        kind, action = "covariate", ShiftAction("root-params", root, params)
    event = ShiftSpec(kind, rate, t_start, duration, (action,))
    return GeneratorConfig(
        dataset_size=rows,
        seed=draw(st.integers(0, 2**16)),
        d=d,
        p_i=draw(st.sampled_from([0.0, 0.3])),
        p_m=draw(st.sampled_from([0.0, 0.3])),
        task=task,
        temporal=TemporalParams(
            alpha=draw(st.sampled_from([0.0, 1.0])),
            rho=draw(st.sampled_from([0.0, 1.0])),
            sigma=draw(st.sampled_from([0.0, 0.3])),
        ),
        schedule=DriftSchedule((event,)),
        concept=concept,
        graph=graph,
    )


def _build(cfg):
    """The run's generator, or the message that rejected it."""
    try:
        return build_stream(cfg)
    except ValueError as e:
        return str(e)


def _csv_bytes(cfg) -> bytes | str:
    gen = _build(cfg)
    if isinstance(gen, str):
        return gen
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        write_stream_csv(path, gen.take(cfg.dataset_size), gen.feature_names)
        return path.read_bytes()


def _first_rows(cfg, n: int) -> list | str:
    gen = _build(cfg)
    return gen if isinstance(gen, str) else gen.take(n)


@given(configs())
def test_the_same_seed_gives_the_same_bytes(cfg):
    assert _csv_bytes(cfg) == _csv_bytes(cfg)


@given(configs())
def test_a_config_document_regenerates_the_same_bytes(cfg):
    """config -> sidecar document -> ``parse_config`` gives an equal config,
    which writes the same CSV bytes: the sidecar's regeneration contract."""
    doc = json.loads(json.dumps(config_to_document(cfg)))
    back = parse_config(doc).generator
    assert back == cfg
    assert _csv_bytes(back) == _csv_bytes(cfg)


@given(configs())
def test_segment_length_never_changes_the_bytes(cfg):
    expected = _csv_bytes(cfg)
    for rows in (1, 7, 4096):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(generator_module, "_SEGMENT_ROWS", rows)
            assert _csv_bytes(cfg) == expected, rows


@given(configs())
def test_the_schedule_leaves_every_row_before_its_first_event(cfg):
    first = cfg.schedule.events[0].t_start
    without = replace(cfg, schedule=DriftSchedule(()))
    assert _first_rows(cfg, first) == _first_rows(without, first)


def _toggled(cfg, rate: str):
    return replace(cfg, **{rate: 0.3 if getattr(cfg, rate) == 0.0 else 0.0})


@given(configs())
def test_toggling_missingness_moves_no_value_label_or_intervention(cfg):
    rows = _first_rows(cfg, cfg.dataset_size)
    other = _first_rows(_toggled(cfg, "p_m"), cfg.dataset_size)
    if isinstance(rows, str) or isinstance(other, str):
        assert rows == other
        return
    assert [(r.values, r.label, r.intervened) for r in rows] == [
        (r.values, r.label, r.intervened) for r in other
    ]


@given(configs())
def test_toggling_interventions_moves_no_mask_or_natural_root_draw(cfg):
    rows = _first_rows(cfg, cfg.dataset_size)
    other = _first_rows(_toggled(cfg, "p_i"), cfg.dataset_size)
    if isinstance(rows, str) or isinstance(other, str):
        assert rows == other
        return
    assert [r.missing for r in rows] == [r.missing for r in other]
    for a, b in zip(rows, other):
        for root in cfg.graph.roots:
            if root not in a.intervened + b.intervened:
                assert a.values[root] == b.values[root], (a.t, root)


# the mechanism with a stepped plan that each mapper kind admits; the
# sgd-linear refit steps by samples and has a full refit as its abrupt form
_STEPPED = {
    "random-mlp": "reinit-random-mlp",
    "hyperplane": "rotate-hyperplane",
    **dict.fromkeys(CENTROID_KINDS, "move-prototypes"),
}


@given(
    configs(),
    st.sampled_from(sorted(_STEPPED)),
    st.integers(2, 40),
    st.integers(0, 2**16),
    st.sampled_from([{"redraw": True}, {"shift_std": -0.7, "scale_factor": 0.6}]),
)
def test_an_incremental_window_lands_on_the_abrupt_endpoint(
    cfg, kind, duration, seed, root_params
):
    """Every stepped mechanism on every node it fits: the plan run over
    ``duration`` steps and the abrupt event, from the same schedule draws,
    give equal concept documents.  Every inner feature node is pinned to
    ``kind``; the drawn schedule, which may name a node by another kind, is
    dropped."""
    graph = cfg.graph
    pin = {"mapper": kind, "n_classes": 2}
    inner = [n for n in graph.feature_nodes if not graph.is_root(n)]
    pins = ConceptParams(nodes=dict.fromkeys(inner, pin))
    gen = _build(replace(cfg, concept=pins, schedule=DriftSchedule(())))
    if isinstance(gen, str):
        return
    concept = gen.concept
    actions = [
        ("covariate", ShiftAction("root-params", root, root_params)) for root in graph.roots
    ]
    actions += [
        ("distributional", ShiftAction(_STEPPED[m.kind], node))
        for node, m in concept.mappers.items()
        if m.kind in _STEPPED
    ]
    for shift_kind, action in actions:
        spec = ShiftSpec(shift_kind, "incremental", 0, duration, (action,))
        work = concept.copy()
        plan = begin_incremental(work, spec, np.random.default_rng(seed))
        steps = np.random.default_rng(seed + 1)
        for i in range(duration):
            plan.step(work, i, steps)
        once = replace(spec, rate="abrupt", duration=1)
        abrupt = apply_abrupt(concept, once, np.random.default_rng(seed))
        assert work.to_dict() == abrupt.to_dict(), action


def _drift_free(cfg, **changes):
    """The run's generator with no schedule, or the message that rejected it."""
    return _build(replace(cfg, schedule=DriftSchedule(()), **changes))


@given(
    configs(),
    st.integers(0, 2**16),
    st.sampled_from([{"redraw": True}, {"shift_std": -0.7, "scale_factor": 0.6}]),
)
def test_a_covariate_shift_leaves_every_mapper_equal(cfg, seed, params):
    """An abrupt root shift moves that root's distribution and nothing else:
    every mapper and the class permutation keep their documents."""
    gen = _drift_free(cfg)
    if isinstance(gen, str):
        return
    concept = gen.concept
    before = concept.to_dict()
    for root in cfg.graph.roots:
        spec = ShiftSpec("covariate", "abrupt", 0, 1, (ShiftAction("root-params", root, params),))
        after = apply_abrupt(concept, spec, np.random.default_rng(seed)).to_dict()
        assert after["mappers"] == before["mappers"]
        assert after["class_permutation"] == before["class_permutation"]
        dists = before["root_dists"]
        assert {k for k in dists if after["root_dists"][k] != dists[k]} <= {str(root)}
    assert concept.to_dict() == before


@given(configs(), st.integers(2, 4), st.integers(0, 2**16))
def test_swap_classes_is_an_exact_transposition(cfg, n_classes, seed):
    """The class permutation swaps two labels.  In a sample, those two
    labels trade places in the target's column, and every node that does
    not read the target keeps its bits."""
    gen = _drift_free(cfg, task="classification", concept=ConceptParams(n_classes=n_classes))
    if isinstance(gen, str):
        return
    concept = gen.concept
    spec = ShiftSpec("severe", "abrupt", 0, 1, (ShiftAction("swap-classes"),))
    swapped = apply_abrupt(concept, spec, np.random.default_rng(seed))
    before, after = concept.class_permutation, swapped.class_permutation
    moved = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    assert len(moved) == 2
    i, j = moved
    assert (after[i], after[j]) == (before[j], before[i])
    assert swapped.to_dict()["mappers"] == concept.to_dict()["mappers"]
    V = simulate_concept_samples(concept, 64, np.random.default_rng(seed))
    W = simulate_concept_samples(swapped, 64, np.random.default_rng(seed))
    target = cfg.graph.target
    others = [v for v in range(cfg.graph.n_nodes) if target not in (v, *cfg.graph.ancestors(v))]
    assert np.array_equal(V[:, others], W[:, others])
    trade = {before[i]: before[j], before[j]: before[i]}
    assert W[:, target].tolist() == [trade.get(y, y) for y in V[:, target].tolist()]


@given(configs())
def test_a_recurrent_restore_is_exact(cfg):
    """A restore of ``concept0`` after the drawn event brings back the
    initial concept's document, which the snapshot holds unmoved."""
    event = cfg.schedule.events[0]
    restore = ShiftSpec("recurrent", "abrupt", event.t_end, snapshot_id="concept0")
    rows = max(cfg.dataset_size, event.t_end + 1)
    gen = _build(replace(cfg, dataset_size=rows, schedule=DriftSchedule((event, restore))))
    if isinstance(gen, str):
        return
    initial = gen.concept.to_dict()
    gen.take(rows)
    assert gen.snapshots["concept0"].concept == initial
    assert gen.concept.to_dict() == initial
    assert gen.snapshots["concept2"].concept == initial
