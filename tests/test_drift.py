import dataclasses

import numpy as np
import pytest

from conftest import preset_prefix
from causalstream.concept import (
    deterministic_label,
    init_concept,
    restore_concept,
    simulate_concept_samples,
    snapshot_concept,
)
from causalstream.drift import (
    DriftSchedule,
    InterventionPolicy,
    ShiftAction,
    ShiftSpec,
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
from causalstream.generator import GeneratorConfig, build_stream, collect
from causalstream.graph import CausalGraph
from causalstream.mappers import RootDistribution, serialize_params
from causalstream.presets import example_graph, preset_config
from causalstream.temporal import TemporalState


def _concept(seed=0):
    """Concept with the pinned node kinds used by the first benchmark preset."""
    cfg = preset_config("dataset1", seed)
    return init_concept(example_graph(), cfg.concept, np.random.default_rng(seed))


def _grid_labels(concept, n=2000, seed=99):
    rng = np.random.default_rng(seed)
    parents = concept.graph.parents[concept.graph.target]
    pts = rng.uniform(-3.0, 3.0, size=(n, len(parents)))
    return pts, np.array(
        [deterministic_label(concept, dict(zip(parents, row))) for row in pts]
    )


def test_shift_spec_validation():
    act = ShiftAction("root-params", node=0, params={"shift_std": 0.5})
    with pytest.raises(ValueError):
        ShiftSpec("covariate", "abrupt", 100, duration=5, actions=(act,))
    with pytest.raises(ValueError):
        ShiftSpec("covariate", "gradual", 100, duration=1, actions=(act,))
    with pytest.raises(ValueError):  # covariate allows root-params only
        ShiftSpec(
            "covariate", "abrupt", 100,
            actions=(ShiftAction("move-prototypes", node=5),),
        )
    with pytest.raises(ValueError):  # local moves exactly one node
        ShiftSpec(
            "local", "abrupt", 100,
            actions=(act, ShiftAction("root-params", node=1)),
        )
    with pytest.raises(ValueError):  # severe is exactly one swap
        ShiftSpec("severe", "abrupt", 100, actions=(act,))
    with pytest.raises(ValueError):  # recurrent carries no actions
        ShiftSpec("recurrent", "abrupt", 100, actions=(act,), snapshot_id="concept0")
    with pytest.raises(ValueError):
        ShiftSpec("recurrent", "abrupt", 100)  # snapshot id required
    with pytest.raises(ValueError):  # snapshot id only for recurrent
        ShiftSpec("covariate", "abrupt", 100, actions=(act,), snapshot_id="concept0")
    with pytest.raises(ValueError):  # change-distance has no smooth path
        ShiftSpec(
            "distributional", "incremental", 100, duration=10,
            actions=(ShiftAction("change-distance", node=5),),
        )


def test_schedule_ordering_and_overlap():
    act = ShiftAction("root-params", node=0, params={"shift_std": 0.5})
    a = ShiftSpec("covariate", "abrupt", 100, actions=(act,))
    b = ShiftSpec("covariate", "gradual", 300, duration=50, actions=(act,))
    DriftSchedule((a, b))  # fine
    with pytest.raises(ValueError):
        DriftSchedule((b, a))
    overlap = ShiftSpec("covariate", "abrupt", 320, actions=(act,))
    with pytest.raises(ValueError):
        DriftSchedule((b, overlap))


def test_covariate_shift_is_pure():
    """Root-params events leave every mapper byte-identical."""
    c = _concept(1)
    before = {n: serialize_params(m) for n, m in c.mappers.items()}
    orig_dist0 = c.root_dists[0]
    pts, labels = _grid_labels(c)
    spec = ShiftSpec(
        "covariate", "abrupt", 500,
        actions=(
            ShiftAction("root-params", node=0, params={"shift_std": 2.0}),
            ShiftAction("root-params", node=1, params={"scale_factor": 1.5}),
        ),
    )
    shifted = apply_abrupt(c, spec, np.random.default_rng(0))
    assert shifted.root_dists[0].p1 != c.root_dists[0].p1
    assert shifted.root_dists[1] != c.root_dists[1]
    for n, m in shifted.mappers.items():
        assert serialize_params(m) == before[n]
    assert shifted.class_permutation == c.class_permutation
    parents = c.graph.parents[c.graph.target]
    relabeled = np.array(
        [deterministic_label(shifted, dict(zip(parents, row))) for row in pts]
    )
    assert np.array_equal(relabeled, labels)
    # the original concept is untouched by apply_abrupt
    assert c.root_dists[0] == orig_dist0


def test_root_params_explicit_values():
    c = _concept(2)
    c.root_dists[0] = RootDistribution("normal", 0.0, 1.0)
    spec = ShiftSpec(
        "local", "abrupt", 10,
        actions=(ShiftAction("root-params", node=0, params={"mean": 3.0, "variance": 4.0}),),
    )
    out = apply_abrupt(c, spec, np.random.default_rng(0))
    assert out.root_dists[0].p1 == 3.0 and out.root_dists[0].p2 == 4.0
    with pytest.raises(ValueError):
        apply_abrupt(
            c,
            ShiftSpec(
                "local", "abrupt", 10,
                actions=(ShiftAction("root-params", node=0, params={"scale_factor": -1.0}),),
            ),
            np.random.default_rng(0),
        )


def test_severe_swap_is_exact_transposition():
    c = _concept(3)
    pts, labels = _grid_labels(c)
    spec = ShiftSpec(
        "severe", "abrupt", 100,
        actions=(ShiftAction("swap-classes", params={"c1": 0, "c2": 1}),),
    )
    swapped = apply_abrupt(c, spec, np.random.default_rng(0))
    parents = c.graph.parents[c.graph.target]
    post = np.array(
        [deterministic_label(swapped, dict(zip(parents, row))) for row in pts]
    )
    expected = labels.copy()
    expected[labels == 0] = 1
    expected[labels == 1] = 0
    assert np.array_equal(post, expected)
    # swapping twice restores every label
    twice = apply_abrupt(swapped, spec, np.random.default_rng(0))
    post2 = np.array(
        [deterministic_label(twice, dict(zip(parents, row))) for row in pts]
    )
    assert np.array_equal(post2, labels)


def test_swap_classes_bad_pair_raises():
    c = _concept(3)
    spec = ShiftSpec(
        "severe", "abrupt", 100,
        actions=(ShiftAction("swap-classes", params={"c1": 0, "c2": 9}),),
    )
    with pytest.raises(ValueError):
        apply_abrupt(c, spec, np.random.default_rng(0))


@pytest.mark.parametrize("pair", [{"c1": 1}, {"c2": 0}])
def test_swap_classes_needs_both_classes_or_neither(pair):
    """A lone c1 or c2 is rejected up front instead of being ignored."""
    c = _concept(3)
    spec = ShiftSpec("severe", "abrupt", 100, actions=(ShiftAction("swap-classes", params=pair),))
    with pytest.raises(ValueError, match="both c1 and c2"):
        validate_schedule_against(DriftSchedule((spec,)), c)


@pytest.mark.parametrize(
    "params", [{"variance": -1.0}, {"variance": 0}, {"shift_std": "big"}, {"mean": float("nan")}]
)
def test_root_params_values_are_checked_up_front(params):
    c = _concept(2)
    spec = ShiftSpec("local", "abrupt", 10, actions=(ShiftAction("root-params", 0, params),))
    with pytest.raises(ValueError):
        validate_schedule_against(DriftSchedule((spec,)), c)


def test_recurrent_restores_snapshot_labels():
    c = _concept(4)
    state = TemporalState.initial(c.root_dists, c.continuous_nodes)
    snap = snapshot_concept(c, state)
    pts, labels = _grid_labels(c)
    drifted = apply_abrupt(
        c,
        ShiftSpec(
            "distributional", "abrupt", 100,
            actions=(ShiftAction("move-prototypes", node=5),),
        ),
        np.random.default_rng(1),
    )
    parents = c.graph.parents[c.graph.target]
    moved = np.array(
        [deterministic_label(drifted, dict(zip(parents, row))) for row in pts]
    )
    assert not np.array_equal(moved, labels)  # the move must actually relabel
    back = apply_recurrent(drifted, snap)
    restored = np.array(
        [deterministic_label(back, dict(zip(parents, row))) for row in pts]
    )
    assert np.array_equal(restored, labels)
    assert back == restore_concept(snap)


def test_refit_changes_target_function():
    c = _concept(5)
    spec = ShiftSpec(
        "distributional", "abrupt", 100,
        actions=(ShiftAction("refit-new-target-fn", node=2, params={"target_fn": "step"}),),
    )
    out = apply_abrupt(c, spec, np.random.default_rng(2))
    assert out.mappers[2].fitted_target.kind == "step"
    assert serialize_params(out.mappers[2]) != serialize_params(c.mappers[2])
    # untouched nodes stay byte-identical
    for n in (3, 4, 5):
        assert serialize_params(out.mappers[n]) == serialize_params(c.mappers[n])


def test_change_distance_flips_metric_only():
    c = _concept(6)
    spec = ShiftSpec(
        "distributional", "abrupt", 100,
        actions=(ShiftAction("change-distance", node=5),),
    )
    out = apply_abrupt(c, spec, np.random.default_rng(0))
    assert out.mappers[5].distance != c.mappers[5].distance
    assert np.array_equal(out.mappers[5].centroids, c.mappers[5].centroids)


def test_gradual_selector_ramp():
    act = ShiftAction("root-params", node=0, params={"shift_std": 1.0})
    spec = ShiftSpec("covariate", "gradual", 1000, duration=250, actions=(act,))
    rng = np.random.default_rng(0)
    assert not gradual_selector(999, spec, rng)
    assert gradual_selector(1250, spec, rng)
    freqs = []
    for t in (1062, 1125, 1187):
        hits = sum(gradual_selector(t, spec, rng) for _ in range(4000))
        freqs.append(hits / 4000)
        assert abs(freqs[-1] - (t - 1000) / 250) < 0.04
    assert freqs[0] < freqs[1] < freqs[2]


def test_incremental_mean_walk_hits_exact_quarters():
    c = _concept(7)
    c.root_dists[0] = RootDistribution("normal", 0.0, 1.0)
    spec = ShiftSpec(
        "covariate", "incremental", 100, duration=4,
        actions=(ShiftAction("root-params", node=0, params={"mean": 1.0}),),
    )
    work = c.copy()
    plan = begin_incremental(work, spec, np.random.default_rng(0))
    seen = []
    for i in range(4):
        incremental_step(work, plan, i, np.random.default_rng(0))
        seen.append(work.root_dists[0].p1)
        assert work.root_dists[0].p2 == 1.0
    assert seen == [0.25, 0.5, 0.75, 1.0]


# (shift kind, node, params) of one action per mechanism whose plan steps by
# fractions, on the concept of the test below
_STEPPED_ACTIONS = {
    "root-params": ("covariate", 0, {"shift_std": 0.7, "scale_factor": 1.3}),
    "move-prototypes": ("distributional", 5, {}),
    "reinit-random-mlp": ("distributional", 3, {}),
    "rotate-hyperplane": ("distributional", 4, {}),
}


@pytest.mark.parametrize("mechanism", list(_STEPPED_ACTIONS))
def test_incremental_endpoint_matches_abrupt(mechanism):
    """A finished incremental window equals the one-shot event bit for bit."""
    kind, node, params = _STEPPED_ACTIONS[mechanism]
    cfg = preset_config("dataset1", 8)
    # node 4 becomes a binary hyperplane, so every stepped mechanism has a node
    pins = {**cfg.concept.nodes, 4: {"mapper": "hyperplane", "n_classes": 2}}
    c = init_concept(
        example_graph(),
        dataclasses.replace(cfg.concept, nodes=pins),
        np.random.default_rng(8),
        temporal=cfg.temporal,
    )
    action = ShiftAction(mechanism, node=node, params=params)
    spec_inc = ShiftSpec(kind, "incremental", 100, duration=5, actions=(action,))
    spec_abr = ShiftSpec(kind, "abrupt", 100, actions=(action,))
    work = c.copy()
    plan = begin_incremental(work, spec_inc, np.random.default_rng(77))
    for i in range(5):
        incremental_step(work, plan, i, np.random.default_rng(0))
    target = apply_abrupt(c, spec_abr, np.random.default_rng(77))
    assert work.to_dict() == target.to_dict()
    assert work.to_dict() != c.to_dict()


def test_partial_step_count_never_reaches_the_stream():
    """Two concepts that differ only in the unserialized SGD step count give
    the same rows through dataset2's incremental refit of node 4."""
    cfg = preset_prefix("dataset2", 1300)
    plain, carried = build_stream(cfg), build_stream(cfg)
    carried.concept.mappers[4]._partial_steps = 12345
    assert plain.take(1300) == carried.take(1300)
    # the window made one step per row
    assert plain.concept.mappers[4]._partial_steps == 250


def test_incremental_refit_requires_sgd_linear():
    c = _concept(9)
    spec = ShiftSpec(
        "distributional", "incremental", 100, duration=5,
        actions=(ShiftAction("refit-new-target-fn", node=2),),
    )
    with pytest.raises(ValueError):
        begin_incremental(c.copy(), spec, np.random.default_rng(0))
    ok = ShiftSpec(
        "distributional", "incremental", 100, duration=5,
        actions=(ShiftAction("refit-new-target-fn", node=4),),
    )
    begin_incremental(c.copy(), ok, np.random.default_rng(0))


def test_begin_gradual_returns_shifted_endpoint():
    c = _concept(10)
    spec = ShiftSpec(
        "distributional", "gradual", 100, duration=50,
        actions=(ShiftAction("move-prototypes", node=5),),
    )
    end = begin_gradual(c, spec, np.random.default_rng(3))
    assert not np.array_equal(end.mappers[5].centroids, c.mappers[5].centroids)
    assert end != c and c == _concept(10)


def test_intervention_gate_consumes_one_draw():
    specs = {0: ("normal", 0.0, 1.0)}
    a = np.random.default_rng(0)
    b = np.random.default_rng(0)
    # first uniform of seed 0 is ~0.637, above both gate levels
    out_a = draw_interventions(0.0, InterventionPolicy(), (0,), specs, a)
    out_b = draw_interventions(0.3, InterventionPolicy(), (0,), specs, b)
    assert out_a == {} and out_b == {}
    assert a.random() == b.random()


def test_intervention_values_follow_specs():
    policy = InterventionPolicy(count_range=(1, 3))
    eligible = (0, 1, 2, 4)
    specs = {
        0: ("normal", 0.0, 1.0),
        1: ("uniform", 5.0, 6.0),
        2: ("classes", 3),
        4: ("uniform", -1.0, 0.0),
    }
    rng = np.random.default_rng(12)
    for _ in range(200):
        out = draw_interventions(1.0, policy, eligible, specs, rng)
        nodes = list(out)
        assert 1 <= len(nodes) <= 3
        assert nodes == sorted(nodes)
        assert set(nodes) <= set(eligible)
        for n, v in out.items():
            if specs[n][0] == "uniform":
                assert specs[n][1] <= v < specs[n][2]
            elif specs[n][0] == "classes":
                assert isinstance(v, int) and 0 <= v < specs[n][1]


def test_draw_missing_counts_and_sorting():
    policy = InterventionPolicy(count_range=(2, 2))
    rng = np.random.default_rng(5)
    for _ in range(100):
        out = draw_missing(1.0, policy, (0, 1, 2, 3, 4), rng)
        assert len(out) == 2 and list(out) == sorted(out)
    none = draw_missing(0.0, InterventionPolicy(), (0, 1), rng)
    assert none == ()


def test_policy_validation():
    # the run's config owns the rates
    with pytest.raises(ValueError, match="p_i and p_m"):
        GeneratorConfig(dataset_size=10, seed=0, p_i=1.2)
    with pytest.raises(ValueError):
        InterventionPolicy(count_range=(0, 2))
    with pytest.raises(ValueError):
        InterventionPolicy(count_range=(2, 5))


def test_validate_schedule_against_node_kinds():
    c = _concept(11)
    bad_root = DriftSchedule((
        ShiftSpec(
            "covariate", "abrupt", 100,
            actions=(ShiftAction("root-params", node=2, params={"shift_std": 1.0}),),
        ),
    ))
    with pytest.raises(ValueError):
        validate_schedule_against(bad_root, c)
    bad_proto = DriftSchedule((
        ShiftSpec(
            "distributional", "abrupt", 100,
            actions=(ShiftAction("move-prototypes", node=2),),
        ),
    ))
    with pytest.raises(ValueError):
        validate_schedule_against(bad_proto, c)
    ok = DriftSchedule((
        ShiftSpec(
            "distributional", "abrupt", 100,
            actions=(ShiftAction("move-prototypes", node=5),),
        ),
    ))
    validate_schedule_against(ok, c)


def test_serialization_round_trips():
    act = ShiftAction("root-params", node=0, params={"shift_std": 0.5})
    spec = ShiftSpec("covariate", "gradual", 100, duration=50, actions=(act,))
    sched = DriftSchedule((spec,))
    assert DriftSchedule.from_dict(sched.to_dict()) == sched
    pol = InterventionPolicy(
        count_range=(1, 2),
        values={0: {"dist": "uniform", "params": [0.0, 1.0]}},
    )
    assert InterventionPolicy.from_dict(pol.to_dict()) == pol


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"dist": "uniform", "low": 0.0, "high": 1.0}, "unknown key 'high' in values.0"),
        ({"dist": "cauchy", "params": [0.0, 1.0]}, "normal or uniform"),
        ({"dist": "uniform", "params": [0.0]}, "two numbers"),
        ({"dist": "uniform", "params": ["0", 1.0]}, "two numbers"),
        ({"dist": "normal", "params": [0.0, -1.0]}, "non-negative std"),
    ],
    ids=["low-high-keys", "unknown-dist", "one-param", "string-param", "negative-std"],
)
def test_policy_rejects_a_bad_forced_value_spec(spec, message):
    """A policy built through the API checks its specs when it is made,
    not at the first row that draws from them."""
    with pytest.raises(ValueError, match=message):
        InterventionPolicy(values={0: spec})


def test_resimulation_relabels_the_target_as_the_stream_does():
    """Drift refits train on a re-simulation of the current concept.  With a
    feature downstream of the target, that walk must apply the class
    permutation too, or it trains the children on the unswapped classes."""
    graph = CausalGraph(4, {0: (), 1: (), 2: (0, 1), 3: (2,)}, target=2)
    swap = ShiftSpec("severe", "abrupt", 100, actions=(ShiftAction("swap-classes"),))
    n = 20_000
    cfg = GeneratorConfig(
        dataset_size=n, seed=5, d=3, graph=graph, schedule=DriftSchedule((swap,))
    )
    gen = build_stream(cfg)
    stream = collect(gen, n)
    concept = gen.concept
    assert concept.class_permutation == (1, 0)
    S = simulate_concept_samples(concept, n, np.random.default_rng(0))
    raw = concept.mappers[2].predict(S[:, [0, 1]])
    assert np.array_equal(S[:, 2], np.asarray(concept.class_permutation)[raw])
    # long-run shares of class 1: 0.34 in the stream after the swap, and
    # 0.67 in a walk that skips the permutation
    sim_share = float(np.mean(S[:, 2] == 1))
    stream_share = float(np.mean(stream.y[100:] == 1))
    assert abs(sim_share - stream_share) < 0.1, (sim_share, stream_share)
