import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import preset_prefix
from causalstream.concept import (
    Concept,
    ConceptParams,
    ConceptSnapshot,
    deterministic_label,
    init_concept,
    simulate_concept_samples,
)
from causalstream.drift import ShiftAction, ShiftSpec, apply_abrupt
from causalstream.generator import GeneratorConfig, build_stream, collect
from causalstream.mappers import CATEGORICAL_KINDS, CONTINUOUS_KINDS, Mapper, serialize_params
from causalstream.presets import example_graph, preset_config
from causalstream.temporal import (
    TemporalParams,
    TemporalState,
    simulate_ar_noise,
    simulate_root_values,
)


def _concept(seed=0, **kw):
    params = ConceptParams(n_classes=3, **kw)
    return init_concept(example_graph(), params, np.random.default_rng(seed))


def test_init_is_bit_for_bit_deterministic():
    a = _concept(4)
    b = _concept(4)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


def test_different_seeds_differ():
    assert _concept(0).to_dict() != _concept(1).to_dict()


def test_target_mapper_kind_follows_task():
    c = _concept(2)
    g = c.graph
    assert c.task == "classification"
    assert c.mappers[g.target].kind in CATEGORICAL_KINDS
    assert c.n_classes == 3
    r = init_concept(g, ConceptParams(), np.random.default_rng(2), task="regression")
    assert r.task == "regression"
    assert r.mappers[g.target].kind in ("learned-mlp", "regression-tree", "sgd-linear")


def test_pinned_target_kind_mismatch_raises():
    params = ConceptParams(n_classes=3, nodes={5: {"mapper": "learned-mlp"}})
    with pytest.raises(ValueError):
        init_concept(example_graph(), params, np.random.default_rng(0))


def test_constant_nodes_name_their_temporal_cause():
    """With alpha = sigma = 0 every node holds its start value, so a
    categorical node has a degenerate parent box on both init attempts."""
    still = TemporalParams(alpha=0.0, rho=0.0, sigma=0.0)
    cfg = GeneratorConfig(dataset_size=50, seed=0, d=2, task="classification", temporal=still)
    with pytest.raises(ValueError, match="degenerate parent box.*alpha = 0 and sigma = 0"):
        build_stream(cfg)
    # no categorical node, nothing to fit a box to: the run goes ahead
    regression = GeneratorConfig(dataset_size=50, seed=0, d=2, task="regression", temporal=still)
    frame = collect(build_stream(regression), 50)
    assert len(frame.y) == 50 and np.isfinite(frame.X).all()


def test_a_concept_init_gets_two_more_tries_after_two_failures(monkeypatch):
    """dataset6 at this seed has a constant categorical parent over the fit
    sample in each of its first two tries; a third try, on a seed drawn from
    the init substream only then, builds.  A run with constant nodes still
    raises after two tries, and draws no third seed."""
    import causalstream.concept as concept_module

    tries = []
    once = concept_module._init_once
    monkeypatch.setattr(concept_module, "_init_once", lambda *a: tries.append(1) or once(*a))
    gen = build_stream(preset_config("dataset6", seed=2916806109))
    assert len(tries) == 3 and len(gen.take(20)) == 20
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    still = TemporalParams(alpha=0.0, rho=0.0, sigma=0.0)
    with pytest.raises(ValueError, match="alpha = 0 and sigma = 0"):
        init_concept(example_graph(), ConceptParams(), rng, temporal=still)
    ref.integers(0, 2**63, size=2, dtype=np.uint64)
    assert len(tries) == 5 and rng.random() == ref.random()


def test_node_pins_respected():
    params = ConceptParams(
        n_classes=4,
        nodes={
            0: {"dist": "normal"},
            1: {"dist": "uniform"},
            2: {"mapper": "sgd-linear", "target_fn": "sine"},
            5: {"mapper": "prototype"},
        },
    )
    c = init_concept(example_graph(), params, np.random.default_rng(6))
    assert c.root_dists[0].kind == "normal"
    assert c.root_dists[1].kind == "uniform"
    assert c.mappers[2].kind == "sgd-linear"
    assert c.mappers[2].fitted_target.kind == "sine"
    assert c.mappers[5].kind == "prototype"


def test_continuous_nodes_and_noise_scale():
    c = _concept(3)
    for r in c.graph.roots:
        assert r in c.continuous_nodes
        assert c.noise_scale(r) == pytest.approx(c.root_dists[r].std())
    for node in c.graph.feature_nodes:
        if node in c.graph.roots:
            continue
        m = c.mappers[node]
        if hasattr(m, "out_scale"):
            assert node in c.continuous_nodes
            assert c.noise_scale(node) == pytest.approx(m.out_scale)
        else:
            assert node not in c.continuous_nodes


def test_deterministic_label_applies_permutation():
    c = _concept(5)
    target = c.graph.target
    parents = c.graph.parents[target]
    point = {p: 0.3 * (i + 1) for i, p in enumerate(parents)}
    raw = c.mappers[target].predict(
        np.asarray([point[p] for p in parents], dtype=float)
    )
    assert deterministic_label(c, point) == c.class_permutation[raw]
    with pytest.raises(ValueError):
        deterministic_label(c, {parents[0]: 1.0})  # missing parent values


def test_deterministic_label_rejects_regression():
    r = init_concept(example_graph(), ConceptParams(), np.random.default_rng(1), task="regression")
    with pytest.raises(ValueError):
        deterministic_label(r, {p: 0.0 for p in r.graph.parents[r.graph.target]})


def test_concept_round_trip_and_copy():
    """A decoded concept equals the original; a concept built from it with
    a new mapper differs, and leaves the original alone."""
    c = _concept(7)
    clone = Concept.from_dict(c.to_dict())
    assert clone == c
    target = c.graph.target
    cp = c.with_mapper(target, c.mappers[target])
    assert cp == c
    cp = cp.with_mapper(target, cp.mappers[target].move_centroids(np.random.default_rng(2)))
    assert cp != c == clone  # replacing a mapper of the new concept leaves the original alone


@pytest.mark.parametrize(
    "kinds",
    [
        ("learned-mlp", "regression-tree", "sgd-linear", "prototype"),
        ("random-mlp", "gaussian-prototype", "random-rbf", "hyperplane"),
    ],
)
def test_copy_shares_no_mapper_array(kinds):
    """Every kind's arrays are read-only, so an in-place edit raises; a
    concept that replaces every array of every mapper leaves the original
    as it was."""
    nodes = {node: {"mapper": kind} for node, kind in zip((2, 3, 4, 5), kinds)}
    c = init_concept(
        example_graph(), ConceptParams(n_classes=2, nodes=nodes), np.random.default_rng(3)
    )
    before = c.to_dict()
    cp = c
    for node, m in c.mappers.items():
        arrays = {k: v for k, v in vars(m).items() if isinstance(v, np.ndarray)}
        assert arrays, m.kind
        for v in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                v += 1
        cp = cp.with_mapper(node, m._with(**{k: v + 1 for k, v in arrays.items()}))
    assert c.to_dict() == before != cp.to_dict()


def test_snapshot_round_trip_and_isolation():
    c = _concept(8)
    state = TemporalState.initial(c.root_dists, c.continuous_nodes)
    snap = ConceptSnapshot(c, state)
    restored = snap.concept
    assert restored == c
    # drift the restored concept; the snapshot must not follow
    target = c.graph.target
    drifted = restored.with_mapper(
        target, restored.mappers[target].move_centroids(np.random.default_rng(0))
    )
    assert drifted != c
    again = snap.concept
    assert again == c
    assert serialize_params(again.mappers[c.graph.target]) == serialize_params(
        c.mappers[c.graph.target]
    )


def test_snapshot_is_unmoved_by_in_place_changes_to_the_live_concept():
    pins = {0: {"dist": "normal", "dist_params": [0.5, 2.0]}}
    c = _concept(10, nodes=pins)
    state = TemporalState.initial(c.root_dists, c.continuous_nodes)
    # equal to a JSON round trip of the concept, so the bytes are the same
    concept_doc = json.loads(json.dumps(c.to_dict()))
    state_doc = json.loads(json.dumps(state.to_dict()))
    snap = ConceptSnapshot(c, state)
    # every array, tuple and dict the live concept and state hold refuses an
    # edit in place; change each in a new live concept or state instead,
    # twice over
    for edit in range(2):
        for node, mapper in c.mappers.items():
            for key, value in vars(mapper).items():
                if isinstance(value, np.ndarray) and value.size:
                    with pytest.raises(ValueError, match="read-only"):
                        value.flat[0] = -value.flat[0] - 1
                    value = value.copy()
                    value.flat[0] = -value.flat[0] - 1
                    c = c.with_mapper(node, c.mappers[node]._with(**{key: value}))
        with pytest.raises(TypeError):
            c.params.nodes[0]["dist_params"][0] = 99.0 + edit
        with pytest.raises(TypeError):
            c.params.nodes[0]["dist"] = "uniform"
        pin = {"dist": "uniform", "dist_params": [99.0 + edit, 100.0]}
        c = replace(c, params=replace(c.params, nodes={0: pin}))
        with pytest.raises(TypeError):
            c.root_dists[1] = c.root_dists[0]
        c = c.with_root_dist(1, c.root_dists[0])
        with pytest.raises(AttributeError):
            c.class_permutation = tuple(reversed(c.class_permutation))
        c = replace(c, class_permutation=tuple(reversed(c.class_permutation)))
        with pytest.raises(TypeError):
            state.ewma[next(iter(state.ewma))] += 1.0
        with pytest.raises(TypeError):
            state.ar[next(iter(state.ar))] += 1.0
        state = TemporalState(
            {node: x + 1.0 for node, x in state.ewma.items()},
            {node: x + 1.0 for node, x in state.ar.items()},
        )
        assert c.to_dict() != concept_doc
        assert snap.concept.to_dict() == concept_doc
        assert snap.state.to_dict() == state_doc
    # a document is new on every read: editing it moves no later read or
    # restore
    for edit in range(2):
        doc = snap.to_dict()["concept"]
        doc["root_dists"].clear()
        doc["params"]["nodes"][next(iter(doc["params"]["nodes"]))]["dist_params"][0] = 7.0
        doc["mappers"][next(iter(doc["mappers"]))].clear()
        doc["class_permutation"].reverse()
        assert doc != concept_doc
        assert snap.to_dict()["concept"] == concept_doc
        assert snap.concept.to_dict() == concept_doc
        assert json.loads(snap.to_json())["concept"] == concept_doc


def test_editing_a_read_state_moves_no_snapshot_bytes():
    gen = build_stream(preset_config("dataset3", 0))
    snap = gen.snapshots["concept0"]
    before = snap.to_json()
    state = snap.state.to_dict()
    state["ewma"][next(iter(state["ewma"]))] = 123.0
    state["ar"].clear()
    assert snap.state.to_dict() != state
    assert snap.to_json() == before


def test_every_in_place_edit_of_a_state_raises():
    """A state keeps read-only views of copies of its dicts, also a
    snapshot's state read from a segment's paths."""
    ewma, ar = {0: 1.0}, {0: 0.0, 2: 0.5}
    fresh = TemporalState(ewma, ar)
    ewma[0] = ar[2] = 9.0
    assert fresh.ewma == {0: 1.0} and fresh.ar == {0: 0.0, 2: 0.5}
    gen = build_stream(preset_prefix("dataset1", 600))
    gen.take(600)
    for state in (fresh, gen.snapshots["concept1"].state, gen.state):
        for view in (state.ewma, state.ar):
            node = next(iter(view))
            with pytest.raises(TypeError):
                view[node] = 2.0
            with pytest.raises(TypeError):
                view[node] += 2.0
            with pytest.raises(TypeError):
                del view[node]
            for method in ("clear", "pop", "popitem", "setdefault", "update"):
                with pytest.raises(AttributeError):
                    getattr(view, method)
        with pytest.raises(AttributeError):
            state.ar = {}


def test_snapshot_json_round_trip():
    c = _concept(9)
    state = TemporalState.initial(c.root_dists, c.continuous_nodes)
    snap = ConceptSnapshot(c, state)
    clone = ConceptSnapshot.from_dict(json.loads(snap.to_json()))
    assert clone.concept == snap.concept and clone.state == snap.state
    assert clone == snap and clone.to_json() == snap.to_json()


def test_simulate_concept_samples_shape_and_determinism():
    c = _concept(10)
    a = simulate_concept_samples(c, 64, np.random.default_rng(12))
    b = simulate_concept_samples(c, 64, np.random.default_rng(12))
    assert a.shape == (64, c.graph.n_nodes)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a[:, list(c.graph.feature_nodes)]))


def _reference_walk(concept, n, rng, last):
    """Every node of ``concept``, in topological order up to ``last``, drawn
    and computed in turn: the warmup walk before the pruned one."""
    graph, temporal = concept.graph, concept.temporal
    V = np.full((n, graph.n_nodes), np.nan)
    for node in graph.topo_order:
        if graph.is_root(node):
            V[:, node] = simulate_root_values(n, concept.root_dists[node], temporal, rng)
        else:
            m = concept.mappers[node]
            out = m.predict(V[:, graph.parents[node]])
            if m.kind in CONTINUOUS_KINDS:
                out = out + simulate_ar_noise(n, temporal, rng, sigma_scale=m.out_scale)
            elif node == graph.target and concept.class_permutation is not None:
                out = np.asarray(concept.class_permutation)[out]
            V[:, node] = out
        if node == last:
            return V


@pytest.fixture(scope="module")
def dataset6():
    """A d=100 dataset6 stream generator, the widest graph of the presets."""
    return build_stream(preset_prefix("dataset6", 600))


def test_a_pruned_walk_fills_its_columns_and_leaves_rng_as_the_full_walk(dataset6):
    """For each node set ``S``: the columns of ``S`` and its ancestors are
    bit-equal to the full walk's, and ``rng`` is left where a full walk that
    stops after the last node of ``S`` leaves it."""
    regression = init_concept(
        example_graph(), ConceptParams(), np.random.default_rng(4), task="regression"
    )
    swapped = replace(_concept(3), class_permutation=(2, 0, 1))
    for c in (_concept(1), swapped, regression, dataset6.concept):
        graph, n = c.graph, 64
        order = graph.topo_order
        picks = np.random.default_rng(graph.n_nodes).choice(graph.n_nodes, 3, replace=False)
        sets = [
            (graph.target,),
            graph.parents[graph.target],
            (order[0],),
            (order[-1],),
            tuple(int(v) for v in picks),
            order,
        ]
        full = simulate_concept_samples(c, n, np.random.default_rng(5))
        assert np.array_equal(full, _reference_walk(c, n, np.random.default_rng(5), order[-1]))
        for S in sets:
            rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
            V = simulate_concept_samples(c, n, rng, nodes=S)
            _reference_walk(c, n, ref_rng, max(S, key=order.index))
            filled = sorted(set(S).union(*map(graph.ancestors, S)))
            assert np.array_equal(V[:, filled], full[:, filled]), S
            assert rng.random() == ref_rng.random(), S


def test_a_move_prototypes_event_predicts_only_the_targets_ancestors(dataset6, monkeypatch):
    concept = dataset6.concept
    graph = concept.graph
    called = []
    predict = Mapper.predict

    def counted(self, P):
        called.append(self)
        return predict(self, P)

    monkeypatch.setattr(Mapper, "predict", counted)
    move = ShiftAction("move-prototypes", graph.target)
    spec = ShiftSpec("distributional", "abrupt", 0, actions=(move,))
    out = apply_abrupt(concept, spec, np.random.default_rng(0))
    node_of = {id(m): node for node, m in out.mappers.items()}
    ancestors = [v for v in graph.ancestors(graph.target) if not graph.is_root(v)]
    assert sorted(node_of[id(m)] for m in called) == ancestors
    # the walk up to the target's last parent passes more inner nodes than that
    order = graph.topo_order
    last = max(order.index(p) for p in graph.parents[graph.target])
    assert len(ancestors) < sum(not graph.is_root(v) for v in order[: last + 1])


def test_the_engine_encodes_only_the_snapshots_that_are_read(monkeypatch):
    encoded = []
    to_dict = Concept.to_dict
    monkeypatch.setattr(Concept, "to_dict", lambda self: encoded.append(self) or to_dict(self))
    gen = build_stream(preset_prefix("dataset6", 600))
    gen.take(600)
    assert len(gen.snapshots) == 2 and encoded == []
    # a read hands out the concept itself; only its document encodes it
    snap = gen.snapshots["concept1"]
    assert snap.concept is gen.concept and encoded == []
    snap.to_json()
    assert len(encoded) == 1 and encoded[0] is snap.concept
    # dataset3's recurrent event restores a snapshot's concept itself,
    # which it shares, without encoding it
    encoded.clear()
    gen = build_stream(preset_config("dataset3", 0))
    gen.take(2500)
    assert len(gen.snapshots) == 5 and encoded == []


def test_params_validation():
    with pytest.raises(ValueError, match="unknown task 'ranking'"):
        init_concept(example_graph(), ConceptParams(), np.random.default_rng(0), task="ranking")
    with pytest.raises(ValueError):
        ConceptParams(n_classes=1)
    with pytest.raises(ValueError):
        ConceptParams(p_categorical=1.5)
    with pytest.raises(ValueError):
        ConceptParams(fit_samples=1)
    # a misspelt pin key fails here, not silently at init
    with pytest.raises(ValueError, match="unknown key 'maper' in nodes.3"):
        ConceptParams(nodes={3: {"maper": "sgd-linear"}})
