import copy
import dataclasses

import numpy as np
import pytest

from conftest import COVERAGE_DOC, preset_prefix, wide_refit
import causalstream.generator as generator_module
from causalstream.analysis import ljung_box
from causalstream.concept import ConceptParams
from causalstream.config import GeneratorConfig, parse_config
from causalstream.drift import (
    DriftSchedule,
    InterventionPolicy,
    ShiftAction,
    ShiftSpec,
)
from causalstream.generator import build_stream, collect
from causalstream.presets import example_graph, preset_config
from causalstream.stream_io import write_stream_csv
from causalstream.temporal import TemporalParams


def _drift_free(seed=0, n=800, **kw):
    cfg = preset_config("dataset1", seed)
    return dataclasses.replace(
        cfg, dataset_size=n, schedule=DriftSchedule(()), **kw
    )


def test_stream_is_reproducible():
    cfg = _drift_free(3, n=300)
    a = build_stream(cfg).take(300)
    b = build_stream(cfg).take(300)
    for ia, ib in zip(a, b):
        assert ia.t == ib.t
        assert ia.features == ib.features
        assert ia.label == ib.label
        assert ia.values == ib.values
        assert ia.concept_id == ib.concept_id


def test_schedule_touches_nothing_before_t_start():
    """A paired run without the schedule is identical up to the first event."""
    cfg = preset_prefix("dataset1", 700, seed=1)
    with_events = build_stream(cfg).take(700)
    without = build_stream(
        dataclasses.replace(cfg, schedule=DriftSchedule(()))
    ).take(700)
    first_diff = None
    for ia, ib in zip(with_events, without):
        if ia.values != ib.values or ia.label != ib.label:
            first_diff = ia.t
            break
    assert first_diff == 500  # dataset1's first event fires exactly there


def test_take_yields_exactly_dataset_size():
    cfg = _drift_free(2, n=150)
    rows = build_stream(cfg).take(cfg.dataset_size)
    assert len(rows) == 150
    assert [r.t for r in rows] == list(range(150))


def test_intervention_frequency_within_three_sigma():
    cfg = _drift_free(5, n=4000, p_i=0.2)
    hit = sum(bool(inst.intervened) for inst in build_stream(cfg).take(cfg.dataset_size))
    mean, sd = 4000 * 0.2, (4000 * 0.2 * 0.8) ** 0.5
    assert abs(hit - mean) <= 3 * sd


def test_missing_frequency_and_arity():
    cfg = _drift_free(6, n=1500, p_m=1.0)
    gen = build_stream(cfg)
    for inst in gen.take(1500):
        assert 1 <= len(inst.missing) <= 3
        assert set(inst.missing) <= set(gen.emitted_features)
        assert inst.label is not None  # the label is never masked
        for slot, node in enumerate(gen.emitted_features):
            if node in inst.missing:
                assert inst.features[slot] is None
            else:
                assert inst.features[slot] is not None
    cfg2 = _drift_free(7, n=4000, p_m=0.5)
    hit = sum(bool(inst.missing) for inst in build_stream(cfg2).take(cfg2.dataset_size))
    mean, sd = 4000 * 0.5, (4000 * 0.25) ** 0.5
    assert abs(hit - mean) <= 3 * sd


def test_forced_values_are_independent_of_parents():
    """Correlation between a parent and a forced child vanishes under do()."""
    cfg = _drift_free(
        8, n=17_000, p_i=1.0, policy=InterventionPolicy(count_range=(3, 3)),
    )
    x0, x2 = [], []
    for inst in build_stream(cfg).take(cfg.dataset_size):
        if 2 in inst.intervened:
            x0.append(inst.values[0])
            x2.append(inst.values[2])
    assert len(x0) >= 10_000
    r = np.corrcoef(np.asarray(x0[:10_000]), np.asarray(x2[:10_000]))[0, 1]
    assert abs(r) < 0.05


def test_natural_root_draws_survive_intervention_toggle():
    """Toggling the policy never perturbs the natural root value stream."""
    base = _drift_free(9, n=400)
    forced = dataclasses.replace(
        base, p_i=1.0, policy=InterventionPolicy(count_range=(1, 3)),
    )
    plain = build_stream(base).take(400)
    dosed = build_stream(forced).take(400)
    for ia, ib in zip(plain, dosed):
        for root in (0, 1):
            if root not in ib.intervened:
                assert ib.values[root] == ia.values[root]


def test_gradual_window_mixes_whole_instances():
    act = ShiftAction("root-params", node=0, params={"shift_std": 3.0})
    sched = DriftSchedule((
        ShiftSpec("covariate", "gradual", 300, duration=250, actions=(act,)),
    ))
    cfg = dataclasses.replace(_drift_free(10, n=700), schedule=sched)
    rows = build_stream(cfg).take(700)
    assert {r.concept_id for r in rows[:300]} == {"concept0"}
    inside = {r.concept_id for r in rows[300:550]}
    assert inside == {"concept0", "concept1"}
    assert {r.concept_id for r in rows[550:]} == {"concept1"}


def test_incremental_window_reports_new_concept_id():
    act = ShiftAction("root-params", node=0, params={"mean": 4.0})
    sched = DriftSchedule((
        ShiftSpec("covariate", "incremental", 200, duration=100, actions=(act,)),
    ))
    cfg = dataclasses.replace(_drift_free(11, n=400), schedule=sched)
    gen = build_stream(cfg)
    rows = gen.take(400)
    assert {r.concept_id for r in rows[:200]} == {"concept0"}
    assert {r.concept_id for r in rows[200:]} == {"concept1"}
    # the walk ends exactly on the frozen endpoint
    assert gen.concept.root_dists[0].p1 == 4.0


def test_snapshots_cover_every_event():
    cfg = preset_config("dataset1", 0)
    gen = build_stream(cfg)
    gen.take(cfg.dataset_size)
    assert set(gen.snapshots) >= {f"concept{i}" for i in range(5)}
    # dataset1's events are abrupt, so its last snapshot holds the live
    # concept itself
    assert gen.snapshots["concept4"].concept is gen.concept


@pytest.mark.parametrize("preset", ["dataset2", "dataset3"])
def test_snapshots_share_every_mapper_that_no_event_names(preset):
    """Each snapshot, and each recurrent restore, holds the very mapper
    objects of the live concept for every node that no event of the run
    names: no event copies a mapper."""
    cfg = preset_config(preset, 0)
    gen = build_stream(cfg)
    gen.take(cfg.dataset_size)
    named = {action.node for event in cfg.schedule for action in event.actions}
    live = gen.concept.mappers
    unnamed = [node for node in live if node not in named]
    assert unnamed and len(gen.snapshots) == len(cfg.schedule) + 1
    for sid, snap in gen.snapshots.items():
        held = snap.concept.mappers
        assert all(held[node] is live[node] for node in unnamed), sid


def test_feature_subsample_limits_emission():
    cfg = _drift_free(12, n=120, feature_subsample=3)
    gen = build_stream(cfg)
    assert len(gen.emitted_features) == 3
    assert gen.concept.graph.target not in gen.emitted_features
    assert list(gen.emitted_features) == sorted(gen.emitted_features)
    frame = collect(gen, 120)
    assert frame.X.shape == (120, 3)
    assert frame.feature_names == ("x1", "x2", "x3")


def test_collect_frame_contents():
    cfg = _drift_free(13, n=200, p_m=0.3)
    frame = collect(build_stream(cfg), 200)
    assert frame.task == "classification"
    assert frame.y.dtype.kind == "i"
    assert frame.X.shape == (200, 5)
    assert np.array_equal(np.isnan(frame.X), frame.missing_mask)
    assert frame.n == 200
    assert len(frame.concept_ids) == 200


def test_config_cross_validation():
    with pytest.raises(ValueError, match="unknown task 'ranking'"):
        GeneratorConfig(dataset_size=100, seed=0, d=5, task="ranking", concept=ConceptParams())
    with pytest.raises(ValueError):
        GeneratorConfig(dataset_size=100, seed=0, d=4, graph=example_graph())
    with pytest.raises(ValueError):
        GeneratorConfig(dataset_size=-1, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(dataset_size=100, seed=0, feature_subsample=9)


def test_api_configs_reject_events_past_the_end():
    """A preset cut without its schedule would run with its late events
    never fired while the sidecar still lists them."""
    with pytest.raises(ValueError, match=r"event at t=1000 starts at or after the end"):
        dataclasses.replace(preset_config("dataset1", 1), dataset_size=600)
    # an event at the last row is still inside the stream
    assert preset_prefix("dataset1", 501, seed=1).schedule.events[0].t_start == 500


def test_ewma_only_mode_breaks_whiteness():
    """alpha < 1 alone already leaves detectable memory in every column."""
    tp = TemporalParams(alpha=0.05, rho=0.0, sigma=0.4)
    for seed in range(5):
        cfg = _drift_free(seed, n=2000, temporal=tp)
        frame = collect(build_stream(cfg), 2000)
        rejected = sum(
            ljung_box(frame.X[:, j], 20).reject_at[0.05] for j in range(5)
        )
        assert rejected >= 3


def _run(cfg, path) -> dict:
    """A whole run: its CSV bytes, each row's fields that the CSV does not
    hold, every snapshot's concept and state, and the arrays that
    ``collect`` reads from a second generator."""
    gen = build_stream(cfg)
    rows = gen.take(cfg.dataset_size)
    write_stream_csv(path, rows, gen.feature_names)
    frame = collect(build_stream(cfg), cfg.dataset_size)
    return {
        "csv": path.read_bytes(),
        "rows": [(r.concept_id, r.values, r.intervened, r.missing) for r in rows],
        "snapshots": {k: (s.concept, s.state) for k, s in gen.snapshots.items()},
        "frame": (
            *(a.tobytes() for a in (frame.X, frame.y, frame.missing_mask)),
            frame.intervened,
            frame.concept_ids,
        ),
    }


def _dense_events():
    """The coverage graph, p_i = p_m = 0.1, 300 rows and dense abrupt
    events: at rows 1, 2 and 3, a root shift and a class swap 5 rows apart,
    and a restore of ``concept2`` that a default segment completed 58 rows
    earlier, followed at once by one more event."""
    doc = copy.deepcopy(COVERAGE_DOC)
    doc.update(dataset_size=300, p_i=0.1, p_m=0.1)

    def abrupt(kind, t, *actions):
        return {"kind": kind, "rate": "abrupt", "t_start": t, "actions": list(actions)}

    doc["schedule"] = {"events": [
        abrupt("distributional", 1, {"mechanism": "change-distance", "node": 2}),
        abrupt("distributional", 2, {"mechanism": "rotate-hyperplane", "node": 5}),
        abrupt(
            "distributional", 3,
            {"mechanism": "move-prototypes", "node": 2},
            {"mechanism": "refit-new-target-fn", "node": 4},
        ),
        abrupt("covariate", 40, {"mechanism": "root-params", "node": 0,
                                 "params": {"shift_std": 1.0}}),
        abrupt("severe", 45, {"mechanism": "swap-classes"}),
        {"kind": "recurrent", "rate": "abrupt", "t_start": 60, "snapshot_id": "concept2"},
        abrupt("distributional", 61, {"mechanism": "reinit-random-mlp", "node": 3}),
    ]}
    return parse_config(doc).generator


_SEGMENT_CASES = {
    "dataset1": lambda: preset_config("dataset1", 0),
    "dataset2": lambda: preset_config("dataset2", 0),
    "coverage": lambda: parse_config(copy.deepcopy(COVERAGE_DOC)).generator,
    "wide-refit": wide_refit,
    "dense": _dense_events,
}


@pytest.mark.parametrize("case", list(_SEGMENT_CASES))
def test_segment_length_never_changes_the_bytes(case, tmp_path, monkeypatch):
    """Segments of 1, 7, 255 or 4096 rows give the same run as the default:
    the CSV, every row's concept id, values, intervened and missing fields,
    every snapshot's concept and state, and the arrays of ``collect``.  dataset2 and the coverage
    config hold gradual and incremental windows, which the cap splits; the
    dense case puts several abrupt events, and a restore of a concept
    completed in the same segment, inside one default segment."""
    cfg = _SEGMENT_CASES[case]()
    expected = _run(cfg, tmp_path / "default.csv")
    for rows in (1, 7, 255, 4096):
        monkeypatch.setattr(generator_module, "_SEGMENT_ROWS", rows)
        got = _run(cfg, tmp_path / f"{rows}.csv")
        for what in expected:
            assert got[what] == expected[what], (rows, what)


def test_windows_events_and_restores_end_no_segment(tmp_path, monkeypatch):
    """A gradual window over rows 10-40, an abrupt event at 50 and a restore
    of that event's concept at 70 end no segment: the first row builds the
    whole 100-row stream in one, which equals the stream built one row per
    segment."""
    doc = copy.deepcopy(COVERAGE_DOC)
    doc["dataset_size"] = 100
    root = {"mechanism": "root-params", "node": 0, "params": {"shift_std": 1.0}}
    doc["schedule"] = {"events": [
        {"kind": "covariate", "rate": "gradual", "t_start": 10, "duration": 30, "actions": [root]},
        {"kind": "distributional", "rate": "abrupt", "t_start": 50,
         "actions": [{"mechanism": "rotate-hyperplane", "node": 5}]},
        {"kind": "recurrent", "rate": "abrupt", "t_start": 70, "snapshot_id": "concept2"},
    ]}
    cfg = parse_config(doc).generator
    gen = build_stream(cfg)
    gen.take(1)
    assert gen._built == cfg.dataset_size
    assert list(gen.snapshots) == [f"concept{k}" for k in range(4)]
    assert gen.snapshots["concept3"].concept == gen.snapshots["concept2"].concept
    expected = _run(cfg, tmp_path / "default.csv")
    monkeypatch.setattr(generator_module, "_SEGMENT_ROWS", 1)
    assert _run(cfg, tmp_path / "1.csv") == expected


# per mechanism with a lerped plan: the shift kind and a coverage-config node
# it moves
_LERPED = {
    "root-params": ("covariate", 0),
    "move-prototypes": ("distributional", 2),
    "reinit-random-mlp": ("distributional", 3),
    "rotate-hyperplane": ("distributional", 5),
}


@pytest.mark.parametrize("mechanism", sorted(_LERPED))
def test_an_incremental_window_ends_on_its_abrupt_twin(mechanism, monkeypatch):
    """From the same seed and ``t_start``, the stream's concept after an
    incremental window equals the one that the abrupt event of the same
    action completes, at the default segment cap and at a cap of 1 row."""
    kind, node = _LERPED[mechanism]
    params = {"shift_std": 1.0, "scale_factor": 1.5} if mechanism == "root-params" else {}
    action = ShiftAction(mechanism, node, params)
    base = parse_config(copy.deepcopy(COVERAGE_DOC)).generator

    def completed(rate, duration):
        event = ShiftSpec(kind, rate, 100, duration, (action,))
        cfg = dataclasses.replace(base, dataset_size=200, schedule=DriftSchedule((event,)))
        gen = build_stream(cfg)
        gen.take(cfg.dataset_size)
        return gen.snapshots["concept1"].concept

    abrupt = completed("abrupt", 1)
    assert completed("incremental", 50) == abrupt
    monkeypatch.setattr(generator_module, "_SEGMENT_ROWS", 1)
    assert completed("incremental", 50) == abrupt
    assert completed("abrupt", 1) == abrupt


def test_no_row_is_built_past_the_stream_length():
    """The last segment ends at ``dataset_size``, not at the segment cap;
    reading on past it still works."""
    cfg = preset_prefix("dataset1", 900)
    gen = build_stream(cfg)
    last = gen.take(cfg.dataset_size)[-1]
    assert last.t == 899 and gen._built == cfg.dataset_size
    assert gen.step().t == 900


def test_instance_field_types():
    """Python ints for categorical nodes and labels, floats for continuous
    nodes, None for masked features."""
    cfg = parse_config(copy.deepcopy(COVERAGE_DOC)).generator
    gen = build_stream(cfg)
    concept = gen.concept
    for inst in gen.take(cfg.dataset_size):
        assert type(inst.t) is int and type(inst.label) is int
        for node, value in inst.values.items():
            expected = int if concept.is_categorical(node) else float
            assert type(value) is expected, (inst.t, node)
        for node, value in zip(gen.emitted_features, inst.features):
            if node in inst.missing:
                assert value is None
            else:
                assert value == inst.values[node] and type(value) is type(inst.values[node])
        assert all(type(n) is int for n in inst.intervened + inst.missing)


def _frame_rows(frame) -> list[tuple]:
    """Per row of a ``collect`` frame, the fields an ``Instance`` holds."""
    features = [
        tuple(None if masked else v for v, masked in zip(x, m))
        for x, m in zip(frame.X.tolist(), frame.missing_mask.tolist())
    ]
    return list(zip(features, frame.y.tolist(), frame.intervened, frame.concept_ids))


def test_step_take_and_iteration_read_one_stream():
    """``step``, ``take``, iteration and ``collect`` read one stream, in
    any mix; a ``collect`` may start inside a segment that ``step`` began,
    and ``step`` inside one that ``collect`` built.  The default segments
    end at row 256."""
    cfg = _drift_free(14, n=300, p_i=0.3, p_m=0.2)
    a = build_stream(cfg)
    assert collect(a, 0).n == 0 and a.t == 0 and a._built == 0
    rows = [a.step() for _ in range(5)]
    frames = [(5, collect(a, 40))]
    assert a.t == 45
    rows += a.take(100)
    assert a.t == 145
    frames += [(145, collect(a, 0)), (145, collect(a, 150))]
    assert a.t == 295
    rows += [inst for _, inst in zip(range(5), a)]
    assert a.t == 300
    b = build_stream(cfg).take(300)
    assert [r.t for r in rows] == [*range(5), *range(45, 145), *range(295, 300)]
    assert rows == [b[r.t] for r in rows]
    for t, frame in frames:
        want = [(r.features, r.label, r.intervened, r.concept_id) for r in b[t : t + frame.n]]
        assert _frame_rows(frame) == want, t
    assert [f.n for _, f in frames] == [40, 0, 150]
    assert any(r.missing for r in b[145:295])  # the mask has cells to show


def test_batched_draws_repeat_the_one_row_calls():
    """A segment's batched draws give the values of the one-draw calls of a
    row-at-a-time walk, ``uniform(low, high)`` or ``normal(mean, std)``, and
    leave the generator in the same state."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        uniform = (rng.random(m) < 0.4).tolist()
        loc = rng.normal(size=m).tolist()
        width = (0.5 + rng.random(m)).tolist()
        second = [a + w if u else w for a, w, u in zip(loc, width, uniform)]  # high, or std
        scale = [b - a if u else b for a, b, u in zip(loc, second, uniform)]
        seed = int(rng.integers(1 << 30))
        batch, rows = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generator_module._draw_in_rows(batch, n, loc, scale, uniform)
        want = [
            [(rows.uniform if u else rows.normal)(a, b) for a, b, u in zip(loc, second, uniform)]
            for _ in range(n)
        ]
        assert got.tolist() == want
        assert batch.random() == rows.random()

