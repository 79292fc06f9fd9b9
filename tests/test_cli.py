import copy
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import COVERAGE_DOC, forced_blas_threads, preset_prefix
from causalstream import cli
from causalstream.cli import main
from causalstream.config import ConfigError, config_to_document, load_config, parse_config
from causalstream.drift import DriftSchedule
from causalstream.generator import build_stream
from causalstream.presets import PRESET_NAMES, preset_config
from causalstream.stream_io import (
    StreamFormatError,
    read_sidecar,
    read_stream_csv,
    sidecar_path,
    write_sidecar,
)


@pytest.fixture
def small_config(tmp_path):
    """400-row drift-free classification config on disk."""
    cfg = replace(
        preset_config("dataset1", 0), dataset_size=400, schedule=DriftSchedule(())
    )
    path = tmp_path / "small.json"
    path.write_text(json.dumps(config_to_document(cfg)))
    return path


def _generate(tmp_path, config_path, name="s.csv", extra=()):
    out = tmp_path / name
    rc = main(["generate", "--config", str(config_path), "--out", str(out), *extra])
    assert rc == 0
    return out


def test_preset_list_and_describe(capsys):
    assert main(["preset", "list"]) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert listed == list(PRESET_NAMES)
    assert main(["preset", "describe", "dataset1"]) == 0
    text = capsys.readouterr().out
    assert "rows=2500" in text and "classes=4" in text
    assert main(["preset", "describe"]) == 2
    assert main(["preset", "describe", "nope"]) == 2


def test_generate_source_validation(tmp_path, capsys):
    assert main(["generate"]) == 2
    assert (
        main(["generate", "--config", "x.json", "--preset", "dataset1"]) == 2
    )
    assert main(["generate", "--preset", "nope"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_generate_unwritable_out(tmp_path):
    missing_dir = tmp_path / "no_such_dir" / "x.csv"
    assert main(["generate", "--preset", "dataset1", "--out", str(missing_dir)]) == 3


def test_generate_seed_determinism(tmp_path, small_config):
    a = _generate(tmp_path, small_config, "a.csv")
    b = _generate(tmp_path, small_config, "b.csv")
    c = _generate(tmp_path, small_config, "c.csv", extra=("--seed", "11"))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_sidecar_regenerates_identical_stream(tmp_path):
    first = tmp_path / "run.csv"
    assert main(["generate", "--preset", "dataset1", "--seed", "0",
                 "--out", str(first)]) == 0
    meta = read_sidecar(first)
    assert meta["rows"] == 2500
    assert [b["t_start"] for b in meta["concept_boundaries"]] == [
        0, 500, 1000, 1500, 2000,
    ]
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(meta["config"]))
    second = tmp_path / "replay.csv"
    assert main(["generate", "--config", str(cfg_path), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sidecar_with_policy_regenerates_identical_stream(tmp_path):
    """A sidecar written for a config with a policy block parses back."""
    doc_path = tmp_path / "coverage.json"
    doc_path.write_text(json.dumps(COVERAGE_DOC))
    first = _generate(tmp_path, doc_path, "first.csv")
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(read_sidecar(first)["config"]))
    second = _generate(tmp_path, replay, "second.csv")
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("node", ["99", "2"], ids=["unknown-node", "categorical-node"])
def test_forced_value_spec_needs_a_continuous_node(tmp_path, capsys, node):
    """Node 99 is not in the coverage graph; node 2 is a prototype node,
    whose forced values are class codes."""
    doc = copy.deepcopy(COVERAGE_DOC)
    doc["policy"]["values"][node] = {"dist": "normal", "params": [100.0, 1.0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "bad.csv"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
    assert f"policy.values.{node}: node {node} is not a continuous node" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]
    with pytest.raises(ConfigError):
        build_stream(load_config(path).generator)


@pytest.mark.parametrize(
    "event",
    [
        {"kind": "severe", "actions": [
            {"mechanism": "swap-classes", "params": {"c1": 0, "c2": 9}}]},
        {"kind": "covariate", "actions": [
            {"mechanism": "root-params", "node": 0, "params": {"scale_factor": 0.0}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "change-distance", "node": 5, "params": {"distance": "cosine"}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "refit-new-target-fn", "node": 2, "params": {"target_fn": "cubic"}}]},
        {"kind": "covariate", "actions": [
            {"mechanism": "root-params", "node": 0, "params": {"variance": -1.0}}]},
        {"kind": "covariate", "actions": [
            {"mechanism": "root-params", "node": 0, "params": {"shift_std": "big"}}]},
        {"kind": "severe", "actions": [
            {"mechanism": "swap-classes", "params": {"c1": 1}}]},
        {"kind": "covariate", "actions": [
            {"mechanism": "root-params", "node": 0, "params": {"shift_sd": 3.0}}]},
        {"kind": "covariate", "actions": [
            {"mechanism": "root-params", "node": 0, "params": {"redraw": 1}}]},
        {"kind": "severe", "actions": [
            {"mechanism": "swap-classes", "params": {"c1": 0.5, "c2": 2}}]},
        {"kind": "severe", "actions": [
            {"mechanism": "swap-classes", "params": {"c1": True, "c2": 2}}]},
        {"kind": "severe", "actions": [
            {"mechanism": "swap-classes", "params": {"c1": 1.9, "c2": 2}}]},
        {"kind": "severe", "actions": [
            {"mechanism": "swap-classes", "params": {"c1": "1", "c2": 2}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "refit-new-target-fn", "node": 2, "params": {"angle_deg": 30.0}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "change-distance", "node": 5, "params": {"c1": 0}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "reinit-random-mlp", "node": 3, "params": {"scale": 2.0}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "move-prototypes", "node": 5, "params": {"distance": "euclidean"}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "rotate-hyperplane", "node": 5, "params": {"angle": 30.0}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "rotate-hyperplane", "node": 5, "params": {"angle_deg": "wide"}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "rotate-hyperplane", "node": 5, "params": {"angle_deg": math.nan}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "rotate-hyperplane", "node": 5, "params": {"angle_deg": math.inf}}]},
        {"kind": "distributional", "actions": [
            {"mechanism": "rotate-hyperplane", "node": 5, "params": {"angle_deg": True}}]},
    ],
    ids=[
        "swap-class-out-of-range",
        "scale-factor-zero",
        "unknown-distance",
        "unknown-target-fn",
        "negative-variance",
        "shift-std-not-a-number",
        "swap-one-class",
        "root-unknown-key",
        "redraw-not-a-bool",
        "swap-fraction",
        "swap-bool",
        "swap-fraction-above-one",
        "swap-string",
        "refit-unknown-key",
        "distance-unknown-key",
        "reinit-unknown-key",
        "move-unknown-key",
        "rotate-unknown-key",
        "angle-not-a-number",
        "angle-nan",
        "angle-infinite",
        "angle-bool",
    ],
)
def test_bad_action_params_fail_before_the_first_row(tmp_path, capsys, event):
    # a rotation needs a hyperplane node: node 5 of the coverage config
    if event["actions"][0]["mechanism"] == "rotate-hyperplane":
        doc = copy.deepcopy(COVERAGE_DOC)
    else:
        doc = config_to_document(preset_prefix("dataset1", 400))
    doc["schedule"] = {"events": [dict(event, rate="abrupt", t_start=200)]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "bad.csv"
    where = "schedule.events[0].actions[0]: "
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert where in capsys.readouterr().err
    # rejected when the stream is built, before any row is drawn, with the
    # path of the action
    with pytest.raises(ValueError, match=re.escape(where)):
        build_stream(load_config(path).generator)


def test_failed_generate_leaves_no_output(tmp_path, small_config, capsys, monkeypatch):
    """A run that fails part way removes its CSV, sidecar and temporary files."""

    def fail(*args):
        raise ValueError("failed after the last row")

    # raised once every row is written, before the sidecar
    monkeypatch.setattr(cli, "_sidecar_meta", fail)
    out = tmp_path / "late.csv"
    assert main(["generate", "--config", str(small_config), "--out", str(out)]) == 2
    assert "after the last row" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.json"]


@pytest.mark.parametrize(
    "events, message",
    [
        # names a concept the schedule completes later
        ([{"kind": "recurrent", "rate": "abrupt", "t_start": 200, "snapshot_id": "concept7"}],
         "concept7"),
        # names its own concept
        ([{"kind": "covariate", "rate": "abrupt", "t_start": 100,
           "actions": [{"mechanism": "root-params", "node": 0, "params": {"redraw": True}}]},
          {"kind": "recurrent", "rate": "abrupt", "t_start": 200, "snapshot_id": "concept2"}],
         "concept2"),
        ([{"kind": "recurrent", "rate": "abrupt", "t_start": 200, "snapshot_id": "warm"}],
         "warm"),
        # starts at the end of the 400-row stream
        ([{"kind": "recurrent", "rate": "abrupt", "t_start": 400, "snapshot_id": "concept0"}],
         "t=400"),
        ([{"kind": "covariate", "rate": "gradual", "t_start": 650, "duration": 50,
           "actions": [{"mechanism": "root-params", "node": 0, "params": {"redraw": True}}]}],
         "t=650"),
    ],
    ids=["forward-snapshot", "own-snapshot", "unknown-snapshot", "at-end", "past-end"],
)
def test_bad_schedules_are_rejected_at_parse_time(tmp_path, capsys, events, message):
    doc = config_to_document(preset_prefix("dataset1", 400))
    doc["schedule"] = {"events": events}
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "bad.csv"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def _put(doc: dict, path: str, value) -> None:
    """Put ``value`` at the dotted ``path`` of ``doc``; numbers index lists."""
    *outer, last = path.split(".")
    for key in outer:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    doc[last] = value


_SCHEMA_CASES = [
    ("bogus", 1, "unknown key 'bogus' in the document"),
    ("temporal.beta", 0.1, "unknown key 'beta' in temporal"),
    ("graph.topo_order", [0, 1], "unknown key 'topo_order' in graph"),
    ("concept.n_class", 2, "unknown key 'n_class' in concept"),
    ("concept.task", "classification", "unknown key 'task' in concept"),
    ("concept.nodes.3.maper", "sgd-linear", "concept: unknown key 'maper' in nodes.3"),
    ("schedule.evnts", [], "unknown key 'evnts' in schedule"),
    ("schedule.events.2.rates", "abrupt", r"unknown key 'rates' in schedule\.events\[2\]$"),
    ("schedule.events.2.actions.0.nodes", 0,
     r"unknown key 'nodes' in schedule\.events\[2\]\.actions\[0\]"),
    ("policy.p_intervene", 0.5, "unknown key 'p_intervene' in policy"),
    ("policy.values.3.low", 0.0, "policy: unknown key 'low' in values.3"),
    ("evaluation", {"windw": 50}, "unknown key 'windw' in evaluation"),
    ("analysis", {"lag": 5}, "unknown key 'lag' in analysis"),
    ("schedule.events.1.t_start", "200",
     r"schedule\.events\[1\]\.t_start must be an integer, not '200'"),
    ("seed", True, "seed must be an integer"),
    ("policy.count_range", [1, 2, 3], r"policy\.count_range must be a list of 2"),
    ("graph.parents.x", [], "graph.parents keys must be node ids"),
]


@pytest.mark.parametrize("path, value, message", _SCHEMA_CASES, ids=[c[0] for c in _SCHEMA_CASES])
def test_config_schema_names_the_path_of_a_bad_key(path, value, message):
    doc = copy.deepcopy(COVERAGE_DOC)
    _put(doc, path, value)
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)


def test_schedule_check_accepts_a_snapshot_of_an_earlier_window(tmp_path):
    doc = config_to_document(preset_prefix("dataset1", 400))
    doc["schedule"] = {"events": [
        {"kind": "covariate", "rate": "gradual", "t_start": 100, "duration": 100,
         "actions": [{"mechanism": "root-params", "node": 0, "params": {"redraw": True}}]},
        # the window completes concept1 at t=200, where this event starts
        {"kind": "recurrent", "rate": "abrupt", "t_start": 200, "snapshot_id": "concept1"},
        {"kind": "recurrent", "rate": "abrupt", "t_start": 399, "snapshot_id": "concept0"},
    ]}
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    out = _generate(tmp_path, path)
    ids = [b["id"] for b in read_sidecar(out)["concept_boundaries"]]
    assert ids == ["concept0", "concept1", "concept2", "concept3"]


def test_analyze_acf_report(tmp_path, small_config, capsys):
    stream = _generate(tmp_path, small_config)
    out = tmp_path / "acf.csv"
    rc = main(["analyze", "acf", str(stream), "--lags", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "column,lag,acf"
    # 5 features + y, lags 0..5 each
    assert len(lines) == 1 + 6 * 6
    first = lines[1].split(",")
    assert first[0] == "x1" and float(first[2]) == 1.0


def test_analyze_ljungbox_report(tmp_path, small_config):
    stream = _generate(tmp_path, small_config)
    out = tmp_path / "lb.csv"
    assert main(["analyze", "ljungbox", str(stream), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("column,Q,p_value,reject_")
    assert len(lines) == 1 + 6
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) >= 0.0
        assert 0.0 <= float(fields[2]) <= 1.0
        assert set(fields[3:]) <= {"0", "1"}


def test_analyze_mmd_report(tmp_path, small_config):
    stream = _generate(tmp_path, small_config)
    out = tmp_path / "mmd.csv"
    rc = main(["analyze", "mmd", str(stream), "--batch-size", "100",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text().strip().splitlines()
    assert text[0].startswith("# squared MMD matrix; bandwidth=")
    assert text[1] == ",0,1,2,3"
    assert len(text) == 2 + 4
    grid = out.with_suffix(".grid.csv")
    rows = grid.read_text().strip().splitlines()
    assert rows[0] == "batch_i,batch_j,mmd2"
    assert len(rows) == 1 + 16
    diag = [r for r in rows[1:] if r.split(",")[0] == r.split(",")[1]]
    assert all(float(r.split(",")[2]) == 0.0 for r in diag)


def test_analysis_reports_do_not_depend_on_blas_threads(tmp_path):
    # past 10,000 rows OpenBLAS splits a dot product over its threads
    cfg = replace(preset_config("dataset1", 0), dataset_size=12_000, schedule=DriftSchedule(()))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config_to_document(cfg)))
    stream = _generate(tmp_path, path)
    reports = {}
    for threads in (1, 2):
        with forced_blas_threads(threads):
            for mode in ("acf", "ljungbox", "mmd"):
                out = tmp_path / f"{mode}-{threads}.csv"
                args = ["analyze", mode, str(stream), "--lags", "20", "--batch-size", "1000"]
                assert main([*args, "--out", str(out)]) == 0
                reports[mode, threads] = out.read_bytes()
        reports["grid", threads] = (tmp_path / f"mmd-{threads}.grid.csv").read_bytes()
    for kind in ("acf", "ljungbox", "mmd", "grid"):
        assert reports[kind, 1] == reports[kind, 2], kind


def test_a_failed_mmd_report_leaves_no_output(tmp_path, small_config, capsys):
    """The grid cannot be written over a directory, so the matrix is not
    left either."""
    stream = _generate(tmp_path, small_config)
    (tmp_path / "m.grid.csv").mkdir()
    out = tmp_path / "m.csv"
    assert main(["analyze", "mmd", str(stream), "--batch-size", "100", "--out", str(out)]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "m.grid.csv", "s.csv", "s.meta.json", "small.json"
    ]
    assert list((tmp_path / "m.grid.csv").iterdir()) == []


def test_analyze_rejects_incomplete_stream(tmp_path, small_config, capsys):
    doc = json.loads(small_config.read_text())
    doc["p_m"] = 0.5
    holey = tmp_path / "holey.json"
    holey.write_text(json.dumps(doc))
    stream = _generate(tmp_path, holey, "holey.csv")
    body = stream.read_text().strip().splitlines()[1:]
    assert any("" in line.split(",") for line in body)
    assert main(["analyze", "acf", str(stream)]) == 2
    assert main(["analyze", "mmd", str(stream)]) == 2
    err = capsys.readouterr().err
    assert "missing" in err or "complete" in err


def test_analyze_io_errors(tmp_path):
    assert main(["analyze", "acf", str(tmp_path / "absent.csv")]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n1.0,hello\n")
    assert main(["analyze", "acf", str(bad)]) == 3
    assert main(["analyze", "acf", str(bad.with_suffix(".empty")) ]) == 3


def test_analyze_option_validation(tmp_path, small_config, capsys):
    stream = _generate(tmp_path, small_config)
    capsys.readouterr()
    assert main(["analyze", "mmd", str(stream), "--batch-size", "0"]) == 2
    assert capsys.readouterr().err == "config error: batch_size must be positive\n"
    assert main(["analyze", "acf", str(stream), "--lags", "0"]) == 2
    assert capsys.readouterr().err == "config error: lags must be positive\n"


def test_evaluate_preset_full_pipeline(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["evaluate", "--preset", "dataset1", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# prequential accuracy; W=100; learner=logistic")
    assert lines[1] == "t,accuracy"
    assert len(lines) == 2 + 2500 - 100
    events = out.with_suffix(".events.csv")
    rows = events.read_text().strip().splitlines()
    assert rows[0] == "event,kind,t_start,drop,recovery,min_t"
    assert len(rows) == 1 + 4
    starts = [int(r.split(",")[2]) for r in rows[1:]]
    assert starts == [500, 1000, 1500, 2000]


@pytest.mark.parametrize("preset", ["dataset1", "regression1"])
def test_evaluate_preset_matches_evaluate_of_its_generated_csv(tmp_path, preset):
    """``evaluate --preset`` collects the stream's arrays in process; the
    curve and event summary it writes equal those read from the CSV that
    ``generate`` writes for the same preset, byte for byte."""
    stream = tmp_path / "s.csv"
    assert main(["generate", "--preset", preset, "--out", str(stream)]) == 0
    direct, read = tmp_path / "direct.csv", tmp_path / "read.csv"
    assert main(["evaluate", "--preset", preset, "--out", str(direct)]) == 0
    assert main(["evaluate", str(stream), "--preset", preset, "--out", str(read)]) == 0
    assert direct.read_bytes() == read.read_bytes()
    events = ".events.csv"
    assert direct.with_suffix(events).read_bytes() == read.with_suffix(events).read_bytes()


def test_evaluate_with_too_short_a_horizon_writes_nothing(tmp_path, capsys):
    """A window too long to score the event at t=2000 fails before any output."""
    out = tmp_path / "c.csv"
    rc = main(["evaluate", "--preset", "dataset2", "--window", "300", "--out", str(out)])
    assert rc == 2
    assert "insufficient post-event horizon for the event at t=2000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_failed_evaluate_leaves_no_output(tmp_path, capsys):
    """The event summary cannot be written over a directory, so the curve is
    not left either."""
    stream = tmp_path / "s.csv"
    assert main(["generate", "--preset", "dataset1", "--seed", "0", "--out", str(stream)]) == 0
    (tmp_path / "curve.events.csv").mkdir()
    out = tmp_path / "curve.csv"
    rc = main(["evaluate", str(stream), "--preset", "dataset1", "--seed", "0", "--out", str(out)])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err
    assert not out.exists()
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == ["curve.events.csv", "s.csv", "s.meta.json"]
    assert list((tmp_path / "curve.events.csv").iterdir()) == []


def test_evaluate_csv_input_no_schedule(tmp_path, small_config):
    stream = _generate(tmp_path, small_config)
    out = tmp_path / "c.csv"
    rc = main(["evaluate", str(stream), "--window", "50", "--delay", "5",
               "--label-fraction", "0.5", "--out", str(out)])
    assert rc == 0
    head = out.read_text().splitlines()[0]
    assert "W=50" in head
    assert not out.with_suffix(".events.csv").exists()


def test_evaluate_regression_csv_uses_mae(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(300, 2))
    y = X[:, 0] - 0.5 * X[:, 1] + 0.25
    stream = tmp_path / "reg.csv"
    with open(stream, "w") as fh:
        fh.write("x1,x2,y\n")
        for i in range(300):
            fh.write(f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(y[i])!r}\n")
    out = tmp_path / "mae.csv"
    assert main(["evaluate", str(stream), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# prequential mae") and "learner=linear" in lines[0]
    assert lines[1] == "t,mae"


def test_read_stream_takes_the_task_from_the_sidecar(tmp_path):
    """A regression stream whose labels happen to be integers stays one."""
    x = np.random.default_rng(5).normal(size=300)
    y = np.round(4.0 * x).astype(int)
    stream = tmp_path / "reg.csv"
    stream.write_text("x1,y\n" + "".join(f"{float(a)!r},{int(b)}\n" for a, b in zip(x, y)))
    guessed = read_stream_csv(stream)
    assert guessed.task == "classification"
    write_sidecar(stream, {"task": "regression"})
    frame = read_stream_csv(stream)
    assert frame.task == "regression"
    assert frame.y.dtype.kind == "f" and np.array_equal(frame.y, y)
    out = tmp_path / "mae.csv"
    assert main(["evaluate", str(stream), "--out", str(out)]) == 0
    assert out.read_text().startswith("# prequential mae")
    # a classification sidecar needs integer labels
    real = tmp_path / "real.csv"
    real.write_text("x1,y\n0.5,0.25\n1.0,1.5\n")
    write_sidecar(real, {"task": "classification"})
    with pytest.raises(StreamFormatError, match="integers"):
        read_stream_csv(real)
    sidecar_path(real).write_text("[1, 2]")
    assert main(["evaluate", str(real)]) == 3


@pytest.mark.parametrize(
    "body, message",
    [
        ("1.0,nan,0", "row 3, column x2: not a finite number: nan"),
        ("-inf,1.0,0", "row 3, column x1: not a finite number: -inf"),
        ("1.0,2.0,nan", "row 3: label is not a finite number: nan"),
    ],
    ids=["nan-feature", "inf-feature", "nan-label"],
)
def test_read_stream_rejects_non_finite_cells(tmp_path, body, message):
    stream = tmp_path / "s.csv"
    stream.write_text(f"x1,x2,y\n0.5,,1\n{body}\n")
    with pytest.raises(StreamFormatError, match=re.escape(message)):
        read_stream_csv(stream)
    assert main(["evaluate", str(stream)]) == 3
    # an empty field is still a missing value
    stream.write_text("x1,x2,y\n0.5,,1\n,1.0,0\n")
    frame = read_stream_csv(stream)
    assert np.array_equal(frame.missing_mask, [[False, True], [True, False]])
    assert np.isnan(frame.X[frame.missing_mask]).all()
    assert frame.task == "classification"


def test_evaluate_option_and_source_validation(tmp_path, small_config, capsys):
    assert main(["evaluate"]) == 2
    stream = _generate(tmp_path, small_config)
    capsys.readouterr()
    assert main(["evaluate", str(stream), "--window", "0"]) == 2
    assert capsys.readouterr().err == "config error: window must be positive\n"
    assert main(["evaluate", str(stream), "--label-fraction", "1.5"]) == 2
    assert capsys.readouterr().err == "config error: label_fraction must lie in [0, 1]\n"


def test_config_file_validation(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["generate", "--config", str(bad_json)]) == 2
    no_seed = tmp_path / "noseed.json"
    no_seed.write_text(json.dumps({"dataset_size": 100}))
    assert main(["generate", "--config", str(no_seed)]) == 2
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"seed": 1, "dataset_size": 100, "bogus_key": 3}))
    assert main(["generate", "--config", str(stray)]) == 2
