"""Acceptance gates: twelve end-to-end criteria, one test each.

Every test prints one `criterion NN: PASS/FAIL - detail` line via the shared
recorder in conftest (reprinted in the terminal summary) and asserts it.
Statistical gates use fixed seeds; the two timed gates assert wall clock too.
"""

import dataclasses
import time

import numpy as np
import pytest
from conftest import record_criterion

from causalstream.analysis import acf, ljung_box, mmd_heatmap
from causalstream.concept import ConceptSnapshot, deterministic_label, init_concept
from causalstream.temporal import TemporalParams
from causalstream.drift import DriftSchedule, ShiftAction, ShiftSpec, apply_abrupt, apply_recurrent
from causalstream.evaluate import (
    DelayedLabels,
    LinearRegressorLearner,
    LogisticLearner,
    NaiveBayesLearner,
    drift_response_metrics,
    prequential_run,
)
from causalstream.generator import build_stream, collect
from causalstream.mappers import serialize_params
from causalstream.presets import example_graph, preset_config
from causalstream.stream_io import write_stream_csv
from causalstream.temporal import TemporalState, simulate_ar_noise

IID_MODE = TemporalParams(alpha=1.0, rho=0.0, sigma=0.0)


@pytest.fixture(scope="module")
def d1_runs():
    """dataset1 streams for seeds 0..4, shared across the heavy criteria."""
    runs = {}
    for seed in range(5):
        cfg = preset_config("dataset1", seed)
        runs[seed] = (cfg, collect(build_stream(cfg), cfg.dataset_size))
    return runs


def _grid_concept(seed):
    cfg = preset_config("dataset1", seed)
    return init_concept(example_graph(), cfg.concept, np.random.default_rng(seed))


def _grid_labels(concept, n, seed=99):
    rng = np.random.default_rng(seed)
    parents = concept.graph.parents[concept.graph.target]
    pts = rng.uniform(-3.0, 3.0, size=(n, len(parents)))
    labels = np.array(
        [deterministic_label(concept, dict(zip(parents, row))) for row in pts]
    )
    return pts, labels


def test_criterion_01_stationarity_ablation():
    t0 = time.time()
    modes = {
        "iid": TemporalParams(alpha=1.0, rho=0.0, sigma=0.4),
        "ar": TemporalParams(alpha=0.05, rho=0.1, sigma=0.4),
        "ewma-ar": TemporalParams(alpha=0.05, rho=0.5, sigma=0.4),
    }
    counts = {}
    for name, tp in modes.items():
        hits, total = 0, 0
        for seed in range(20):
            cfg = dataclasses.replace(
                preset_config("dataset1", seed),
                dataset_size=2000,
                schedule=DriftSchedule(()),
                temporal=tp,
            )
            frame = collect(build_stream(cfg), cfg.dataset_size)
            feat_cols = [frame.X[:, j] for j in range(frame.X.shape[1])]
            y_col = np.asarray(frame.y, dtype=float)
            cols = feat_cols if name == "ar" else feat_cols + [y_col]
            for col in cols:
                r = ljung_box(col, 20)
                total += 1
                if name == "iid":
                    hits += not r.reject_at[0.05]
                elif name == "ar":
                    hits += r.reject_at[0.01]
                else:
                    hits += r.reject_at[0.001]
        counts[name] = (hits, total)
    elapsed = time.time() - t0
    iid_ok = counts["iid"][0] >= 0.85 * counts["iid"][1]
    ar_ok = counts["ar"][0] == counts["ar"][1]
    ew_ok = counts["ewma-ar"][0] == counts["ewma-ar"][1]
    ok = iid_ok and ar_ok and ew_ok and elapsed < 60.0
    detail = (
        f"iid {counts['iid'][0]}/{counts['iid'][1]} pass@5%, "
        f"ar {counts['ar'][0]}/{counts['ar'][1]} reject@1%, "
        f"ewma-ar {counts['ewma-ar'][0]}/{counts['ewma-ar'][1]} reject@0.1%, "
        f"{elapsed:.1f}s"
    )
    assert record_criterion(1, ok, detail)


def test_criterion_02_ljung_box_calibration():
    rng = np.random.default_rng(2026)
    rejections = 0
    for _ in range(1000):
        rejections += ljung_box(rng.standard_normal(2000), 20).reject_at[0.05]
    rate = rejections / 1000
    ok = 0.03 <= rate <= 0.07
    assert record_criterion(
        2, ok, f"white-noise rejection rate {rate:.3f} at the 5% level"
    )


def test_criterion_03_ar_law():
    var_errs, acf_errs = [], []
    for rho in (0.1, 0.5, 0.9):
        tp = TemporalParams(alpha=1.0, rho=rho, sigma=1.0)
        series = simulate_ar_noise(1_000_000, tp, np.random.default_rng(123))
        target = 1.0 / (1.0 - rho**2)
        var_errs.append(abs(float(np.var(series)) - target) / target)
        short = simulate_ar_noise(100_000, tp, np.random.default_rng(321))
        r = acf(short, 5)
        acf_errs.append(
            max(abs(float(r.correlations[k]) - rho**k) for k in range(1, 6))
        )
    ok = max(var_errs) <= 0.05 and max(acf_errs) <= 0.03
    detail = (
        f"max variance error {max(var_errs) * 100:.2f}% (<=5%), "
        f"max acf error {max(acf_errs):.4f} (<=0.03)"
    )
    assert record_criterion(3, ok, detail)


def test_criterion_04_covariate_shift_purity():
    c = _grid_concept(0)
    pts, labels = _grid_labels(c, 2000)
    before = {n: serialize_params(m) for n, m in c.mappers.items()}
    cov = ShiftSpec(
        "covariate", "abrupt", 100,
        actions=(
            ShiftAction("root-params", node=0, params={"shift_std": 0.5}),
            ShiftAction("root-params", node=1, params={"scale_factor": 1.5}),
        ),
    )
    loc = ShiftSpec(
        "local", "abrupt", 200,
        actions=(ShiftAction("root-params", node=1, params={"mean": 2.0, "variance": 2.0}),),
    )
    shifted = apply_abrupt(apply_abrupt(c, cov, np.random.default_rng(0)), loc,
                           np.random.default_rng(1))
    bytes_ok = all(
        serialize_params(m) == before[n] for n, m in shifted.mappers.items()
    )
    perm_ok = shifted.class_permutation == c.class_permutation
    parents = c.graph.parents[c.graph.target]
    relabeled = np.array(
        [deterministic_label(shifted, dict(zip(parents, row))) for row in pts]
    )
    labels_ok = np.array_equal(relabeled, labels)
    moved = shifted.root_dists[0] != c.root_dists[0]
    ok = bytes_ok and perm_ok and labels_ok and moved
    detail = (
        f"mapper bytes identical: {bytes_ok}, grid labels unchanged: {labels_ok}, "
        f"root params moved: {moved}"
    )
    assert record_criterion(4, ok, detail)


def test_criterion_05_severe_shift_exactness():
    c = _grid_concept(3)
    pts, labels = _grid_labels(c, 10_000)
    # swap the two most frequent grid classes so the check is non-vacuous
    order = np.argsort(np.bincount(labels, minlength=c.n_classes))
    c1, c2 = int(order[-1]), int(order[-2])
    spec = ShiftSpec(
        "severe", "abrupt", 100,
        actions=(ShiftAction("swap-classes", params={"c1": c1, "c2": c2}),),
    )
    swapped = apply_abrupt(c, spec, np.random.default_rng(0))
    parents = c.graph.parents[c.graph.target]
    post = np.array(
        [deterministic_label(swapped, dict(zip(parents, row))) for row in pts]
    )
    expected = labels.copy()
    expected[labels == c1] = c2
    expected[labels == c2] = c1
    ok = (
        np.array_equal(post, expected)
        and int((labels == c1).sum()) > 0
        and int((labels == c2).sum()) > 0
    )
    detail = (
        f"classes {c1}<->{c2} transposed on a 10^4 grid "
        f"({int((labels == c1).sum())}+{int((labels == c2).sum())} points swapped, "
        f"rest identical): {np.array_equal(post, expected)}"
    )
    assert record_criterion(5, ok, detail)


def test_criterion_06_recurrent_restore():
    c = _grid_concept(4)
    state = TemporalState.initial(c.root_dists, c.continuous_nodes)
    snap = ConceptSnapshot(c, state)
    pts, labels = _grid_labels(c, 10_000)
    drifted = apply_abrupt(
        c,
        ShiftSpec(
            "distributional", "abrupt", 100,
            actions=(ShiftAction("move-prototypes", node=c.graph.target),),
        ),
        np.random.default_rng(1),
    )
    parents = c.graph.parents[c.graph.target]
    moved = np.array(
        [deterministic_label(drifted, dict(zip(parents, row))) for row in pts]
    )
    changed = not np.array_equal(moved, labels)
    back = apply_recurrent(drifted, snap)
    restored = np.array(
        [deterministic_label(back, dict(zip(parents, row))) for row in pts]
    )
    ok = changed and np.array_equal(restored, labels)
    detail = (
        f"drift relabeled {int((moved != labels).sum())} of 10^4 grid points, "
        f"restore exact: {np.array_equal(restored, labels)}"
    )
    assert record_criterion(6, ok, detail)


def test_criterion_07_drift_response(d1_runs):
    t0 = time.time()
    seed_pass = 0
    for seed, (cfg, frame) in d1_runs.items():
        learner = LogisticLearner(cfg.d, cfg.concept.n_classes)
        curve = prequential_run(frame, learner, W=100, initial_train=100)
        ok = True
        for r in drift_response_metrics(curve, cfg.schedule):
            if r["kind"] == "covariate":
                ok = ok and r["drop"] < 0.05
            else:
                ok = ok and r["drop"] >= 0.10 and r["recovery"] >= 0.5
        seed_pass += ok
    elapsed = time.time() - t0
    ok = seed_pass >= 4 and elapsed < 60.0
    detail = (
        f"{seed_pass}/5 seeds show drop>=0.10 + recovery>=0.5 on real-drift "
        f"events and drop<0.05 on the covariate event, {elapsed:.1f}s"
    )
    assert record_criterion(7, ok, detail)


def test_criterion_08_mmd_structure(d1_runs):
    bounds = [0, 500, 1000, 1500, 2000, 2500]

    def concept_of(batch_idx, batch_size):
        lo = batch_idx * batch_size
        return next(c for c in range(5) if bounds[c] <= lo < bounds[c + 1])

    pattern_pass = 0
    ratios = []
    for seed, (cfg, frame) in d1_runs.items():
        mat = mmd_heatmap(frame.X, 250, y=frame.y, include_label=True)
        nb = mat.values.shape[0]
        within, cross = [], []
        for i in range(nb):
            for j in range(i + 1, nb):
                ci, cj = concept_of(i, 250), concept_of(j, 250)
                if ci == cj and j == i + 1:
                    within.append(mat.values[i, j])
                elif ci != cj:
                    cross.append(mat.values[i, j])
        mw, mc = float(np.median(within)), float(np.median(cross))
        ratios.append(mc / max(mw, 1e-12))
        pattern_pass += mc > mw
    # control: same concept family, no events, distribution held constant
    worst = 0.0
    for seed in range(5):
        cfg = dataclasses.replace(
            preset_config("dataset1", seed),
            schedule=DriftSchedule(()),
            temporal=IID_MODE,
        )
        frame = collect(build_stream(cfg), cfg.dataset_size)
        mat = mmd_heatmap(frame.X, 500, y=frame.y, include_label=True)
        off = mat.values[np.triu_indices_from(mat.values, k=1)]
        worst = max(worst, float(off.max()))
    ok = pattern_pass >= 4 and worst < 0.05
    detail = (
        f"cross>within in {pattern_pass}/5 seeds (median ratio "
        f"{min(ratios):.1f}-{max(ratios):.1f}), single-concept worst entry "
        f"{worst:.4f} (<0.05)"
    )
    assert record_criterion(8, ok, detail)


def test_criterion_09_preset_fidelity():
    shapes = {"dataset1": 4, "dataset2": 5, "dataset3": 3}
    ok = True
    for name, n_classes in shapes.items():
        cfg = preset_config(name)
        frame = collect(build_stream(cfg), cfg.dataset_size)
        ok = ok and frame.X.shape == (2500, 5)
        ok = ok and set(np.unique(frame.y)) == set(range(n_classes))
        ok = ok and [e.t_start for e in cfg.schedule] == [500, 1000, 1500, 2000]
        for e in cfg.schedule:
            ok = ok and e.duration == (1 if e.rate == "abrupt" else 250)
    detail = (
        "dataset1-3 emit 2500x5 with 4/5/3 classes, events at "
        "500/1000/1500/2000, non-abrupt windows of 250"
    )
    assert record_criterion(9, ok, detail)


def test_criterion_10_byte_reproducibility(tmp_path):
    ok = True
    sizes = []
    for name, seed in (("dataset1", 0), ("regression1", 1)):
        cfg = preset_config(name, seed)
        blobs = []
        for run in range(2):
            gen = build_stream(cfg)
            out = tmp_path / f"{name}_{run}.csv"
            write_stream_csv(
                out, (gen.step() for _ in range(cfg.dataset_size)), gen.feature_names
            )
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]
        sizes.append(len(blobs[0]))
    detail = (
        f"two generations byte-identical for both presets "
        f"({sizes[0]} and {sizes[1]} bytes)"
    )
    assert record_criterion(10, ok, detail)


def test_criterion_11_delayed_partial_labeling(d1_runs):
    makers = {
        "logistic": lambda d, k: LogisticLearner(d, k),
        "naive-bayes": lambda d, k: NaiveBayesLearner(d, k),
    }
    legs = 0
    gaps = []
    for lname, make in makers.items():
        for seed, (cfg, frame) in d1_runs.items():
            k = cfg.concept.n_classes
            full = prequential_run(frame, make(cfg.d, k), W=100, initial_train=100)
            lag = prequential_run(
                frame, make(cfg.d, k), W=100, initial_train=100,
                overlay=DelayedLabels(delay=100, label_fraction=0.5),
            )
            gap = float(full.raw.mean()) - float(lag.raw.mean())
            gaps.append(gap)
            legs += gap > 0
    ok = legs == 10
    detail = (
        f"delay=100/fraction=0.5 strictly below full labels in {legs}/10 "
        f"learner-seed pairs (accuracy gap {min(gaps):+.4f} to {max(gaps):+.4f})"
    )
    assert record_criterion(11, ok, detail)


def test_criterion_12_regression_streams():
    seed_pass = 0
    rises = []
    for seed in range(5):
        cfg = preset_config("regression1", seed)
        frame = collect(build_stream(cfg), cfg.dataset_size)
        curve = prequential_run(
            frame, LinearRegressorLearner(cfg.d), W=100, initial_train=100
        )
        ok = True
        for ev in cfg.schedule:
            pre = np.flatnonzero(curve.t < ev.t_start)
            plateau = float(curve.series[pre[-100:]].mean())
            post = np.flatnonzero(
                (curve.t >= ev.t_start) & (curve.t < ev.t_start + 200)
            )
            peak = float(curve.series[post].max())
            rise = (peak - plateau) / plateau if plateau > 0 else np.inf
            rises.append(rise)
            ok = ok and rise >= 0.20
        seed_pass += ok
    ok = seed_pass >= 4
    detail = (
        f"windowed error rises >=20% within 200 instances of every shift in "
        f"{seed_pass}/5 seeds (smallest rise {min(rises) * 100:+.0f}%)"
    )
    assert record_criterion(12, ok, detail)
