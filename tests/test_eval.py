import numpy as np
import pytest

from causalstream.drift import DriftSchedule, ShiftAction, ShiftSpec
from causalstream.evaluate import (
    DelayedLabels,
    LinearRegressorLearner,
    LogisticLearner,
    NaiveBayesLearner,
    PrequentialCurve,
    drift_response_metrics,
    make_learner,
    prequential_run,
    RunningStats,
)


class AuditLearner:
    """Records every predict/learn call; predicts class 0 always.

    The first feature column carries the stream index, so the log entries
    identify which instance each call touched.
    """

    def __init__(self):
        self.log = []

    def predict(self, x):
        self.log.append(("predict", int(x[0])))
        return 0

    def learn(self, x, y):
        self.log.append(("learn", int(x[0])))


def _indexed_stream(n, n_feat=3):
    X = np.zeros((n, n_feat))
    X[:, 0] = np.arange(n)
    y = np.zeros(n, dtype=int)
    return X, y


def test_running_stats_welford_and_impute():
    st = RunningStats(2)
    st.update(np.array([1.0, 10.0]))
    st.update(np.array([3.0, np.nan]))
    st.update(np.array([5.0, 14.0]))
    assert st.mean[0] == pytest.approx(3.0)
    assert st.mean[1] == pytest.approx(12.0)  # the NaN was never counted
    assert st.std()[0] == pytest.approx(np.std([1.0, 3.0, 5.0]))
    filled = st.impute(np.array([np.nan, 20.0]))
    assert filled[0] == pytest.approx(3.0) and filled[1] == 20.0
    fresh = RunningStats(1)
    assert fresh.impute(np.array([np.nan]))[0] == 0.0
    assert fresh.std()[0] == 1.0  # unit variance until two observations


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("learner", [LogisticLearner, NaiveBayesLearner])
def test_one_huge_cell_does_not_poison_a_learner(learner):
    """A single cell of 1e160, whose square overflows, counts as missing:
    every variance stays finite and the accuracy after it stays within
    0.02 of the clean stream's."""
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 300)
    X = rng.normal(0.0, 1.0, (300, 3)) + 2.0 * y[:, None]
    huge = X.copy()
    huge[100, 1] = 1e160
    accuracy = []
    for data in (X, huge):
        model = learner(3, 2)
        curve = prequential_run((data, y), model, W=50, initial_train=20, task="classification")
        accuracy.append(curve.raw[100:].mean())
        stats = model.imputer if learner is LogisticLearner else model.stats
        assert np.isfinite(stats.std()).all()
    if learner is LogisticLearner:
        assert np.isfinite(model.var).all()
    else:
        assert np.isfinite(model._var).all()
    assert accuracy[1] >= accuracy[0] - 0.02


def test_warmup_is_train_only():
    X, y = _indexed_stream(30)
    audit = AuditLearner()
    prequential_run((X, y), audit, W=5, initial_train=10, task="classification")
    head = audit.log[:10]
    assert all(kind == "learn" for kind, _ in head)
    assert [i for _, i in head] == list(range(10))
    assert audit.log[10] == ("predict", 10)


def test_every_prediction_precedes_its_own_label():
    X, y = _indexed_stream(60)
    audit = AuditLearner()
    prequential_run((X, y), audit, W=5, initial_train=10, task="classification")
    pos = {}
    for where, (kind, idx) in enumerate(audit.log):
        pos.setdefault((kind, idx), where)
    for t in range(10, 60):
        p = pos.get(("predict", t))
        l = pos.get(("learn", t))
        assert p is not None
        if l is not None:
            assert p < l


def test_delayed_labels_arrive_exactly_delay_steps_later():
    X, y = _indexed_stream(80)
    audit = AuditLearner()
    prequential_run(
        (X, y), audit, W=5, initial_train=10,
        overlay=DelayedLabels(delay=7, label_fraction=1.0),
        task="classification",
    )
    entries = audit.log[10:]  # skip the warmup
    for where, (kind, idx) in enumerate(entries):
        if kind != "learn":
            continue
        follower = entries[where + 1]
        assert follower == ("predict", idx + 7)
    learned = {idx for kind, idx in entries if kind == "learn"}
    # labels scheduled past the stream horizon never arrive
    assert learned == set(range(10, 80 - 7))


def test_label_fraction_half_is_even_index_parity():
    mask = DelayedLabels(delay=0, label_fraction=0.5).labeled_mask(40, 10)
    assert not mask[:10].any()
    sel = np.flatnonzero(mask)
    assert np.array_equal(sel, np.arange(10, 40, 2))
    X, y = _indexed_stream(40)
    audit = AuditLearner()
    prequential_run(
        (X, y), audit, W=5, initial_train=10,
        overlay=DelayedLabels(delay=0, label_fraction=0.5),
        task="classification",
    )
    learned = {idx for kind, idx in audit.log[10:] if kind == "learn"}
    assert learned == set(range(10, 40, 2))


def test_label_fraction_zero_never_learns_post_warmup():
    X, y = _indexed_stream(40)
    audit = AuditLearner()
    prequential_run(
        (X, y), audit, W=5, initial_train=10,
        overlay=DelayedLabels(delay=0, label_fraction=0.0),
        task="classification",
    )
    assert all(kind == "predict" for kind, _ in audit.log[10:])


def test_irrational_fraction_uses_seeded_draws():
    a = DelayedLabels(delay=0, label_fraction=0.3, seed=5).labeled_mask(4000, 0)
    b = DelayedLabels(delay=0, label_fraction=0.3, seed=5).labeled_mask(4000, 0)
    assert np.array_equal(a, b)
    assert abs(a.mean() - 0.3) < 0.03


def test_overlay_validation():
    with pytest.raises(ValueError):
        DelayedLabels(delay=-1)
    with pytest.raises(ValueError):
        DelayedLabels(label_fraction=1.2)


def test_logistic_learns_separable_blobs():
    rng = np.random.default_rng(0)
    n = 600
    y = rng.integers(0, 2, size=n)
    X = rng.normal(0.0, 0.4, size=(n, 2)) + np.where(y[:, None] == 1, 2.0, -2.0)
    model = LogisticLearner(2, 2)
    for t in range(n):
        model.learn(X[t], int(y[t]))
    probe_y = rng.integers(0, 2, size=200)
    probe_X = rng.normal(0.0, 0.4, size=(200, 2)) + np.where(
        probe_y[:, None] == 1, 2.0, -2.0
    )
    acc = np.mean([model.predict(probe_X[i]) == probe_y[i] for i in range(200)])
    assert acc > 0.95


def test_logistic_validation():
    with pytest.raises(ValueError):
        LogisticLearner(2, 1)
    with pytest.raises(ValueError):
        LogisticLearner(2, 2, lr=0.1, lr_floor=0.2)  # floor above the ceiling
    model = LogisticLearner(2, 3)
    with pytest.raises(ValueError):
        model.learn(np.zeros(2), 3)  # label out of range


@pytest.mark.parametrize("learner", [LogisticLearner, NaiveBayesLearner])
def test_learners_reject_a_label_that_is_not_a_class(learner):
    model = learner(2, 3)
    for label in (0.5, -0.5, 2.5, 3, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not a class"):
            model.learn(np.zeros(2), label)
    for label in (2.0, np.int64(1), np.float64(0.0)):
        model.learn(np.zeros(2), label)
    # int(0.5) is class 0, so a stream of 0.5 labels used to score 1.0
    X, y = np.zeros((50, 2)), np.full(50, 0.5)
    with pytest.raises(ValueError, match="not a class"):
        prequential_run((X, y), learner(2, 2), W=5, initial_train=10, task="classification")


def test_naive_bayes_matches_closed_form_posterior():
    """Compare against a hand-computed gaussian posterior on known data."""
    X0 = np.array([[0.0], [1.0], [2.0]])
    X1 = np.array([[5.0], [6.0], [7.0]])
    model = NaiveBayesLearner(1, 2)
    for row in X0:
        model.learn(row, 0)
    for row in X1:
        model.learn(row, 1)
    assert model.predict(np.array([1.0])) == 0
    assert model.predict(np.array([6.0])) == 1
    # the midpoint is equidistant; equal priors leave a coin-flip region
    # slightly off-midpoint resolves cleanly
    assert model.predict(np.array([3.2])) == 0
    assert model.predict(np.array([3.8])) == 1


def test_linear_regressor_tracks_linear_rule():
    rng = np.random.default_rng(1)
    X = rng.normal(0.0, 1.0, size=(1500, 2))
    y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 0.5
    model = LinearRegressorLearner(2)
    for t in range(1200):
        model.learn(X[t], y[t])
    errs = [abs(model.predict(X[t]) - y[t]) for t in range(1200, 1500)]
    assert float(np.mean(errs)) < 0.2


def test_learner_runs_are_deterministic():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(400, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    curves = []
    for _ in range(2):
        c = prequential_run(
            (X, y), LogisticLearner(3, 2), W=50, initial_train=50,
            task="classification",
        )
        curves.append(c.series)
    assert np.array_equal(curves[0], curves[1])


def test_make_learner_contracts():
    assert isinstance(
        make_learner("logistic", "classification", 4, 3), LogisticLearner
    )
    assert isinstance(
        make_learner("naive-bayes", "classification", 4, 3), NaiveBayesLearner
    )
    assert isinstance(make_learner("linear", "regression", 4), LinearRegressorLearner)
    with pytest.raises(ValueError):
        make_learner("svm", "classification", 4, 2)
    with pytest.raises(ValueError):
        make_learner("linear", "classification", 4, 2)
    with pytest.raises(ValueError):
        make_learner("logistic", "regression", 4)
    with pytest.raises(ValueError):
        make_learner("logistic", "classification", 4)


def test_prequential_guards():
    X, y = _indexed_stream(20)
    with pytest.raises(ValueError):
        prequential_run((X, y), AuditLearner(), W=0, initial_train=5)
    with pytest.raises(ValueError):
        prequential_run((X, y), AuditLearner(), W=5, initial_train=20)


def test_prequential_rejects_a_negative_warmup():
    # a warm-up of -1 used to learn X[-1] first and report a point at t=-1
    X, y = _indexed_stream(50)
    audit = AuditLearner()
    with pytest.raises(ValueError, match="initial_train must be non-negative"):
        prequential_run((X, y), audit, W=5, initial_train=-1, task="classification")
    assert audit.log == []
    curve = prequential_run((X, y), audit, W=5, initial_train=0, task="classification")
    assert curve.t[0] == 0 and len(curve.t) == 50


def _synthetic_curve(series, W=10):
    t = np.arange(len(series))
    series = np.asarray(series, dtype=float)
    return PrequentialCurve(
        W=W, initial_train=0, metric="accuracy", t=t, raw=series, series=series
    )


def _one_event_schedule(t_start):
    return DriftSchedule((
        ShiftSpec(
            "distributional", "abrupt", t_start,
            actions=(ShiftAction("move-prototypes", node=5),),
        ),
    ))


def test_drift_response_hand_shape():
    series = np.concatenate([
        np.full(200, 0.9), np.full(20, 0.5), np.full(180, 0.8),
    ])
    rows = drift_response_metrics(_synthetic_curve(series), _one_event_schedule(200))
    assert len(rows) == 1
    r = rows[0]
    assert r["drop"] == pytest.approx(0.4)
    assert r["recovery"] == pytest.approx(0.75)
    assert 200 <= r["min_t"] < 220


def test_drift_response_flat_curve_is_benign():
    series = np.full(400, 0.9)
    r = drift_response_metrics(_synthetic_curve(series), _one_event_schedule(200))[0]
    assert r["drop"] == 0.0 and r["recovery"] == 1.0


def test_drift_response_mae_measures_rises():
    series = np.concatenate([
        np.full(200, 0.1), np.full(20, 0.6), np.full(180, 0.2),
    ])
    curve = PrequentialCurve(
        W=10, initial_train=0, metric="mae",
        t=np.arange(400), raw=series, series=series,
    )
    r = drift_response_metrics(curve, _one_event_schedule(200))[0]
    assert r["drop"] == pytest.approx(0.5)
    assert r["recovery"] == pytest.approx(0.8)


def test_drift_response_requires_coverage():
    series = np.full(100, 0.9)
    with pytest.raises(ValueError):
        drift_response_metrics(_synthetic_curve(series), _one_event_schedule(95))


@pytest.mark.parametrize("delay", [1.5, True, "1"])
def test_overlay_rejects_a_delay_that_is_not_an_integer(delay):
    # delay=1.5 filed each label under t + 1.5, which no step matches: the
    # learner learned nothing after the warm-up
    with pytest.raises(ValueError, match="delay must be an integer"):
        DelayedLabels(delay=delay)
    assert DelayedLabels(delay=np.int64(2)).delay == 2


@pytest.mark.parametrize(
    "args, message",
    [
        ({"W": 2.5}, "window must be an integer"),
        ({"W": True}, "window must be an integer"),
        ({"initial_train": 2.5}, "initial_train must be an integer"),
        ({"initial_train": False}, "initial_train must be an integer"),
        ({"rows_of_y": 39}, "X has 40 rows but y has 39"),
        ({"rows_of_y": 41}, "X has 40 rows but y has 41"),
    ],
)
def test_prequential_checks_its_inputs_before_the_first_learn(args, message):
    # W=2.5 used to run the whole stream and then fail building the series,
    # initial_train=2.5 failed in range(), and a y shorter than X failed
    # mid-stream after learning
    X, y = _indexed_stream(40)
    y = np.zeros(args.pop("rows_of_y", 40), dtype=int)
    audit = AuditLearner()
    with pytest.raises(ValueError, match=message):
        prequential_run((X, y), audit, **{"W": 5, "initial_train": 10, **args},
                        task="classification")
    assert audit.log == []
