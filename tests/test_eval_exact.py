"""The lean learners and the prefix-sum accuracy series against reference
copies of the straightforward implementations, bit for bit.

The reference classes below keep the plain arithmetic: a masked Welford
update on every row, ``impute`` and the standardizing scale recomputed on
every call, and one slice mean per curve point.  Every prediction, every
curve value and every final learner array must carry exactly the same bits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from causalstream import evaluate
from causalstream.evaluate import (
    DelayedLabels,
    LinearRegressorLearner,
    LogisticLearner,
    NaiveBayesLearner,
    RunningStats,
    prequential_run,
)

# the overflow rows warn in both implementations
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered", "ignore:invalid value encountered"
)


class RefRunningStats:
    def __init__(self, n_features):
        self.count = np.zeros(n_features)
        self.mean = np.zeros(n_features)
        self._m2 = np.zeros(n_features)

    def update(self, x):
        # a cell whose square overflows is not observed
        obs = np.isfinite(x * x)
        self.count[obs] += 1
        delta = np.where(obs, x - self.mean, 0.0)
        self.mean += np.where(obs, delta / np.maximum(self.count, 1), 0.0)
        delta2 = np.where(obs, x - self.mean, 0.0)
        self._m2 += delta * delta2

    def std(self):
        var = np.where(self.count > 1, self._m2 / np.maximum(self.count, 1), 1.0)
        return np.sqrt(np.maximum(var, 1e-12))

    def impute(self, x):
        return np.where(np.isfinite(x * x), x, self.mean)

    def standardize(self, x):
        return (self.impute(x) - self.mean) / self.std()


class RefLogistic:
    def __init__(self, n_features, n_classes, lr=0.5, lr_floor=0.02, err_horizon=20,
                 stats_rate=0.002):
        self.n_classes = n_classes
        self.lr = lr
        self.lr_floor = lr_floor
        self.err_horizon = err_horizon
        self.stats_rate = stats_rate
        self.imputer = RefRunningStats(n_features)
        self.mean = np.zeros(n_features)
        self.var = np.ones(n_features)
        self.seen = 0
        self.err_fast = 0.5
        self.W = np.zeros((n_features, n_classes))
        self.b = np.zeros(n_classes)

    def _z(self, x):
        xi = self.imputer.impute(np.asarray(x, dtype=float))
        return (xi - self.mean) / np.sqrt(self.var + 1e-12)

    def predict(self, x):
        z = self._z(x)
        return int(np.argmax(z @ self.W + self.b))

    def learn(self, x, y):
        y = int(y)
        x = np.asarray(x, dtype=float)
        self.imputer.update(x)
        xi = self.imputer.impute(x)
        if self.seen == 0:
            self.mean = xi.copy()
        else:
            r = max(1.0 / (self.seen + 1), self.stats_rate)
            d = xi - self.mean
            self.mean += r * d
            self.var = (1 - r) * self.var + r * d * d
        self.seen += 1
        z = (xi - self.mean) / np.sqrt(self.var + 1e-12)
        s = z @ self.W + self.b
        wrong = int(np.argmax(s)) != y
        self.err_fast += (float(wrong) - self.err_fast) / self.err_horizon
        step = self.lr_floor + (self.lr - self.lr_floor) * self.err_fast
        s = s - s.max()
        p = np.exp(s)
        p /= p.sum()
        p[y] -= 1.0
        self.W -= step * np.outer(z, p)
        self.b -= step * p


class RefNaiveBayes:
    def __init__(self, n_features, n_classes):
        self.n_classes = n_classes
        self.stats = RefRunningStats(n_features)
        self.counts = np.zeros(n_classes)
        self.means = np.zeros((n_classes, n_features))
        self._m2 = np.zeros((n_classes, n_features))

    def _class_var(self):
        var = np.where(
            self.counts[:, None] > 1,
            self._m2 / np.maximum(self.counts[:, None], 1),
            1.0,
        )
        return np.maximum(var, 1e-9)

    def predict(self, x):
        z = self.stats.impute(np.asarray(x, dtype=float))
        prior = (self.counts + 1.0) / (self.counts.sum() + self.n_classes)
        var = self._class_var()
        ll = -0.5 * ((z - self.means) ** 2 / var + np.log(2 * np.pi * var)).sum(axis=1)
        return int(np.argmax(np.log(prior) + ll))

    def learn(self, x, y):
        y = int(y)
        x = np.asarray(x, dtype=float)
        self.stats.update(x)
        z = self.stats.impute(x)
        self.counts[y] += 1
        delta = z - self.means[y]
        self.means[y] += delta / self.counts[y]
        self._m2[y] += delta * (z - self.means[y])


class RefLinear:
    def __init__(self, n_features, lr=0.05):
        self.lr = lr
        self.stats = RefRunningStats(n_features)
        self.w = np.zeros(n_features)
        self.b = 0.0
        self._y_count = 0
        self._y_mean = 0.0
        self._y_m2 = 0.0

    def _y_std(self):
        if self._y_count > 1:
            return max(np.sqrt(self._y_m2 / self._y_count), 1e-12)
        return 1.0

    def predict(self, x):
        z = self.stats.standardize(np.asarray(x, dtype=float))
        return self._y_mean + (float(z @ self.w) + self.b) * self._y_std()

    def learn(self, x, y):
        x = np.asarray(x, dtype=float)
        y = float(y)
        self.stats.update(x)
        self._y_count += 1
        delta = y - self._y_mean
        self._y_mean += delta / self._y_count
        self._y_m2 += delta * (y - self._y_mean)
        z = self.stats.standardize(x)
        err = float(z @ self.w) + self.b - (y - self._y_mean) / self._y_std()
        self.w -= self.lr * err * z
        self.b -= self.lr * err


def reference_run(X, y, learner, initial_train, overlay, classification):
    """The test-then-train loop, returning the predictions and raw scores."""

    n = X.shape[0]
    for t in range(initial_train):
        learner.learn(X[t], y[t])
    labeled = overlay.labeled_mask(n, initial_train)
    pending = {}
    preds, raw = [], np.empty(n - initial_train)
    for i, t in enumerate(range(initial_train, n)):
        if t in pending:
            u = pending.pop(t)
            learner.learn(X[u], y[u])
        pred = learner.predict(X[t])
        preds.append(pred)
        if classification:
            raw[i] = 1.0 if int(pred) == int(y[t]) else 0.0
        else:
            raw[i] = abs(float(pred) - float(y[t]))
        if labeled[t]:
            if overlay.delay == 0:
                learner.learn(X[t], y[t])
            else:
                pending[t + overlay.delay] = t
    return preds, raw


def reference_series(raw, W):
    return np.array([raw[max(0, i - W + 1) : i + 1].mean() for i in range(len(raw))])


class Recording:
    """Passes calls through and keeps every prediction."""

    def __init__(self, learner):
        self.learner = learner
        self.preds = []

    def predict(self, x):
        pred = self.learner.predict(x)
        self.preds.append(pred)
        return pred

    def learn(self, x, y):
        self.learner.learn(x, y)


N_ROWS, INITIAL_TRAIN, N_CLASSES = 260, 30, 9

LEARNERS = {
    "logistic": (lambda d: LogisticLearner(d, N_CLASSES), lambda d: RefLogistic(d, N_CLASSES)),
    "naive-bayes": (
        lambda d: NaiveBayesLearner(d, N_CLASSES),
        lambda d: RefNaiveBayes(d, N_CLASSES),
    ),
    "linear": (LinearRegressorLearner, RefLinear),
}

OVERLAYS = {
    "default": DelayedLabels(),
    "delay-50": DelayedLabels(delay=50),
    "half-labeled": DelayedLabels(label_fraction=0.5),
    "unlabeled": DelayedLabels(label_fraction=0.0),
}


def make_stream(kind, learner, seed=3):
    """Features of the given kind with labels drawn from the clean values."""

    rng = np.random.default_rng(seed)
    d = 100 if kind == "complete" else 6
    X = rng.normal(0.0, 2.0, size=(N_ROWS, d)) + rng.normal(0.0, 1.0, size=d)
    if learner == "linear":
        y = X @ rng.normal(size=d) + rng.normal(0.0, 0.3, size=N_ROWS)
    else:
        y = (X @ rng.normal(size=(d, N_CLASSES)) + rng.gumbel(size=(N_ROWS, N_CLASSES)))
        y = y.argmax(axis=1)
    X = X.copy()
    if kind == "nan-cells":
        X[rng.random(X.shape) < 0.2] = np.nan
    elif kind == "nan-column":
        X[:, 2] = np.nan
        X[rng.random(X.shape) < 0.05] = np.nan
    elif kind == "inf-entry":
        X[[5, 60, 140], [1, 3, 0]] = [np.inf, -np.inf, np.inf]
    elif kind == "overflow-row":
        # x.dot(x) overflows while every entry stays finite
        X[[40, 150]] *= 1e160
        assert not np.isfinite(X[40] @ X[40]) and np.isfinite(X[40]).all()
    return X, y


def bits(value):
    return np.asarray(value).tobytes()


def assert_same_state(new, ref, where=""):
    for name, want in vars(ref).items():
        got = getattr(new, name)
        if isinstance(want, RefRunningStats):
            assert_same_state(got, want, f"{where}{name}.")
        else:
            assert type(got) is type(want), f"{where}{name}"
            assert bits(got) == bits(want), f"{where}{name}"


@pytest.mark.parametrize("kind", ["complete", "nan-cells", "nan-column", "inf-entry", "overflow-row"])
@pytest.mark.parametrize("learner", list(LEARNERS))
def test_prequential_matches_the_reference_bit_for_bit(learner, kind):
    make_new, make_ref = LEARNERS[learner]
    X, y = make_stream(kind, learner)
    d = X.shape[1]
    classification = learner != "linear"
    task = "classification" if classification else "regression"
    for name, overlay in OVERLAYS.items():
        ref = make_ref(d)
        preds, raw = reference_run(X, y, ref, INITIAL_TRAIN, overlay, classification)
        for W in (1, 7, 100):
            new = Recording(make_new(d))
            curve = prequential_run(
                (X, y), new, W=W, initial_train=INITIAL_TRAIN, overlay=overlay, task=task
            )
            case = f"{name}, W={W}"
            assert bits(new.preds) == bits(preds), case
            assert curve.raw.tobytes() == raw.tobytes(), case
            assert curve.series.tobytes() == reference_series(raw, W).tobytes(), case
            assert_same_state(new.learner, ref)
            if learner == "naive-bayes":
                # unwrapped, naive Bayes takes the blocked replay
                bare = make_new(d)
                curve = prequential_run(
                    (X, y), bare, W=W, initial_train=INITIAL_TRAIN, overlay=overlay, task=task
                )
                assert curve.raw.tobytes() == raw.tobytes(), f"replay, {case}"
                assert curve.series.tobytes() == reference_series(raw, W).tobytes(), case
                assert_same_state(bare, ref)


def test_running_stats_counts_observed_entries_and_keeps_complete_rows():
    st = RunningStats(3)
    row = np.array([1.0, 2.0, 3.0])
    st.update(row)
    assert st.impute(row) is row
    st.update(np.array([1.0, np.nan, 3.0]))
    st.update(np.array([1e200, 1.0, 1.0]))  # 1e200 squared overflows: not observed
    assert st.count.tolist() == [2.0, 2.0, 3.0]


# ----- deferred Welford steps and naive Bayes' kept terms -------------------

# 1e154 is observed, but two of them overflow x.dot(x): a row of observed
# cells that still takes the masked step
ODD_CELLS = [np.nan, np.inf, -np.inf, 1e160, -1e160, 1e154]
READS = ["mean", "count", "m2", "std", "impute"]


@st.composite
def stats_scripts(draw):
    """A feature count, a pending cap of a few cells and a script of
    updates and reads; complete rows come twice as often as mixed ones."""

    d = draw(st.integers(1, 12))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    complete = st.lists(finite, min_size=d, max_size=d)
    mixed = st.lists(st.one_of(finite, st.sampled_from(ODD_CELLS)), min_size=d, max_size=d)
    step = st.one_of(
        complete.map(lambda row: ("update", row)),
        complete.map(lambda row: ("update", row)),
        mixed.map(lambda row: ("update", row)),
        st.tuples(st.sampled_from(READS), st.one_of(complete, mixed)),
    )
    return d, draw(st.integers(1, 3 * d)), draw(st.lists(step, max_size=60))


def assert_reads_match(new, ref, read, row):
    if read == "std":
        assert bits(new.std()) == bits(ref.std())
    elif read == "impute":
        assert bits(new.impute(row)) == bits(ref.impute(row))
    else:
        name = {"m2": "_m2"}.get(read, read)
        assert bits(getattr(new, name)) == bits(getattr(ref, name)), read


@given(stats_scripts())
def test_deferred_steps_read_like_the_eager_reference(script):
    d, cap, steps = script
    with mock.patch.object(evaluate, "_PENDING_CELLS", cap):
        new = RunningStats(d)
    ref = RefRunningStats(d)
    for op, cells in steps:
        row = np.array(cells)
        if op == "update":
            filled = new.update(row)
            ref.update(row)
            assert bits(filled) == bits(ref.impute(row))
        else:
            assert_reads_match(new, ref, op, row)
    for read in READS:
        assert_reads_match(new, ref, read, np.full(d, np.nan))


def test_editing_a_row_after_update_moves_no_statistic():
    new, ref = RunningStats(3), RefRunningStats(3)
    row = np.array([1.0, 2.0, 3.0])
    for edit in (7.0, -4.0, 0.5):
        new.update(row)
        ref.update(row)
        row[:] = edit
    assert_same_state(new, ref)


def test_held_rows_never_exceed_the_cap():
    cap, d = 10, 3
    with mock.patch.object(evaluate, "_PENDING_CELLS", cap):
        new = RunningStats(d)
    ref = RefRunningStats(d)
    assert new._held.size <= cap
    for row in np.random.default_rng(4).normal(size=(500, d)):
        new.update(row)
        ref.update(row)
        assert new._n_held * d <= cap
    assert_same_state(new, ref)


def fresh_terms(nb):
    """Naive Bayes' log prior, variance and log(2 pi var), recomputed."""

    prior = (nb.counts + 1.0) / (nb.counts.sum() + nb.n_classes)
    var = np.where(nb.counts[:, None] > 1, nb._m2 / np.maximum(nb.counts[:, None], 1), 1.0)
    var = np.maximum(var, 1e-9)
    return np.log(prior), var, np.log(2 * np.pi * var)


class CheckedNaiveBayes(NaiveBayesLearner):
    """Checks the kept terms against a fresh recompute after every learn."""

    def learn(self, x, y):
        super().learn(x, y)
        kept = (self._log_prior, self._var, self._log_norm)
        for name, got, want in zip(("log prior", "var", "log norm"), kept, fresh_terms(self)):
            assert bits(got) == bits(want), name


@pytest.mark.parametrize("kind", ["complete", "nan-cells", "overflow-row"])
@pytest.mark.parametrize("overlay", ["default", "delay-50", "half-labeled"])
def test_naive_bayes_keeps_its_terms_exact_over_a_run(kind, overlay):
    X, y = make_stream(kind, "naive-bayes")
    nb = CheckedNaiveBayes(X.shape[1], N_CLASSES)
    prequential_run(
        (X, y), nb, W=7, initial_train=INITIAL_TRAIN, overlay=OVERLAYS[overlay],
        task="classification",
    )
    assert nb._rows == nb.counts.sum() > INITIAL_TRAIN


@given(
    st.integers(2, 5).flatmap(
        lambda k: st.lists(
            st.tuples(
                st.integers(0, k - 1),
                st.lists(
                    st.one_of(st.floats(-1e3, 1e3), st.sampled_from(ODD_CELLS)),
                    min_size=3, max_size=3,
                ),
            ),
            max_size=40,
        ).map(lambda steps: (k, steps))
    )
)
def test_naive_bayes_kept_terms_match_a_recompute(script):
    k, steps = script
    nb = CheckedNaiveBayes(3, k)
    ref = RefNaiveBayes(3, k)
    for label, cells in steps:
        nb.learn(np.array(cells), label)
        ref.learn(np.array(cells), label)
        probe = np.array(cells[::-1])
        assert nb.predict(probe) == ref.predict(probe)
    assert_same_state(nb, ref)


# ----- the naive-Bayes replay against the per-row run ------------------------


def assert_same_naive_bayes(new, old):
    """Every array and count of two naive-Bayes learners, bit for bit."""

    for name in ("counts", "means", "_m2", "_var", "_log_norm", "_log_prior"):
        assert bits(getattr(new, name)) == bits(getattr(old, name)), name
    assert new._rows == old._rows
    for name in ("count", "mean", "_m2"):
        assert bits(getattr(new.stats, name)) == bits(getattr(old.stats, name)), f"stats.{name}"


@st.composite
def replay_runs(draw):
    """A frame with odd cells, its labels, an overlay, a warm-up, a window
    and a replay cell budget small enough to cut the run into many blocks."""

    k = draw(st.integers(2, 9))
    d = draw(st.integers(1, 6))
    initial_train = draw(st.integers(0, 40))
    n = initial_train + draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(0.0, 3.0, size=(n, d)) + rng.normal(0.0, 2.0, size=d)
    odd = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    X[odd] = rng.choice(ODD_CELLS, size=int(odd.sum()))
    y = rng.integers(0, k, size=n)
    overlay = DelayedLabels(
        delay=draw(st.integers(0, 60)),
        label_fraction=draw(st.sampled_from([0.0, 0.3, 1 / 3, 0.5, 1.0])),
        seed=draw(st.integers(0, 3)),
    )
    return X, y, k, initial_train, overlay, draw(st.integers(1, 10)), draw(st.integers(1, 200))


@given(replay_runs())
def test_the_naive_bayes_replay_equals_the_per_row_run(run):
    X, y, k, initial_train, overlay, W, cells = run
    d = X.shape[1]
    old = Recording(NaiveBayesLearner(d, k))
    want = prequential_run(
        (X, y), old, W=W, initial_train=initial_train, overlay=overlay, task="classification"
    )
    new, replayed = NaiveBayesLearner(d, k), []
    real = NaiveBayesLearner._replay

    def spy(self, *args):
        replayed.append(real(self, *args))
        return replayed[-1]

    with mock.patch.object(evaluate, "_REPLAY_CELLS", cells), mock.patch.object(
        NaiveBayesLearner, "_replay", spy
    ):
        got = prequential_run(
            (X, y), new, W=W, initial_train=initial_train, overlay=overlay, task="classification"
        )
    assert len(replayed) == 1
    assert replayed[0].tolist() == old.preds
    assert got.raw.tobytes() == want.raw.tobytes()
    assert got.series.tobytes() == want.series.tobytes()
    assert_same_naive_bayes(new, old.learner)
