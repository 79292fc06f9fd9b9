"""Prequential (test-then-train) evaluation with small built-in online
learners, plus the delayed / partially-labeled stream overlay.

Warmup instances (``initial_train``) are used for learning only and never
count toward reported curves.  The overlay also leaves warmup labels alone:
with label_fraction 0 the model trains on warmup and is frozen afterwards.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RunningStats",
    "LogisticLearner",
    "NaiveBayesLearner",
    "LinearRegressorLearner",
    "make_learner",
    "LEARNER_NAMES",
    "PrequentialCurve",
    "DelayedLabels",
    "prequential_run",
    "drift_response_metrics",
]

LEARNER_NAMES = ("logistic", "naive-bayes", "linear")


# the largest double whose square is finite
_LARGEST_ROOT = math.sqrt(np.finfo(float).max)
# most cells of complete rows a RunningStats holds before it runs their steps
_PENDING_CELLS = 1 << 20
# most cells of each class-state array that the naive-Bayes replay gathers
_REPLAY_CELLS = 1 << 16


class RunningStats:
    """Per-feature running mean/variance over observed (non-missing) values.

    Doubles as the imputation source: a missing feature is replaced by its
    running mean (0.0 until the feature has ever been observed).

    A cell counts as observed when its square is finite: a missing (NaN) or
    infinite cell is not, and neither is a finite cell so huge that it
    would make every variance that reads it infinite.  A row is complete
    when ``x.dot(x)`` is finite, which implies every cell is observed.  A
    complete row takes the plain Welford step, the masked form's IEEE
    operations, and ``impute`` returns it as is.

    A complete row's step waits: ``update`` copies the row into one flat
    buffer, which doubles as it fills up to ``_PENDING_CELLS`` cells (or
    one wider row), and the held steps run in arrival order, with the same
    operations, before any read of ``count``, ``mean`` or ``_m2``, before
    an incomplete row's masked step or imputation, and when the full
    buffer must take one more row.  A learner that reads the statistics
    only to fill a missing cell thus never runs them on a complete stream
    shorter than the buffer.
    """

    def __init__(self, n_features: int):
        self._count = np.zeros(n_features)
        self._mean = np.zeros(n_features)
        self._sq_dev = np.zeros(n_features)
        self._max_held = max(_PENDING_CELLS // max(n_features, 1), 1)
        self._held = np.empty((1, n_features))
        self._n_held = 0

    def _step(self, x: np.ndarray) -> None:
        self._count += 1
        delta = x - self._mean
        self._mean += delta / self._count
        self._sq_dev += delta * (x - self._mean)

    def _catch_up(self) -> None:
        if self._n_held:
            for i in range(self._n_held):
                self._step(self._held[i])
            self._n_held = 0

    def _make_room(self) -> None:
        n = self._n_held
        if n == self._max_held:
            self._catch_up()
            return
        grown = np.empty((min(2 * n, self._max_held), self._held.shape[1]))
        grown[:n] = self._held
        self._held = grown

    @property
    def count(self) -> np.ndarray:
        self._catch_up()
        return self._count

    @property
    def mean(self) -> np.ndarray:
        self._catch_up()
        return self._mean

    @property
    def _m2(self) -> np.ndarray:
        self._catch_up()
        return self._sq_dev

    def update(self, x: np.ndarray) -> np.ndarray:
        """Counts the row's observed cells and returns the row as ``impute``
        fills it after this update."""

        if math.isfinite(x.dot(x)):
            if self._n_held == len(self._held):
                self._make_room()
            self._held[self._n_held] = x
            self._n_held += 1
            return x
        self._catch_up()
        obs = np.abs(x) <= _LARGEST_ROOT
        self._count[obs] += 1
        delta = np.where(obs, x - self._mean, 0.0)
        self._mean += np.where(obs, delta / np.maximum(self._count, 1), 0.0)
        delta2 = np.where(obs, x - self._mean, 0.0)
        self._sq_dev += delta * delta2
        return np.where(obs, x, self._mean)

    def std(self) -> np.ndarray:
        count = self.count
        var = np.where(count > 1, self._sq_dev / np.maximum(count, 1), 1.0)
        return np.sqrt(np.maximum(var, 1e-12))

    def impute(self, x: np.ndarray) -> np.ndarray:
        if math.isfinite(x.dot(x)):
            return x
        return np.where(np.abs(x) <= _LARGEST_ROOT, x, self.mean)


def _check_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def _class_label(y, n_classes: int) -> int:
    if not 0 <= y < n_classes or int(y) != y:
        raise ValueError(f"label {y!r} is not a class in 0..{n_classes - 1}")
    return int(y)


class LogisticLearner:
    """Multinomial logistic regression, one gradient step per instance.

    The step size follows the recent error rate: near ``lr_floor`` while the
    model tracks the stream well, approaching ``lr`` after a burst of
    mistakes.  Feature standardization uses an exponentially weighted
    mean/variance (rate floor ``stats_rate``) so inputs stay conditioned
    after the stream's scale changes.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        lr: float = 0.5,
        lr_floor: float = 0.02,
        err_horizon: int = 20,
        stats_rate: float = 0.002,
    ):
        if n_classes < 2:
            raise ValueError("need at least two classes")
        if not 0 < lr_floor <= lr:
            raise ValueError("need 0 < lr_floor <= lr")
        self.n_classes = n_classes
        self.lr = lr
        self.lr_floor = lr_floor
        self.err_horizon = err_horizon
        self.stats_rate = stats_rate
        self.imputer = RunningStats(n_features)
        self.mean = np.zeros(n_features)
        self.var = np.ones(n_features)
        self.seen = 0
        self.err_fast = 0.5
        self.W = np.zeros((n_features, n_classes))
        self.b = np.zeros(n_classes)
        # the standardizing scale changes only in learn
        self._scale = np.sqrt(self.var + 1e-12)

    def predict(self, x: np.ndarray) -> int:
        xi = self.imputer.impute(np.asarray(x, dtype=float))
        z = (xi - self.mean) / self._scale
        return int((z.dot(self.W) + self.b).argmax())

    def learn(self, x: np.ndarray, y: int) -> None:
        y = _class_label(y, self.n_classes)
        xi = self.imputer.update(np.asarray(x, dtype=float))
        if self.seen == 0:
            self.mean = xi.copy()
        else:
            r = max(1.0 / (self.seen + 1), self.stats_rate)
            d = xi - self.mean
            rd = r * d
            self.mean += rd
            self.var = (1 - r) * self.var + rd * d
            self._scale = np.sqrt(self.var + 1e-12)
        self.seen += 1
        z = (xi - self.mean) / self._scale
        s = z.dot(self.W) + self.b
        wrong = int(s.argmax()) != y
        self.err_fast += (float(wrong) - self.err_fast) / self.err_horizon
        step = self.lr_floor + (self.lr - self.lr_floor) * self.err_fast
        s -= max(s.tolist())
        p = np.exp(s)
        p /= np.add.reduce(p)
        p[y] -= 1.0
        self.W -= step * (z[:, None] * p)
        self.b -= step * p


def _welford_step(mean, m2, z, count, mean_out, m2_out) -> None:
    """One class's Welford step on its ``count``-th row ``z``, written to
    ``mean_out`` and ``m2_out``, which may be ``mean`` and ``m2``."""

    delta = z - mean
    np.add(mean, delta / count, out=mean_out)
    np.add(m2, delta * (z - mean_out), out=m2_out)


def _class_terms(m2, count) -> tuple[np.ndarray, np.ndarray]:
    """The variance and ``log(2 pi var)`` of classes with M2 rows ``m2``
    after ``count`` rows; a class with at most one row has variance 1.0."""

    var = np.where(count > 1, np.maximum(m2 / np.maximum(count, 1), 1e-9), 1.0)
    return var, np.log(2 * np.pi * var)


def _log_prior(counts, rows) -> np.ndarray:
    """The Laplace-smoothed log prior of the class counts after ``rows``
    learned rows, which equals their sum."""

    return np.log((counts + 1.0) / (rows + counts.shape[-1]))


def _classify(z, means, var, log_norm, log_prior):
    """The most likely class of the rows ``z`` (..., d) against class terms
    (..., k, d) and log priors (..., k): the Gaussian log-likelihood is
    summed over the contiguous feature axis."""

    ll = -0.5 * ((z - means) ** 2 / var + log_norm).sum(axis=-1)
    return (log_prior + ll).argmax(axis=-1)


def _class_labels(y: np.ndarray, n_classes: int) -> np.ndarray:
    """The classes of the labels ``y``, or the error that ``_class_label``
    raises for the first label that is not a class."""

    f = np.asarray(y, dtype=float)
    ok = (f >= 0) & (f < n_classes) & (f == np.floor(f))
    if not ok.all():
        _class_label(y[np.argmin(ok)].item(), n_classes)
    return f.astype(np.intp)


class NaiveBayesLearner:
    """Incremental Gaussian naive Bayes with Laplace-smoothed priors.

    ``learn`` keeps the terms ``predict`` reads current: it rewrites the
    learned class's row of the variance and of ``log(2 pi var)``, and the
    log prior from a running row total, which equals ``counts.sum()``
    exactly because every count is an integer-valued float.

    Its state after any run of learns depends only on the rows and labels
    learned, never on its own predictions, so ``prequential_run`` replays a
    run in blocks (``_replay``) with the same IEEE operations.
    """

    def __init__(self, n_features: int, n_classes: int):
        if n_classes < 2:
            raise ValueError("need at least two classes")
        self.n_classes = n_classes
        self.stats = RunningStats(n_features)
        self.counts = np.zeros(n_classes)
        self.means = np.zeros((n_classes, n_features))
        self._m2 = np.zeros((n_classes, n_features))
        self._rows = 0
        self._var, self._log_norm = _class_terms(self._m2, self.counts[:, None])
        self._log_prior = _log_prior(self.counts, self._rows)

    def predict(self, x: np.ndarray) -> int:
        z = self.stats.impute(np.asarray(x, dtype=float))
        return int(_classify(z, self.means, self._var, self._log_norm, self._log_prior))

    def learn(self, x: np.ndarray, y: int) -> None:
        y = _class_label(y, self.n_classes)
        z = self.stats.update(np.asarray(x, dtype=float))
        self.counts[y] += 1
        count = self.counts[y]
        mean, m2 = self.means[y], self._m2[y]
        _welford_step(mean, m2, z, count, mean, m2)
        self._var[y], self._log_norm[y] = _class_terms(m2, count)
        self._rows += 1
        self._log_prior = _log_prior(self.counts, self._rows)

    def _replay(self, X: np.ndarray, y: np.ndarray, learned, before) -> np.ndarray:
        """The predictions for the scored rows, the last ``len(before)`` of
        ``X``, in a prequential run that learns the rows ``learned`` in
        order, ``before[i]`` of them before the prediction of scored row
        ``i`` and the rest after the last one.  Leaves the state that the
        run's ``learn`` and ``predict`` calls would leave.

        The scored rows go in blocks.  Each of a block's learns writes its
        class's Welford step to a table row of its own; each prediction
        then gathers every class's state at its point in the run from the
        table, and the block is scored in one expression.  Learns before a
        block's first prediction step the classes' own rows.  Each gathered
        array holds at most ``_REPLAY_CELLS`` cells, or one row's k * d.
        """

        k, d = self.means.shape
        n, first = len(before), X.shape[0] - len(before)
        labels = _class_labels(y[learned], k)
        classes, learned, stops = labels.tolist(), learned.tolist(), before.tolist()
        block = max(_REPLAY_CELLS // (k * d), 1)
        # rows 0..k-1: each class's state; row k + s: the block's learn s
        means, m2, var, log_norm = np.empty((4, k + block, d))
        means[:k], m2[:k] = self.means, self._m2
        counts, update = self.counts.tolist(), self.stats.update
        preds = np.empty(n, dtype=np.intp)
        j = 0

        def learn(prev: int, row: int) -> float:
            c = classes[j]
            counts[c] += 1.0
            _welford_step(means[prev], m2[prev], update(X[learned[j]]), counts[c], means[row], m2[row])
            return counts[c]

        def learn_in_place(stop: int) -> None:
            nonlocal j
            while j < stop:
                learn(classes[j], classes[j])
                j += 1

        for i0 in range(0, n, block):
            i1 = min(i0 + block, n)
            learn_in_place(stops[i0])
            j0, last, row_counts = j, list(range(k)), counts.copy()
            Z = X[first + i0 : first + i1]
            # a row of observed cells is its own imputation; any other row is
            # imputed once the learns before its prediction are made
            incomplete = np.flatnonzero(~(np.abs(Z) <= _LARGEST_ROOT).all(axis=1)).tolist()
            if incomplete:
                Z = Z.copy()
            for i in [*incomplete, None]:
                stop = stops[i1 - 1 if i is None else i0 + i]
                while j < stop:
                    c, row = classes[j], k + j - j0
                    row_counts.append(learn(last[c], row))
                    last[c] = row
                    j += 1
                if i is not None:
                    Z[i] = self.stats.impute(Z[i])
            rows = slice(0, len(row_counts))
            row_counts = np.array(row_counts)
            var[rows], log_norm[rows] = _class_terms(m2[rows], row_counts[:, None])
            # each class's table row after each of the block's learns
            hit = labels[j0:j, None] == np.arange(k)
            owner = np.vstack((np.arange(k), np.where(hit, np.arange(k, k + j - j0)[:, None], 0)))
            np.maximum.accumulate(owner, axis=0, out=owner)
            at = owner[before[i0:i1] - j0]
            prior = _log_prior(row_counts[at], self._rows + before[i0:i1, None])
            preds[i0:i1] = _classify(Z[:, None], means[at], var[at], log_norm[at], prior)
            at = owner[-1]
            means[:k], m2[:k] = means[at], m2[at]
        learn_in_place(len(learned))
        self.means[:], self._m2[:] = means[:k], m2[:k]
        self.counts[:] = counts
        self._var[:], self._log_norm[:] = _class_terms(self._m2, self.counts[:, None])
        self._rows += len(learned)
        self._log_prior = _log_prior(self.counts, self._rows)
        return preds


class LinearRegressorLearner:
    """Per-instance SGD linear regressor on standardized inputs and target."""

    def __init__(self, n_features: int, lr: float = 0.05):
        self.lr = lr
        self.stats = RunningStats(n_features)
        self.w = np.zeros(n_features)
        self.b = 0.0
        self._y_count = 0
        self._y_mean = 0.0
        self._y_m2 = 0.0
        # the standardizing scale changes only in learn
        self._scale = np.ones(n_features)

    def _y_std(self) -> float:
        if self._y_count > 1:
            return max(np.sqrt(self._y_m2 / self._y_count), 1e-12)
        return 1.0

    def predict(self, x: np.ndarray) -> float:
        xi = self.stats.impute(np.asarray(x, dtype=float))
        z = (xi - self.stats.mean) / self._scale
        return self._y_mean + (float(z @ self.w) + self.b) * self._y_std()

    def learn(self, x: np.ndarray, y: float) -> None:
        y = float(y)
        xi = self.stats.update(np.asarray(x, dtype=float))
        self._y_count += 1
        delta = y - self._y_mean
        self._y_mean += delta / self._y_count
        self._y_m2 += delta * (y - self._y_mean)
        self._scale = self.stats.std()
        z = (xi - self.stats.mean) / self._scale
        err = float(z @ self.w) + self.b - (y - self._y_mean) / self._y_std()
        self.w -= self.lr * err * z
        self.b -= self.lr * err


def make_learner(name: str, task: str, n_features: int, n_classes: int | None = None):
    if name not in LEARNER_NAMES:
        raise ValueError(f"unknown learner {name!r}; pick one of {LEARNER_NAMES}")
    if name == "linear":
        if task != "regression":
            raise ValueError("the linear learner handles regression streams")
        return LinearRegressorLearner(n_features)
    if task != "classification":
        raise ValueError(f"{name} handles classification streams")
    if n_classes is None:
        raise ValueError("classification learners need n_classes")
    if name == "logistic":
        return LogisticLearner(n_features, n_classes)
    return NaiveBayesLearner(n_features, n_classes)


@dataclass(frozen=True)
class PrequentialCurve:
    """Windowed metric over evaluated (post-warmup) instances.

    ``t`` holds stream indices; ``series[i]`` is the mean of ``raw`` over the
    last W evaluated instances ending at ``t[i]``.
    """

    W: int
    initial_train: int
    metric: str
    t: np.ndarray
    raw: np.ndarray
    series: np.ndarray

    def value_at(self, t: int) -> float:
        idx = np.searchsorted(self.t, t)
        if idx >= len(self.t) or self.t[idx] != t:
            raise ValueError(f"no curve point at t={t}")
        return float(self.series[idx])

    def mean(self) -> float:
        return float(self.raw.mean())


@dataclass(frozen=True)
class DelayedLabels:
    """Label-arrival plan: instance t's label reaches the learner at step
    t + delay, and only for instances the fraction pattern selects."""

    delay: int = 0
    label_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int("delay", self.delay)
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if not 0.0 <= self.label_fraction <= 1.0:
            raise ValueError("label_fraction must lie in [0, 1]")

    def labeled_mask(self, n: int, start: int) -> np.ndarray:
        """Which of instances start..n-1 ever get a label."""
        mask = np.zeros(n, dtype=bool)
        if self.label_fraction == 0.0:
            return mask
        ts = np.arange(start, n)
        if self.label_fraction == 1.0:
            mask[ts] = True
            return mask
        inv = 1.0 / self.label_fraction
        if abs(inv - round(inv)) < 1e-9:
            # deterministic every-k-th pattern on the stream index
            k = int(round(inv))
            mask[ts] = ts % k == 0
        else:
            rng = np.random.default_rng(self.seed)
            mask[ts] = rng.random(len(ts)) < self.label_fraction
        return mask


def _frame_arrays(stream) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(stream, "X") and hasattr(stream, "y"):
        return np.asarray(stream.X, dtype=float), np.asarray(stream.y)
    X, y = stream
    return np.asarray(X, dtype=float), np.asarray(y)


def _learn_schedule(n: int, initial_train: int, overlay: DelayedLabels):
    """A run's learns: the learned rows in learn order, the warm-up rows
    and then each labeled row in arrival order, and for each scored row
    ``t >= initial_train`` how many learns come before its prediction.

    A label reaches the learner before the prediction at ``t + delay``;
    with no delay, right after its own row's prediction.  A label due past
    the last row never arrives, except the last row's own at delay 0.
    """

    labeled = np.flatnonzero(overlay.labeled_mask(n, initial_train))
    arrives = labeled + min(max(overlay.delay, 1), n)
    if overlay.delay:
        labeled = labeled[arrives < n]
    learned = np.concatenate((np.arange(initial_train), labeled))
    before = initial_train + np.searchsorted(arrives, np.arange(initial_train, n), side="right")
    return learned, before


def prequential_run(
    stream,
    learner,
    W: int = 100,
    initial_train: int = 100,
    overlay: DelayedLabels | None = None,
    task: str | None = None,
) -> PrequentialCurve:
    """Test-then-train pass: predict each post-warmup instance, score it,
    then (subject to the overlay) learn from it.

    Naive Bayes replays the run in blocks (``NaiveBayesLearner._replay``):
    its state never depends on its own predictions.  Any other learner is
    called row by row.
    """

    X, y = _frame_arrays(stream)
    n = X.shape[0]
    _check_int("window", W)
    _check_int("initial_train", initial_train)
    if len(y) != n:
        raise ValueError(f"X has {n} rows but y has {len(y)}")
    if n == 0:
        raise ValueError("empty stream")
    if W < 1:
        raise ValueError("window must be positive")
    if initial_train < 0:
        raise ValueError("initial_train must be non-negative")
    if n <= initial_train:
        raise ValueError("stream no longer than the warmup")
    if task is None:
        task = getattr(stream, "task", None)
    if task is None:
        task = (
            "regression"
            if isinstance(learner, LinearRegressorLearner)
            else "classification"
        )
    classification = task == "classification"
    metric = "accuracy" if classification else "mae"

    learned, before = _learn_schedule(n, initial_train, overlay or DelayedLabels())
    # a subclass may change learn or predict, so only the class itself replays
    if type(learner) is NaiveBayesLearner:
        preds = learner._replay(X, y, learned, before).tolist()
    else:
        labels, learned, preds, j = y.tolist(), learned.tolist(), [], 0
        for t, stop in enumerate(before.tolist(), initial_train):
            while j < stop:
                learner.learn(X[learned[j]], labels[learned[j]])
                j += 1
            preds.append(learner.predict(X[t]))
        for u in learned[j:]:
            learner.learn(X[u], labels[u])
    scored = y[initial_train:].tolist()
    if classification:
        raw = np.array([1.0 if int(p) == int(v) else 0.0 for p, v in zip(preds, scored)])
    else:
        raw = np.array([abs(float(p) - float(v)) for p, v in zip(preds, scored)])
    hi = np.arange(1, len(raw) + 1)
    lo = np.maximum(hi - W, 0)
    if classification:
        # every partial sum of 0/1 values is an integer below 2**53, so the
        # prefix-sum difference equals the window's slice sum exactly
        c = np.concatenate(([0.0], np.cumsum(raw)))
        series = (c[hi] - c[lo]) / (hi - lo)
    else:
        series = np.array([raw[a:b].mean() for a, b in zip(lo.tolist(), hi.tolist())])
    ts = np.arange(initial_train, n)
    return PrequentialCurve(
        W=W, initial_train=initial_train, metric=metric, t=ts, raw=raw, series=series
    )


def drift_response_metrics(curve: PrequentialCurve, schedule) -> list[dict]:
    """Per-event performance drop and recovery read off a prequential curve.

    drop = (mean of the last W curve points before t_start) minus the curve
    minimum within 2W instances after t_start; recovery = share of the drop
    regained by the end of the concept (next event start, or stream end).
    A flat response reports drop 0 and recovery 1.
    """

    events = list(schedule)
    W = curve.W
    out = []
    for idx, event in enumerate(events):
        t0 = event.t_start
        pre = np.flatnonzero(curve.t < t0)
        if len(pre) == 0:
            raise ValueError(f"curve does not cover the run-up to t={t0}")
        plateau = float(curve.series[pre[-W:]].mean())
        horizon = t0 + 2 * W
        post = np.flatnonzero((curve.t >= t0) & (curve.t < horizon))
        if len(post) == 0 or curve.t[-1] < horizon - 1:
            raise ValueError(
                f"insufficient post-event horizon for the event at t={t0}"
            )
        window = curve.series[post]
        min_pos = int(np.argmin(window)) if curve.metric == "accuracy" else int(
            np.argmax(window)
        )
        trough = float(window[min_pos])
        end_t = events[idx + 1].t_start if idx + 1 < len(events) else int(curve.t[-1]) + 1
        concept = np.flatnonzero((curve.t >= t0) & (curve.t < end_t))
        end_value = float(curve.series[concept[-1]]) if len(concept) else trough
        if curve.metric == "accuracy":
            drop = plateau - trough
            regained = end_value - trough
        else:
            # for error curves the response is a rise, measured the same way
            drop = trough - plateau
            regained = trough - end_value
        if drop <= 0:
            drop_v, recovery = 0.0, 1.0
        else:
            drop_v = drop
            recovery = regained / drop
        out.append(
            {
                "event": idx,
                "kind": event.kind,
                "t_start": t0,
                "drop": drop_v,
                "recovery": recovery,
                "min_t": int(curve.t[post[min_pos]]),
            }
        )
    return out
