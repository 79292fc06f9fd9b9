"""Prequential (test-then-train) evaluation with small built-in online
learners, plus the delayed / partially-labeled stream overlay.

Warmup instances (``initial_train``) are used for learning only and never
count toward reported curves.  The overlay also leaves warmup labels alone:
with label_fraction 0 the model trains on warmup and is frozen afterwards.
"""

from __future__ import annotations

import math
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


class NaiveBayesLearner:
    """Incremental Gaussian naive Bayes with Laplace-smoothed priors.

    ``learn`` keeps the terms ``predict`` reads current: it rewrites the
    learned class's row of the variance and of ``log(2 pi var)``, and the
    log prior from a running row total, which equals ``counts.sum()``
    exactly because every count is an integer-valued float.
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
        # a class with at most one row has variance 1.0
        self._var = np.ones((n_classes, n_features))
        self._log_norm = np.log(2 * np.pi * self._var)
        self._log_prior = np.log((self.counts + 1.0) / (self._rows + n_classes))

    def predict(self, x: np.ndarray) -> int:
        z = self.stats.impute(np.asarray(x, dtype=float))
        ll = -0.5 * ((z - self.means) ** 2 / self._var + self._log_norm).sum(axis=1)
        return int((self._log_prior + ll).argmax())

    def learn(self, x: np.ndarray, y: int) -> None:
        y = _class_label(y, self.n_classes)
        z = self.stats.update(np.asarray(x, dtype=float))
        self.counts[y] += 1
        count = self.counts[y]
        delta = z - self.means[y]
        self.means[y] += delta / count
        self._m2[y] += delta * (z - self.means[y])
        if count > 1:
            var = np.maximum(self._m2[y] / count, 1e-9)
            self._var[y] = var
            self._log_norm[y] = np.log(2 * np.pi * var)
        self._rows += 1
        self._log_prior = np.log((self.counts + 1.0) / (self._rows + self.n_classes))


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


def prequential_run(
    stream,
    learner,
    W: int = 100,
    initial_train: int = 100,
    overlay: DelayedLabels | None = None,
    task: str | None = None,
) -> PrequentialCurve:
    """Test-then-train pass: predict each post-warmup instance, score it,
    then (subject to the overlay) learn from it."""

    X, y = _frame_arrays(stream)
    n = X.shape[0]
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

    labels = y.tolist()
    for t in range(initial_train):
        learner.learn(X[t], labels[t])

    if overlay is None:
        overlay = DelayedLabels()
    labeled = overlay.labeled_mask(n, initial_train).tolist()
    pending: dict[int, int] = {}  # arrival step -> instance index

    raw = []
    for t in range(initial_train, n):
        if t in pending:
            u = pending.pop(t)
            learner.learn(X[u], labels[u])
        pred = learner.predict(X[t])
        if classification:
            raw.append(1.0 if int(pred) == int(labels[t]) else 0.0)
        else:
            raw.append(abs(float(pred) - float(labels[t])))
        if labeled[t]:
            if overlay.delay == 0:
                learner.learn(X[t], labels[t])
            else:
                pending[t + overlay.delay] = t
    raw = np.array(raw)
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
