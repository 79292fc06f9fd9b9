"""Node value machinery: root distributions, target functions, mappers.

Root nodes sample from a parameterized distribution.  Every inner node owns a
mapper.  Continuous mappers are small regression models fitted to a synthetic
target function evaluated on standardized ancestor samples; categorical
mappers assign class indices from centroid geometry in raw parent space.

Continuous mappers standardize their inputs with the per-parent mean/scale
captured at fit time (prevents scale blow-up along deep causal chains) and
record the mean/std of their own predictions on the fit sample, which later
anchors the node's noise amplitude.  Categorical mappers work on raw parent
values and keep the parent min/max box so drift can redraw centroids inside
the region the parents actually visit.

A mapper is immutable: its arrays are read-only once its constructor ends,
and each method that drift uses returns a new mapper, which shares every
array it does not replace.

All parameters serialize to plain JSON-compatible dicts with exact float
round-trip (see ``Mapper``); ``serialize_params`` gives canonical bytes for
equality checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from ._codec import Serializable, encode_value

__all__ = [
    "CONTINUOUS_KINDS",
    "FITTABLE_KINDS",
    "CENTROID_KINDS",
    "CATEGORICAL_KINDS",
    "TARGET_FN_KINDS",
    "RootDistribution",
    "TargetFunction",
    "eval_target_function",
    "draw_target_function",
    "ParentStats",
    "Mapper",
    "MLPMapper",
    "RegressionTreeMapper",
    "SGDLinearMapper",
    "PrototypeMapper",
    "GaussianPrototypeMapper",
    "RadialBasisMapper",
    "HyperplaneMapper",
    "fit_continuous_mapper",
    "init_random_mlp",
    "init_categorical_mapper",
    "mapper_from_dict",
    "serialize_params",
]

CONTINUOUS_KINDS = ("learned-mlp", "random-mlp", "regression-tree", "sgd-linear")
# continuous kinds trained on a target function (a random MLP is not)
FITTABLE_KINDS = ("learned-mlp", "regression-tree", "sgd-linear")
# categorical kinds that classify by centroid geometry
CENTROID_KINDS = ("prototype", "gaussian-prototype", "random-rbf")
CATEGORICAL_KINDS = CENTROID_KINDS + ("hyperplane",)
TARGET_FN_KINDS = ("linear", "sine", "step", "checkerboard", "rbf")

_HIDDEN = 10          # MLP hidden width
_MLP_EPOCHS = 10
_MLP_LR = 1e-3
_MLP_BATCH = 64
_SGD_EPOCHS = 10
_SGD_ALPHA = 1e-4     # l2 penalty
_SGD_ETA0 = 0.01
_SGD_POWER_T = 0.25
_TREE_DEPTH_RANGE = (5, 25)
_TREE_CELLS = 1 << 16  # padded cells of one batched split search (see _fit_tree)


# ---------------------------------------------------------------------------
# root distributions


@dataclass(frozen=True)
class RootDistribution(Serializable):
    """Sampling distribution of a root node.

    ``normal`` params are (mean, variance); ``uniform`` params are (low, high).
    """

    kind: str
    p1: float
    p2: float

    def __post_init__(self) -> None:
        if self.kind == "normal":
            if self.p2 <= 0:
                raise ValueError("normal variance must be positive")
        elif self.kind == "uniform":
            if self.p2 <= self.p1:
                raise ValueError("uniform needs high > low")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    def sample(self, rng: np.random.Generator, size=None):
        if self.kind == "normal":
            return rng.normal(self.p1, float(np.sqrt(self.p2)), size)
        return rng.uniform(self.p1, self.p2, size)

    def mean(self) -> float:
        if self.kind == "normal":
            return float(self.p1)
        return float((self.p1 + self.p2) / 2.0)

    def std(self) -> float:
        if self.kind == "normal":
            return float(np.sqrt(self.p2))
        return float((self.p2 - self.p1) / np.sqrt(12.0))


# ---------------------------------------------------------------------------
# target functions


@dataclass(frozen=True)
class TargetFunction(Serializable):
    """Deterministic synthetic function fitted by continuous mappers.

    Observation noise is added by the fitting routine, never here; the
    checkerboard is noise-free by design (its output must stay in {0, 1}).
    Its document holds only the fields its kind uses, so ``to_dict`` is
    written out here; ``from_dict`` gives the others their defaults.
    """

    kind: str
    weights: tuple[float, ...] | None = None   # linear only
    bias: float = 0.0                          # linear only
    sigma: float = 1.0                         # rbf width

    def __post_init__(self) -> None:
        if self.kind not in TARGET_FN_KINDS:
            raise ValueError(f"unknown target function kind {self.kind!r}")
        if self.kind == "linear" and not self.weights:
            raise ValueError("linear target function needs weights")
        if self.kind == "rbf" and self.sigma <= 0:
            raise ValueError("rbf width must be positive")

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "linear":
            d["weights"] = [float(w) for w in self.weights]
            d["bias"] = float(self.bias)
        if self.kind == "rbf":
            d["sigma"] = float(self.sigma)
        return d


def eval_target_function(fn: TargetFunction, x: np.ndarray) -> np.ndarray | float:
    """Evaluate the noiseless target function on rows of ``x``.

    ``x`` may be a single vector ``(k,)`` or a matrix ``(n, k)``.
    """

    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if fn.kind == "linear":
        w = np.asarray(fn.weights, dtype=float)
        if X.shape[1] != w.shape[0]:
            raise ValueError("input width does not match linear weights")
        out = _rows_times(X, w) + fn.bias
    elif fn.kind == "sine":
        out = np.sin(X).sum(axis=1)
    elif fn.kind == "step":
        out = (X.sum(axis=1) > 0).astype(float)
    elif fn.kind == "checkerboard":
        out = np.mod(np.floor(X).sum(axis=1), 2.0)
    elif fn.kind == "rbf":
        out = np.exp(-np.sum(X * X, axis=1) / (2.0 * fn.sigma**2))
    else:  # pragma: no cover - guarded by the dataclass
        raise ValueError(fn.kind)
    return float(out[0]) if single else out


def draw_target_function(
    kind: str, n_inputs: int, rng: np.random.Generator
) -> TargetFunction:
    """Draw function parameters for ``kind`` over ``n_inputs`` inputs."""

    if kind == "linear":
        w = rng.uniform(-2.0, 2.0, size=n_inputs)
        b = float(rng.uniform(-1.0, 1.0))
        return TargetFunction("linear", weights=tuple(float(v) for v in w), bias=b)
    if kind == "rbf":
        return TargetFunction("rbf", sigma=float(rng.uniform(0.5, 2.0)))
    return TargetFunction(kind)


# ---------------------------------------------------------------------------
# continuous mappers


def _standardize_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return mean, scale


def _xavier_mlp(rng: np.random.Generator, k: int):
    """Xavier-uniform (W1, b1, w2) of a k-input MLP; W1 is drawn before w2."""

    def uniform(fan_in, fan_out, shape):
        bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
        return rng.uniform(-bound, bound, size=shape)

    return uniform(k, _HIDDEN, (k, _HIDDEN)), np.zeros(_HIDDEN), uniform(_HIDDEN, 1, (_HIDDEN,))


def _rows_times(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``X @ W``, summed over the columns of ``X`` in a fixed order.

    BLAS kernels pick their summation order by shape, so a row of ``X @ W``
    can round differently with 1 row or 4096 rows in the call.  Here every
    row goes through the same elementwise products and sums, and its bits do
    not depend on how many rows share the call.
    """

    acc = np.multiply.outer(X[:, 0], W[0])
    for j in range(1, X.shape[1]):
        acc += np.multiply.outer(X[:, j], W[j])
    return acc


class Mapper:
    """Base of every mapper.  Its document is ``kind``, then the attributes
    named in ``_fields``: a base's fields first, then the class's own."""

    kind: str = ""
    _fields: tuple[str, ...] = ()

    def _freeze(self) -> None:
        for v in vars(self).values():
            if isinstance(v, np.ndarray):
                v.flags.writeable = False

    def _with(self, **changes) -> "Mapper":
        """A new, frozen mapper with ``changes`` to its attributes; it shares the rest."""
        out = object.__new__(type(self))
        out.__dict__.update(vars(self), **changes)
        out._freeze()
        return out

    def predict(self, x):
        """Output for one input vector, as a Python number, or one per row of
        a matrix; a row's bits do not depend on how many rows share the
        call."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} inputs, got {x.shape[-1]}")
        out = self._rows(x[None, :] if x.ndim == 1 else x)
        return out[0].item() if x.ndim == 1 else out

    def _rows(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover
        """Outputs for the rows of ``X``."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for f in self._fields:
            v = getattr(self, f)
            d[f] = v.tolist() if isinstance(v, np.ndarray) else encode_value(v)
        return d

    @staticmethod
    def from_dict(d: dict) -> "Mapper":
        return mapper_from_dict(d)


class _ContinuousBase(Mapper):
    _fields = ("in_mean", "in_scale", "out_mean", "out_scale", "fitted_target")

    def __init__(self, in_mean, in_scale, out_mean=0.0, out_scale=1.0, fitted_target=None):
        self.in_mean = np.asarray(in_mean, dtype=float)
        self.in_scale = np.asarray(in_scale, dtype=float)
        if np.any(self.in_scale <= 0):
            raise ValueError("standardization scales must be positive")
        self.out_mean = float(out_mean)
        self.out_scale = float(out_scale)
        self.fitted_target = fitted_target
        self._freeze()

    @property
    def n_inputs(self) -> int:
        return int(self.in_mean.shape[0])

    def _rows(self, X: np.ndarray) -> np.ndarray:
        return self._forward((X - self.in_mean) / self.in_scale)

    def _forward(self, z: np.ndarray) -> np.ndarray:  # pragma: no cover
        """Outputs for standardized rows ``z``."""
        raise NotImplementedError

    def calibrate(self, X: np.ndarray, fallback_scale: float = 1.0) -> "_ContinuousBase":
        """This mapper with inputs standardized on the sample ``X`` and the mean/std
        of its outputs there recorded; a constant output gets ``fallback_scale``."""
        in_mean, in_scale = _standardize_stats(X)
        m = self._with(in_mean=in_mean, in_scale=in_scale)
        preds = m.predict(X)
        out_scale = float(preds.std())
        return m._with(
            out_mean=float(preds.mean()), out_scale=out_scale if out_scale > 0 else fallback_scale
        )


class MLPMapper(_ContinuousBase):
    """One-hidden-layer relu network; ``learned-mlp`` or ``random-mlp``.

    A learned MLP is trained with adam on the fit sample; a random MLP keeps
    its Xavier-uniform initialization and acts as a fixed random function.
    """

    KINDS = ("learned-mlp", "random-mlp")
    _fields = _ContinuousBase._fields + ("W1", "b1", "w2", "b2")

    def __init__(self, kind, W1, b1, w2, b2, **base):
        if kind not in self.KINDS:
            raise ValueError(kind)
        self.kind = kind
        self.W1 = np.asarray(W1, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        self.b2 = float(b2)
        super().__init__(**base)

    def _forward(self, z: np.ndarray) -> np.ndarray:
        h = np.maximum(_rows_times(z, self.W1) + self.b1, 0.0)
        return _rows_times(h, self.w2) + self.b2

    def reinit(self, rng: np.random.Generator) -> "MLPMapper":
        """This network with all weights redrawn (random-mlp drift); standardization is kept."""
        W1, b1, w2 = _xavier_mlp(rng, self.n_inputs)
        return self._with(W1=W1, b1=b1, w2=w2, b2=0.0)


class RegressionTreeMapper(_ContinuousBase):
    """CART regression tree with squared-error splits.

    Nodes are stored as parallel arrays; ``feature[i] == -1`` marks a leaf.
    Thresholds are midpoints of adjacent fit samples, so they always lie
    inside the fit range; inputs beyond it land in a boundary leaf.
    """

    kind = "regression-tree"
    _fields = _ContinuousBase._fields + (
        "feature", "threshold", "left", "right", "value", "max_depth"
    )

    def __init__(self, feature, threshold, left, right, value, max_depth, **base):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.value = np.asarray(value, dtype=float)
        self.max_depth = int(max_depth)
        super().__init__(**base)

    def _forward(self, z: np.ndarray) -> np.ndarray:
        """Level-wise descent: all rows still inside the tree move one level
        per pass, and a row leaves once it reaches a leaf."""
        out = np.empty(z.shape[0])
        rows = np.arange(z.shape[0])
        node = np.zeros(z.shape[0], dtype=int)
        while rows.size:
            feat = self.feature[node]
            leaf = feat < 0
            if leaf.any():
                out[rows[leaf]] = self.value[node[leaf]]
                inner = ~leaf
                rows, node, feat = rows[inner], node[inner], feat[inner]
            go_left = z[rows, feat] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return out


class SGDLinearMapper(_ContinuousBase):
    """Linear model trained by per-sample SGD with l2 penalty.

    ``partial_fit`` returns the mapper after one additional step and exists
    for incremental drift, which re-fits the node toward a new target
    function one instance at a time; its inverse-scaling schedule restarts
    whenever a drift event begins (``reset_partial_schedule``), otherwise
    steps at the tail of the original schedule would be invisibly small.
    The step count ``_partial_steps`` is not serialized.  It never reaches a
    stream: the only caller of ``partial_fit`` is an incremental plan, which
    resets the count at its first step.
    """

    kind = "sgd-linear"
    _fields = _ContinuousBase._fields + ("w", "b")

    def __init__(self, w, b, **base):
        self.w = np.asarray(w, dtype=float)
        self.b = float(b)
        self._partial_steps = 0
        super().__init__(**base)

    def _forward(self, z: np.ndarray) -> np.ndarray:
        return _rows_times(z, self.w) + self.b

    def partial_fit(self, z: np.ndarray, y: float) -> "SGDLinearMapper":
        steps = self._partial_steps + 1
        lr = _SGD_ETA0 / steps**_SGD_POWER_T
        cols = np.asarray(z, dtype=float)[:, None].tolist()
        w, b = _sgd_kernel(len(cols))(self.w.tolist(), self.b, cols, [float(y)], [lr])
        return self._with(w=np.array(w), b=b, _partial_steps=steps)

    def reset_partial_schedule(self) -> "SGDLinearMapper":
        return self._with(_partial_steps=0)


def _fit_mlp_weights(z, y, rng):
    """Adam on squared error; returns [W1, b1, w2, b2].

    W1, b1, w2 and b2 live in one flat vector, with views for the forward
    pass, and their gradients in one flat buffer, so an Adam step is a few
    whole-vector ufunc calls.  Each element takes the float operations of
    its own parameter's step; the bias slot's square is a Python
    ``float ** 2``, which is not always ``g * g``.
    """

    n, k = z.shape
    W1, b1, w2 = _xavier_mlp(rng, k)
    params = np.concatenate([W1.ravel(), b1, w2, [0.0]])
    grads = np.empty_like(params)
    moments, moments2 = np.zeros_like(params), np.zeros_like(params)
    (W1, b1, w2), (gW1, gb1, gw2) = (
        (v[: k * _HIDDEN].reshape(k, _HIDDEN), v[k * _HIDDEN : -_HIDDEN - 1], v[-_HIDDEN - 1 : -1])
        for v in (params, grads)
    )
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(_MLP_EPOCHS):
        perm = rng.permutation(n)
        for start in range(0, n, _MLP_BATCH):
            idx = perm[start : start + _MLP_BATCH]
            zb, yb = z[idx], y[idx]
            pre = zb @ W1 + b1
            h = np.maximum(pre, 0.0)
            pred = h @ w2 + params[-1]
            g_out = 2.0 * (pred - yb) / len(idx)
            g_h = np.outer(g_out, w2) * (pre > 0)
            np.matmul(zb.T, g_h, out=gW1)
            g_h.sum(axis=0, out=gb1)
            np.matmul(h.T, g_out, out=gw2)
            grads[-1] = g_b2 = float(g_out.sum())
            square = grads * grads
            square[-1] = g_b2**2
            step += 1
            moments *= beta1
            moments += (1 - beta1) * grads
            moments2 *= beta2
            moments2 += (1 - beta2) * square
            mhat = moments / (1 - beta1**step)
            vhat = moments2 / (1 - beta2**step)
            params -= _MLP_LR * mhat / (np.sqrt(vhat) + eps)
    return [W1, b1, w2, params[-1]]


def _split_search(z, y, rows, lens):
    """The best squared-error split of each node in one batch.

    Node ``i`` owns the ``lens[i]`` rows of ``rows`` after those of the nodes
    before it.  Per feature, one stable ``lexsort`` sorts every node by the
    feature, ties in the node's own row order.  Prefix sums run along the
    rows of a zero-padded (node x longest node) array, so each node's sums
    are the sequential sums of its sorted targets alone; invalid split
    positions score +inf, so ``argmin`` picks the first best valid one, and a
    later feature wins only with a strictly smaller score.

    Returns per node whether it splits (it needs two distinct targets and a
    valid position), the feature, the position of the last left row, the
    threshold, and the rows sorted by each node's best feature.
    """

    m, width = len(lens), int(lens.max())
    starts = np.cumsum(lens) - lens
    node = np.repeat(np.arange(m), lens)
    col = np.arange(len(rows)) - starts[node]
    ys = y[rows]
    mixed = np.logical_or.reduceat(ys != ys[starts][node], starts)
    found = np.zeros(m, dtype=bool)
    best = np.full(m, np.inf)
    feature = np.zeros(m, dtype=int)
    pos = np.zeros(m, dtype=int)
    threshold = np.zeros(m)
    best_order = rows.copy()
    for f in range(z.shape[1]):
        order = rows[np.lexsort((z[rows, f], node))]
        # -inf padding: no position at or past a node's last row is valid
        xs = np.full((m, width), -np.inf)
        xs[node, col] = z[order, f]
        yp = np.zeros((m, width))
        yp[node, col] = y[order]
        cs = yp.cumsum(axis=1)
        cs2 = (yp * yp).cumsum(axis=1)
        valid = xs[:, :-1] < xs[:, 1:]
        r, p = np.nonzero(valid)
        n = lens[r]
        nl = p + 1.0
        nr = n - nl
        sl = cs[r, p]
        sr = cs[r, n - 1] - sl
        s2l = cs2[r, p]
        s2r = cs2[r, n - 1] - s2l
        sse = np.full((m, width - 1), np.inf)
        sse[r, p] = (s2l - sl * sl / nl) + (s2r - sr * sr / nr)
        j = sse.argmin(axis=1)
        low = sse.min(axis=1)
        better = mixed & valid.any(axis=1) & (~found | (low < best))
        if better.any():
            found |= better
            best[better] = low[better]
            feature[better] = f
            pos[better] = j[better]
            i = np.flatnonzero(better)
            threshold[i] = (xs[i, j[i]] + xs[i, j[i] + 1]) / 2.0
            moved = better[node]
            best_order[moved] = order[moved]
    return found, feature, pos, threshold, best_order


def _fit_tree(z, y, max_depth):
    """CART regression tree with squared-error splits, grown level by level.

    Nodes are numbered in depth-first preorder (a node, its left subtree,
    then its right subtree) and get the bits of a recursive fit: each node
    keeps its rows in the order its parent sorted them, which fixes the tie
    order of its own sorts and the summation order of its value and prefix
    sums.  The splittable nodes of a level are searched longest first, in
    batches of at most ``_TREE_CELLS`` padded cells (one node at least).

    Returns the parallel lists (feature, threshold, left, right, value).
    """

    feature, threshold, value, kids = [], [], [], []
    level = [np.arange(len(y))]  # each node's rows, breadth-first
    for depth in range(max_depth + 1):
        first = len(value)
        nxt_first = first + len(level)
        # ``sum / len`` is ``mean`` without its wrapper: the same two roundings
        value += [float(y[rows].sum()) / len(rows) for rows in level]
        feature += [-1] * len(level)
        threshold += [0.0] * len(level)
        kids += [None] * len(level)
        todo = [] if depth == max_depth else sorted(
            (i for i, rows in enumerate(level) if len(rows) > 1), key=lambda i: -len(level[i])
        )
        nxt = []
        while todo:
            count = max(1, _TREE_CELLS // len(level[todo[0]]))
            batch, todo = todo[:count], todo[count:]
            lens = np.array([len(level[i]) for i in batch])
            found, feat, pos, thr, order = _split_search(
                z, y, np.concatenate([level[i] for i in batch]), lens
            )
            start = 0
            for i, n, ok, f, p, t in zip(
                batch, lens.tolist(), found.tolist(), feat.tolist(), pos.tolist(), thr.tolist()
            ):
                if ok:
                    feature[first + i], threshold[first + i] = f, t
                    kids[first + i] = (nxt_first + len(nxt), nxt_first + len(nxt) + 1)
                    nxt += [order[start : start + p + 1], order[start + p + 1 : start + n]]
                start += n
        if not nxt:
            break
        level = nxt

    preorder, stack = [], [0]
    while stack:
        node = stack.pop()
        preorder.append(node)
        if kids[node] is not None:
            stack += kids[node][::-1]
    new_id = [0] * len(preorder)
    for i, node in enumerate(preorder):
        new_id[node] = i
    return (
        [feature[n] for n in preorder],
        [threshold[n] for n in preorder],
        [new_id[kids[n][0]] if kids[n] else -1 for n in preorder],
        [new_id[kids[n][1]] if kids[n] else -1 for n in preorder],
        [value[n] for n in preorder],
    )


@cache
def _sgd_kernel(k: int):
    """SGD over a run of samples for ``k`` inputs, in Python floats, as
    ``sgd(w, b, cols, ys, lrs) -> (w, b)``: sample ``i`` is ``cols[j][i]``
    for each input ``j``, with target ``ys[i]`` and step size ``lrs[i]``.

    The source is written out once per arity, with one local per weight, so
    a step dispatches nothing: the row product is summed left to right, as
    ``_rows_times`` sums a row, ``b - y`` is added after it, and each weight
    takes ``w - lr * (err * z + alpha * w)``.
    """

    ws = ", ".join(f"w{i}" for i in range(k))
    zs = ", ".join(f"z{i}" for i in range(k))
    dot = " + ".join(f"z{i} * w{i}" for i in range(k))
    updates = "; ".join(f"w{i} = w{i} - lr * (err * z{i} + alpha * w{i})" for i in range(k))
    src = f"""def sgd(w, b, cols, ys, lrs):
    {ws}, = w
    for {zs}, y, lr in zip(*cols, ys, lrs):
        err = {dot} + b - y
        {updates}
        b = b - lr * err
    return [{ws}], b
"""
    namespace = {"alpha": _SGD_ALPHA}
    exec(src, namespace)
    return namespace["sgd"]


def _fit_sgd(z, y, rng):
    n, k = z.shape
    order = np.concatenate([rng.permutation(n) for _ in range(_SGD_EPOCHS)])
    lrs = [_SGD_ETA0 / t**_SGD_POWER_T for t in range(1, len(order) + 1)]
    w, b = _sgd_kernel(k)([0.0] * k, 0.0, z[order].T.tolist(), y[order].tolist(), lrs)
    return np.array(w), b


def fit_continuous_mapper(
    kind: str,
    parent_samples: np.ndarray,
    target_fn: TargetFunction,
    rng: np.random.Generator,
    eps_scale: float = 0.05,
):
    """Fit a continuous mapper of ``kind`` to ``target_fn``.

    ``parent_samples`` are raw ancestor-simulated parent values, one row per
    sample.  Inputs are standardized by their fit-time mean/std; targets get
    gaussian observation noise with std ``eps_scale`` times the target's own
    output std (checkerboard stays noise-free).
    """

    X = np.asarray(parent_samples, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("cannot fit a mapper on an empty ancestor sample")
    if not np.all(np.isfinite(X)):
        raise ValueError("ancestor samples must be finite")
    if kind not in FITTABLE_KINDS:
        raise ValueError(f"not a fittable continuous mapper kind: {kind!r}")

    in_mean, in_scale = _standardize_stats(X)
    z = (X - in_mean) / in_scale
    y0 = np.asarray(eval_target_function(target_fn, z), dtype=float)
    t_scale = float(y0.std()) or 1.0  # a constant target falls back to unit scale
    if target_fn.kind == "checkerboard" or eps_scale == 0.0:
        y = y0
    else:
        y = y0 + rng.normal(0.0, eps_scale * t_scale, len(y0))

    base = dict(in_mean=in_mean, in_scale=in_scale, fitted_target=target_fn)
    if kind == "learned-mlp":
        W1, b1, w2, b2 = _fit_mlp_weights(z, y, rng)
        mapper = MLPMapper("learned-mlp", W1, b1, w2, b2, **base)
    elif kind == "regression-tree":
        depth = int(rng.integers(_TREE_DEPTH_RANGE[0], _TREE_DEPTH_RANGE[1] + 1))
        parts = _fit_tree(z, y, depth)
        mapper = RegressionTreeMapper(*parts, max_depth=depth, **base)
    else:
        w, b = _fit_sgd(z, y, rng)
        mapper = SGDLinearMapper(w, b, **base)

    return mapper.calibrate(X, fallback_scale=t_scale)


def init_random_mlp(n_in: int, rng: np.random.Generator) -> MLPMapper:
    """Xavier-uniform random network used as a fixed causal mechanism."""

    if n_in < 1:
        raise ValueError("random mlp needs at least one input")
    return MLPMapper(
        "random-mlp", *_xavier_mlp(rng, n_in), 0.0, in_mean=np.zeros(n_in), in_scale=np.ones(n_in)
    )


# ---------------------------------------------------------------------------
# categorical mappers


@dataclass(frozen=True)
class ParentStats(Serializable):
    """Per-parent summary of the values seen in the ancestor sample."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    means: tuple[float, ...]
    scales: tuple[float, ...]

    @classmethod
    def from_samples(cls, X: np.ndarray) -> "ParentStats":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("parent stats need a non-empty sample matrix")
        return cls(
            mins=tuple(float(v) for v in X.min(axis=0)),
            maxs=tuple(float(v) for v in X.max(axis=0)),
            means=tuple(float(v) for v in X.mean(axis=0)),
            scales=tuple(float(v) for v in X.std(axis=0)),
        )

    @property
    def n_inputs(self) -> int:
        return len(self.mins)

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.mins) + np.asarray(self.maxs)) / 2.0


class _CentroidBase(Mapper):
    """Shared storage for centroid-driven categorical mappers."""

    _fields = ("centroids", "classes", "n_classes", "stats")

    def __init__(self, centroids, classes, n_classes, stats: ParentStats):
        self.centroids = np.asarray(centroids, dtype=float)
        self.classes = np.asarray(classes, dtype=int)
        self.n_classes = int(n_classes)
        self.stats = stats
        if self.centroids.ndim != 2 or len(self.centroids) != len(self.classes):
            raise ValueError("one class per centroid required")
        if set(self.classes.tolist()) != set(range(self.n_classes)):
            raise ValueError("every class needs at least one centroid")
        self._freeze()

    @property
    def n_inputs(self) -> int:
        return int(self.centroids.shape[1])

    def move_centroids(self, rng: np.random.Generator, stats: ParentStats | None = None):
        """This mapper with its centroids redrawn inside the (possibly updated) parent box."""
        stats = self.stats if stats is None else stats
        lo, hi = np.asarray(stats.mins), np.asarray(stats.maxs)
        return self._with(centroids=rng.uniform(lo, hi, size=self.centroids.shape), stats=stats)


class PrototypeMapper(_CentroidBase):
    """Nearest-centroid classifier; euclidean or manhattan distance."""

    kind = "prototype"
    _fields = _CentroidBase._fields + ("distance",)

    DISTANCES = ("euclidean", "manhattan")

    def __init__(self, centroids, classes, n_classes, stats, distance="euclidean"):
        if distance not in self.DISTANCES:
            raise ValueError(f"unknown distance {distance!r}")
        self.distance = distance
        super().__init__(centroids, classes, n_classes, stats)

    def _dists(self, X: np.ndarray) -> np.ndarray:
        diff = X[:, None, :] - self.centroids[None, :, :]
        if self.distance == "euclidean":
            return np.sqrt((diff * diff).sum(axis=2))
        return np.abs(diff).sum(axis=2)

    def _rows(self, X: np.ndarray) -> np.ndarray:
        # argmin returns the first minimum: ties break to the lowest centroid index
        return self.classes[np.argmin(self._dists(X), axis=1)]


class _SpreadBase(_CentroidBase):
    """Centroids with one spread each; the best log-activation wins.

    The score is ``-d^2 / 2s^2``, minus ``k log s`` when ``normalized``.
    """

    _fields = _CentroidBase._fields + ("spreads",)
    normalized: bool = False

    def __init__(self, centroids, classes, n_classes, stats, spreads):
        self.spreads = np.asarray(spreads, dtype=float)
        super().__init__(centroids, classes, n_classes, stats)
        if len(self.spreads) != len(self.classes) or np.any(self.spreads <= 0):
            raise ValueError("one positive spread per centroid required")

    def _rows(self, X: np.ndarray) -> np.ndarray:
        diff = X[:, None, :] - self.centroids[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        score = -d2 / (2.0 * self.spreads**2)
        if self.normalized:
            score = score - self.n_inputs * np.log(self.spreads)
        return self.classes[np.argmax(score, axis=1)]


class GaussianPrototypeMapper(_SpreadBase):
    """Assigns the class of the isotropic gaussian with highest density.

    Unlike the plain RBF activation this includes the ``s^-k`` normalization,
    so a wide gaussian can win far away even when a narrow one is closer.
    """

    kind = "gaussian-prototype"
    normalized = True


class RadialBasisMapper(_SpreadBase):
    """Assigns the class of the maximum RBF activation exp(-d^2 / 2s^2)."""

    kind = "random-rbf"


class HyperplaneMapper(Mapper):
    """Binary classifier: class 1 iff w . x + b > 0."""

    kind = "hyperplane"
    _fields = ("w", "b", "n_classes", "stats")

    def __init__(self, w, b, stats: ParentStats, n_classes: int = 2):
        if n_classes != 2:
            raise ValueError("hyperplane mapper is binary only")
        self.w = np.asarray(w, dtype=float)
        self.b = float(b)
        self.n_classes = 2
        self.stats = stats
        self._freeze()

    @property
    def n_inputs(self) -> int:
        return int(self.w.shape[0])

    def _rows(self, X: np.ndarray) -> np.ndarray:
        return (_rows_times(X, self.w) + self.b > 0).astype(int)

    def rotate(self, angle_rad: float, plane_dir: np.ndarray) -> "HyperplaneMapper":
        """This plane rotated by ``angle_rad`` toward the orthogonal unit ``plane_dir``.

        The bias is recomputed so the plane keeps passing through the parent
        box centre.  With a single input the rotation degenerates to scaling
        by cos(angle), flipping the sign past 90 degrees.
        """
        norm = float(np.linalg.norm(self.w))
        if self.n_inputs == 1:
            w = self.w * np.cos(angle_rad)
        else:
            u = np.asarray(plane_dir, dtype=float)
            w = np.cos(angle_rad) * self.w + np.sin(angle_rad) * norm * u
        return self._with(w=w, b=-float(w @ self.stats.center))


def init_categorical_mapper(
    kind: str,
    n_classes: int,
    parent_stats: ParentStats,
    rng: np.random.Generator,
    n_centroids_range: tuple[int, int] = (1, 3),
    distance: str = "euclidean",
):
    """Initialize a categorical mapper from parent statistics.

    Centroids are drawn uniformly inside the parent min/max box, 1-3 per
    class (a class may own several centroids); spreads are a uniform 0.1-0.5
    fraction of the mean parent scale.  Draw order per class: count, then
    centroid coordinates, then spreads.
    """

    if kind not in CATEGORICAL_KINDS:
        raise ValueError(f"unknown categorical mapper kind {kind!r}")
    if n_classes < 2:
        raise ValueError("need at least two classes")
    lo = np.asarray(parent_stats.mins, dtype=float)
    hi = np.asarray(parent_stats.maxs, dtype=float)
    if np.any(~np.isfinite(lo)) or np.any(~np.isfinite(hi)):
        raise ValueError("parent stats must be finite")
    if np.any(hi <= lo):
        raise ValueError("degenerate parent box: min == max on some axis")
    c_lo, c_hi = n_centroids_range
    if not 1 <= c_lo <= c_hi <= 3:
        raise ValueError("centroid count range must lie within [1, 3]")

    if kind == "hyperplane":
        if n_classes != 2:
            raise ValueError("hyperplane mapper is binary only")
        w = rng.normal(size=parent_stats.n_inputs)
        w /= np.linalg.norm(w)
        b = -float(w @ parent_stats.center)
        return HyperplaneMapper(w, b, parent_stats)

    scale_ref = float(np.mean(parent_stats.scales))
    if scale_ref <= 0:
        scale_ref = float(np.mean(hi - lo)) / np.sqrt(12.0)
    centroids = []
    classes = []
    spreads = []
    for c in range(n_classes):
        m = int(rng.integers(c_lo, c_hi + 1))
        centroids.append(rng.uniform(lo, hi, size=(m, len(lo))))
        classes.extend([c] * m)
        if kind != "prototype":
            spreads.extend(rng.uniform(0.1, 0.5, size=m) * scale_ref)
    centroids = np.vstack(centroids)
    if kind == "prototype":
        return PrototypeMapper(centroids, classes, n_classes, parent_stats, distance)
    return _MAPPERS[kind](centroids, classes, n_classes, parent_stats, spreads)


# ---------------------------------------------------------------------------
# serialization


# kind -> constructor; every constructor takes the keys of ``to_dict``
_MAPPERS = {
    **{kind: partial(MLPMapper, kind) for kind in MLPMapper.KINDS},
    **{
        cls.kind: cls
        for cls in (
            RegressionTreeMapper,
            SGDLinearMapper,
            PrototypeMapper,
            GaussianPrototypeMapper,
            RadialBasisMapper,
            HyperplaneMapper,
        )
    },
}


def mapper_from_dict(d: dict):
    fields = dict(d)
    make = _MAPPERS.get(fields.pop("kind"))
    if make is None:
        raise ValueError(f"unknown mapper kind {d['kind']!r}")
    if fields.get("fitted_target") is not None:
        fields["fitted_target"] = TargetFunction.from_dict(fields["fitted_target"])
    if "stats" in fields:
        fields["stats"] = ParentStats.from_dict(fields["stats"])
    return make(**fields)


def serialize_params(mapper) -> bytes:
    """Canonical byte serialization of a mapper's parameters."""

    return json.dumps(mapper.to_dict(), sort_keys=True, separators=(",", ":")).encode()
