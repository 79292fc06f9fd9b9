import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from causalstream import mappers
from causalstream.mappers import (
    CATEGORICAL_KINDS,
    CENTROID_KINDS,
    CONTINUOUS_KINDS,
    GaussianPrototypeMapper,
    HyperplaneMapper,
    ParentStats,
    PrototypeMapper,
    RadialBasisMapper,
    RootDistribution,
    SGDLinearMapper,
    TargetFunction,
    draw_target_function,
    eval_target_function,
    fit_continuous_mapper,
    init_categorical_mapper,
    init_random_mlp,
    mapper_from_dict,
    serialize_params,
)


def test_root_distribution_moments():
    n = RootDistribution("normal", 2.0, 4.0)
    assert n.mean() == 2.0 and n.std() == 2.0
    u = RootDistribution("uniform", 0.0, 12.0)
    assert u.mean() == 6.0
    assert np.isclose(u.std(), math.sqrt(12.0))
    rng = np.random.default_rng(0)
    draws = u.sample(rng, size=20_000)
    assert draws.min() >= 0.0 and draws.max() <= 12.0
    assert abs(draws.mean() - 6.0) < 0.1


def test_root_distribution_validation():
    with pytest.raises(ValueError):
        RootDistribution("normal", 0.0, 0.0)  # variance must be positive
    with pytest.raises(ValueError):
        RootDistribution("uniform", 1.0, 1.0)  # high must exceed low
    with pytest.raises(ValueError):
        RootDistribution("poisson", 1.0, 2.0)


def test_target_function_hand_values():
    lin = TargetFunction("linear", weights=(1.0, 2.0), bias=0.5)
    assert eval_target_function(lin, np.array([3.0, 4.0])) == pytest.approx(11.5)
    sin = TargetFunction("sine")
    assert eval_target_function(sin, np.array([math.pi / 2, 0.0])) == pytest.approx(1.0)
    step = TargetFunction("step")
    assert eval_target_function(step, np.array([0.2, -0.1])) == 1.0
    assert eval_target_function(step, np.array([-1.0, 0.5])) == 0.0
    chk = TargetFunction("checkerboard")
    assert eval_target_function(chk, np.array([0.5, 1.5])) == 1.0
    assert eval_target_function(chk, np.array([1.2, 1.9])) == 0.0
    rbf = TargetFunction("rbf", sigma=1.0)
    assert eval_target_function(rbf, np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert eval_target_function(rbf, np.array([1.0, 1.0])) == pytest.approx(
        math.exp(-1.0)
    )


def test_target_function_validation():
    with pytest.raises(ValueError):
        TargetFunction("linear")  # weights required
    with pytest.raises(ValueError):
        TargetFunction("rbf", sigma=0.0)
    with pytest.raises(ValueError):
        TargetFunction("parabola")


def test_draw_target_function_ranges():
    rng = np.random.default_rng(3)
    for _ in range(50):
        fn = draw_target_function("linear", 4, rng)
        w = np.asarray(fn.weights)
        assert w.shape == (4,) and np.all(np.abs(w) <= 2.0)
        assert abs(fn.bias) <= 1.0
        assert 0.5 <= draw_target_function("rbf", 4, rng).sigma <= 2.0


def test_xavier_bounds_always_hold():
    """Every weight of a random mlp obeys the xavier-uniform bound."""
    b1 = math.sqrt(6.0 / (5 + 10))
    b2 = math.sqrt(6.0 / (10 + 1))
    for seed in range(30):
        m = init_random_mlp(5, np.random.default_rng(seed))
        assert np.all(np.abs(m.W1) <= b1)
        assert np.all(np.abs(m.w2) <= b2)
        assert np.all(m.b1 == 0.0) and m.b2 == 0.0


def test_random_mlp_predict_is_pure():
    m = init_random_mlp(3, np.random.default_rng(7))
    x = np.array([0.3, -1.2, 0.8])
    vals = {m.predict(x) for _ in range(5)}
    assert len(vals) == 1


def test_sgd_linear_recovers_noise_free_linear():
    rng = np.random.default_rng(11)
    X = rng.normal(1.0, 3.0, size=(600, 3))
    fn = TargetFunction("linear", weights=(1.5, -0.7, 0.3), bias=0.4)
    m = fit_continuous_mapper("sgd-linear", X, fn, np.random.default_rng(1), eps_scale=0.0)
    z = (X - X.mean(axis=0)) / X.std(axis=0)
    y_true = eval_target_function(fn, z)
    mse = float(np.mean((m.predict(X) - y_true) ** 2))
    assert mse < 1e-2


def test_tree_thresholds_stay_in_fit_range():
    rng = np.random.default_rng(5)
    X = rng.uniform(-4.0, 4.0, size=(400, 2))
    fn = TargetFunction("sine")
    m = fit_continuous_mapper("regression-tree", X, fn, np.random.default_rng(2))
    z = (X - m.in_mean) / m.in_scale
    internal = m.feature >= 0
    for j in range(2):
        sel = internal & (m.feature == j)
        if sel.any():
            assert m.threshold[sel].min() >= z[:, j].min()
            assert m.threshold[sel].max() <= z[:, j].max()


def test_fit_rejects_bad_inputs():
    fn = TargetFunction("sine")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fit_continuous_mapper("sgd-linear", np.empty((0, 2)), fn, rng)
    with pytest.raises(ValueError):
        fit_continuous_mapper("random-mlp", np.ones((10, 2)), fn, rng)
    with pytest.raises(ValueError):
        fit_continuous_mapper(
            "sgd-linear", np.array([[1.0, np.nan]]), fn, rng
        )


def _box_stats():
    return ParentStats.from_samples(np.array([[-1.0, -1.0], [1.0, 1.0]]))


def test_prototype_ties_and_distances():
    stats = _box_stats()
    centroids = np.array([[-0.5, 0.0], [0.5, 0.0]])
    m = PrototypeMapper(centroids, classes=np.array([0, 1]), n_classes=2, stats=stats)
    assert m.predict(np.array([-0.4, 0.1])) == 0
    assert m.predict(np.array([0.4, 0.1])) == 1
    # equidistant point resolves to the lowest centroid index
    assert m.predict(np.array([0.0, 0.3])) == 0
    manh = PrototypeMapper(
        centroids, classes=np.array([0, 1]), n_classes=2, stats=stats,
        distance="manhattan",
    )
    # (0.1, 0.9): manhattan says 0.6+0.9=1.5 vs 0.4+0.9=1.3, euclidean agrees
    assert manh.predict(np.array([0.1, 0.9])) == 1


def test_gaussian_prototype_normalization_flips_winner():
    """The s^-k density term lets a wide gaussian beat a nearer narrow one."""
    stats = ParentStats.from_samples(np.array([[-1.0, -1.0], [3.0, 1.0]]))
    centroids = np.array([[0.0, 0.0], [2.0, 0.0]])
    classes = np.array([0, 1])
    spreads = np.array([0.1, 3.0])
    gauss = GaussianPrototypeMapper(centroids, classes, 2, stats, spreads)
    rbf = RadialBasisMapper(centroids, classes, 2, stats, spreads)
    p = np.array([0.3, 0.0])
    assert rbf.predict(p) == 1  # raw activation prefers the wide centroid
    assert gauss.predict(p) == 0  # normalization rescues the narrow one


def test_hyperplane_predict_and_rotate():
    stats = _box_stats()
    m = HyperplaneMapper(np.array([1.0, 0.0]), 0.0, stats)
    assert m.predict(np.array([0.5, 3.0])) == 1
    assert m.predict(np.array([-0.5, 1.0])) == 0
    m = m.rotate(math.pi, np.array([0.0, 1.0]))
    assert m.predict(np.array([0.5, 0.0])) == 0
    assert m.predict(np.array([-0.5, 0.0])) == 1


def test_init_categorical_validation():
    stats = _box_stats()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        init_categorical_mapper("hyperplane", 3, stats, rng)
    with pytest.raises(ValueError):
        init_categorical_mapper("prototype", 1, stats, rng)
    with pytest.raises(ValueError):
        init_categorical_mapper("prototype", 3, stats, rng, n_centroids_range=(0, 3))
    with pytest.raises(ValueError):
        init_categorical_mapper("prototype", 3, stats, rng, n_centroids_range=(1, 4))
    degenerate = ParentStats.from_samples(np.array([[1.0, 2.0], [1.0, 3.0]]))
    with pytest.raises(ValueError):
        init_categorical_mapper("prototype", 3, degenerate, rng)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_prototype_grid_covers_every_class(seed):
    """A dense grid over the parent box hits all classes of a fresh mapper."""
    stats = _box_stats()
    m = init_categorical_mapper(
        "prototype", 3, stats, np.random.default_rng(seed)
    )
    g = np.linspace(-1.0, 1.0, 80)
    xx, yy = np.meshgrid(g, g)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    assert set(np.unique(m.predict(pts))) == {0, 1, 2}


@pytest.mark.parametrize("kind", CATEGORICAL_KINDS)
def test_categorical_serialization_round_trip(kind):
    stats = _box_stats()
    n_classes = 2 if kind == "hyperplane" else 3
    m = init_categorical_mapper(kind, n_classes, stats, np.random.default_rng(9))
    clone = mapper_from_dict(m.to_dict())
    assert serialize_params(clone) == serialize_params(m)
    pts = np.random.default_rng(1).uniform(-1, 1, size=(50, 2))
    assert np.array_equal(m.predict(pts), clone.predict(pts))


@pytest.mark.parametrize("kind", ["learned-mlp", "regression-tree", "sgd-linear"])
def test_continuous_serialization_round_trip(kind):
    rng = np.random.default_rng(8)
    X = rng.normal(0.0, 2.0, size=(300, 2))
    fn = TargetFunction("sine")
    m = fit_continuous_mapper(kind, X, fn, np.random.default_rng(4))
    clone = mapper_from_dict(m.to_dict())
    assert serialize_params(clone) == serialize_params(m)
    pts = rng.normal(0.0, 2.0, size=(40, 2))
    assert np.allclose(m.predict(pts), clone.predict(pts))


def test_serialize_params_is_canonical():
    m = init_random_mlp(2, np.random.default_rng(3))
    assert serialize_params(m) == serialize_params(mapper_from_dict(m.to_dict()))
    assert isinstance(serialize_params(m), bytes)


def _every_kind(k: int):
    """One mapper of each kind over ``k`` inputs, fitted on a shared sample."""
    rng = np.random.default_rng(5)
    X = rng.normal(0.0, 2.0, size=(300, k))
    stats = ParentStats.from_samples(X)
    mappers = [init_random_mlp(k, rng)]
    for kind in ("learned-mlp", "regression-tree", "sgd-linear"):
        mappers.append(fit_continuous_mapper(kind, X, TargetFunction("sine"), rng))
    for kind in CATEGORICAL_KINDS:
        n_classes = 2 if kind == "hyperplane" else 4
        mappers.append(init_categorical_mapper(kind, n_classes, stats, rng))
    return mappers


def _assert_read_only(m) -> None:
    arrays = [v for v in vars(m).values() if isinstance(v, np.ndarray)]
    assert arrays, m.kind
    for v in arrays:
        with pytest.raises(ValueError, match="read-only"):
            v[...] = 0


def test_every_kind_is_read_only_and_every_change_builds_a_new_mapper():
    """Each of the 8 kinds is frozen once built, and each method that drift
    uses returns a new frozen mapper and leaves the one it was called on as
    it was."""
    X = np.random.default_rng(7).normal(0.0, 2.0, size=(64, 3))
    rng = np.random.default_rng(8)
    kinds = set()
    for m in _every_kind(3):
        kinds.add(m.kind)
        before = serialize_params(m)
        changed = [m._with()]
        if m.kind in CONTINUOUS_KINDS:
            changed.append(m.calibrate(X))
        if m.kind == "random-mlp":
            changed.append(m.reinit(rng))
        if m.kind == "sgd-linear":
            changed += [m.reset_partial_schedule(), m.partial_fit(X[0], 1.0)]
        if m.kind in CENTROID_KINDS:
            changed += [m.move_centroids(rng), m.move_centroids(rng, ParentStats.from_samples(X))]
        if m.kind == "hyperplane":
            changed.append(m.rotate(1.0, np.array([0.0, 0.6, 0.8])))
        for new in [m, *changed]:
            _assert_read_only(new)
        assert all(new is not m for new in changed), m.kind
        assert serialize_params(m) == before, m.kind
    assert kinds == set(CONTINUOUS_KINDS + CATEGORICAL_KINDS)


@pytest.mark.parametrize("k", [1, 3, 9])
def test_predict_rows_do_not_depend_on_the_batch(k):
    """A row's output has the same bits alone, in chunks of 7 and among 4096."""
    X = np.random.default_rng(6).normal(0.0, 2.0, size=(4096, k))
    for m in _every_kind(k):
        full = m.predict(X)
        chunked = np.concatenate([m.predict(X[s : s + 7]) for s in range(0, len(X), 7)])
        assert np.array_equal(chunked, full), m.kind
        single = np.array([m.predict(x) for x in X[:200]])
        assert np.array_equal(single, full[:200]), m.kind


def test_tree_forward_matches_a_row_by_row_descent():
    rng = np.random.default_rng(7)
    X = rng.normal(0.0, 2.0, size=(500, 2))
    m = fit_continuous_mapper("regression-tree", X, TargetFunction("checkerboard"), rng)
    Z = (X - m.in_mean) / m.in_scale
    expected = []
    for z in Z:
        node = 0
        while m.feature[node] >= 0:
            node = m.left[node] if z[m.feature[node]] <= m.threshold[node] else m.right[node]
        expected.append(m.value[node])
    assert np.array_equal(m.predict(X), np.array(expected))


def test_predict_is_the_one_product_path():
    """A row has the same bits alone, in 7 rows and in 1024 rows, and
    ``calibrate`` records the mean and std of ``predict`` on its sample."""
    X = np.random.default_rng(8).normal(0.0, 2.0, size=(1024, 3))
    for m in _every_kind(3):
        full = m.predict(X)
        chunked = np.concatenate([m.predict(X[s : s + 7]) for s in range(0, len(X), 7)])
        assert np.array_equal(chunked, full), m.kind
        assert np.array_equal(np.array([m.predict(x) for x in X]), full), m.kind
        if m.kind not in CATEGORICAL_KINDS:
            m = m.calibrate(X)
            preds = m.predict(X)
            assert m.out_mean == float(preds.mean()), m.kind
            assert m.out_scale == float(preds.std()), m.kind


# -- the fits against their reference arithmetic ------------------------------


def _recursive_fit_tree(z, y, max_depth):
    """The tree fit as a recursive depth-first CART with one stable sort per
    node and feature: the reference ``_fit_tree`` must match bit for bit."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[idx].mean()))
        if depth >= max_depth or len(idx) < 2 or np.all(y[idx] == y[idx][0]):
            return node
        best = None  # (sse, feat, thr, order, pos)
        for f in range(z.shape[1]):
            order = idx[np.argsort(z[idx, f], kind="stable")]
            xs = z[order, f]
            ys = y[order]
            valid = np.nonzero(xs[:-1] < xs[1:])[0]
            if valid.size == 0:
                continue
            cs = np.cumsum(ys)
            cs2 = np.cumsum(ys * ys)
            n = len(ys)
            nl = valid + 1.0
            nr = n - nl
            sl = cs[valid]
            sr = cs[-1] - sl
            s2l = cs2[valid]
            s2r = cs2[-1] - s2l
            sse = (s2l - sl * sl / nl) + (s2r - sr * sr / nr)
            j = int(np.argmin(sse))
            if best is None or sse[j] < best[0]:
                pos = int(valid[j])
                best = (float(sse[j]), f, float((xs[pos] + xs[pos + 1]) / 2.0), order, pos)
        if best is None:
            return node
        _, f, thr, order, pos = best
        feature[node] = f
        threshold[node] = thr
        left[node] = grow(order[: pos + 1], depth + 1)
        right[node] = grow(order[pos + 1 :], depth + 1)
        return node

    grow(np.arange(len(y)), 0)
    return feature, threshold, left, right, value


def _float_sgd_step(w, b, z, y, t):
    """One SGD step on lists of Python floats, the row product summed left
    to right before ``b - y``: the SGD kernels must match it bit for bit."""
    lr = mappers._SGD_ETA0 / t**mappers._SGD_POWER_T
    dot = z[0] * w[0]
    for j in range(1, len(z)):
        dot += z[j] * w[j]
    err = dot + b - y
    for j in range(len(w)):
        w[j] = w[j] - lr * (err * z[j] + mappers._SGD_ALPHA * w[j])
    return b - lr * err


def _float_fit_sgd(z, y, rng):
    w = [0.0] * z.shape[1]
    b = 0.0
    t = 0
    for _ in range(mappers._SGD_EPOCHS):
        for i in rng.permutation(len(z)):
            t += 1
            b = _float_sgd_step(w, b, z[i].tolist(), float(y[i]), t)
    return np.array(w), b


def _numpy_sgd_step(w, b, z, y, t):
    """One SGD step with numpy updates and a BLAS row product: the same SGD
    as the kernels, equal up to the rounding of the product."""
    lr = mappers._SGD_ETA0 / t**mappers._SGD_POWER_T
    err = float(z @ w + b - y)
    w -= lr * (err * z + mappers._SGD_ALPHA * w)
    return b - lr * err


def _numpy_fit_sgd(z, y, rng):
    w = np.zeros(z.shape[1])
    b = 0.0
    t = 0
    for _ in range(mappers._SGD_EPOCHS):
        for i in rng.permutation(len(z)):
            t += 1
            b = _numpy_sgd_step(w, b, z[i], y[i], t)
    return w, b


@given(k=st.integers(1, 8), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_every_sgd_arity_matches_the_float_steps(k, n, seed):
    """Each arity has its own generated kernel: the fit and a run of
    ``partial_fit`` steps both take the bits of the Python float steps."""
    rng = np.random.default_rng(seed)
    z, y = rng.normal(size=(n, k)), rng.normal(size=n)
    w, b = mappers._fit_sgd(z, y, np.random.default_rng(seed))
    w0, b0 = _float_fit_sgd(z, y, np.random.default_rng(seed))
    assert _same_bits(w, w0)
    assert type(b) is float and _same_bits(b, b0)

    m = SGDLinearMapper(w, b, in_mean=np.zeros(k), in_scale=np.ones(k))
    w0 = w0.tolist()
    for t, (row, target) in enumerate(zip(z, y.tolist()), start=1):
        m = m.partial_fit(row, target)
        b0 = _float_sgd_step(w0, b0, row.tolist(), target, t)
    assert _same_bits(m.w, np.array(w0))
    assert type(m.b) is float and _same_bits(m.b, b0)
    assert mappers._sgd_kernel(k) is mappers._sgd_kernel(k)


def _four_block_adam(z, y, rng):
    """Adam with one update per parameter block (W1, b1, w2 and the Python
    float b2): the flat ``_fit_mlp_weights`` must match it bit for bit."""
    n, k = z.shape
    params = [*mappers._xavier_mlp(rng, k), 0.0]
    moments = [np.zeros_like(p) for p in params[:3]] + [0.0]
    moments2 = [np.zeros_like(p) for p in params[:3]] + [0.0]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(mappers._MLP_EPOCHS):
        perm = rng.permutation(n)
        for start in range(0, n, mappers._MLP_BATCH):
            W1, b1, w2, b2 = params
            idx = perm[start : start + mappers._MLP_BATCH]
            zb, yb = z[idx], y[idx]
            pre = zb @ W1 + b1
            h = np.maximum(pre, 0.0)
            pred = h @ w2 + b2
            g_out = 2.0 * (pred - yb) / len(idx)
            g_h = np.outer(g_out, w2) * (pre > 0)
            grads = [zb.T @ g_h, g_h.sum(axis=0), h.T @ g_out, float(g_out.sum())]
            step += 1
            for i in range(4):
                moments[i] = beta1 * moments[i] + (1 - beta1) * grads[i]
                moments2[i] = beta2 * moments2[i] + (1 - beta2) * grads[i] ** 2
                mhat = moments[i] / (1 - beta1**step)
                vhat = moments2[i] / (1 - beta2**step)
                params[i] -= mappers._MLP_LR * mhat / (np.sqrt(vhat) + eps)
    return params


def _fit_case(n, k, target):
    """Rows with ties: column 0 holds integers, column 1 tenths."""
    rng = np.random.default_rng(n + 10 * k)
    z = rng.normal(size=(n, k))
    z[:, 0] = np.round(2.0 * z[:, 0])
    if k > 1:
        z[:, 1] = np.round(z[:, 1], 1)
    if target == "constant":
        y = np.full(n, 0.75)
    elif target == "step":
        y = (z.sum(axis=1) > 0).astype(float)
    else:
        y = np.sin(z).sum(axis=1) + rng.normal(0.0, 0.1, n)
    return z, y


def _same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


_TARGETS = ("constant", "step", "noisy")


@pytest.mark.parametrize("target", _TARGETS)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 1024])
def test_tree_fit_matches_the_recursive_fit(n, k, target, monkeypatch):
    """Every array of the level-wise fit has the bits of the recursive one,
    also when a level is searched a few nodes at a time."""
    z, y = _fit_case(n, k, target)
    for cells in (mappers._TREE_CELLS, 16):
        monkeypatch.setattr(mappers, "_TREE_CELLS", cells)
        for depth in (5, 25):
            got = mappers._fit_tree(z, y, depth)
            expected = _recursive_fit_tree(z, y, depth)
            names = ("feature", "threshold", "left", "right", "value")
            for name, a, b in zip(names, got, expected):
                assert _same_bits(a, b), (cells, depth, name)


@pytest.mark.parametrize("target", _TARGETS)
@pytest.mark.parametrize("k", [1, 2, 3, 20])
@pytest.mark.parametrize("n", [1, 2, 1024])
def test_sgd_fit_matches_numpy_updates(n, k, target):
    z, y = _fit_case(n, k, target)
    w, b = mappers._fit_sgd(z, y, np.random.default_rng(4))
    w0, b0 = _float_fit_sgd(z, y, np.random.default_rng(4))
    assert _same_bits(w, w0)
    assert type(b) is float and _same_bits(b, b0)
    w1, b1 = _numpy_fit_sgd(z, y, np.random.default_rng(4))
    assert np.allclose(w, w1, rtol=1e-9) and np.isclose(b, b1, rtol=1e-9)


@pytest.mark.parametrize("k", [1, 3, 20])
def test_partial_fit_matches_numpy_updates(k):
    X = np.random.default_rng(k).normal(size=(200, k))
    m = fit_continuous_mapper("sgd-linear", X, TargetFunction("sine"), np.random.default_rng(1))
    first, w_before = m, m.w.copy()
    w, b = m.w.tolist(), m.b
    w1, b1 = m.w.copy(), m.b
    rng = np.random.default_rng(2)
    for t in range(1, 300):
        z = rng.normal(size=k)
        y = float(eval_target_function(TargetFunction("rbf"), z))
        m = m.partial_fit(z, y)
        b = _float_sgd_step(w, b, z.tolist(), y, t)
        b1 = _numpy_sgd_step(w1, b1, z, y, t)
    # each step builds a new mapper and leaves the one before it as it was
    assert m._partial_steps == 299 and first._partial_steps == 0
    assert _same_bits(first.w, w_before) and not first.w.flags.writeable
    assert _same_bits(m.w, np.array(w))
    assert type(m.b) is float and _same_bits(m.b, b)
    assert np.allclose(m.w, w1, rtol=1e-9) and np.isclose(m.b, b1, rtol=1e-9)


@pytest.mark.parametrize("target", _TARGETS)
@pytest.mark.parametrize("k", [1, 2, 3, 20])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1024])
def test_adam_fit_matches_the_four_block_updates(n, k, target):
    """The flat Adam vector gives every parameter the bits of its own block
    update, with a full, a short and a one-row last mini-batch."""
    _assert_adam_matches(n, k, target, seed=4)


def test_adam_bias_slot_squares_as_a_python_float():
    """Here one step's bias-slot gradient has ``g ** 2 != g * g`` and the
    difference reaches b2, so squaring the flat slot as ``g * g`` fails."""
    _assert_adam_matches(65, 2, "noisy", seed=14)


def _assert_adam_matches(n, k, target, seed):
    z, y = _fit_case(n, k, target)
    got = mappers._fit_mlp_weights(z, y, np.random.default_rng(seed))
    expected = _four_block_adam(z, y, np.random.default_rng(seed))
    for name, a, b in zip(("W1", "b1", "w2", "b2"), got, expected):
        assert _same_bits(a, b), name
