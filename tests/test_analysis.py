import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import forced_blas_threads
from causalstream import analysis
from causalstream.analysis import (
    SIGNIFICANCE_LEVELS,
    acf,
    chi_square_upper_tail,
    ljung_box,
    median_bandwidth,
    mmd2_rbf,
    mmd_heatmap,
)
from causalstream.temporal import TemporalParams, simulate_ar_noise

# 10-point hand oracle, worked out from the Q formula with plain arithmetic
# before the implementation existed
_HAND_SERIES = [0.5, -1.0, 2.0, 0.25, -0.75, 1.5, -2.0, 0.0, 1.0, -0.5]
_HAND_RHO = (-0.52146892655367227, -0.07495291902071563, 0.44783427495291894)
_HAND_Q = 7.1480952532949074
_HAND_P = 0.0673243170664


def test_chi_square_upper_tail_oracles():
    assert chi_square_upper_tail(0.0, 5) == pytest.approx(1.0)
    # sf(2 ln 2, df=2) = exp(-ln 2) = 1/2 exactly
    assert chi_square_upper_tail(2.0 * math.log(2.0), 2) == pytest.approx(0.5)
    # textbook 5% critical value for df=20
    assert chi_square_upper_tail(31.410, 20) == pytest.approx(0.0500052392, abs=5e-4)
    xs = [0.5, 2.0, 10.0, 30.0]
    vals = [chi_square_upper_tail(x, 6) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_chi_square_upper_tail_matches_scipy():
    gammaincc = pytest.importorskip("scipy.special").gammaincc
    for k in range(1, 201):
        xs = np.linspace(0.0, 3.0 * k + 30.0, 61)
        ref = gammaincc(k / 2.0, xs / 2.0)
        got = np.array([chi_square_upper_tail(float(x), k) for x in xs])
        assert np.all(np.abs(got - ref) <= 1e-12 * ref), k
    # past k ~ 1500 the tail is not negligible where e^(-x/2) underflows
    for k in (1000, 2001, 5000):
        xs = np.linspace(0.0, 3.0 * k + 3000.0, 200)
        got = np.array([chi_square_upper_tail(float(x), k) for x in xs])
        assert np.max(np.abs(got - gammaincc(k / 2.0, xs / 2.0))) <= 1e-13, k


def test_chi_square_upper_tail_edges():
    for k in range(1, 12):
        assert chi_square_upper_tail(0.0, k) == 1.0
        for x in (1e-300, 1e-12, 1e-6):
            assert 0.0 < chi_square_upper_tail(x, k) <= 1.0
    for k in (1, 2, 200):
        assert chi_square_upper_tail(1e6, k) == 0.0
        assert chi_square_upper_tail(1.7e308, k) == 0.0
    # e^(-x/2) underflows here, yet x lies 6 sd below the mean 2000
    assert chi_square_upper_tail(1600.0, 2000) > 1.0 - 1e-9
    assert chi_square_upper_tail(1600.0, 2001) > 1.0 - 1e-9


@pytest.mark.parametrize("k", [2.0, 2.5, True, np.float64(3.0), "3", 0, -1])
def test_chi_square_upper_tail_rejects_non_integer_k(k):
    with pytest.raises(ValueError):
        chi_square_upper_tail(3.0, k)


@pytest.mark.parametrize("x", [-1.0, math.nan, math.inf])
def test_chi_square_upper_tail_rejects_bad_x(x):
    with pytest.raises(ValueError):
        chi_square_upper_tail(x, 3)


def test_acf_hand_oracles():
    rho = acf(np.asarray(_HAND_SERIES), 3)
    assert rho[0] == pytest.approx(1.0)
    for k in range(1, 4):
        assert rho[k] == pytest.approx(_HAND_RHO[k - 1], abs=1e-12)
    # alternating signs: lag-1 is -(n-1)/n, lag-2 is +(n-2)/n
    alt = np.tile([1.0, -1.0], 5)
    r = acf(alt, 2)
    assert r[1] == pytest.approx(-0.9, abs=1e-12)
    assert r[2] == pytest.approx(0.8, abs=1e-12)


def test_acf_input_guards():
    with pytest.raises(ValueError):
        acf(np.ones(50), 5)  # constant series has no correlation
    with pytest.raises(ValueError):
        acf(np.arange(4, dtype=float), 5)  # too short for the lag
    with pytest.raises(ValueError):
        acf(np.array([1.0, np.nan, 2.0, 0.5, 1.5, 0.2]), 2)


def test_ljung_box_hand_oracle():
    res = ljung_box(np.asarray(_HAND_SERIES), 3)
    assert res.Q == pytest.approx(_HAND_Q, abs=1e-10)
    assert res.p_value == pytest.approx(_HAND_P, abs=1e-9)
    assert res.h == 3
    assert set(res.reject_at) == set(SIGNIFICANCE_LEVELS)
    assert not res.reject_at[0.05]


def test_ljung_box_needs_enough_points():
    with pytest.raises(ValueError):
        ljung_box(np.arange(20, dtype=float), 20)


def test_ljung_box_calibration_on_white_noise():
    """Rejection rate at 5% stays near nominal on iid gaussian noise."""
    rng = np.random.default_rng(0)
    rejections = sum(
        ljung_box(rng.normal(size=500), 20).reject_at[0.05] for _ in range(200)
    )
    assert 1 <= rejections <= 21  # binomial(200, 0.05) within ~3 sigma


def test_ljung_box_flags_ar_memory():
    params = TemporalParams(alpha=1.0, rho=0.6, sigma=1.0)
    x = simulate_ar_noise(2000, params, np.random.default_rng(3))
    assert ljung_box(x, 20).reject_at[0.001]


def test_acf_pattern_matches_temporal_modes():
    flat = simulate_ar_noise(
        20_000, TemporalParams(rho=0.0, sigma=1.0), np.random.default_rng(1)
    )
    assert np.all(np.abs(acf(flat, 5).correlations[1:]) < 0.05)
    decaying = simulate_ar_noise(
        20_000, TemporalParams(rho=0.8, sigma=1.0), np.random.default_rng(2)
    )
    r = acf(decaying, 5)
    assert all(r[k] > r[k + 1] > 0 for k in range(1, 5))


def test_mmd_singleton_oracle():
    # one pair at distance sqrt(2) with unit bandwidth: 2(1 - e^-1)
    a = np.array([[0.0]])
    b = np.array([[math.sqrt(2.0)]])
    v = mmd2_rbf(a, b, 1.0)
    assert v == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), abs=1e-12)
    assert v == pytest.approx(1.2642411176571154, abs=1e-12)


def test_mmd_identical_batches_is_zero():
    X = np.random.default_rng(4).normal(size=(40, 3))
    assert mmd2_rbf(X, X, 1.3) == 0.0


@pytest.mark.parametrize("d", [1, 12])
@pytest.mark.parametrize("bandwidth", [0.05, 1.3, 40.0])
def test_mmd_of_a_batch_with_itself_is_zero_with_duplicate_rows(d, bandwidth):
    rng = np.random.default_rng(d)
    rows = rng.normal(3.0, 2.0, size=(25, d))
    X = rows[rng.integers(0, 25, size=90)]  # every row repeats
    assert mmd2_rbf(X, X, bandwidth) == 0.0
    # a coincident pair can round to a positive exponent; clamped, its
    # kernel entry is exactly 1, so n copies of a row sum to at most n^2
    for row in rows:
        copies = np.repeat(row[None, :], 6, axis=0)
        assert analysis._kernel_sums(*analysis._kernel_operands(copies, bandwidth))[0] <= 36.0


def _mmd2_definition(A, B, bandwidth):
    def k(P, Q):
        sq = ((P[:, None, :] - Q[None, :, :]) ** 2).sum(axis=-1)
        return np.exp(-sq / (2.0 * bandwidth * bandwidth)).mean()

    return max(k(A, A) + k(B, B) - 2.0 * k(A, B), 0.0)


@pytest.mark.parametrize("block_bytes", [None, 3000], ids=["default-blocks", "tiny-blocks"])
@pytest.mark.parametrize("d", [1, 12])
def test_mmd2_rbf_matches_the_definition(monkeypatch, block_bytes, d):
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(40 + d)
    for na, nb, shift in [(1, 1, 0.5), (37, 150, 0.0), (150, 37, 0.8), (200, 200, 3.0)]:
        A = rng.normal(size=(na, d))
        B = rng.normal(shift, 1.5, size=(nb, d))
        for bw in (0.3, median_bandwidth(np.vstack([A, B])), 25.0):
            assert abs(mmd2_rbf(A, B, bw) - _mmd2_definition(A, B, bw)) <= 1e-12


def test_mmd_guards():
    X = np.ones((5, 2))
    with pytest.raises(ValueError):
        mmd2_rbf(X, np.ones((5, 3)), 1.0)
    with pytest.raises(ValueError):
        mmd2_rbf(X, X, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mmd2_rbf_rejects_non_finite_batches(bad):
    with pytest.raises(ValueError, match="missing or non-finite"):
        mmd2_rbf([[bad]], [[1.0]], 1.0)
    with pytest.raises(ValueError, match="missing or non-finite"):
        mmd2_rbf(np.ones((3, 2)), [[1.0, bad]], 1.0)


def test_mmd_separates_shifted_batches():
    rng = np.random.default_rng(5)
    A = rng.normal(0.0, 1.0, size=(300, 2))
    B = rng.normal(3.0, 1.0, size=(300, 2))
    C = rng.normal(0.0, 1.0, size=(300, 2))
    bw = median_bandwidth(np.vstack([A, B]))
    assert mmd2_rbf(A, B, bw) > 10 * max(mmd2_rbf(A, C, bw), 1e-6)


def _sq_dist_matrix(X):
    """Squared distances between the rows of X, before the clamp at 0, with
    the matrix product and elementwise steps ``median_bandwidth`` applies."""

    D = X @ X.T
    D *= -2.0
    D += np.einsum("ij,ij->i", X, X)[:, None]
    D += np.einsum("ij,ij->i", X, X)
    return D


def _sorting_bandwidth(X, seed=0, subsample=1000):
    """The bandwidth as ``np.median`` over the rooted strict upper triangle
    of the full clamped squared-distance matrix."""

    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] > subsample:
        idx = np.random.default_rng(seed).choice(X.shape[0], size=subsample, replace=False)
        X = X[np.sort(idx)]
    D = np.maximum(_sq_dist_matrix(X), 0.0)
    med = float(np.median(np.sqrt(D)[np.triu_indices_from(D, 1)]))
    return med if med > 0 else 1.0


def _bandwidth_input(n, d, kind, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    if kind == "rounded":
        X = np.round(X, 1)
    elif kind == "integers":  # few distinct distances, so heavy ties
        X = rng.integers(0, 3, size=(n, d)).astype(float)
    elif kind == "constant":
        X[:] = X[0]
    elif kind == "repeated-rows":
        X[rng.integers(0, n, size=n // 2)] = X[0]
    return X


# n = 2 (one pair), 3 and 6 (odd pair counts), 4 and 64 (even), row counts
# around the 64-row blocks, and row counts past the 1000-row subsample
@given(
    n=st.integers(2, 200),
    d=st.integers(1, 13),
    kind=st.sampled_from(["normal", "rounded", "integers", "constant", "repeated-rows"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, d=1, kind="normal", seed=0)
@example(n=3, d=1, kind="integers", seed=1)
@example(n=4, d=2, kind="constant", seed=2)
@example(n=6, d=3, kind="rounded", seed=3)
@example(n=64, d=1, kind="integers", seed=4)
@example(n=129, d=13, kind="repeated-rows", seed=5)
@example(n=1001, d=1, kind="integers", seed=6)
@example(n=1300, d=6, kind="normal", seed=7)
# a partition that leaves the largest value below the middle elsewhere
@example(n=400, d=2, kind="normal", seed=16)
def test_median_bandwidth_is_the_sorting_median_bit_for_bit(n, d, kind, seed):
    X = _bandwidth_input(n, d, kind, seed)
    bw = median_bandwidth(X, seed=seed % 7)
    assert bw == _sorting_bandwidth(X, seed=seed % 7)
    if kind == "constant":
        assert bw == 1.0
    if n <= 1000:
        # the same squared distances, bit for bit, in another order
        D = _sq_dist_matrix(X)
        assert np.array_equal(
            np.sort(analysis._upper_sq_dists(X)), np.sort(D[np.triu_indices_from(D, 1)])
        )


def test_a_middle_distance_rounded_below_zero_counts_as_zero():
    # three rows one rounding apart, whose three distances come out
    # negative, and a far row: the two middle distances straddle 0
    X = np.array([
        [1.8905338179353062, -5.227484414807456, -4.130635433918923],
        [1.8905338179353273, -5.227484414807466, -4.130635433918932],
        [1.890533817935325, -5.227484414807464, -4.130635433918937],
        [0.0, 0.0, 0.0],
    ])
    D = _sq_dist_matrix(X)
    tri = np.sort(D[np.triu_indices_from(D, 1)])
    assert tri[2] < 0.0 < tri[3]
    assert median_bandwidth(X) == _sorting_bandwidth(X) == math.sqrt(tri[3]) / 2.0


@pytest.mark.parametrize("rows", [4, 5], ids=["nan-median", "finite-median"])
def test_median_bandwidth_of_a_nan_row_is_one(rows):
    # with 5 rows, 4 of the 10 distances are NaN and the middle two are not
    X = np.array([[0.0], [np.nan], [1.0], [3.0], [4.0]])[:rows]
    assert median_bandwidth(X) == _sorting_bandwidth(X) == 1.0


def test_the_heatmap_uses_the_sorting_bandwidth(monkeypatch):
    rng = np.random.default_rng(11)
    X = np.round(rng.normal(size=(1100, 2)) + np.linspace(0.0, 1.0, 1100)[:, None], 1)
    y = (rng.random(1100) < 0.4).astype(float)
    hm = mmd_heatmap(X, 220, y=y, include_label=True, seed=3)
    Z = np.column_stack([X, y])
    Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
    assert hm.bandwidth == _sorting_bandwidth(Z, seed=3)
    monkeypatch.setattr(analysis, "median_bandwidth", _sorting_bandwidth)
    ref = mmd_heatmap(X, 220, y=y, include_label=True, seed=3)
    assert ref.bandwidth == hm.bandwidth
    assert np.array_equal(ref.values, hm.values)


def test_median_bandwidth_two_points():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert median_bandwidth(X) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        median_bandwidth(np.array([[1.0, 1.0]]))


def test_mmd_heatmap_shape_and_symmetry():
    rng = np.random.default_rng(6)
    X = np.vstack([
        rng.normal(0.0, 1.0, size=(400, 3)),
        rng.normal(4.0, 1.0, size=(400, 3)),
    ])
    hm = mmd_heatmap(X, batch_size=200)
    v = hm.values
    assert v.shape == (4, 4)
    assert np.array_equal(v, v.T)
    assert np.all(np.diag(v) == 0.0)
    assert np.all(v >= 0.0)
    # batches from different halves are far apart, same-half pairs are not
    assert v[0, 2] > 5 * v[0, 1]
    assert v[0, 3] > 5 * v[2, 3]
    assert hm.batch_size == 200


def test_mmd_heatmap_joint_option_sees_label_flips():
    rng = np.random.default_rng(7)
    X = rng.normal(0.0, 1.0, size=(600, 2))
    y = (X[:, 0] > 0).astype(float)
    y2 = y.copy()
    y2[300:] = 1.0 - y2[300:]  # relabel the second half
    plain = mmd_heatmap(X, batch_size=300, y=y2, include_label=False)
    joint = mmd_heatmap(X, batch_size=300, y=y2, include_label=True)
    assert joint.values[0, 1] > 5 * plain.values[0, 1]


def test_mmd_heatmap_guards():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(100, 2))
    with pytest.raises(ValueError):
        mmd_heatmap(X, batch_size=100)  # needs at least two complete batches
    X[3, 0] = np.nan
    with pytest.raises(ValueError):
        mmd_heatmap(X, batch_size=50)


def test_mmd_heatmap_drops_trailing_partial_batch():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(250, 2))
    hm = mmd_heatmap(X, batch_size=100)
    assert hm.values.shape == (2, 2)


def _reference_heatmap(X, batch_size, y=None, include_label=False, seed=0):
    """The heatmap from its definition: global standardization, median
    distance over the seeded 1000-row subsample as bandwidth, and the biased
    V-statistic from full pairwise kernel matrices."""

    M = np.column_stack([X, y]) if include_label else X
    scale = M.std(axis=0)
    scale[scale == 0] = 1.0
    Z = (M - M.mean(axis=0)) / scale

    def sq(P, Q):
        return ((P[:, None, :] - Q[None, :, :]) ** 2).sum(axis=-1)

    sub = Z
    if len(Z) > 1000:
        sub = Z[np.sort(np.random.default_rng(seed).choice(len(Z), size=1000, replace=False))]
    dist = np.sqrt(sq(sub, sub))
    bw = float(np.median(dist[np.triu_indices_from(dist, k=1)])) or 1.0
    nb = len(Z) // batch_size
    batches = [Z[i * batch_size : (i + 1) * batch_size] for i in range(nb)]

    def k(P, Q):
        return np.exp(-sq(P, Q) / (2.0 * bw * bw)).mean()

    V = np.zeros((nb, nb))
    for i in range(nb):
        for j in range(nb):
            if i != j:
                A, B = batches[i], batches[j]
                V[i, j] = max(k(A, A) + k(B, B) - 2.0 * k(A, B), 0.0)
    return V, bw


@pytest.mark.parametrize("block_bytes", [None, 3000], ids=["default-blocks", "tiny-blocks"])
@pytest.mark.parametrize(
    "d, n, batch_size, include_label",
    [(1, 1300, 100, False), (12, 1237, 120, False), (12, 1237, 120, True), (3, 403, 200, True)],
)
def test_mmd_heatmap_matches_the_pairwise_definition(
    monkeypatch, block_bytes, d, n, batch_size, include_label
):
    rng = np.random.default_rng(d * 1000 + n)
    # a drifting mean, so the matrix has structure to get wrong
    X = rng.normal(size=(n, d)) + np.linspace(0.0, 2.0, n)[:, None]
    y = (rng.random(n) < np.linspace(0.1, 0.9, n)).astype(float)
    if block_bytes is not None:
        # forces row blocks within one batch and one batch per cross block
        monkeypatch.setattr(analysis, "_BLOCK_BYTES", block_bytes)
    hm = mmd_heatmap(X, batch_size, y=y, include_label=include_label, seed=5)
    ref, bw = _reference_heatmap(X, batch_size, y=y, include_label=include_label, seed=5)
    assert hm.bandwidth == pytest.approx(bw, rel=1e-12)
    assert hm.values.shape == ref.shape == (n // batch_size, n // batch_size)
    assert np.max(np.abs(hm.values - ref)) <= 1e-12
    assert np.array_equal(hm.values, hm.values.T)
    assert not np.diag(hm.values).any()


def _serial_heatmap(X, batch_size, y=None, include_label=False, seed=0):
    """The heatmap as one thread computes it, with OpenBLAS held to one
    thread: each batch's self-term, then the upper-triangle cross blocks in
    order, each kernel block a fresh matrix product."""

    M = np.hstack([X, y.reshape(-1, 1)]) if include_label else X
    scale = M.std(axis=0)
    scale[scale == 0] = 1.0
    Z = (M - M.mean(axis=0)) / scale

    def kernel_sums(left, right, groups=1):
        step = max(1, analysis._BLOCK_BYTES // (8 * right.shape[0]))
        ones = np.ones(min(step, left.shape[0]))
        sums = np.zeros(groups)
        for s in range(0, left.shape[0], step):
            K = left[s : s + step] @ right.T
            np.minimum(K, 0.0, out=K)
            np.exp(K, out=K)
            sums += (ones[: K.shape[0]] @ K).reshape(groups, -1).sum(axis=1)
        return sums

    b = batch_size
    nb = len(Z) // b
    rows = [slice(i * b, (i + 1) * b) for i in range(nb)]
    per_block = max(1, analysis._BLOCK_BYTES // (8 * b * b))
    V = np.zeros((nb, nb))
    with analysis._one_blas_thread():
        bw = median_bandwidth(Z, seed=seed)
        left, right = analysis._kernel_operands(Z, bw)
        self_terms = np.array([kernel_sums(left[r], right[r])[0] for r in rows]) / (b * b)
        for i in range(nb - 1):
            for j in range(i + 1, nb, per_block):
                k = min(j + per_block, nb)
                cross = kernel_sums(left[rows[i]], right[j * b : k * b], k - j) / (b * b)
                V[i, j:k] = np.maximum(self_terms[i] + self_terms[j:k] - 2.0 * cross, 0.0)
    return V + V.T, bw


def _recording_kernel_sums(monkeypatch, record):
    """Patch ``_kernel_sums`` to call ``record()`` before each block."""

    kernel_sums = analysis._kernel_sums

    def recording(*args):
        record()
        return kernel_sums(*args)

    monkeypatch.setattr(analysis, "_kernel_sums", recording)


# many groups per cross block and a trailing partial batch; one group per
# block (600 x 600 kernel values are over half of 4 MB); the label column;
# one-row kernel blocks within a batch
@pytest.mark.parametrize(
    "n, d, batch_size, include_label, block_bytes",
    [
        (1337, 4, 100, False, None),
        (1900, 3, 600, False, None),
        (1250, 11, 250, True, None),
        (1030, 2, 200, False, 3000),
    ],
)
def test_heatmap_bits_do_not_depend_on_the_worker_count(
    monkeypatch, n, d, batch_size, include_label, block_bytes
):
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(n + d)
    X = rng.normal(size=(n, d)) + np.linspace(0.0, 2.0, n)[:, None]
    y = (rng.random(n) < np.linspace(0.2, 0.8, n)).astype(float)
    # as on a machine whose BLAS runs two threads by default
    with forced_blas_threads(2):
        ref, bw = _serial_heatmap(X, batch_size, y=y, include_label=include_label, seed=2)
        for workers in (1, 2, 3):
            seen = set()
            _recording_kernel_sums(monkeypatch, lambda: seen.add(threading.current_thread()))
            monkeypatch.setattr(analysis, "_cpu_count", lambda: workers)
            hm = mmd_heatmap(X, batch_size, y=y, include_label=include_label, seed=2)
            assert len(seen) == workers
            assert hm.bandwidth == bw
            assert np.array_equal(hm.values, ref)


def test_a_heatmap_restores_the_blas_thread_count(monkeypatch):
    X = np.random.default_rng(12).normal(size=(1000, 3))
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
    with forced_blas_threads(2):
        get, _ = analysis._blas_threads()
        during = []
        _recording_kernel_sums(monkeypatch, lambda: during.append(get()))
        mmd_heatmap(X, 100)
        assert set(during) == {1}
        assert get() == 2

        caller = threading.current_thread()

        def fail_in_a_worker():
            if threading.current_thread() is not caller:
                raise RuntimeError("worker failed")

        _recording_kernel_sums(monkeypatch, fail_in_a_worker)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            mmd_heatmap(X, 100)
        assert threading.active_count() == threads
        assert get() == 2


def test_concurrent_callers_keep_their_bits_and_the_blas_thread_count(monkeypatch):
    # more callers and workers than cores, switching threads often: a lost
    # update to the hold's count would leave BLAS on the wrong thread count
    X = np.random.default_rng(14).normal(size=(900, 3)) + np.linspace(0.0, 1.0, 900)[:, None]
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 3)
    interval = sys.getswitchinterval()
    with forced_blas_threads(2):
        get, _ = analysis._blas_threads()
        ref, _ = _serial_heatmap(X, 100)
        ref_acf = acf(X[:, 0], 10).correlations
        results = [None] * 4

        def caller(c):
            results[c] = (mmd_heatmap(X, 100).values, acf(X[:, 0], 10).correlations)

        callers = [threading.Thread(target=caller, args=(c,)) for c in range(len(results))]
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert get() == 2
    for values, correlations in results:
        assert np.array_equal(values, ref)
        assert np.array_equal(correlations, ref_acf)


def test_without_a_blas_setter_one_worker_matches_the_definition(monkeypatch):
    monkeypatch.setattr(analysis, "_blas_threads", lambda: None)
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 3)
    seen = set()
    _recording_kernel_sums(monkeypatch, lambda: seen.add(threading.current_thread()))
    rng = np.random.default_rng(13)
    X = rng.normal(size=(730, 3)) + np.linspace(0.0, 1.5, 730)[:, None]
    hm = mmd_heatmap(X, 120)
    assert seen == {threading.current_thread()}
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    for i in range(6):
        for j in range(6):
            A, B = Z[i * 120 : (i + 1) * 120], Z[j * 120 : (j + 1) * 120]
            assert abs(hm.values[i, j] - _mmd2_definition(A, B, hm.bandwidth)) <= 1e-12


def test_acf_ljung_box_and_mmd2_rbf_bits_do_not_depend_on_blas_threads():
    rng = np.random.default_rng(23)
    x = np.cumsum(rng.normal(size=100_000)) * 1e-2 + rng.normal(size=100_000)
    A, B = x[:6000].reshape(-1, 2), x[-6000:].reshape(-1, 2)
    results = []
    for threads in (1, 2):
        with forced_blas_threads(threads):
            box = ljung_box(x, 30)
            mmds = [mmd2_rbf(A, B, bw) for bw in (0.5, 3.0)]
            results.append((acf(x, 30).correlations, box.Q, box.p_value, mmds))
    (r1, q1, p1, m1), (r2, q2, p2, m2) = results
    assert np.array_equal(r1, r2)
    assert (q1, p1) == (q2, p2)
    assert m1 == m2


def test_import_leaves_out_scipy_signal_and_spatial():
    src = Path(analysis.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import causalstream; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.spatial') if m in sys.modules)); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "[]"]
