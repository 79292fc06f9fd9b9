"""Statistical verification tools: autocorrelation, Ljung-Box tests, and
maximum-mean-discrepancy heatmaps over stream batches."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AcfResult",
    "LjungBoxResult",
    "MmdMatrix",
    "acf",
    "ljung_box",
    "chi_square_upper_tail",
    "mmd2_rbf",
    "median_bandwidth",
    "mmd_heatmap",
]

SIGNIFICANCE_LEVELS = (0.05, 0.01, 0.001)


@dataclass(frozen=True)
class AcfResult:
    correlations: np.ndarray  # indexed by lag 0..max_lag
    n: int

    def __getitem__(self, lag: int) -> float:
        return float(self.correlations[lag])


@dataclass(frozen=True)
class LjungBoxResult:
    Q: float
    h: int
    p_value: float
    reject_at: dict[float, bool]


@dataclass(frozen=True)
class MmdMatrix:
    batch_size: int
    values: np.ndarray
    bandwidth: float

    @property
    def n_batches(self) -> int:
        return self.values.shape[0]


def acf(series: np.ndarray, max_lag: int) -> AcfResult:
    """Biased autocorrelation estimate at lags 0..max_lag.

    rho_k = sum_t (x_t - mean)(x_{t+k} - mean) / sum_t (x_t - mean)^2
    """

    x = np.asarray(series, dtype=float).ravel()
    n = x.shape[0]
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    if n <= max_lag:
        raise ValueError("series must be longer than max_lag")
    if not np.all(np.isfinite(x)):
        raise ValueError("series must be finite")
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom <= 0.0:
        raise ValueError("constant series has no autocorrelation")
    corr = np.empty(max_lag + 1)
    corr[0] = 1.0
    for k in range(1, max_lag + 1):
        corr[k] = float(centered[:-k] @ centered[k:]) / denom
    return AcfResult(correlations=corr, n=n)


def chi_square_upper_tail(x: float, k: int) -> float:
    """P(X >= x) for X ~ chi-square with k degrees of freedom.

    The closed form for integer k (Abramowitz & Stegun 26.4.4-26.4.5), with
    lam = x/2: for even k, e^-lam times the Poisson sum of lam^r/r! over
    r < k/2; for odd k, erfc(sqrt(lam)) plus e^-lam times the sum of
    sqrt(4 lam/pi) lam^r / ((3/2)(5/2)...(r+1/2)) over r < (k-1)/2.  All
    terms are positive, so nothing cancels.  The terms are running
    products, and e^-lam is multiplied in by chunks as they grow, so no
    product overflows and a tail below the smallest float is 0.0, not NaN.
    """

    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError("k must be a positive integer")
    if not 0.0 <= x < math.inf:
        raise ValueError("x must be finite and non-negative")
    # Chernoff bound: the tail is below e^-750, which rounds to 0.0
    if x > k and x - k - k * math.log(x / k) > 1500.0:
        return 0.0
    lam = x / 2.0
    odd = k % 2
    head = math.erfc(math.sqrt(lam)) if odd else 0.0
    term = math.sqrt(4.0 * lam / math.pi) if odd else 1.0
    total, pending = 0.0, lam  # e^-pending is still to be multiplied in
    for r in range(1, k // 2 + 1):
        total += term
        term *= lam / (r + 0.5 * odd)
        if term > 1e200:
            f = min(pending, 460.0)
            total, term, pending = total * math.exp(-f), term * math.exp(-f), pending - f
    while pending > 0.0 and total > 0.0:
        f = min(pending, 460.0)
        total, pending = total * math.exp(-f), pending - f
    return min(head + total, 1.0)


def ljung_box(series: np.ndarray, h: int = 20) -> LjungBoxResult:
    """Ljung-Box portmanteau test for autocorrelation up to lag h.

    Q = n (n+2) sum_{k=1..h} rho_k^2 / (n - k), compared against a chi-square
    with h degrees of freedom.
    """

    x = np.asarray(series, dtype=float).ravel()
    n = x.shape[0]
    if h < 1:
        raise ValueError("h must be positive")
    if n <= h + 1:
        raise ValueError("series must be longer than h + 1")
    rho = acf(x, h).correlations
    ks = np.arange(1, h + 1)
    Q = float(n * (n + 2) * np.sum(rho[1:] ** 2 / (n - ks)))
    p = chi_square_upper_tail(Q, h)
    return LjungBoxResult(
        Q=Q,
        h=h,
        p_value=p,
        reject_at={lvl: p < lvl for lvl in SIGNIFICANCE_LEVELS},
    )


# largest block of kernel values held at once, in bytes
_BLOCK_BYTES = 4 << 20
# rows per block of the distance triangle in ``median_bandwidth``
_TRIANGLE_ROWS = 64


def _kernel_operands(Z: np.ndarray, bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """The left ``[Z, -gamma|z|^2, 1]`` and right ``[2 gamma Z, 1, -gamma|z|^2]``
    operands of the RBF kernel, with gamma = 1/(2 h^2).

    The product of a left row p and a right row q is the kernel exponent
    ``-gamma |p - q|^2``, so one matrix product gives a block of them.
    """

    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    sq = np.einsum("ij,ij->i", Z, Z)[:, None]
    ones = np.ones_like(sq)
    return np.hstack([Z, -gamma * sq, ones]), np.hstack([(2.0 * gamma) * Z, ones, -gamma * sq])


def _kernel_sums(left: np.ndarray, right: np.ndarray, groups: int = 1) -> np.ndarray:
    """RBF kernel sums between the rows of ``left`` and each of ``groups``
    equal, consecutive row groups of ``right`` (see ``_kernel_operands``).

    Rounding can leave a tiny positive exponent where two rows coincide, so
    it is clamped at 0.  The kernel matrix is built in row blocks of at most
    ``_BLOCK_BYTES``.
    """

    step = max(1, _BLOCK_BYTES // (8 * right.shape[0]))
    ones = np.ones(min(step, left.shape[0]))
    sums = np.zeros(groups)
    for s in range(0, left.shape[0], step):
        K = left[s : s + step] @ right.T
        np.minimum(K, 0.0, out=K)
        np.exp(K, out=K)
        sums += (ones[: K.shape[0]] @ K).reshape(groups, -1).sum(axis=1)
    return sums


def mmd2_rbf(A: np.ndarray, B: np.ndarray, bandwidth: float) -> float:
    """Biased V-statistic estimate of squared MMD with an RBF kernel.

    The V-statistic keeps the diagonal terms, so identical batches give
    exactly zero.
    """

    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("batches must be non-empty")
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"column arity mismatch: {A.shape[1]} vs {B.shape[1]}"
        )
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    na, nb = A.shape[0], B.shape[0]
    (la, ra), (lb, rb) = _kernel_operands(A, bandwidth), _kernel_operands(B, bandwidth)
    kaa = _kernel_sums(la, ra)[0] / (na * na)
    kbb = _kernel_sums(lb, rb)[0] / (nb * nb)
    kab = _kernel_sums(la, rb)[0] / (na * nb)
    return max(float(kaa + kbb - 2.0 * kab), 0.0)


def _upper_sq_dists(X: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between rows ``i < j`` of X, in no set
    order and not yet clamped at 0.

    Each is ``-2 x_i.x_j + |x_i|^2 + |x_j|^2``, added in that order, from one
    matrix product.  The additions run per block of ``_TRIANGLE_ROWS`` rows,
    on that block's own triangle and on the rectangle to its right, so they
    never touch the lower triangle.
    """

    n = X.shape[0]
    G = X @ X.T
    sq = np.einsum("ij,ij->i", X, X)
    upper = np.triu(np.ones((_TRIANGLE_ROWS, _TRIANGLE_ROWS), dtype=bool), 1)
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for a in range(0, n, _TRIANGLE_ROWS):
        b = min(a + _TRIANGLE_ROWS, n)
        D = G[a:b, a:b] * -2.0
        D += sq[a:b, None]
        D += sq[a:b]
        tri = D[upper[: b - a, : b - a]]
        out[pos : pos + tri.size] = tri
        pos += tri.size
        R = out[pos : pos + (b - a) * (n - b)].reshape(b - a, n - b)
        np.multiply(G[a:b, b:], -2.0, out=R)
        R += sq[a:b, None]
        R += sq[b:]
        pos += R.size
    return out


def median_bandwidth(X: np.ndarray, seed: int = 0, subsample: int = 1000) -> float:
    """Median pairwise distance over at most ``subsample`` rows; 1.0 when
    that median is 0 or NaN.

    The median is found by selection, not by sorting every distance: one
    in-place ``partition`` of the squared distances puts the upper middle
    one in place, the largest below it is the lower middle one (for an even
    count), and only those two are clamped at 0, rooted and averaged with
    ``np.mean``.  Clamping and ``sqrt`` never reorder two values, so these
    are the two middle values of the clamped, rooted distances, and the
    result is the float ``np.median`` gives over all of them, bit for bit.
    """

    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two rows for a bandwidth")
    if n > subsample:
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=subsample, replace=False)
        X = X[np.sort(idx)]
    d2 = _upper_sq_dists(X)
    k = d2.size // 2
    d2.partition(k)
    # partition puts NaN last, and np.median returns NaN when any is there
    if np.isnan(d2[k:].max()):
        return 1.0
    middle = [d2[:k].max(), d2[k]] if d2.size % 2 == 0 else [d2[k]]
    med = float(np.mean(np.sqrt(np.maximum(middle, 0.0))))
    return med if med > 0 else 1.0


def mmd_heatmap(
    X: np.ndarray,
    batch_size: int,
    y: np.ndarray | None = None,
    include_label: bool = False,
    seed: int = 0,
) -> MmdMatrix:
    """Squared MMD between all pairs of consecutive stream batches.

    All columns are standardized by their global mean and scale; joint mode
    appends the label as one more standardized numeric column.  A trailing
    partial batch is dropped.
    """

    X = np.atleast_2d(np.asarray(X, dtype=float))
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    n = X.shape[0]
    if n < 2 * batch_size:
        raise ValueError("stream too short: need at least two batches")
    if include_label:
        if y is None:
            raise ValueError("joint mode needs the label column")
        y = np.asarray(y, dtype=float).reshape(-1, 1)
        if y.shape[0] != n:
            raise ValueError("label length does not match the stream")
        M = np.hstack([X, y])
    else:
        M = X
    if not np.all(np.isfinite(M)):
        raise ValueError("stream contains missing or non-finite values")
    mean = M.mean(axis=0)
    scale = M.std(axis=0)
    scale[scale == 0] = 1.0
    Z = (M - mean) / scale

    bw = median_bandwidth(Z, seed=seed)
    b = batch_size
    n_batches = n // b
    left, right = _kernel_operands(Z, bw)
    rows = [slice(i * b, (i + 1) * b) for i in range(n_batches)]
    # each batch's self-term once; then the upper triangle of cross terms,
    # as many whole batches per kernel block as fit in _BLOCK_BYTES
    self_terms = np.array([_kernel_sums(left[r], right[r])[0] for r in rows]) / (b * b)
    per_block = max(1, _BLOCK_BYTES // (8 * b * b))
    values = np.zeros((n_batches, n_batches))
    for i in range(n_batches - 1):
        for j in range(i + 1, n_batches, per_block):
            k = min(j + per_block, n_batches)
            cross = _kernel_sums(left[rows[i]], right[j * b : k * b], k - j) / (b * b)
            values[i, j:k] = np.maximum(self_terms[i] + self_terms[j:k] - 2.0 * cross, 0.0)
    # mirrored, so the matrix is exactly symmetric with a zero diagonal
    values = values + values.T
    return MmdMatrix(batch_size=batch_size, values=values, bandwidth=bw)
