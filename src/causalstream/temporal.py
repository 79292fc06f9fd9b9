"""Time dependence: exponential smoothing on roots, AR(1) noise everywhere.

Root nodes evolve as ``x_t = (1 - alpha) * x_{t-1} + alpha * theta_t + N_t``
with a fresh distribution draw ``theta_t`` per step, so the previous output
(including its noise) feeds back.  Every continuous node carries an AR(1)
noise state ``N_t = rho * N_{t-1} + eps_t`` with gaussian innovations;
categorical nodes get no additive noise.

``sigma`` is expressed in standardized node units: callers scale it by the
node's own output scale (root distribution std, or the mapper's fit-time
prediction std) before stepping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._codec import Serializable
from .mappers import RootDistribution

__all__ = [
    "TemporalParams",
    "TemporalState",
    "ar_noise_step",
    "root_value_step",
    "simulate_ar_noise",
    "simulate_root_values",
]


@dataclass(frozen=True)
class TemporalParams(Serializable):
    alpha: float = 0.05   # smoothing weight of the fresh draw; 1 disables carryover
    rho: float = 0.5      # AR(1) coefficient of the additive noise
    sigma: float = 0.1    # innovation std, in standardized node units

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")


@dataclass
class TemporalState(Serializable):
    """Mutable per-node dynamic state.

    ``ewma`` holds the previous output of each root; ``ar`` holds the AR(1)
    noise of every continuous node.  Fresh streams start at the distribution
    mean with zero noise (``initial``).
    """

    ewma: dict[int, float] = field(default_factory=dict)
    ar: dict[int, float] = field(default_factory=dict)

    @classmethod
    def initial(
        cls,
        root_dists: dict[int, RootDistribution],
        continuous_nodes: tuple[int, ...] | list[int],
    ) -> "TemporalState":
        return cls(
            ewma={n: d.mean() for n, d in root_dists.items()},
            ar={int(n): 0.0 for n in continuous_nodes},
        )

    def copy(self) -> "TemporalState":
        return TemporalState(ewma=dict(self.ewma), ar=dict(self.ar))


def ar_noise_step(
    n_prev: float,
    params: TemporalParams,
    rng: np.random.Generator,
    sigma_scale: float = 1.0,
) -> float:
    """Advance AR(1) noise one step; always consumes one gaussian draw."""

    eps = rng.normal(0.0, params.sigma * sigma_scale)
    return params.rho * n_prev + eps


def root_value_step(
    x_prev: float,
    n_prev: float,
    dist: RootDistribution,
    params: TemporalParams,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One root update; returns (new value, new noise state).

    Draw order is fixed (theta first, then the noise innovation) so streams
    are reproducible.  The innovation std is ``sigma`` scaled by the
    distribution's std.
    """

    theta = float(dist.sample(rng))
    n_new = ar_noise_step(n_prev, params, rng, sigma_scale=dist.std())
    x_new = (1.0 - params.alpha) * x_prev + params.alpha * theta + n_new
    return x_new, n_new


def root_value_path(
    theta: list[float], noise: list[float], params: TemporalParams, x0: float
) -> list[float]:
    """The values of ``root_value_step`` over the draws ``theta`` and the
    noise states ``noise``, from value ``x0``, bit for bit."""

    c, alpha = 1.0 - params.alpha, params.alpha
    path, x = [], x0
    for th, nz in zip(theta, noise):
        x = c * x + alpha * th + nz
        path.append(x)
    return path


def simulate_ar_noise(
    n_steps: int,
    params: TemporalParams,
    rng: np.random.Generator,
    sigma_scale: float = 1.0,
    n0: float = 0.0,
) -> np.ndarray:
    """Vectorized AR(1) noise path, same recursion as ``ar_noise_step``.

    Draws all innovations in one batch, so it consumes the generator in a
    different order than per-step calls would; use one route consistently.
    """

    eps = rng.normal(0.0, params.sigma * sigma_scale, size=n_steps)
    return _ar_path(eps, params, n0)


def simulate_root_values(
    n_steps: int,
    dist: RootDistribution,
    params: TemporalParams,
    rng: np.random.Generator,
    x0: float | None = None,
) -> np.ndarray:
    """Vectorized root path used for warmup simulation when fitting mappers.

    Same recursion as ``root_value_step``: a single-pole filter with pole
    ``1 - alpha`` driven by ``alpha * theta_t + N_t``.  Draw order is all
    thetas first, then all innovations.
    """

    theta = np.asarray(dist.sample(rng, size=n_steps), dtype=float)
    noise = simulate_ar_noise(n_steps, params, rng, sigma_scale=dist.std())
    return _root_path(theta, noise, params, dist.mean() if x0 is None else x0)


def _ar_path(eps: np.ndarray, params: TemporalParams, n0: float = 0.0) -> np.ndarray:
    """The AR(1) noise path of ``simulate_ar_noise`` over innovations ``eps``."""

    return np.array(_one_pole(eps.tolist(), params.rho, n0))


def _root_path(theta: np.ndarray, noise: np.ndarray, params: TemporalParams, x0: float):
    """The root path of ``simulate_root_values`` over draws ``theta`` and
    noise path ``noise``, from value ``x0``."""

    drive = params.alpha * theta + noise
    return np.array(_one_pole(drive.tolist(), 1.0 - params.alpha, x0))


def _one_pole(xs: list[float], c: float, y0: float) -> list[float]:
    """``y_t = x_t + c * y_{t-1}`` from ``y_{-1} = y0``.

    Repeats the float operations of ``lfilter([1], [1, -c], x, zi=[c * y0])``
    in their order, so the path is bit-identical to that filter's.  With
    ``c = rho`` over the innovations, it is the path of ``ar_noise_step``
    bit for bit.
    """

    path, y = [], y0
    for x in xs:
        y = x + c * y
        path.append(y)
    return path
