import numpy as np
import pytest

from causalstream.analysis import acf, ljung_box
from causalstream.mappers import RootDistribution
from causalstream.temporal import (
    TemporalParams,
    TemporalState,
    _one_pole,
    ar_noise_step,
    root_value_path,
    root_value_step,
    simulate_ar_noise,
    simulate_root_values,
)


def test_params_validation():
    with pytest.raises(ValueError):
        TemporalParams(alpha=1.5)
    with pytest.raises(ValueError):
        TemporalParams(alpha=-0.1)
    with pytest.raises(ValueError):
        TemporalParams(rho=1.01)
    with pytest.raises(ValueError):
        TemporalParams(sigma=-0.5)


def test_ewma_step_hand_values():
    """With zero noise a root's step is the smoothing update
    (1 - alpha) * x_prev + alpha * theta."""

    def step(x_prev, theta, alpha):
        (x,) = root_value_path([theta], [0.0], TemporalParams(alpha=alpha), x_prev)
        return x

    assert step(10.0, 2.0, 0.5) == 6.0
    assert step(3.0, 3.0, 0.25) == 3.0
    assert step(1.0, 5.0, 1.0) == 5.0  # alpha 1 forgets the past


def test_initial_state_is_distribution_means():
    dists = {
        0: RootDistribution("normal", 2.0, 1.0),
        1: RootDistribution("uniform", 0.0, 4.0),
    }
    st = TemporalState.initial(dists, continuous_nodes=(0, 1, 3))
    assert st.ewma[0] == 2.0 and st.ewma[1] == 2.0
    assert all(st.ar[n] == 0.0 for n in (0, 1, 3))


def test_state_round_trip():
    dists = {0: RootDistribution("normal", -1.0, 2.0)}
    st = TemporalState.initial(dists, continuous_nodes=(0, 2))
    st.ar[2] = 0.7
    clone = TemporalState.from_dict(st.to_dict())
    assert clone.ewma == st.ewma and clone.ar == st.ar
    clone.ar[2] = 0.0
    assert st.ar[2] == 0.7  # copies never alias


def test_root_value_step_matches_manual_recursion():
    """Replays the documented draw order with a cloned generator."""
    dist = RootDistribution("normal", 1.0, 4.0)
    params = TemporalParams(alpha=0.3, rho=0.6, sigma=0.2)
    rng = np.random.default_rng(17)
    ref = np.random.default_rng(17)
    x, n = 5.0, 0.4
    for _ in range(50):
        theta = dist.sample(ref)
        eps = ref.normal(0.0, params.sigma * dist.std())
        n_exp = params.rho * n + eps
        x_exp = (1.0 - params.alpha) * x + params.alpha * theta + n_exp
        x, n = root_value_step(x, n, dist, params, rng)
        assert x == pytest.approx(x_exp, abs=1e-12)
        assert n == pytest.approx(n_exp, abs=1e-12)


def test_ar_noise_step_consumes_one_draw_even_at_sigma_zero():
    params = TemporalParams(sigma=0.0)
    a = np.random.default_rng(5)
    b = np.random.default_rng(5)
    ar_noise_step(0.3, params, a)
    b.normal(0.0, 0.0)
    assert a.random() == b.random()


def test_paths_repeat_the_one_row_steps_bit_for_bit():
    """The stream engine runs the recursion over a segment's draws; every
    state must carry the bits of the one-row steps."""
    rng = np.random.default_rng(41)
    for trial in range(200):
        params = TemporalParams(alpha=rng.random(), rho=rng.random(), sigma=rng.random())
        dist = RootDistribution("uniform", -2.0, 3.5)
        if trial % 2:
            dist = RootDistribution("normal", float(rng.normal()), 0.2 + float(rng.random()))
        n, seed = int(rng.integers(1, 40)), int(rng.integers(1 << 30))
        x0, n0 = float(rng.normal()), float(rng.normal())
        step, xs, ns = np.random.default_rng(seed), [], []
        x, noise = x0, n0
        for _ in range(n):
            x, noise = root_value_step(x, noise, dist, params, step)
            xs.append(x)
            ns.append(noise)
        draws = np.random.default_rng(seed)
        theta, eps = [], []
        for _ in range(n):
            theta.append(float(dist.sample(draws)))
            eps.append(float(draws.normal(0.0, params.sigma * dist.std())))
        path = _one_pole(eps, params.rho, n0)
        assert path == ns
        assert root_value_path(theta, path, params, x0) == xs


def test_simulate_ar_noise_matches_step_recursion():
    params = TemporalParams(alpha=0.1, rho=0.7, sigma=0.3)
    sim = simulate_ar_noise(200, params, np.random.default_rng(9), sigma_scale=1.5, n0=0.2)
    ref = np.random.default_rng(9)
    eps = ref.normal(0.0, params.sigma * 1.5, size=200)
    n = 0.2
    manual = np.empty(200)
    for t in range(200):
        n = params.rho * n + eps[t]
        manual[t] = n
    assert np.allclose(sim, manual, atol=1e-10)


def test_simulate_root_values_matches_step_recursion():
    dist = RootDistribution("uniform", -2.0, 6.0)
    params = TemporalParams(alpha=0.2, rho=0.4, sigma=0.15)
    sim = simulate_root_values(150, dist, params, np.random.default_rng(23))
    # documented draw order: every theta first, then every innovation
    ref = np.random.default_rng(23)
    thetas = dist.sample(ref, size=150)
    eps = ref.normal(0.0, params.sigma * dist.std(), size=150)
    x, n = dist.mean(), 0.0
    manual = np.empty(150)
    for t in range(150):
        n = params.rho * n + eps[t]
        x = (1.0 - params.alpha) * x + params.alpha * thetas[t] + n
        manual[t] = x
    assert np.allclose(sim, manual, atol=1e-10)


def test_simulated_paths_match_a_one_pole_lfilter_bit_for_bit():
    """Fitted concepts depend on these paths, so the recursion must repeat
    the float operations of ``lfilter`` exactly."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(0, 40))
        params = TemporalParams(alpha=rng.random(), rho=rng.random(), sigma=rng.random())
        seed, n0 = int(rng.integers(1 << 30)), float(rng.normal())
        sim = simulate_ar_noise(n, params, np.random.default_rng(seed), sigma_scale=1.7, n0=n0)
        eps = np.random.default_rng(seed).normal(0.0, params.sigma * 1.7, size=n)
        ref, _ = lfilter([1.0], [1.0, -params.rho], eps, zi=[params.rho * n0])
        assert sim.tobytes() == ref.tobytes()
        dist = RootDistribution("normal", float(rng.normal()), 0.5 + float(rng.random()))
        sim = simulate_root_values(n, dist, params, np.random.default_rng(seed), x0=n0)
        g = np.random.default_rng(seed)
        theta = dist.sample(g, size=n)
        drive = params.alpha * theta + simulate_ar_noise(
            n, params, g, sigma_scale=dist.std()
        )
        c = 1.0 - params.alpha
        ref, _ = lfilter([1.0], [1.0, -c], drive, zi=[c * n0])
        assert sim.tobytes() == ref.tobytes()


def test_ar_variance_law_rho_zero():
    params = TemporalParams(rho=0.0, sigma=1.0)
    sim = simulate_ar_noise(100_000, params, np.random.default_rng(2))
    assert abs(sim.var() - 1.0) < 0.05


def test_ewma_smoothing_monotone_in_alpha():
    """Lower alpha means smoother paths under identical innovations."""
    dist = RootDistribution("normal", 0.0, 1.0)
    wiggle = {}
    for alpha in (0.05, 0.5, 0.9):
        params = TemporalParams(alpha=alpha, rho=0.0, sigma=0.0)
        x = simulate_root_values(20_000, dist, params, np.random.default_rng(31))
        wiggle[alpha] = float(np.mean(np.abs(np.diff(x))))
    assert wiggle[0.05] < wiggle[0.5] < wiggle[0.9]


def test_iid_mode_passes_whiteness_check():
    """alpha=1, rho=0 yields draws indistinguishable from white noise."""
    dist = RootDistribution("normal", 0.0, 1.0)
    params = TemporalParams(alpha=1.0, rho=0.0, sigma=0.0)
    passed = 0
    for seed in range(20):
        x = simulate_root_values(2000, dist, params, np.random.default_rng(seed))
        passed += not ljung_box(x, 20).reject_at[0.05]
    assert passed >= 17


def test_ar_acf_decays_geometrically():
    params = TemporalParams(alpha=1.0, rho=0.6, sigma=1.0)
    sim = simulate_ar_noise(100_000, params, np.random.default_rng(4))
    rho_hat = acf(sim, 5)
    for k in range(1, 6):
        assert abs(rho_hat[k] - 0.6**k) < 0.03
