import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfmonitor import estimator
from cfmonitor.harness import _window_seed, default_scenario, run_closed_loop
from posterior_grid import grid_posterior, window_sums
from cfmonitor.estimator import (
    _H,
    GaussianPrior,
    ObservationBatch,
    SgldHyper,
    batch_from_series,
    grad_log_posterior,
    log_posterior,
    posterior_summary,
    sgld_run,
    update_prior,
)


WIDE_PRIOR = GaussianPrior((1.0, 0.3), 10.0)


def residual_grad(batch, K_L, T_L, sigma_sq):
    """The log likelihood's gradient in (K_L, T_L) from the residuals
    ``r = jerk - (K_L u - a)/T_L`` themselves: ``dr/dK_L = -u/T_L`` and
    ``dr/dT_L = (K_L u - a)/T_L**2``.  Independent of the sums form that the
    package expands the likelihood into."""
    model = K_L * batch.demand - batch.accel
    r = batch.jerk - model / T_L
    return np.array([r @ batch.demand / T_L, -(r @ model) / T_L**2]) / sigma_sq


def phi_grad(batch, theta, prior, sigma_sq):
    """The gradient in (log K_L, log T_L) of the log posterior plus the
    log-volume term, from `residual_grad`."""
    theta = np.asarray(theta, dtype=float)
    lik = residual_grad(batch, *theta, sigma_sq)
    return theta * (prior.grad_log_density(theta) + lik) + 1.0


def synthetic_batch(K_L, T_L, n=500, t_s=0.01, sigma_eps=0.05, seed=0,
                    u_scale=1.5):
    """Simulate the first-order actuation response to a rich demand signal
    and log (accel, demand) as the closed loop would."""
    rng = np.random.default_rng(seed)
    # band-limited random demand: smoothed white noise keeps (u, a) from
    # collapsing onto a line while exciting a realistic frequency range
    white = rng.standard_normal(n + 200)
    kernel = np.exp(-0.5 * (np.arange(-50, 51) / 12.0) ** 2)
    kernel /= kernel.sum()
    u = u_scale * np.convolve(white, kernel, mode="same")[100:100 + n] / np.std(
        np.convolve(white, kernel, mode="same"))
    accel = np.empty(n)
    a = 0.0
    for i in range(n):
        accel[i] = a
        jerk = (K_L * u[i] - a) / T_L + sigma_eps * rng.standard_normal()
        a += t_s * jerk
    return batch_from_series(accel, u, t_s)


def record_modes(monkeypatch):
    """A list that gets what `estimator._mode` returns, call by call."""
    modes = []
    real = estimator._mode

    def record(*args):
        modes.append(real(*args))
        return modes[-1]
    monkeypatch.setattr(estimator, "_mode", record)
    return modes


def chain_setup(hyper, mode, fix_lag):
    """The metric ``M`` (minus the inverse Hessian at the recorded
    ``mode``) and its Cholesky factor, by numpy's own routines, and the
    noise: one ``(K_iters, dim)`` draw from the seed."""
    _, _, a, b, c = mode
    A = np.array([[a, b], [b, c]]) if fix_lag is None else np.array([[a]])
    M = np.linalg.inv(A)
    z = np.random.default_rng(hyper.seed).standard_normal((hyper.K_iters, len(A)))
    return M, np.linalg.cholesky(M), z


def reference_steps(batch, prior, hyper, samples, mode, fix_lag=None):
    """One-step predictions of samples[1:] from samples[:-1]: the update
    ``phi += h M g + sqrt(h (2 - h)) L z`` on numpy vectors, with the
    window's gradient `phi_grad` and the noise that sgld_run draws from
    the same stream.  Stepping from the sampler's own previous state keeps
    round-off from compounding."""
    M, L, z = chain_setup(hyper, mode, fix_lag)
    dim, h = len(M), _H
    predicted = []
    for s, theta in enumerate(samples[:-1]):
        t = hyper.burn_in + s + 1  # 0-based iteration that yields samples[s + 1]
        g = phi_grad(batch, theta, prior, hyper.sigma_sq)
        phi = np.log(theta)[:dim] + h * M @ g[:dim] + math.sqrt(h * (2 - h)) * L @ z[t]
        predicted.append(np.exp(phi) if dim == 2 else [math.exp(phi[0]), fix_lag])
    return np.array(predicted)


def chunk_reference(batch, prior, hyper, mode, fix_lag=None):
    """sgld_run's samples as a plain loop over every iteration computes
    them from the recorded ``mode``: the window's sums and all the noise
    first, then the chain with the same float operations as the sampler's.
    The sampler turns the noise into floats and copies samples one
    `_CHUNK` at a time; it must reproduce these samples bit for bit."""
    x, y, a, b, c = mode
    if fix_lag is not None:
        b, c = 0.0, 1.0
    h = _H
    det = a * c - b * b
    s = math.sqrt(h * (2.0 - h))
    hm_KK, hm_KT, hm_TT = h * c / det, -h * b / det, h * a / det
    l_KK, l_TK, l_TT = (s * math.sqrt(c / det), -s * b / math.sqrt(c * det),
                        s / math.sqrt(c))
    rng = np.random.default_rng(hyper.seed)
    normals = rng.standard_normal((hyper.K_iters, 1 if fix_lag else 2))
    acc, u, j = batch.accel, batch.demand, batch.jerk
    products = np.column_stack([j * j, j * u, u * u, acc * u, j * acc, acc * acc])
    _, s_ju, s_uu, s_au, s_ja, s_aa = (products.sum(axis=0)
                                       * (1.0 / hyper.sigma_sq)).tolist()
    (m_K, m_T), inv_var = prior.mean, 1.0 / prior.variance
    phi_K, phi_T = x, y
    K, T = math.exp(x), (math.exp(y) if fix_lag is None else fix_lag)
    chain = []
    for z_K, *z_T in normals.tolist():
        alpha, beta = K / T, 1.0 / T
        g_alpha = s_ju - alpha * s_uu + beta * s_au
        lik_x = g_alpha * alpha
        g_x = lik_x + K * (m_K - K) * inv_var + 1.0
        if fix_lag is None:
            g_beta = alpha * s_au - s_ja - beta * s_aa
            g_y = T * (m_T - T) * inv_var + 1.0 - lik_x - g_beta * beta
            phi_K += hm_KK * g_x + hm_KT * g_y + l_KK * z_K
            phi_T += hm_KT * g_x + hm_TT * g_y + l_TK * z_K + l_TT * z_T[0]
            T = math.exp(phi_T)
        else:
            phi_K += hm_KK * g_x + l_KK * z_K
        K = math.exp(phi_K)
        chain.append((K, T))
    return np.array(chain[hyper.burn_in:])


def closed_loop_window(window_length, seed, window):
    """Window ``window`` of the default scenario at ``seed`` with windows of
    ``window_length`` s: its record, its batch, its prior and the sampler
    settings the closed loop ran its chain with."""
    scenario = replace(default_scenario(seed), window_length=window_length)
    report = run_closed_loop(scenario)
    steps = round(window_length / scenario.controller.t_s)
    rows = slice(window * steps, (window + 1) * steps)
    f = report.follower
    record = report.windows[window]
    batch = batch_from_series(f.accel[rows], f.demanded_accel[rows],
                              scenario.controller.t_s)
    return (record, batch, GaussianPrior(record.prior_mean, record.prior_variance),
            replace(scenario.sgld, seed=_window_seed(seed, window)))


class TestObservationBatch:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ObservationBatch(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ObservationBatch(np.zeros(1), np.zeros(1), np.zeros(1))

    def test_non_finite_rejected(self):
        bad = np.array([0.0, math.inf])
        with pytest.raises(ValueError):
            ObservationBatch(bad, np.zeros(2), np.zeros(2))

    def test_jerk_from_series_is_central_difference(self):
        accel = np.array([0.0, 1.0, 4.0, 9.0])
        b = batch_from_series(accel, np.zeros(4), t_s=1.0)
        assert b.jerk == pytest.approx([1.0, 2.0, 4.0, 5.0])

    def test_overflowing_jerk_rejected_without_warning(self):
        # the differences overflow; the batch rejects the non-finite jerk,
        # and pytest's filterwarnings makes a numpy RuntimeWarning an error
        with pytest.raises(ValueError, match="non-finite values in jerk"):
            batch_from_series(np.array([1e308, -1e308, 1e308]), np.zeros(3), t_s=0.01)


class TestLogPosterior:
    def test_perfect_fit_at_prior_mean(self):
        theta = (1.0, 0.3)
        u = np.array([0.5, -0.2, 1.0])
        a = np.array([0.1, 0.0, -0.3])
        jerk = (theta[0] * u - a) / theta[1]
        batch = ObservationBatch(a, u, jerk)
        prior = GaussianPrior(theta, 2.0)
        sigma_sq = 0.01
        expected = -math.log(2 * math.pi * 2.0) + 3 * (-0.5 * math.log(sigma_sq))
        assert log_posterior(batch, theta, prior, sigma_sq) == pytest.approx(expected)

    def test_residual_penalty(self):
        theta = (1.0, 1.0)
        batch = ObservationBatch(np.zeros(2), np.zeros(2), np.array([0.5, 0.0]))
        sigma_sq = 0.25
        lp = log_posterior(batch, theta, WIDE_PRIOR, sigma_sq)
        lp0 = log_posterior(
            ObservationBatch(np.zeros(2), np.zeros(2), np.zeros(2)),
            theta, WIDE_PRIOR, sigma_sq)
        assert lp0 - lp == pytest.approx(0.5**2 / (2 * sigma_sq))

    @pytest.mark.parametrize("T_L", [0.0, -0.3])
    def test_nonpositive_lag_rejected(self, T_L):
        batch = ObservationBatch(np.zeros(2), np.ones(2), np.zeros(2))
        for fn in (log_posterior, grad_log_posterior):
            with pytest.raises(ValueError, match="T_L must be positive"):
                fn(batch, (1.0, T_L), WIDE_PRIOR, 0.01)


class TestGradients:
    @given(
        K_L=st.floats(0.3, 2.0), T_L=st.floats(0.1, 2.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    # a plain h = 1e-5 central difference is off by 2e-5 relative here, from
    # its own truncation error; the extrapolated one by 2e-9
    @example(K_L=1.5087358953968901, T_L=0.49567641403374463, seed=442)
    def test_analytic_matches_finite_differences(self, K_L, T_L, seed):
        batch = synthetic_batch(1.0, 0.3, n=100, seed=seed)
        theta = np.array([K_L, T_L])
        g = grad_log_posterior(batch, theta, WIDE_PRIOR, 0.01)

        def central(i, h):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            return (log_posterior(batch, tp, WIDE_PRIOR, 0.01)
                    - log_posterior(batch, tm, WIDE_PRIOR, 0.01)) / (2 * h)

        h = 1e-4
        for i in range(2):
            # Richardson extrapolation cancels the h**2 error term
            fd = (4 * central(i, h / 2) - central(i, h)) / 3
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_zero_increment_at_stationary_point(self):
        theta = (1.0, 0.3)
        u = np.array([0.5, -0.2])
        a = np.array([0.1, 0.0])
        jerk = (theta[0] * u - a) / theta[1]
        batch = ObservationBatch(a, u, jerk)
        prior = GaussianPrior(theta, 1.0)
        g = grad_log_posterior(batch, theta, prior, 0.01)
        assert g == pytest.approx(np.zeros(2), abs=1e-12)

    def test_residual_form_matches_sums_form(self):
        # grad_log_posterior expands the likelihood in the window's sums;
        # the test's reference differentiates the residuals themselves
        for seed in range(3):
            batch = synthetic_batch(1.0, 0.3, n=200, seed=seed)
            for K_L in (0.5, 1.0, 1.5):
                for T_L in (0.2, 0.5, 1.5):
                    expected = WIDE_PRIOR.grad_log_density((K_L, T_L)) + residual_grad(
                        batch, K_L, T_L, 0.01)
                    g = grad_log_posterior(batch, (K_L, T_L), WIDE_PRIOR, 0.01)
                    assert g == pytest.approx(expected, rel=1e-12, abs=0)


class TestSgldHyper:
    @pytest.mark.parametrize("kwargs", [
        {"sigma_sq": -1.0},
        {"K_iters": 100, "burn_in_c": 100},
        {"K_iters": 100, "burn_in_c": 0},
        {"K_iters": 100, "burn_in_c": -1},
        {"sigma_sq": 0.0},
        {"sigma_sq": float("-inf")},
        # chains that keep no sample: the default burn-in is 0
        {"K_iters": 1},
        # NaN compares false both ways, so "<= 0" let it through
        {"sigma_sq": float("nan")},
        {"K_iters": 0},
        # chains that keep 1 sample, which no posterior summary takes
        {"K_iters": 2},
        {"K_iters": 100, "burn_in_c": 99},
    ])
    def test_invalid_hyper_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SgldHyper(**kwargs)

    def test_default_burn_in_is_sixty_percent(self):
        assert SgldHyper(K_iters=4000).burn_in == 2400
        # the default is derived, not stored in the caller's field
        assert SgldHyper().burn_in_c is None
        assert SgldHyper().K_iters == 1000 and SgldHyper().burn_in == 600
        # and the default chain steps on the whole window
        assert SgldHyper().minibatch_n is None

    # eta_1 is accepted and ignored; a minibatch_n of at least the window's
    # sample count is the whole window
    @pytest.mark.parametrize("kwargs", [
        {"eta_1": 0.0}, {"eta_1": 0.0075}, {"eta_1": 2.0}, {"eta_1": float("nan")},
        {"eta_1": float("inf")}, {"minibatch_n": 200}, {"minibatch_n": 10**6},
    ])
    def test_accepted_without_effect(self, kwargs):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=5)
        plain = sgld_run(batch, WIDE_PRIOR, SgldHyper(K_iters=300, seed=5))
        given = sgld_run(batch, WIDE_PRIOR, SgldHyper(K_iters=300, seed=5, **kwargs))
        assert given.samples.tobytes() == plain.samples.tobytes()

    @pytest.mark.parametrize("minibatch_n", [0, 1, 32, 199])
    def test_minibatch_below_window_rejected(self, minibatch_n):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=5)
        with pytest.raises(ValueError, match=f"minibatch_n {minibatch_n} is below "
                                             "the window's 200 samples"):
            sgld_run(batch, WIDE_PRIOR, SgldHyper(minibatch_n=minibatch_n, seed=5))

    def test_replace_rederives_default_burn_in(self):
        assert replace(SgldHyper(), K_iters=4000).burn_in == 2400
        explicit = SgldHyper(K_iters=1000, burn_in_c=900)
        assert replace(explicit, seed=3).burn_in == 900
        with pytest.raises(ValueError):
            replace(explicit, K_iters=500)


class TestSgldRun:
    def test_recovers_nominal_parameters(self):
        batch = synthetic_batch(1.0, 0.3, n=500, sigma_eps=0.05, seed=3)
        est = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=3))
        assert est.K_L == pytest.approx(1.0, abs=0.05)
        assert est.T_L == pytest.approx(0.3, abs=0.1)
        assert not est.low_confidence

    def test_recovers_degraded_parameters(self):
        batch = synthetic_batch(0.5, 1.5, n=500, sigma_eps=0.05, seed=4)
        est = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=4))
        assert est.K_L == pytest.approx(0.5, abs=0.15)
        assert est.T_L == pytest.approx(1.5, abs=0.25)

    def test_deterministic_given_seed(self):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=5)
        e1 = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=11))
        e2 = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=11))
        assert np.array_equal(e1.samples, e2.samples)

    def test_different_seeds_differ(self):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=5)
        e1 = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=11))
        e2 = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=12))
        assert not np.array_equal(e1.samples, e2.samples)

    def test_samples_positive_and_counted(self):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=6)
        hyper = SgldHyper(K_iters=500, burn_in_c=300, seed=6)
        est = sgld_run(batch, WIDE_PRIOR, hyper)
        assert est.samples.shape == (200, 2)
        assert np.all(est.samples > 0)

    def test_tight_prior_dominates(self):
        batch = synthetic_batch(1.0, 0.3, n=200, sigma_eps=0.05, seed=7)
        prior = GaussianPrior((2.0, 1.0), 1e-6)
        est = sgld_run(batch, prior, SgldHyper(seed=7))
        # with a near-delta prior the posterior cannot wander far from it
        assert abs(est.K_L - 2.0) < 0.2
        assert abs(est.T_L - 1.0) < 0.2

    def test_unexcited_window_flagged_low_confidence(self):
        n = 200
        accel = np.full(n, 0.001)
        demand = np.full(n, 0.001)
        batch = batch_from_series(accel, demand, 0.01)
        est = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=0))
        assert est.low_confidence

    def test_unexcited_window_not_sampled(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("worked on a window that is not sampled")
        monkeypatch.setattr(estimator, "_mode", no_work)
        monkeypatch.setattr(np.random, "default_rng", no_work)
        batch = batch_from_series(np.full(200, 0.001), np.full(200, 0.001), 0.01)
        prior = GaussianPrior((0.9, 0.4), 0.25)
        est = sgld_run(batch, prior, SgldHyper(seed=0))
        assert est.samples.shape == (0, 2) and est.low_confidence
        assert est.mean.tolist() == [0.9, 0.4]
        assert est.covariance.tolist() == [[0.25, 0.0], [0.0, 0.25]]
        # the prior's central 95 % interval, 1.959964 sd each side
        assert est.credible == pytest.approx(np.array(
            [[0.9 - 0.979982, 0.9 + 0.979982], [0.4 - 0.979982, 0.4 + 0.979982]]))

    @pytest.mark.parametrize("failure", [OverflowError, ZeroDivisionError])
    def test_window_without_usable_mode_not_sampled(self, monkeypatch, failure):
        # a mode search that overflows ends without a curvature, and the
        # window keeps its prior as an unsampled one does
        def overflow(*args):
            raise failure("overflowed")
        monkeypatch.setattr(estimator, "_log_target", overflow)
        batch = synthetic_batch(1.0, 0.3, n=200, seed=3)
        prior = GaussianPrior((0.9, 0.4), 0.25)
        est = sgld_run(batch, prior, SgldHyper(seed=3))
        assert est.samples.shape == (0, 2) and est.low_confidence
        assert est.mean.tolist() == [0.9, 0.4]

    def test_unexcited_window_sampled_with_fixed_lag(self):
        # with T_L fixed, K_L alone is identified by the ratio u/a
        batch = batch_from_series(np.full(200, 0.001), np.full(200, 0.001), 0.01)
        hyper = SgldHyper(K_iters=500, burn_in_c=300, seed=0)
        est = sgld_run(batch, WIDE_PRIOR, hyper, fix_lag=0.3)
        assert est.samples.shape == (200, 2) and not est.low_confidence

    def test_collinear_window_flagged_low_confidence(self):
        # demand proportional to accel: only the ratio is identifiable
        n = 200
        accel = 0.5 * np.sin(np.linspace(0, 4 * np.pi, n))
        demand = 2.0 * accel
        batch = batch_from_series(accel, demand, 0.01)
        est = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=0))
        assert est.low_confidence

    @pytest.mark.parametrize("fix_lag", [None, 0.3])
    def test_matches_reference_stepping(self, monkeypatch, fix_lag):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=10)
        modes = record_modes(monkeypatch)
        # 600 iterations span two full chunks and a partial one
        hyper = SgldHyper(K_iters=600, burn_in_c=1, seed=10)
        est = sgld_run(batch, WIDE_PRIOR, hyper, fix_lag=fix_lag)
        ref = reference_steps(batch, WIDE_PRIOR, hyper, est.samples, modes[0],
                              fix_lag)
        assert est.samples[1:] == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("fix_lag", [None, 0.3])
    @pytest.mark.parametrize("K_L,T_L,seed", [(1.0, 0.3, 3), (0.5, 1.5, 4)])
    def test_mode_is_stationary_with_its_curvature(self, monkeypatch, K_L, T_L,
                                                   seed, fix_lag):
        batch = synthetic_batch(K_L, T_L, n=200, seed=seed)
        prior = GaussianPrior((0.8, 0.5), 2.0)
        modes = record_modes(monkeypatch)
        sgld_run(batch, prior, SgldHyper(K_iters=10, burn_in_c=1, seed=seed),
                 fix_lag=fix_lag)
        x, y, a, b, c = modes[0]
        dim = 2 if fix_lag is None else 1
        phi = np.array([x, y if fix_lag is None else math.log(fix_lag)])

        def grad(phi):
            K, T = np.exp(phi)
            return phi_grad(batch, (K, T), prior, 0.01)[:dim]

        # minus the Hessian by central differences of the residual-form
        # gradient, scaled to the curvature
        step = 1e-6
        fd = -np.column_stack([(grad(phi + e) - grad(phi - e)) / (2 * step)
                               for e in step * np.eye(2)[:dim]])
        curvature = np.array([[a, b], [b, c]])[:dim, :dim]
        assert curvature == pytest.approx(fd, rel=1e-5)
        # the gradient vanishes to within a millionth of a posterior sd
        assert np.abs(np.linalg.solve(curvature, grad(phi))).max() < 1e-6 * math.sqrt(
            np.linalg.inv(curvature).diagonal().min())

    def test_starts_at_least_squares(self):
        # noise-free jerk: the least-squares point is the truth, and the
        # mode search that starts from it stays there under a flat prior
        u = np.sin(np.linspace(0.0, 6.0, 200)) + np.linspace(0.0, 1.0, 200)
        a = np.cos(np.linspace(0.0, 5.0, 200))
        batch = ObservationBatch(a, u, (1.3 * u - a) / 0.7)
        stats = estimator._window_stats(batch, 0.01)
        assert estimator._start(stats, WIDE_PRIOR, None) == pytest.approx((1.3, 0.7))
        assert estimator._start(stats, WIDE_PRIOR, 0.7) == pytest.approx((1.3, 0.7))
        # a fit with a negative lag falls back to the prior mean
        flipped = ObservationBatch(a, u, (1.3 * u + a) / 0.7)
        stats = estimator._window_stats(flipped, 0.01)
        assert estimator._start(stats, GaussianPrior((0.9, -1.0), 1.0), None) == (0.9, 0.3)

    @pytest.mark.parametrize("n,fix_lag,K_iters", [
        (200, None, 4097),  # one iteration past sixteen chunks
        (200, 0.3, 1100),
        (200, None, 1100),
    ])
    def test_samples_pinned_to_block_reference(self, monkeypatch, n, fix_lag, K_iters):
        batch = synthetic_batch(1.0, 0.3, n=n, seed=n)
        modes = record_modes(monkeypatch)
        hyper = SgldHyper(K_iters=K_iters, seed=K_iters)
        est = sgld_run(batch, WIDE_PRIOR, hyper, fix_lag=fix_lag)
        ref = chunk_reference(batch, WIDE_PRIOR, hyper, modes[0], fix_lag)
        assert est.samples.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("window_length,seed,window", [
        (1.0, 1, 33),   # OverflowError in exp()
        (1.0, 0, 52),   # ZeroDivisionError: T_L underflowed
        (0.2, 1, 181),  # no exception: NaN or 0 kept
    ])
    def test_diverged_chain_keeps_prior(self, monkeypatch, window_length, seed,
                                        window):
        # closed-loop windows that carry the excitation and have a mode, but
        # whose chain leaves the positive floats
        record, batch, prior, hyper = closed_loop_window(window_length, seed, window)
        modes = record_modes(monkeypatch)
        est = sgld_run(batch, prior, hyper)
        assert modes[0] is not None
        assert est.samples.shape == (0, 2) and est.low_confidence
        assert est.mean.tolist() == list(prior.mean)
        # the closed loop kept the prior too, and did not act on it
        assert record.estimate.samples.shape == (0, 2) and not record.applied

    @pytest.mark.parametrize("accel,demand,jerk,prior,sigma_sq,seed", [
        # OverflowError in exp(): three samples whose jerk the model does
        # not explain, under a wide prior
        ([-0.00184644, -0.00543463, 0.00105635],
         [0.11072619, -0.20328097, 0.03553647],
         [-3.09329083, 1.88006886, 1.42334356],
         GaussianPrior((5.1625, 2.4415), 24.735), 4.217e-4, 2025),
        # ZeroDivisionError: T_L underflowed
        ([-0.00355512, 0.00187134, -0.01731994, 0.00412521, -0.03186798,
          0.01565098, -0.00096457],
         [-0.10514152, 0.03205789, -0.20864682, -0.28018183, 0.00283723,
          0.33719577, 0.15596588],
         [0.57409062, -0.20932779, 0.46228549, -0.21072732, 0.36338345,
          -1.0488948, 0.5239666],
         GaussianPrior((2.7606, 0.7447), 481.15), 4.4747e-3, 2799),
    ])
    def test_small_window_divergence_keeps_prior(self, monkeypatch, accel, demand,
                                                 jerk, prior, sigma_sq, seed):
        batch = ObservationBatch(np.array(accel), np.array(demand), np.array(jerk))
        modes = record_modes(monkeypatch)
        est = sgld_run(batch, prior, SgldHyper(sigma_sq=sigma_sq, seed=seed))
        assert modes[0] is not None
        assert est.samples.shape == (0, 2) and est.low_confidence
        assert est.mean.tolist() == list(prior.mean)

    def test_memory_flat_in_iterations(self):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=9)
        # warm-up: first calls allocate numpy's one-time caches
        sgld_run(batch, WIDE_PRIOR, SgldHyper(K_iters=300, seed=9))
        peaks = []
        for K_iters in (4_000, 25_000):
            tracemalloc.start()
            try:
                sgld_run(batch, WIDE_PRIOR, SgldHyper(K_iters=K_iters, seed=9))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # only float arrays grow: the noise by 16 bytes an iteration, the
        # kept samples with the summary's copies of them by 4 x 16 bytes a
        # sample; no Python object per iteration outlives its chunk
        grown = 16 * 21_000 + 4 * 16 * 8_400
        assert peaks[1] - peaks[0] < grown + 100_000

    def test_fixed_lag_freezes_second_coordinate(self):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=8)
        est = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=8), fix_lag=0.3)
        assert np.all(est.samples[:, 1] == 0.3)
        for lag in [0.0, float("nan"), float("inf")]:
            with pytest.raises(ValueError, match="fix_lag must be positive and finite"):
                sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=8), fix_lag=lag)


class TestCalibration:
    """Each sampled window's posterior sd and mean against the exact grid
    posterior of `posterior_grid`, built from the window's batch, prior
    and noise variance.  Over the sampled windows of the default scenario
    at seeds 1-40 (840 windows) the sd ratio read 0.71-1.26 and |z| at
    most 0.51; the previous chain, a decaying step held by a drift clip,
    read sd ratios up to 27 and |z| up to 7.5 at seed 1."""

    SD_RATIO = (0.7, 1.4)
    MAX_Z = 0.6

    @staticmethod
    def sampled_windows(scenario):
        report = run_closed_loop(scenario)
        f, steps = report.follower, round(scenario.window_length / scenario.controller.t_s)
        for w in report.windows:
            if not w.estimate.low_confidence:
                rows = slice(w.index * steps, (w.index + 1) * steps)
                yield w, batch_from_series(f.accel[rows], f.demanded_accel[rows],
                                           scenario.controller.t_s)

    def check(self, scenario):
        checked = 0
        for w, batch in self.sampled_windows(scenario):
            mean, sd = grid_posterior(window_sums(batch.accel, batch.demand, batch.jerk),
                                      w.prior_mean, w.prior_variance,
                                      scenario.sgld.sigma_sq)
            est = w.estimate
            ratio = np.sqrt(np.diag(est.covariance)) / sd
            z = (est.mean - mean) / sd
            assert ((ratio >= self.SD_RATIO[0]) & (ratio <= self.SD_RATIO[1])).all(), (
                w.index, ratio)
            assert (np.abs(z) <= self.MAX_Z).all(), (w.index, z)
            checked += 1
        return checked

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_default_windows_calibrated(self, seed):
        # 21 of the 30 windows carry the excitation to be sampled
        assert self.check(default_scenario(seed)) == 21

    def test_twenty_second_windows_calibrated(self):
        # 2000 samples a window, as in a long replay
        assert self.check(replace(default_scenario(1), window_length=20.0)) == 3


class TestPosteriorSummary:
    @pytest.mark.parametrize("n", [2, 3, 1600, 1601])
    def test_credible_equals_separate_quantiles(self, n):
        samples = np.random.default_rng(n).standard_normal((n, 2)) * [0.1, 0.05] + [1.0, 0.3]
        lo = np.quantile(samples, 0.025, axis=0)
        hi = np.quantile(samples, 0.975, axis=0)
        credible = posterior_summary(samples).credible
        assert credible.tobytes() == np.column_stack([lo, hi]).tobytes()

    # n = 1600 and 600 are the chain sizes of the default run and of the
    # long replay's 1000-iteration windows
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 4000), seed=st.integers(0, 2**32 - 1),
           ties=st.booleans(), constant=st.booleans(),
           nan_at=st.none() | st.integers(0, 3999))
    @example(n=1600, seed=0, ties=False, constant=False, nan_at=None)
    @example(n=600, seed=1, ties=True, constant=False, nan_at=None)
    @example(n=2, seed=2, ties=False, constant=True, nan_at=1)
    def test_credible_is_numpy_quantile(self, n, seed, ties, constant, nan_at):
        samples = (np.random.default_rng(seed).standard_normal((n, 2))
                   * [0.1, 0.05] + [1.0, 0.3])
        if ties:
            # + 0.0 turns -0.0 into 0.0; the two compare equal, so neither
            # a sort nor np.quantile's partition orders them
            samples = samples.round(2) + 0.0
        if constant:
            samples[:, 0] = 1.2
        if nan_at is not None:
            samples[nan_at % n, 1] = np.nan
        expected = np.quantile(samples, [0.025, 0.975], axis=0).T
        assert posterior_summary(samples).credible.tobytes() == expected.tobytes()

    def test_degenerate_samples(self):
        s = np.tile([1.2, 0.4], (10, 1))
        est = posterior_summary(s)
        assert est.mean == pytest.approx([1.2, 0.4])
        assert est.covariance == pytest.approx(np.zeros((2, 2)))
        assert est.credible[0] == pytest.approx([1.2, 1.2])

    def test_two_point_mean(self):
        est = posterior_summary(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert est.mean == pytest.approx([1.0, 1.0])

    def test_gaussian_monte_carlo(self):
        rng = np.random.default_rng(0)
        mu, sigma = np.array([1.0, 0.5]), 0.2
        n = 10_000
        samples = mu + sigma * rng.standard_normal((n, 2))
        est = posterior_summary(samples)
        tol = 3 * sigma / math.sqrt(n)
        assert est.mean == pytest.approx(mu, abs=tol)
        assert est.credible[0] == pytest.approx(
            [mu[0] - 1.96 * sigma, mu[0] + 1.96 * sigma], abs=0.02)

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ValueError):
            posterior_summary(np.array([[1.0, 1.0]]))


class TestGaussianPrior:
    # the scenario's prior check: NaN compares false both ways, so "<= 0"
    # let it through
    @pytest.mark.parametrize("variance", [0.0, -1.0, float("nan")])
    def test_non_positive_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="^prior variance must be positive$"):
            GaussianPrior((1.0, 0.3), variance)

    # a NaN mean ended the chain as "SGLD chain diverged" and put NaN in an
    # unsampled window's estimate; an infinite variance made that estimate's
    # covariance inf x 0 (a RuntimeWarning, NaN entries and infinite bounds)
    @pytest.mark.parametrize("mean, variance, message", [
        ((float("nan"), 0.3), 10.0, "mean"),
        ((1.0, float("inf")), 10.0, "mean"),
        ((1.0, -float("inf")), 10.0, "mean"),
        ((1.0, 0.3), float("inf"), "variance"),
    ])
    def test_non_finite_rejected(self, mean, variance, message):
        with pytest.raises(ValueError, match=f"^prior {message} must be finite$"):
            GaussianPrior(mean, variance)


class TestUpdatePrior:
    def test_mean_carried_variance_reset(self):
        est = posterior_summary(np.array([[1.0, 0.3], [1.0, 0.3], [1.0, 0.3]]))
        prior = update_prior(est, 0.5)
        assert prior.mean == pytest.approx((1.0, 0.3))
        assert prior.variance == 0.5

    def test_nonpositive_lambda_rejected(self):
        est = posterior_summary(np.array([[1.0, 0.3], [1.0, 0.3]]))
        with pytest.raises(ValueError):
            update_prior(est, 0.0)

    def test_consecutive_windows_stay_consistent(self):
        b1 = synthetic_batch(1.0, 0.3, n=500, seed=21)
        b2 = synthetic_batch(1.0, 0.3, n=500, seed=22)
        e1 = sgld_run(b1, WIDE_PRIOR, SgldHyper(seed=21))
        e2 = sgld_run(b2, update_prior(e1, 1.0), SgldHyper(seed=22))
        std1 = np.sqrt(np.diag(e1.covariance))
        assert abs(e2.K_L - e1.K_L) < max(5 * std1[0], 0.05)
        assert abs(e2.T_L - e1.T_L) < max(5 * std1[1], 0.05)

    def test_tracks_plant_switch_despite_old_prior(self):
        b1 = synthetic_batch(1.0, 0.3, n=500, seed=23)
        e1 = sgld_run(b1, WIDE_PRIOR, SgldHyper(seed=23))
        b2 = synthetic_batch(0.5, 1.5, n=500, seed=24)
        e2 = sgld_run(b2, update_prior(e1, 1.0), SgldHyper(seed=24))
        assert e2.K_L == pytest.approx(0.5, abs=0.15)
        assert e2.T_L == pytest.approx(1.5, abs=0.25)
