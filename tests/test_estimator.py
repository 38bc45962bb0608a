import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfmonitor.estimator import (
    _BLOCK,
    _draw_minibatches,
    _lik_grad,
    _products,
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


def reference_steps(batch, prior, hyper, samples, fix_lag=None):
    """One-step predictions of samples[1:] from samples[:-1]: the sampler's
    update on numpy vectors with the public gradient, using the draws that
    sgld_run takes from the same stream (per block of _BLOCK iterations,
    first the minibatch indices, then the noise).  Stepping from the
    sampler's own previous state keeps round-off from compounding: large
    steps on a sharp posterior make the chain sensitive to its last bits."""
    rng = np.random.default_rng(hyper.seed)
    n = len(batch)
    n_mb = min(hyper.minibatch_n, n)
    idx, z = [], []
    for start in range(0, hyper.K_iters, _BLOCK):
        m = min(_BLOCK, hyper.K_iters - start)
        idx += (list(_draw_minibatches(rng, n, n_mb, m).T) if n_mb < n
                else [np.arange(n)] * m)
        z += list(rng.standard_normal((m, 2)))
    predicted = []
    for s, theta in enumerate(samples[:-1]):
        t = hyper.burn_in_c + s + 1  # 0-based iteration that yields samples[s + 1]
        eta = hyper.eta_1 / (t + 1)
        mb = ObservationBatch(batch.accel[idx[t]], batch.demand[idx[t]],
                              batch.jerk[idx[t]])
        g_phi = theta * grad_log_posterior(mb, theta, prior, hyper.sigma_sq,
                                           n_total=n) + 1.0
        noise = math.sqrt(eta) * z[t]
        if fix_lag is not None:
            g_phi[1] = noise[1] = 0.0
        drift = 0.5 * eta * g_phi
        norm = float(np.linalg.norm(drift))
        if norm > hyper.max_drift:
            drift *= hyper.max_drift / norm
        predicted.append(theta * np.exp(drift + noise))
    return np.array(predicted)


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
    def test_analytic_matches_finite_differences(self, K_L, T_L, seed):
        batch = synthetic_batch(1.0, 0.3, n=100, seed=seed)
        theta = np.array([K_L, T_L])
        g = grad_log_posterior(batch, theta, WIDE_PRIOR, 0.01)
        h = 1e-5
        for i in range(2):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (log_posterior(batch, tp, WIDE_PRIOR, 0.01)
                  - log_posterior(batch, tm, WIDE_PRIOR, 0.01)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_zero_increment_at_stationary_point(self):
        theta = (1.0, 0.3)
        u = np.array([0.5, -0.2])
        a = np.array([0.1, 0.0])
        jerk = (theta[0] * u - a) / theta[1]
        batch = ObservationBatch(a, u, jerk)
        prior = GaussianPrior(theta, 1.0)
        g = grad_log_posterior(batch, theta, prior, 0.01, n_total=2)
        assert g == pytest.approx(np.zeros(2), abs=1e-12)

    def test_full_batch_scaling_is_identity(self):
        batch = synthetic_batch(1.0, 0.3, n=50)
        theta = (0.9, 0.35)
        g_scaled = grad_log_posterior(batch, theta, WIDE_PRIOR, 0.01,
                                      n_total=len(batch))
        g_plain = grad_log_posterior(batch, theta, WIDE_PRIOR, 0.01)
        assert g_scaled == pytest.approx(g_plain)

    @given(
        n=st.integers(2, 60), data=st.data(),
        K_L=st.floats(0.3, 2.0), T_L=st.floats(0.1, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_minibatch_sums_match_gathered_subset(self, n, data, K_L, T_L, seed):
        k = data.draw(st.integers(2, n), label="k")  # a batch holds >= 2
        rng = np.random.default_rng(seed)
        a, u, j = rng.standard_normal((3, n))
        idx = _draw_minibatches(rng, n, k, 1)[:, 0]
        sigma_sq = 0.01
        # the sampler's path: pre-scaled per-sample products, gathered and summed
        products = _products(ObservationBatch(a, u, j)) * (n / (k * sigma_sq))
        g_lik = np.array(_lik_grad(K_L, T_L, *products[idx].sum(axis=0)))
        kernel = WIDE_PRIOR.grad_log_density((K_L, T_L)) + g_lik
        direct = grad_log_posterior(ObservationBatch(a[idx], u[idx], j[idx]),
                                    (K_L, T_L), WIDE_PRIOR, sigma_sq, n_total=n)
        # residual form, independent of the five-sum algebra
        r = j[idx] - (K_L * u[idx] - a[idx]) / T_L
        g_ref = (n / k) / sigma_sq * np.array([
            r @ u[idx] / T_L, r @ (a[idx] - K_L * u[idx]) / T_L**2])
        reference = WIDE_PRIOR.grad_log_density((K_L, T_L)) + g_ref
        # the expanded sums cancel; bound the rounding by the terms' size
        size = (n / (k * sigma_sq)) * float(
            (np.abs(j) + np.abs(u) + np.abs(a))[idx] @ (np.abs(u) + np.abs(a))[idx]
        ) * (1 + K_L) ** 2 / min(T_L, 1.0) ** 3
        assert kernel == pytest.approx(direct, rel=1e-9, abs=1e-12 * size)
        assert kernel == pytest.approx(reference, rel=1e-9, abs=1e-12 * size)


class TestMinibatchDraws:
    @pytest.mark.parametrize("n,k", [(1, 1), (7, 7), (50, 1), (50, 8), (40, 32)])
    def test_distinct_in_range(self, n, k):
        draws = _draw_minibatches(np.random.default_rng(0), n, k, 300)
        assert draws.shape == (k, 300)
        assert draws.min() >= 0 and draws.max() < n
        assert all(len(set(col)) == k for col in draws.T.tolist())

    @pytest.mark.parametrize("n,k", [(50, 8), (40, 32)])
    def test_inclusion_frequency_chi_square(self, n, k):
        count = 20_000
        draws = _draw_minibatches(np.random.default_rng(1), n, k, count)
        hits = np.bincount(draws.ravel(), minlength=n)
        p = k / n
        # a uniform k-subset's inclusion indicators have variance p(1-p)
        # and correlation -1/(n-1); scaled so, the statistic is chi^2(n-1)
        stat = float(((hits - count * p) ** 2).sum()
                     / (count * p * (1 - p) * n / (n - 1)))
        # upper 0.1 % points of chi^2 with 49 and 39 degrees of freedom
        assert stat < {50: 85.35, 40: 72.05}[n]

    def test_every_subset_equally_likely(self):
        count = 20_000
        draws = _draw_minibatches(np.random.default_rng(2), 5, 2, count)
        lo, hi = np.sort(draws, axis=0)
        pairs = np.array([5 * i + m for i in range(5) for m in range(i + 1, 5)])
        counts = np.bincount(5 * lo + hi, minlength=25)[pairs]
        e = count / len(pairs)
        # upper 0.1 % point of chi^2 with 9 degrees of freedom
        assert float(((counts - e) ** 2).sum() / e) < 27.88


class TestSgldHyper:
    @pytest.mark.parametrize("kwargs", [
        {"eta_1": 0.0},
        {"K_iters": 100, "burn_in_c": 100},
        {"K_iters": 100, "burn_in_c": 0},
        {"minibatch_n": 0},
        {"sigma_sq": 0.0},
        {"max_drift": 0.0},
    ])
    def test_invalid_hyper_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SgldHyper(**kwargs)

    def test_default_burn_in_is_sixty_percent(self):
        h = SgldHyper(K_iters=1000)
        assert h.burn_in_c == 600

    def test_replace_rederives_default_burn_in(self):
        assert replace(SgldHyper(), K_iters=1000).burn_in_c == 600
        explicit = SgldHyper(K_iters=1000, burn_in_c=900)
        assert replace(explicit, seed=3).burn_in_c == 900
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

    def test_collinear_window_flagged_low_confidence(self):
        # demand proportional to accel: only the ratio is identifiable
        n = 200
        accel = 0.5 * np.sin(np.linspace(0, 4 * np.pi, n))
        demand = 2.0 * accel
        batch = batch_from_series(accel, demand, 0.01)
        est = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=0))
        assert est.low_confidence

    @pytest.mark.parametrize("minibatch_n,fix_lag", [
        (32, None), (32, 0.3), (10**6, None)])
    def test_matches_reference_stepping(self, minibatch_n, fix_lag):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=10)
        # 600 iterations span two full blocks and a partial one
        hyper = SgldHyper(K_iters=600, burn_in_c=1, minibatch_n=minibatch_n,
                          seed=10)
        est = sgld_run(batch, WIDE_PRIOR, hyper, fix_lag=fix_lag)
        ref = reference_steps(batch, WIDE_PRIOR, hyper, est.samples, fix_lag)
        assert est.samples[1:] == pytest.approx(ref, rel=1e-10)

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
        assert peaks[1] - peaks[0] < 1_000_000

    def test_fixed_lag_freezes_second_coordinate(self):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=8)
        est = sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=8), fix_lag=0.3)
        assert np.all(est.samples[:, 1] == 0.3)


class TestPosteriorSummary:
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
