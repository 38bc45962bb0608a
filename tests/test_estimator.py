import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfmonitor import harness
from cfmonitor.estimator import (
    _BLOCK,
    _block_inputs,
    _draw_minibatches,
    _products,
    _scaled_products,
    _slab_draws,
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


def sums_lik_grad(K_L, T_L, s_ju, s_uu, s_au, s_ja, s_aa):
    """The likelihood gradient in (K_L, T_L) from the five product sums
    (ju, uu, au, ja, aa), each already divided by sigma_sq and scaled to the
    full batch: a copy of the sums form that `sgld_run`'s chain loop
    writes out, with the same operations in the same order."""
    alpha, beta = K_L / T_L, 1.0 / T_L
    # d/d(alpha) and d/d(beta) of -sum(r^2)/2 with r = j - alpha u + beta a
    g_alpha = s_ju - alpha * s_uu + beta * s_au
    g_beta = alpha * s_au - s_ja - beta * s_aa
    return g_alpha * beta, -(K_L * g_alpha + g_beta) * beta * beta


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
        idx += (list(_draw_minibatches(rng.random((n_mb, m)), n).T) if n_mb < n
                else [np.arange(n)] * m)
        z += list(rng.standard_normal((m, 2)))
    predicted = []
    for s, theta in enumerate(samples[:-1]):
        t = hyper.burn_in + s + 1  # 0-based iteration that yields samples[s + 1]
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


def block_reference(batch, prior, hyper, fix_lag=None):
    """sgld_run's samples as the sampler computed them one _BLOCK at a time:
    per block, Floyd's algorithm on that block's uniforms alone, a
    fancy-index gather of the products, then the noise and the chain.  The
    sampler resolves collisions over slabs of blocks and gathers with
    np.take; it must reproduce these samples bit for bit."""
    rng = np.random.default_rng(hyper.seed)
    n = len(batch)
    k = min(hyper.minibatch_n, n)
    products = _products(batch) * (n / (k * hyper.sigma_sq))
    (m_K, m_T), var = prior.mean, prior.variance
    K, T = (m_K if m_K > 0 else 1.0), (m_T if m_T > 0 else 0.3)
    if fix_lag is not None:
        T = fix_lag
    phi_K, phi_T = math.log(K), math.log(T)
    chain = []
    for start in range(0, hyper.K_iters, _BLOCK):
        m = min(_BLOCK, hyper.K_iters - start)
        etas = hyper.eta_1 / np.arange(start + 1, start + m + 1)
        if k < n:
            draws = (rng.random((k, m))
                     * np.arange(n - k + 1, n + 1)[:, None]).astype(np.intp)
            for c in range(1, k):
                row = draws[c]
                row[(draws[:c] == row).any(axis=0)] = n - k + c
            sums = products[draws].sum(axis=0).tolist()
        else:
            sums = [products.sum(axis=0).tolist()] * m
        noise = (rng.standard_normal((m, 2)) * np.sqrt(etas)[:, None]).tolist()
        for eta, s, (z_K, z_T) in zip(etas.tolist(), sums, noise):
            g_K, g_T = sums_lik_grad(K, T, *s)
            d_K = 0.5 * eta * (K * ((m_K - K) / var + g_K) + 1.0)
            d_T = (0.5 * eta * (T * ((m_T - T) / var + g_T) + 1.0)
                   if fix_lag is None else 0.0)
            norm = math.hypot(d_K, d_T)
            if norm > hyper.max_drift:
                d_K *= hyper.max_drift / norm
                d_T *= hyper.max_drift / norm
            phi_K += d_K + z_K
            K = math.exp(phi_K)
            if fix_lag is None:
                phi_T += d_T + z_T
                T = math.exp(phi_T)
            chain.append((K, T))
    return np.array(chain[hyper.burn_in:])


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
        g = grad_log_posterior(batch, theta, prior, 0.01, n_total=2)
        assert g == pytest.approx(np.zeros(2), abs=1e-12)

    def test_full_batch_scaling_is_identity(self):
        batch = synthetic_batch(1.0, 0.3, n=50)
        theta = (0.9, 0.35)
        g_scaled = grad_log_posterior(batch, theta, WIDE_PRIOR, 0.01,
                                      n_total=len(batch))
        g_plain = grad_log_posterior(batch, theta, WIDE_PRIOR, 0.01)
        assert g_scaled == pytest.approx(g_plain)

    @pytest.mark.parametrize("n_total", [None, 1000])
    def test_residual_form_matches_sums_form(self, n_total):
        # grad_log_posterior shares no code with the chain's sums form
        for seed in range(3):
            batch = synthetic_batch(1.0, 0.3, n=200, seed=seed)
            scale = 1.0 if n_total is None else n_total / len(batch)
            sums = _products(batch).sum(axis=0) * (scale / 0.01)
            for K_L in (0.5, 1.0, 1.5):
                for T_L in (0.2, 0.5, 1.5):
                    expected = WIDE_PRIOR.grad_log_density((K_L, T_L)) + np.array(
                        sums_lik_grad(K_L, T_L, *sums.tolist()))
                    g = grad_log_posterior(batch, (K_L, T_L), WIDE_PRIOR, 0.01,
                                           n_total=n_total)
                    assert g == pytest.approx(expected, rel=1e-12, abs=0)

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
        idx = _draw_minibatches(rng.random((k, 1)), n)[:, 0]
        sigma_sq = 0.01
        # the sampler's path: pre-scaled per-sample products, gathered and summed
        products = _products(ObservationBatch(a, u, j)) * (n / (k * sigma_sq))
        g_lik = np.array(sums_lik_grad(K_L, T_L, *products[idx].sum(axis=0)))
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
        draws = _draw_minibatches(np.random.default_rng(0).random((k, 300)), n)
        assert draws.shape == (k, 300)
        assert draws.min() >= 0 and draws.max() < n
        assert all(len(set(col)) == k for col in draws.T.tolist())

    @pytest.mark.parametrize("n,k", [(50, 8), (40, 32)])
    def test_inclusion_frequency_chi_square(self, n, k):
        count = 20_000
        draws = _draw_minibatches(np.random.default_rng(1).random((k, count)), n)
        hits = np.bincount(draws.ravel(), minlength=n)
        p = k / n
        # a uniform k-subset's inclusion indicators have variance p(1-p)
        # and correlation -1/(n-1); scaled so, the statistic is chi^2(n-1)
        stat = float(((hits - count * p) ** 2).sum()
                     / (count * p * (1 - p) * n / (n - 1)))
        # upper 0.1 % points of chi^2 with 49 and 39 degrees of freedom
        assert stat < {50: 85.35, 40: 72.05}[n]

    @pytest.mark.parametrize("n,dtype", [(2**15 - 1, np.int16), (2**15, np.int32)])
    def test_narrow_indices_match_int64(self, n, dtype):
        k = 32
        uniforms = np.random.default_rng(n).random((k, 300))
        uniforms[:, 0] = 1.0 - 2.0**-53  # every row takes its top index
        uniforms[:, 1] = 0.0             # every row after the first collides
        draws = _draw_minibatches(uniforms, n)
        # Floyd's algorithm on int64, the reference for the narrow integers
        ref = (uniforms * np.arange(n - k + 1, n + 1)[:, None]).astype(np.int64)
        for c in range(1, k):
            row = ref[c]
            row[(ref[:c] == row).any(axis=0)] = n - k + c
        assert draws.dtype == dtype
        assert np.array_equal(draws, ref) and draws.max() == n - 1

    def test_every_subset_equally_likely(self):
        count = 20_000
        draws = _draw_minibatches(np.random.default_rng(2).random((2, count)), 5)
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
        # NaN compares false both ways, so "<= 0" let it through
        {"eta_1": float("nan")},
        {"sigma_sq": float("nan")},
        {"max_drift": float("nan")},
        # chains that keep 1 sample, which no posterior summary takes
        {"K_iters": 2},
        {"K_iters": 100, "burn_in_c": 99},
    ])
    def test_invalid_hyper_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SgldHyper(**kwargs)

    def test_default_burn_in_is_sixty_percent(self):
        assert SgldHyper(K_iters=1000).burn_in == 600
        # the default is derived, not stored in the caller's field
        assert SgldHyper().burn_in_c is None
        assert SgldHyper().burn_in == 2400

    def test_replace_rederives_default_burn_in(self):
        assert replace(SgldHyper(), K_iters=1000).burn_in == 600
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

    @pytest.mark.parametrize("supplied", [False, True], ids=["in_process", "fill"])
    def test_unexcited_window_not_sampled(self, monkeypatch, supplied):
        def no_draws(*args):
            raise AssertionError("drew for a window that is not sampled")
        monkeypatch.setattr("cfmonitor.estimator._slab_draws", no_draws)
        batch = batch_from_series(np.full(200, 0.001), np.full(200, 0.001), 0.01)
        prior = GaussianPrior((0.9, 0.4), 0.25)
        calls = []
        est = sgld_run(batch, prior, SgldHyper(seed=0),
                       fill=calls.append if supplied else None)
        # a maker of the inputs ahead is told once, and asked for no block
        assert calls == ([None] if supplied else [])
        assert est.samples.shape == (0, 2) and est.low_confidence
        assert est.mean.tolist() == [0.9, 0.4]
        assert est.covariance.tolist() == [[0.25, 0.0], [0.0, 0.25]]
        # the prior's central 95 % interval, 1.959964 sd each side
        assert est.credible == pytest.approx(np.array(
            [[0.9 - 0.979982, 0.9 + 0.979982], [0.4 - 0.979982, 0.4 + 0.979982]]))

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

    @pytest.mark.parametrize("n,minibatch_n,fix_lag,K_iters", [
        (33, 32, None, 2500),     # n = k + 1: a collision in most columns
        (40, 32, None, 2500),
        (200, 32, None, 4097),    # one iteration past four slabs
        (200, 32, 0.3, 1100),
        (200, 1, None, 1100),
        (200, 10**6, None, 1100),  # full batch
    ])
    def test_samples_pinned_to_block_reference(self, n, minibatch_n, fix_lag,
                                               K_iters):
        batch = synthetic_batch(1.0, 0.3, n=n, seed=n)
        hyper = SgldHyper(K_iters=K_iters, minibatch_n=minibatch_n, seed=K_iters)
        est = sgld_run(batch, WIDE_PRIOR, hyper, fix_lag=fix_lag)
        ref = block_reference(batch, WIDE_PRIOR, hyper, fix_lag)
        assert est.samples.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n,minibatch_n,fix_lag,K_iters", [
        (200, 32, None, 4097),
        (200, 32, 0.3, 1100),
        (200, 10**6, None, 1100),  # full batch
    ])
    def test_supplied_draws_match_in_process(self, n, minibatch_n, fix_lag, K_iters,
                                             forks, assert_no_children):
        batch = synthetic_batch(1.0, 0.3, n=n, seed=n)
        hyper = SgldHyper(K_iters=K_iters, minibatch_n=minibatch_n, seed=K_iters)
        # made by the closed loop's forked helper, as the chain reads them
        shapes, blocks = [], []
        with harness._prefetched_blocks([hyper], n) as window_fill:
            helper_fill = window_fill(0)

            def fill(array):
                helper_fill(array)
                # the first call hands over the products; each later one a block
                if shapes:
                    blocks.append(array.copy())
                shapes.append(array.shape)

            est = sgld_run(batch, WIDE_PRIOR, hyper, fix_lag, fill=fill)
        assert shapes[0] == (n, 5)
        assert forks == ["_prefetched_blocks"]
        assert_no_children()
        in_process = [block for _, block in _block_inputs(
            _scaled_products(batch, hyper), _slab_draws(n, hyper), hyper)]
        assert len(blocks) == len(in_process)
        for got, want in zip(blocks, in_process):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        ref = sgld_run(batch, WIDE_PRIOR, hyper, fix_lag)
        assert est.samples.tobytes() == ref.samples.tobytes()

    @pytest.mark.parametrize("kwargs,seed", [
        ({"eta_1": 1e6}, 0),      # ZeroDivisionError: T_L underflowed to 0
        ({"eta_1": 1e6}, 3),      # OverflowError in exp()
        ({"max_drift": 1e6}, 0),
        ({"eta_1": 1e4}, 1),      # no exception: NaN samples were kept
    ])
    def test_divergence_rejected(self, kwargs, seed):
        batch = synthetic_batch(1.0, 0.3, n=200, seed=5)
        with pytest.raises(ValueError, match="reduce sgld.eta_1 or sgld.max_drift"):
            sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=seed, **kwargs))

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
        for lag in [0.0, float("nan"), float("inf")]:
            with pytest.raises(ValueError, match="fix_lag must be positive and finite"):
                sgld_run(batch, WIDE_PRIOR, SgldHyper(seed=8), fix_lag=lag)


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
