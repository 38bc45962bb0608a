"""An exact posterior oracle for one window: the (K_L, T_L) posterior
evaluated on a dense grid, from the window's sums of products, its
Gaussian prior and the jerk-noise variance.  It shares no code with the
package's sampler."""
import numpy as np

# cells per axis of each stage's grid
CELLS = 301
# stages of refinement after the first, log-spaced one
STAGES = 3
# half-width of each refined grid, in posterior sd of the stage before
HALF_WIDTH_SD = 8.0
# a refined grid's half-width is at least this many cells of the grid
# before, so that a posterior narrower than one cell cannot collapse it
MIN_HALF_WIDTH_CELLS = 4.0
# the first stage spans these bounds of both parameters, log-spaced
FIRST_BOUNDS = (1e-3, 1e2)


def window_sums(accel, demand, jerk):
    """The six sums that the Gaussian likelihood of ``jerk = (K u - a)/T +
    noise`` needs, keyed by their two factors."""
    a, u, j = (np.asarray(x, dtype=float) for x in (accel, demand, jerk))
    return {"jj": j @ j, "ju": j @ u, "uu": u @ u, "au": a @ u,
            "ja": j @ a, "aa": a @ a}


def _log_density(K, T, sums, prior_mean, prior_variance, sigma_sq):
    """Unnormalized log posterior density of (K, T) on arrays of points:
    the residual sum of squares expanded in the sums, plus the prior."""
    alpha, beta = K / T, 1.0 / T
    rss = (sums["jj"] - 2 * alpha * sums["ju"] + 2 * beta * sums["ja"]
           + alpha**2 * sums["uu"] - 2 * alpha * beta * sums["au"]
           + beta**2 * sums["aa"])
    m_K, m_T = prior_mean
    return (-rss / (2 * sigma_sq)
            - ((K - m_K) ** 2 + (T - m_T) ** 2) / (2 * prior_variance))


def _moments(K_axis, T_axis, log_weight):
    """Marginal means and sds of K and T from cell weights on the grid."""
    w = np.exp(log_weight - log_weight.max())
    w /= w.sum()
    K, T = np.meshgrid(K_axis, T_axis, indexing="ij")
    mean = np.array([(w * K).sum(), (w * T).sum()])
    var = np.array([(w * (K - mean[0]) ** 2).sum(), (w * (T - mean[1]) ** 2).sum()])
    return mean, np.sqrt(var)


def grid_posterior(sums, prior_mean, prior_variance, sigma_sq):
    """The posterior mean and sd of (K_L, T_L), each a length-2 array.

    The first grid is log-spaced over `FIRST_BOUNDS` on both axes, each
    cell weighted by its area (K T d(log K) d(log T)); each later grid is
    linear, centred on the stage before's mean, `HALF_WIDTH_SD` sds wide
    each side but at least `MIN_HALF_WIDTH_CELLS` of the stage before's
    cells, and clipped to positive values."""
    lo, hi = np.log(FIRST_BOUNDS)
    K_axis = T_axis = np.exp(np.linspace(lo, hi, CELLS))
    K, T = np.meshgrid(K_axis, T_axis, indexing="ij")
    log_w = _log_density(K, T, sums, prior_mean, prior_variance, sigma_sq)
    mean, sd = _moments(K_axis, T_axis, log_w + np.log(K) + np.log(T))
    # the first stage's cell width at the mean, on its log spacing
    cell = mean * (hi - lo) / (CELLS - 1)
    for _ in range(STAGES):
        half = np.maximum(HALF_WIDTH_SD * sd, MIN_HALF_WIDTH_CELLS * cell)
        lows = np.maximum(mean - half, mean * 1e-6)
        K_axis = np.linspace(lows[0], mean[0] + half[0], CELLS)
        T_axis = np.linspace(lows[1], mean[1] + half[1], CELLS)
        K, T = np.meshgrid(K_axis, T_axis, indexing="ij")
        log_w = _log_density(K, T, sums, prior_mean, prior_variance, sigma_sq)
        cell = np.array([K_axis[1] - K_axis[0], T_axis[1] - T_axis[0]])
        mean, sd = _moments(K_axis, T_axis, log_w)
    return mean, sd
