"""Online Bayesian estimation of the actuation dynamics parameters
(K_L, T_L) from windowed (accel, demand, jerk) observations.

A stochastic-gradient Langevin sampler first descends to the posterior
mode and then walks around it; post-burn-in iterates are kept as
posterior samples.  Each window's posterior mean seeds the next window's
prior (variance reset to a tunable regularization level), so history
enters only through the prior.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ObservationBatch",
    "GaussianPrior",
    "SgldHyper",
    "PosteriorEstimate",
    "log_posterior",
    "grad_log_posterior",
    "sgld_run",
    "posterior_summary",
    "update_prior",
    "batch_from_series",
]

# parameter vector ordering is (K_L, T_L) throughout

# Iterations per bulk draw of minibatch indices and Langevin noise.  Drawing
# a whole chain at once would hold a (K_iters, minibatch_n, 5) gather, so
# memory would grow with K_iters; fixed blocks keep it flat.
_BLOCK = 256
# Iterations whose minibatch indices one pass of Floyd's row loop resolves,
# so the loop's per-row overhead is paid once per four blocks.  Columns are
# resolved independently, so the slab width changes no index.
_SLAB = 4 * _BLOCK
# Rows of a block of chain inputs (see `_block_inputs`): the half step size,
# the five minibatch sums and the two scaled noises.
_BLOCK_ROWS = 8

# the standard normal's two-sided 95 % point, for an unsampled window's
# credible bounds (the prior's own central interval)
_Z95 = 1.959964

_DIVERGED = ("SGLD chain diverged (K_L or T_L left the positive floats); "
             "reduce sgld.eta_1 or sgld.max_drift")


@dataclass(frozen=True)
class ObservationBatch:
    """Windowed (a_i, u_i, adot_i) triples."""

    accel: np.ndarray
    demand: np.ndarray
    jerk: np.ndarray
    t_start: float = 0.0
    t_end: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.accel, dtype=float)
        u = np.asarray(self.demand, dtype=float)
        j = np.asarray(self.jerk, dtype=float)
        if not (len(a) == len(u) == len(j)):
            raise ValueError("accel/demand/jerk lengths differ")
        if len(a) < 2:
            raise ValueError("batch needs at least 2 observations")
        for name, arr in (("accel", a), ("demand", u), ("jerk", j)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        object.__setattr__(self, "accel", a)
        object.__setattr__(self, "demand", u)
        object.__setattr__(self, "jerk", j)

    def __len__(self) -> int:
        return len(self.accel)


def batch_from_series(
    accel: np.ndarray,
    demand: np.ndarray,
    t_s: float,
    t_start: float = 0.0,
) -> ObservationBatch:
    """Build a batch from logged accel/demand series, with jerk by central
    finite differences (one-sided at the edges)."""
    accel = np.asarray(accel, dtype=float)
    # huge accelerations overflow here; ObservationBatch rejects the result
    with np.errstate(over="ignore", invalid="ignore"):
        jerk = np.gradient(accel, t_s)
    return ObservationBatch(accel, demand, jerk,
                            t_start, t_start + t_s * len(accel))


@dataclass(frozen=True)
class GaussianPrior:
    """Isotropic Gaussian prior on (K_L, T_L)."""

    mean: tuple[float, float]
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("prior variance must be positive")
        if self.variance == math.inf:
            raise ValueError("prior variance must be finite")
        if not all(map(math.isfinite, self.mean)):
            raise ValueError("prior mean must be finite")

    def log_density(self, theta) -> float:
        d = np.asarray(theta, dtype=float) - np.asarray(self.mean)
        return float(-math.log(2 * math.pi * self.variance)
                     - d @ d / (2 * self.variance))

    def grad_log_density(self, theta) -> np.ndarray:
        d = np.asarray(theta, dtype=float) - np.asarray(self.mean)
        return -d / self.variance


@dataclass(frozen=True)
class SgldHyper:
    """Sampler settings.  Step size decays as eta_1/k; iterates after
    ``burn_in`` are retained as posterior samples.  ``max_drift`` caps
    the per-iteration drift step in log-parameter space so early
    iterations with large step sizes cannot diverge."""

    eta_1: float = 0.1
    K_iters: int = 4000
    burn_in_c: int | None = None  # default: 60% of K_iters
    minibatch_n: int = 32
    sigma_sq: float = 0.01
    seed: int = 0
    max_drift: float = 0.1

    def __post_init__(self):
        if not self.eta_1 > 0:
            raise ValueError("eta_1 must be positive")
        if not 0 < self.burn_in <= self.K_iters - 2:
            raise ValueError("sgld.burn_in_c (by default 60 % of sgld.K_iters) "
                             "must lie in [1, sgld.K_iters - 2], so that the "
                             "chain keeps at least 2 samples")
        if self.minibatch_n < 1:
            raise ValueError("minibatch_n must be at least 1")
        if not self.sigma_sq > 0:
            raise ValueError("sigma_sq must be positive")
        if not self.max_drift > 0:
            raise ValueError("max_drift must be positive")

    @property
    def burn_in(self) -> int:
        """``burn_in_c``, or 60 % of ``K_iters`` when it is None."""
        given = self.burn_in_c
        return int(0.6 * self.K_iters) if given is None else given


@dataclass
class PosteriorEstimate:
    """Post-burn-in sample set with its empirical summary, or, with no
    samples, the prior of a window that was not sampled."""

    samples: np.ndarray  # (n, 2), columns (K_L, T_L)
    mean: np.ndarray
    covariance: np.ndarray
    credible: np.ndarray  # (2, 2): per-parameter (lo, hi), central 95%
    low_confidence: bool = False

    @property
    def K_L(self) -> float:
        return float(self.mean[0])

    @property
    def T_L(self) -> float:
        return float(self.mean[1])


def log_posterior(
    batch: ObservationBatch, theta, prior: GaussianPrior, sigma_sq: float
) -> float:
    """Log prior plus full-batch Gaussian log likelihood (additive jerk
    noise with variance sigma_sq)."""
    K_L, T_L = theta
    if T_L <= 0:
        raise ValueError("T_L must be positive")
    r = batch.jerk - (K_L * batch.demand - batch.accel) / T_L
    n = len(batch)
    loglik = -0.5 * n * math.log(sigma_sq) - float(r @ r) / (2 * sigma_sq)
    return prior.log_density(theta) + loglik


def _products(batch: ObservationBatch) -> np.ndarray:
    """Per-sample products (ju, uu, au, ja, aa), shape (n, 5).  The model
    jerk ``(K_L u - a)/T_L`` is linear in ``(K_L/T_L, 1/T_L)``, so sums of
    these five columns give the exact likelihood gradient of any subset of
    the samples."""
    a, u, j = batch.accel, batch.demand, batch.jerk
    return np.column_stack([j * u, u * u, a * u, j * a, a * a])


def grad_log_posterior(
    batch: ObservationBatch,
    theta,
    prior: GaussianPrior,
    sigma_sq: float,
    n_total: int | None = None,
) -> np.ndarray:
    """Analytic gradient of the log posterior in (K_L, T_L), from the
    residuals as `log_posterior` computes them.

    When ``batch`` is a minibatch, ``n_total`` rescales the likelihood sum
    to the full-batch size.
    """
    K_L, T_L = theta
    if T_L <= 0:
        raise ValueError("T_L must be positive")
    model = K_L * batch.demand - batch.accel
    r = batch.jerk - model / T_L
    scale = 1.0 if n_total is None else n_total / len(batch)
    g_lik = np.array([r @ batch.demand / T_L, -(r @ model) / T_L**2])
    return prior.grad_log_density(theta) + g_lik * (scale / sigma_sq)


def _draw_minibatches(uniforms: np.ndarray, n: int) -> np.ndarray:
    """Independent uniform k-subsets of range(n), one per column of the
    (k, count) array of uniforms on [0, 1); the result has the same shape.

    Floyd's algorithm, vectorised over subsets: row c takes t uniformly
    from [0, n - k + c] and n - k + c instead where t is already among rows
    0..c-1.  Each column depends only on its own uniforms.
    """
    k = len(uniforms)
    # floor(U * m) with a 53-bit U is uniform on range(m) to within m/2**53.
    # The narrowest integers that hold every index cut the row loop's cost:
    # int16 below 2**15 samples, else int32, which holds every index of a
    # batch under 2**31 samples, whose products alone would fill 80 GB
    dtype = np.int16 if n < 2**15 else np.int32
    draws = (uniforms * np.arange(n - k + 1, n + 1)[:, None]).astype(dtype)
    for c in range(1, k):
        row = draws[c]
        row[(draws[:c] == row).any(axis=0)] = n - k + c
    return draws


def _slab_draws(n: int, hyper: SgldHyper):
    """The batch-independent draws of ``hyper``'s chain on ``n`` samples,
    per ``_SLAB`` of iterations: the slab's first iteration, the ``(k, m)``
    minibatch indices into ``range(n)`` (None when the minibatch size ``k``
    covers the batch) and the ``(m, 2)`` standard normals.

    Each ``_BLOCK`` draws its (k, m) uniforms, unless ``k`` covers the
    batch, and then its (m, 2) normals; the uniforms of a slab are turned
    into indices in one pass.
    """
    k, K_iters = min(hyper.minibatch_n, n), hyper.K_iters
    rng = np.random.default_rng(hyper.seed)
    for slab in range(0, K_iters, _SLAB):
        end = min(slab + _SLAB, K_iters)
        uniforms = np.empty((k, end - slab)) if k < n else None
        normals = np.empty((end - slab, 2))
        for start in range(slab, end, _BLOCK):
            stop = min(start + _BLOCK, end)
            if uniforms is not None:
                uniforms[:, start - slab:stop - slab] = rng.random((k, stop - start))
            rng.standard_normal(out=normals[start - slab:stop - slab])
        yield slab, None if uniforms is None else _draw_minibatches(uniforms, n), normals


def _scaled_products(batch: ObservationBatch, hyper: SgldHyper) -> np.ndarray:
    """The batch's `_products`, each divided by ``sigma_sq`` and scaled from
    a minibatch to the full batch, so a minibatch's column sums are its
    likelihood sums.  Observations so large that a product overflows raise
    ``ValueError``."""
    n = len(batch)
    # finite but huge observations overflow the sums; the resulting NaN
    # drift would slip past the max_drift clip and overflow exp()
    with np.errstate(over="ignore", invalid="ignore"):
        products = _products(batch) * (n / (min(hyper.minibatch_n, n) * hyper.sigma_sq))
    if not np.isfinite(products).all():
        raise ValueError("observations too large: the likelihood sums overflow")
    return products


def _block_inputs(products: np.ndarray, slabs, hyper: SgldHyper):
    """Per ``_BLOCK`` of iterations: the first iteration's index and an
    ``(8, m)`` float64 array of ``hyper``'s chain inputs, one column per
    iteration: the half step size ``eta/2``, the five minibatch sums of
    ``products`` and the two scaled Langevin noises.

    Indices and normals come from ``slabs`` (see `_slab_draws`); each block
    gathers its own sums.  Nothing here depends on the chain's state, so
    the blocks can be made ahead of the chain, in another process.
    """
    full = None
    for slab, draws, normals in slabs:
        end = slab + len(normals)
        for start in range(slab, end, _BLOCK):
            stop = min(start + _BLOCK, end)
            etas = hyper.eta_1 / np.arange(start + 1, stop + 1)
            block = np.empty((_BLOCK_ROWS, stop - start))
            block[0] = 0.5 * etas
            if draws is None:
                if full is None:
                    full = products.sum(axis=0)[:, None]
                block[1:6] = full
            else:
                # the same (k, m, 5) gather as products[cols], at a fraction
                # of fancy indexing's cost; summed in the same order
                cols = draws[:, start - slab:stop - slab]
                block[1:6] = np.take(products, cols, axis=0).sum(axis=0).T
            block[6:] = (normals[start - slab:stop - slab] * np.sqrt(etas)[:, None]).T
            yield start, block


def _filled_blocks(fill, K_iters: int):
    """The blocks of a ``K_iters`` chain, as `_block_inputs` yields them:
    each allocated here, in iteration order, and filled by ``fill(block)``."""
    for start in range(0, K_iters, _BLOCK):
        block = np.empty((_BLOCK_ROWS, min(_BLOCK, K_iters - start)))
        fill(block)
        yield start, block


def _identifiability(batch: ObservationBatch) -> bool:
    """True when the window carries enough excitation to identify both
    parameters: the demand must actually vary and must not be an affine
    function of the acceleration (near-collinear (u, a) identifies only
    their ratio, not the gain and lag separately)."""
    u = batch.demand - batch.demand.mean()
    a = batch.accel - batch.accel.mean()
    su, sa = float(np.std(u)), float(np.std(a))
    if su < 5e-2:
        return False
    if sa > 0:
        corr = float(u @ a) / (len(u) * su * sa)
        if abs(corr) > 0.995:
            return False
    return True


def sgld_run(
    batch: ObservationBatch,
    prior: GaussianPrior,
    hyper: SgldHyper,
    fix_lag: float | None = None,
    *,
    fill=None,
) -> PosteriorEstimate:
    """Optimization-then-sampling over the window's posterior.

    The chain iterates in log-parameter space (positivity is structural;
    the log-volume term is included so retained samples follow the
    (K_L, T_L) posterior itself).  ``fix_lag`` freezes T_L at the given
    value and samples K_L only.  Deterministic given ``hyper.seed``.

    A window without the excitation to identify both parameters (see
    `_identifiability`; only when ``fix_lag`` is None) is not sampled: no
    draw is made and no step taken, and the estimate is the prior itself
    (see `_prior_estimate`), flagged ``low_confidence``.

    Minibatch gradients come from sums of `_scaled_products`; indices and
    noise are drawn ``_BLOCK`` iterations at a time, index collisions are
    resolved ``_SLAB`` iterations at a time, and the chain itself steps on
    plain floats.  ``fill``, when given, has the chain's inputs made ahead
    (for example in another process) from ``_block_inputs(products,
    _slab_draws(len(batch), hyper), hyper)``: its first call gets the
    window's `_scaled_products`, and each later ``fill(block)`` fills an
    empty ``(8, m)`` float64 block, in iteration order; for a window that
    is not sampled, ``fill(None)`` is its only call, so the maker can drop
    it.  A chain that leaves the positive floats raises ``ValueError``.
    """
    free_T = fix_lag is None
    if not (free_T or 0 < fix_lag < math.inf):
        raise ValueError("fix_lag must be positive and finite")
    # checked on a window that is not sampled too, so that overflowing
    # observations are an error whatever their excitation
    products = _scaled_products(batch, hyper)
    if free_T and not _identifiability(batch):
        if fill is not None:
            fill(None)
        return _prior_estimate(prior)
    if fill is None:
        blocks = _block_inputs(products, _slab_draws(len(batch), hyper), hyper)
    else:
        fill(products)
        blocks = _filled_blocks(fill, hyper.K_iters)

    m_K, m_T = (float(m) for m in prior.mean)
    var = prior.variance
    K = m_K if m_K > 0 else 1.0
    T = (m_T if m_T > 0 else 0.3) if free_T else float(fix_lag)
    phi_K, phi_T = math.log(K), math.log(T)

    burn, max_drift = hyper.burn_in, hyper.max_drift
    samples = np.empty((hyper.K_iters - burn, 2))
    exp, hypot = math.exp, math.hypot
    try:
        for start, block in blocks:
            flat = []  # the block's iterates as K, T, K, T, ...
            for h, s_ju, s_uu, s_au, s_ja, s_aa, z_K, z_T in zip(*block.tolist()):
                # the likelihood gradient from the five sums: d/d(alpha) and
                # d/d(beta) of -sum(r^2)/2 with r = j - alpha u + beta a,
                # alpha = K/T and beta = 1/T, then in (K, T) by the chain rule
                alpha, beta = K / T, 1.0 / T
                g_alpha = s_ju - alpha * s_uu + beta * s_au
                g_beta = alpha * s_au - s_ja - beta * s_aa
                g_K, g_T = g_alpha * beta, -(K * g_alpha + g_beta) * beta * beta
                # chain rule to log space plus the log-volume term of the transform
                d_K = h * (K * ((m_K - K) / var + g_K) + 1.0)
                d_T = h * (T * ((m_T - T) / var + g_T) + 1.0) if free_T else 0.0
                norm = hypot(d_K, d_T)
                if norm > max_drift:
                    d_K *= max_drift / norm
                    d_T *= max_drift / norm
                phi_K += d_K + z_K
                K = exp(phi_K)
                if free_T:
                    phi_T += d_T + z_T
                    T = exp(phi_T)
                flat.append(K)
                flat.append(T)
            lo, stop = max(start, burn), start + len(flat) // 2
            if lo < stop:
                samples[lo - burn:stop - burn].reshape(-1)[:] = flat[2 * (lo - start):]
    except (OverflowError, ZeroDivisionError):
        # exp() overflowed, or T_L underflowed to 0 and K / T divided by it
        raise ValueError(_DIVERGED) from None
    # a chain that underflowed to 0 or went NaN raises nothing on the way
    if not (np.isfinite(samples).all() and (samples > 0).all()):
        raise ValueError(_DIVERGED)

    return posterior_summary(samples)


def _prior_estimate(prior: GaussianPrior) -> PosteriorEstimate:
    """The estimate of a window that is not sampled: no samples, the
    prior's mean and covariance, and its central 95 % interval as the
    credible bounds (mean +- 1.96 sd, which may reach below 0), flagged
    ``low_confidence``."""
    mean = np.array(prior.mean, dtype=float)
    half = _Z95 * math.sqrt(prior.variance)
    return PosteriorEstimate(np.empty((0, 2)), mean, prior.variance * np.eye(2),
                             np.column_stack([mean - half, mean + half]),
                             low_confidence=True)


def posterior_summary(samples: np.ndarray) -> PosteriorEstimate:
    """Empirical mean, covariance and central 95% intervals."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    mean = samples.mean(axis=0)
    cov = np.cov(samples, rowvar=False)
    # np.quantile's "linear" rule, written out on one sort: in numpy 2.x
    # np.quantile imports numpy.ma on its first call, about 10 ms of a
    # closed loop's first window.  The bounds are the same bytes.
    n = len(samples)
    ordered = np.sort(samples, axis=0)
    bounds = []
    for q in (0.025, 0.975):
        index = (n - 1) * q
        i = math.floor(index)
        t = index - i
        a, b = ordered[i], ordered[min(i + 1, n - 1)]
        bounds.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    credible = np.column_stack(bounds)
    # a NaN sorts last; as np.quantile does, its column takes it as both bounds
    nan = np.isnan(ordered[-1])
    credible[nan] = ordered[-1, nan, None]
    return PosteriorEstimate(samples, mean, np.atleast_2d(cov), credible)


def update_prior(prev: PosteriorEstimate, lam: float) -> GaussianPrior:
    """Carry the previous posterior mean forward, resetting the variance
    to the regularization level ``lam``."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return GaussianPrior((float(prev.mean[0]), float(prev.mean[1])), lam)
