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
from dataclasses import dataclass, field

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
        if self.variance <= 0:
            raise ValueError("prior variance must be positive")

    def log_density(self, theta) -> float:
        d = np.asarray(theta, dtype=float) - np.asarray(self.mean)
        return float(-math.log(2 * math.pi * self.variance)
                     - d @ d / (2 * self.variance))

    def grad_log_density(self, theta) -> np.ndarray:
        d = np.asarray(theta, dtype=float) - np.asarray(self.mean)
        return -d / self.variance


class _DefaultBurnIn(int):
    """A burn-in derived from ``K_iters`` rather than given, so that
    ``dataclasses.replace(hyper, K_iters=...)`` derives it again."""


@dataclass(frozen=True)
class SgldHyper:
    """Sampler settings.  Step size decays as eta_1/k; iterates after
    ``burn_in_c`` are retained as posterior samples.  ``max_drift`` caps
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
        if self.burn_in_c is None or isinstance(self.burn_in_c, _DefaultBurnIn):
            object.__setattr__(self, "burn_in_c",
                               _DefaultBurnIn(int(0.6 * self.K_iters)))
        if self.eta_1 <= 0:
            raise ValueError("eta_1 must be positive")
        if not 0 < self.burn_in_c < self.K_iters:
            raise ValueError("burn_in_c must lie strictly inside (0, K_iters)")
        if self.minibatch_n < 1:
            raise ValueError("minibatch_n must be at least 1")
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be positive")
        if self.max_drift <= 0:
            raise ValueError("max_drift must be positive")


@dataclass
class PosteriorEstimate:
    """Post-burn-in sample set with its empirical summary."""

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


def _lik_grad(K_L, T_L, s_ju, s_uu, s_au, s_ja, s_aa) -> tuple[float, float]:
    """Gradient in (K_L, T_L) of the log likelihood from the five product
    sums, each already divided by sigma_sq and scaled to the full batch."""
    alpha, beta = K_L / T_L, 1.0 / T_L
    # d/d(alpha) and d/d(beta) of -sum(r^2)/2 with r = j - alpha u + beta a
    g_alpha = s_ju - alpha * s_uu + beta * s_au
    g_beta = alpha * s_au - s_ja - beta * s_aa
    return g_alpha * beta, -(K_L * g_alpha + g_beta) * beta * beta


def grad_log_posterior(
    batch: ObservationBatch,
    theta,
    prior: GaussianPrior,
    sigma_sq: float,
    n_total: int | None = None,
) -> np.ndarray:
    """Analytic gradient of the log posterior in (K_L, T_L).

    When ``batch`` is a minibatch, ``n_total`` rescales the likelihood sum
    to the full-batch size.
    """
    K_L, T_L = theta
    if T_L <= 0:
        raise ValueError("T_L must be positive")
    scale = 1.0 if n_total is None else n_total / len(batch)
    sums = _products(batch).sum(axis=0) * (scale / sigma_sq)
    return prior.grad_log_density(theta) + np.array(
        _lik_grad(K_L, T_L, *sums.tolist()))


def _draw_minibatches(rng: np.random.Generator, n: int, k: int,
                      count: int) -> np.ndarray:
    """``count`` independent uniform k-subsets of range(n), one per column
    of the (k, count) result.

    Floyd's algorithm, vectorised over subsets: row c draws t uniformly
    from [0, n - k + c] and takes n - k + c instead where t is already
    among rows 0..c-1.  Memory is k x count, independent of n.
    """
    # floor(U * m) with a 53-bit U is uniform on range(m) to within m/2**53
    draws = (rng.random((k, count))
             * np.arange(n - k + 1, n + 1)[:, None]).astype(np.intp)
    for c in range(1, k):
        row = draws[c]
        row[(draws[:c] == row).any(axis=0)] = n - k + c
    return draws


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
) -> PosteriorEstimate:
    """Optimization-then-sampling over the window's posterior.

    The chain iterates in log-parameter space (positivity is structural;
    the log-volume term is included so retained samples follow the
    (K_L, T_L) posterior itself).  ``fix_lag`` freezes T_L at the given
    value and samples K_L only.  Deterministic given ``hyper.seed``.

    Minibatch gradients come from sums of the pre-scaled ``_products``;
    indices and noise are drawn ``_BLOCK`` iterations at a time, and the
    chain itself steps on plain floats.
    """
    rng = np.random.default_rng(hyper.seed)
    n_total = len(batch)
    n_mb = min(hyper.minibatch_n, n_total)
    # finite but huge observations overflow the sums; the resulting NaN
    # drift would slip past the max_drift clip and overflow exp()
    with np.errstate(over="ignore", invalid="ignore"):
        products = _products(batch) * (n_total / (n_mb * hyper.sigma_sq))
    if not np.isfinite(products).all():
        raise ValueError("observations too large: the likelihood sums overflow")
    full_sums = products.sum(axis=0).tolist() if n_mb == n_total else None

    m_K, m_T = (float(m) for m in prior.mean)
    var = prior.variance
    K = m_K if m_K > 0 else 1.0
    T = m_T if m_T > 0 else 0.3
    if fix_lag is not None:
        if fix_lag <= 0:
            raise ValueError("fix_lag must be positive")
        T = float(fix_lag)
    free_T = fix_lag is None
    phi_K, phi_T = math.log(K), math.log(T)

    burn, max_drift = hyper.burn_in_c, hyper.max_drift
    samples = np.empty((hyper.K_iters - burn, 2))
    for start in range(0, hyper.K_iters, _BLOCK):
        stop = min(start + _BLOCK, hyper.K_iters)
        etas = hyper.eta_1 / np.arange(start + 1, stop + 1)
        if full_sums is None:
            draws = _draw_minibatches(rng, n_total, n_mb, stop - start)
            sums = products[draws].sum(axis=0).tolist()
        else:
            sums = [full_sums] * (stop - start)
        noise = (rng.standard_normal((stop - start, 2))
                 * np.sqrt(etas)[:, None]).tolist()
        chain = []
        for eta, s, (z_K, z_T) in zip(etas.tolist(), sums, noise):
            g_K, g_T = _lik_grad(K, T, *s)
            # chain rule to log space plus the log-volume term of the transform
            d_K = 0.5 * eta * (K * ((m_K - K) / var + g_K) + 1.0)
            d_T = 0.5 * eta * (T * ((m_T - T) / var + g_T) + 1.0) if free_T else 0.0
            norm = math.hypot(d_K, d_T)
            if norm > max_drift:
                d_K *= max_drift / norm
                d_T *= max_drift / norm
            phi_K += d_K + z_K
            K = math.exp(phi_K)
            if free_T:
                phi_T += d_T + z_T
                T = math.exp(phi_T)
            chain.append((K, T))
        lo = max(start, burn)
        if lo < stop:
            samples[lo - burn:stop - burn] = chain[lo - start:]

    est = posterior_summary(samples)
    est.low_confidence = fix_lag is None and not _identifiability(batch)
    return est


def posterior_summary(samples: np.ndarray) -> PosteriorEstimate:
    """Empirical mean, covariance and central 95% intervals."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    mean = samples.mean(axis=0)
    cov = np.cov(samples, rowvar=False)
    lo = np.quantile(samples, 0.025, axis=0)
    hi = np.quantile(samples, 0.975, axis=0)
    return PosteriorEstimate(samples, mean, np.atleast_2d(cov),
                             np.column_stack([lo, hi]))


def update_prior(prev: PosteriorEstimate, lam: float) -> GaussianPrior:
    """Carry the previous posterior mean forward, resetting the variance
    to the regularization level ``lam``."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return GaussianPrior((float(prev.mean[0]), float(prev.mean[1])), lam)
