"""Online Bayesian estimation of the actuation dynamics parameters
(K_L, T_L) from windowed (accel, demand, jerk) observations.

Each window is reduced to its sample count and six sums of products.
From them, damped Newton finds the posterior mode, and a Langevin chain
preconditioned by the inverse curvature at that mode walks around it;
post-burn-in iterates are kept as posterior samples.  Each window's
posterior mean seeds the next window's prior (variance reset to a tunable
regularization level), so history enters only through the prior.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

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

# Iterations whose Langevin noise is turned into Python floats, and whose
# iterates are kept as Python floats, at a time (the noise array itself is
# whole).
_CHUNK = 256
# The step of the whole-window chain, in units of the metric at the mode.
# With the noise scaled by sqrt(h (2 - h)) the step keeps a Gaussian
# posterior's variance exactly; h sets only how fast the chain mixes.
_H = 0.2
# Damped Newton's iteration cap, the longest step it tries in log-parameter
# space, and the Newton decrement at which it stops.
_NEWTON_ITERS = 100
_NEWTON_STEP = 1.0
_NEWTON_TOL = 1e-10

# the standard normal's two-sided 95 % point, for an unsampled window's
# credible bounds (the prior's own central interval)
_Z95 = 1.959964


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
        # the mode search and the chain divide by it
        if 1.0 / self.variance == math.inf:
            raise ValueError(f"prior.variance = {self.variance:g} is too small: "
                             "its reciprocal overflows")
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
    """Sampler settings.  Iterates after ``burn_in`` are retained as
    posterior samples.  The chain always steps on the whole window.

    ``eta_1`` is accepted, for callers that still pass it, and has no
    effect.  ``minibatch_n`` may be None (the default) or at least the
    window's sample count, both meaning the whole window; `sgld_run`
    rejects a smaller one."""

    eta_1: InitVar[float | None] = None
    K_iters: int = 1000
    burn_in_c: int | None = None  # default: 60% of K_iters
    minibatch_n: int | None = None
    sigma_sq: float = 0.01
    seed: int = 0

    def __post_init__(self, eta_1):
        if not 0 < self.burn_in <= self.K_iters - 2:
            raise ValueError("sgld.burn_in_c (by default 60 % of sgld.K_iters) "
                             "must lie in [1, sgld.K_iters - 2], so that the "
                             "chain keeps at least 2 samples")
        if not self.sigma_sq > 0:
            raise ValueError("sigma_sq must be positive")
        if 1.0 / self.sigma_sq == math.inf:  # the window's sums are scaled by it
            raise ValueError(f"sgld.sigma_sq = {self.sigma_sq:g} is too small: "
                             "its reciprocal overflows")

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


@dataclass(frozen=True)
class _WindowStats:
    """A window's sample count and its six sums of products, each divided
    by ``sigma_sq``.  The model jerk ``(K_L u - a)/T_L`` is linear in
    ``(alpha, beta) = (K_L/T_L, 1/T_L)``, so the residual ``r = j - alpha u
    + beta a`` gives the exact log likelihood, its gradient and curvature
    from these sums alone."""

    n: int
    jj: float
    ju: float
    uu: float
    au: float
    ja: float
    aa: float

    def log_likelihood(self, K_L: float, T_L: float) -> float:
        """``-sum(r^2) / (2 sigma_sq)``."""
        alpha, beta = K_L / T_L, 1.0 / T_L
        return -0.5 * (self.jj - 2.0 * alpha * self.ju + 2.0 * beta * self.ja
                       + alpha * alpha * self.uu - 2.0 * alpha * beta * self.au
                       + beta * beta * self.aa)

    def slopes(self, alpha: float, beta: float) -> tuple[float, float]:
        """The log likelihood's gradient in ``(alpha, beta)``."""
        return (self.ju - alpha * self.uu + beta * self.au,
                alpha * self.au - self.ja - beta * self.aa)


def _window_stats(batch: ObservationBatch, sigma_sq: float) -> _WindowStats:
    """The batch's `_WindowStats`.  Observations so large, or a
    ``sigma_sq`` so small, that a sum overflows raise ``ValueError``."""
    a, u, j = batch.accel, batch.demand, batch.jerk
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.column_stack([j * j, j * u, u * u, a * u, j * a, a * a])
        sums = products.sum(axis=0) * (1.0 / sigma_sq)
    if not np.isfinite(sums).all():
        raise ValueError(f"observations too large for the scale sgld.sigma_sq = "
                         f"{sigma_sq:g}: the likelihood sums overflow")
    return _WindowStats(len(batch), *sums.tolist())


def log_posterior(
    batch: ObservationBatch, theta, prior: GaussianPrior, sigma_sq: float
) -> float:
    """Log prior plus full-batch Gaussian log likelihood (additive jerk
    noise with variance sigma_sq), from the batch's `_WindowStats`."""
    K_L, T_L = theta
    if T_L <= 0:
        raise ValueError("T_L must be positive")
    stats = _window_stats(batch, sigma_sq)
    return (prior.log_density(theta) - 0.5 * stats.n * math.log(sigma_sq)
            + stats.log_likelihood(K_L, T_L))


def grad_log_posterior(
    batch: ObservationBatch,
    theta,
    prior: GaussianPrior,
    sigma_sq: float,
) -> np.ndarray:
    """Analytic gradient of the log posterior in (K_L, T_L), from the
    batch's `_WindowStats`, as the sampler computes it."""
    K_L, T_L = theta
    if T_L <= 0:
        raise ValueError("T_L must be positive")
    alpha, beta = K_L / T_L, 1.0 / T_L
    g_alpha, g_beta = _window_stats(batch, sigma_sq).slopes(alpha, beta)
    # the chain rule through alpha = K_L / T_L and beta = 1 / T_L
    g_lik = g_alpha * beta, -(K_L * g_alpha + g_beta) * beta * beta
    return prior.grad_log_density(theta) + np.array(g_lik)


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


def _log_target(stats: _WindowStats, prior: GaussianPrior, x: float, y: float):
    """The log posterior of ``(x, y) = (log K_L, log T_L)``, the log-volume
    term ``x + y`` included and the normalizing constants left out, with
    its gradient ``(g_x, g_y)`` and the entries ``(a, b, c)`` of minus its
    Hessian ``[[a, b], [b, c]]``.  Overflow raises ``OverflowError`` and an
    underflowed T_L ``ZeroDivisionError``."""
    K, T = math.exp(x), math.exp(y)
    alpha, beta = K / T, 1.0 / T
    (m_K, m_T), var = prior.mean, prior.variance
    g_alpha, g_beta = stats.slopes(alpha, beta)
    # dr/dx = -alpha u and dr/dy = alpha u - beta a; the chain rule through
    # K = e^x and T = e^y gives the likelihood's terms
    lik_x = g_alpha * alpha
    lik_y = -g_alpha * alpha - g_beta * beta
    f = (stats.log_likelihood(K, T)
         - ((K - m_K) ** 2 + (T - m_T) ** 2) / (2.0 * var) + x + y)
    g_x = lik_x + K * (m_K - K) / var + 1.0
    g_y = lik_y + T * (m_T - T) / var + 1.0
    a = alpha * alpha * stats.uu - lik_x - K * (m_K - 2.0 * K) / var
    b = lik_x - alpha * (alpha * stats.uu - beta * stats.au)
    c = (alpha * alpha * stats.uu - 2.0 * alpha * beta * stats.au
         + beta * beta * stats.aa + lik_y - T * (m_T - 2.0 * T) / var)
    return f, g_x, g_y, a, b, c


def _start(stats: _WindowStats, prior: GaussianPrior, fix_lag: float | None):
    """The least-squares (K_L, T_L) of the window's normal equations in
    ``(alpha, beta)``, or with ``fix_lag`` the least-squares K_L at that
    lag; where that gives no positive pair, the prior mean (1.0 and 0.3 in
    place of a non-positive entry)."""
    m_K, m_T = (float(m) for m in prior.mean)
    K, T = (m_K if m_K > 0 else 1.0), (m_T if m_T > 0 else 0.3)
    s = stats
    if fix_lag is None:
        det = s.uu * s.aa - s.au * s.au
        alpha = (s.aa * s.ju - s.au * s.ja) / det if det else 0.0
        beta = (s.au * s.ju - s.uu * s.ja) / det if det else 0.0
        if alpha > 0 and beta > 0 and math.isfinite(alpha / beta):
            return alpha / beta, 1.0 / beta
        return K, T
    T = float(fix_lag)
    K_ls = (s.ju + s.au / T) * T / s.uu if s.uu else 0.0
    return (K_ls if 0 < K_ls < math.inf else K), T


def _mode(stats: _WindowStats, prior: GaussianPrior, K: float, T: float,
          free_T: bool):
    """Damped Newton ascent of `_log_target` from (K, T), in T_L too only
    when ``free_T``: Newton's direction where minus the Hessian is positive
    definite and the gradient's elsewhere, at most ``_NEWTON_STEP`` long,
    halved until it gains.  Returns the mode ``(x, y)`` with minus the
    Hessian's ``(a, b, c)`` there, or None where the search ends without a
    finite, positive-definite curvature."""
    x, y = math.log(K), math.log(T)
    try:
        point = _log_target(stats, prior, x, y)
    except (OverflowError, ZeroDivisionError):
        return None
    for _ in range(_NEWTON_ITERS):
        f, g_x, g_y, a, b, c = point
        if not free_T:
            g_y, b, c = 0.0, 0.0, 1.0
        det = a * c - b * b
        if a > 0 and det > 0:
            d_x, d_y = (c * g_x - b * g_y) / det, (a * g_y - b * g_x) / det
        else:
            d_x, d_y = g_x, g_y
        gain = g_x * d_x + g_y * d_y  # the Newton decrement, where it applies
        if not gain > _NEWTON_TOL:
            break
        t = min(1.0, _NEWTON_STEP / math.hypot(d_x, d_y))
        while t > 1e-12:
            try:
                trial = _log_target(stats, prior, x + t * d_x, y + t * d_y)
            except (OverflowError, ZeroDivisionError):
                trial = None
            if trial is not None and trial[0] >= f + 1e-4 * t * gain:
                break
            t *= 0.5
        else:
            break  # no gain left within rounding
        x, y, point = x + t * d_x, y + t * d_y, trial
    _, _, _, a, b, c = point
    if not free_T:
        b, c = 0.0, 1.0
    if not (all(map(math.isfinite, point)) and a > 0 and a * c - b * b > 0):
        return None
    return x, y, a, b, c


def sgld_run(
    batch: ObservationBatch,
    prior: GaussianPrior,
    hyper: SgldHyper,
    fix_lag: float | None = None,
) -> PosteriorEstimate:
    """Sample the window's posterior with a Langevin chain preconditioned
    at its mode.

    The chain iterates in ``phi = (log K_L, log T_L)`` (positivity is
    structural; the log-volume term is included so retained samples follow
    the (K_L, T_L) posterior itself).  It starts at the mode that `_mode`
    finds from the least-squares point (`_start`), and steps
    ``phi += h M grad + sqrt(h (2 - h)) L z`` on the whole window's sums,
    where ``h`` is ``_H``, ``M`` is the inverse of minus the Hessian at the
    mode, ``L`` its Cholesky factor and ``z`` standard normal.  ``fix_lag``
    freezes T_L at the given value and samples K_L only.  Deterministic
    given ``hyper.seed``: the noise is one draw.  A ``hyper.minibatch_n``
    below the window's sample count raises ``ValueError``.

    A window is not sampled, and the estimate is the prior itself (see
    `_prior_estimate`), flagged ``low_confidence``, when it lacks the
    excitation to identify both parameters (see `_identifiability`; only
    when ``fix_lag`` is None), when the mode search finds no
    positive-definite curvature, or when the chain leaves the positive
    floats (K_L or T_L overflows, underflows to 0 or turns NaN).
    """
    free_T = fix_lag is None
    if not (free_T or 0 < fix_lag < math.inf):
        raise ValueError("fix_lag must be positive and finite")
    if hyper.minibatch_n is not None and hyper.minibatch_n < len(batch):
        raise ValueError(f"minibatch_n {hyper.minibatch_n} is below the window's "
                         f"{len(batch)} samples; the chain steps on the whole window")
    # checked on a window that is not sampled too, so that overflowing
    # observations are an error whatever their excitation
    stats = _window_stats(batch, hyper.sigma_sq)
    if free_T and not _identifiability(batch):
        return _prior_estimate(prior)
    mode = _mode(stats, prior, *_start(stats, prior, fix_lag), free_T)
    if mode is None:
        return _prior_estimate(prior)
    phi_K, phi_T, a, b, c = mode

    # M = [[a, b], [b, c]]^-1 and its Cholesky factor, scaled by the step
    # and by the noise's sqrt(h (2 - h))
    h = _H
    det = a * c - b * b
    s = math.sqrt(h * (2.0 - h))
    hm_KK, hm_KT, hm_TT = h * c / det, -h * b / det, h * a / det
    l_KK, l_TK, l_TT = (s * math.sqrt(c / det), -s * b / math.sqrt(c * det),
                        s / math.sqrt(c))
    s_ju, s_uu, s_au, s_ja, s_aa = stats.ju, stats.uu, stats.au, stats.ja, stats.aa

    rng = np.random.default_rng(hyper.seed)
    normals = rng.standard_normal((hyper.K_iters, 2 if free_T else 1))
    m_K, m_T = (float(m) for m in prior.mean)
    inv_var = 1.0 / prior.variance
    K, T = math.exp(phi_K), (math.exp(phi_T) if free_T else float(fix_lag))
    burn = hyper.burn_in
    samples = np.empty((hyper.K_iters - burn, 2))
    exp = math.exp
    try:
        for start in range(0, hyper.K_iters, _CHUNK):
            chunk = normals[start:start + _CHUNK]
            m = len(chunk)
            flat = []  # the chunk's iterates as K, T, K, T, ...
            for z_K, z_T in zip(chunk[:, 0].tolist(), chunk[:, -1].tolist()):
                # `_WindowStats.slopes` and `_log_target`'s chain rule,
                # inlined, plus the prior's and the log-volume term
                alpha, beta = K / T, 1.0 / T
                g_alpha = s_ju - alpha * s_uu + beta * s_au
                lik_x = g_alpha * alpha
                g_x = lik_x + K * (m_K - K) * inv_var + 1.0
                if free_T:
                    g_beta = alpha * s_au - s_ja - beta * s_aa
                    g_y = T * (m_T - T) * inv_var + 1.0 - lik_x - g_beta * beta
                    phi_K += hm_KK * g_x + hm_KT * g_y + l_KK * z_K
                    phi_T += hm_KT * g_x + hm_TT * g_y + l_TK * z_K + l_TT * z_T
                    T = exp(phi_T)
                else:
                    phi_K += hm_KK * g_x + l_KK * z_K
                K = exp(phi_K)
                flat.append(K)
                flat.append(T)
            lo = max(start, burn)
            if lo < start + m:
                samples[lo - burn:start + m - burn].reshape(-1)[:] = flat[2 * (lo - start):]
    except (OverflowError, ZeroDivisionError):
        # exp() overflowed, or T_L underflowed to 0 and K / T divided by it
        return _prior_estimate(prior)
    # a chain that underflowed to 0 or went NaN raises nothing on the way
    if not (np.isfinite(samples).all() and (samples > 0).all()):
        return _prior_estimate(prior)

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
