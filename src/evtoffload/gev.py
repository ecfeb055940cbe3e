"""Extreme-value statistics for worst-case transfer time and energy.

Block maxima of transfer-time and energy-per-bit samples are fitted with a
generalized extreme value (GEV) distribution; its upper quantile gives the
worst-case transfer budget and its mean the worst-case expected energy
coefficient.  Shape convention: xi > 0 heavy tail (Frechet), xi = 0 Gumbel,
xi < 0 bounded tail (Weibull).

numpy is bound through `lazy.lazy_numpy` and nothing here uses it at import
time (the series of `_log1p_ratios` is built on first use), so importing this
module runs no numpy code.
"""
from __future__ import annotations

import csv
import functools
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

from .energy import is_finite_number
from .lazy import lazy_numpy

np = lazy_numpy()

# Below this magnitude the Gumbel branch is used; avoids catastrophic
# cancellation of (1 - y**-xi)/xi near the Gumbel limit.
XI_ZERO_TOL = 1e-9

EULER_GAMMA = 0.5772156649015329  # float(numpy.euler_gamma)

TRACE_HEADER = [
    "t_ms",
    "queue_up_bits",
    "queue_down_bits",
    "rate_up_bps",
    "rate_down_bps",
    "power_up_mw",
    "power_down_mw",
]

# Suffixes by which numpy's path opener picks a decompressor (see
# `_read_trace_rows`).
_DECOMPRESSING_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


class DegenerateSampleError(ValueError):
    """All block maxima identical; the likelihood has no interior optimum."""


class FitConvergenceError(RuntimeError):
    """Likelihood search did not converge. Carries the best point found."""

    def __init__(self, message: str, params: "GevParams"):
        super().__init__(message)
        self.params = params


@dataclass(frozen=True)
class GevParams:
    """Location / scale / shape triple of one GEV distribution."""

    mu: float
    sigma: float
    xi: float

    def __post_init__(self):
        for name in ("mu", "sigma", "xi"):
            if not is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class SampleSet:
    """Raw nonnegative samples of one random quantity, e.g. transfer seconds."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("samples must be finite and nonnegative")
        object.__setattr__(self, "values", arr)


def block_maxima(samples: SampleSet, k: int) -> np.ndarray:
    """Maximum of each consecutive block of k samples; partial tail dropped."""
    if k < 1:
        raise ValueError(f"block size must be >= 1, got {k}")
    values = samples.values
    if len(values) < k:
        raise ValueError(f"need at least {k} samples, got {len(values)}")
    n_blocks = len(values) // k
    return values[: n_blocks * k].reshape(n_blocks, k).max(axis=1)


def gev_cdf(params: GevParams, z) -> float | np.ndarray:
    """G(z); outside the support returns 0 (left of it) or 1 (right of it)."""
    z = np.asarray(z, dtype=float)
    mu, sigma, xi = params.mu, params.sigma, params.xi
    t = (z - mu) / sigma
    if abs(xi) < XI_ZERO_TOL:
        out = np.exp(-np.exp(-t))
    else:
        s = 1.0 + xi * t
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.where(s > 0, np.exp(-np.power(np.maximum(s, 1e-300), -1.0 / xi)), np.nan)
        out = np.where(s > 0, out, 0.0 if xi > 0 else 1.0)
    return float(out) if out.ndim == 0 else out


def gev_quantile(params: GevParams, eps_m: float) -> float:
    """Value exceeded with probability eps_m: Pr(Z >= z) = eps_m; +-inf when
    it lies beyond float range."""
    if not 0.0 < eps_m < 1.0:
        raise ValueError(f"eps_m must lie in (0, 1), got {eps_m}")
    # y = -log(1 - eps_m), computed without cancellation for small eps_m
    y = -math.log1p(-eps_m)
    mu, sigma, xi = params.mu, params.sigma, params.xi
    if abs(xi) < XI_ZERO_TOL:
        return mu - sigma * math.log(y)
    # mu - (sigma/xi) * (1 - y**-xi)  ==  mu + (sigma/xi) * expm1(-xi*log(y))
    try:
        return mu + sigma / xi * math.expm1(-xi * math.log(y))
    except OverflowError:  # beyond float range, on the side sigma / xi points to
        return math.copysign(math.inf, xi)


def gev_mean(params: GevParams) -> float:
    """E[Z]; +inf when xi >= 1 (the heavy-tail mean diverges), -inf below float range."""
    mu, sigma, xi = params.mu, params.sigma, params.xi
    if xi >= 1.0:
        return math.inf
    if abs(xi) < XI_ZERO_TOL:
        return mu + sigma * EULER_GAMMA
    try:
        return mu + sigma * (math.gamma(1.0 - xi) - 1.0) / xi
    except OverflowError:  # Gamma(1 - xi) beyond float range, so xi < -170
        return -math.inf


def gev_sample(params: GevParams, rng: np.random.Generator, size: int | None = None):
    """Inverse-transform draw(s); deterministic given the generator state."""
    u = rng.random(size)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    y = -np.log(u)
    mu, sigma, xi = params.mu, params.sigma, params.xi
    if abs(xi) < XI_ZERO_TOL:
        z = mu - sigma * np.log(y)
    else:
        z = mu + sigma / xi * np.expm1(-xi * np.log(y))
    return float(z) if size is None else z


def gev_neg_log_likelihood(theta, maxima: np.ndarray) -> float:
    """NLL of (mu, sigma, xi) given block maxima; +inf outside the support."""
    mu, sigma, xi = theta
    if sigma <= 0:
        return math.inf
    t = (maxima - mu) / sigma
    n = len(maxima)
    if abs(xi) < XI_ZERO_TOL:
        return n * math.log(sigma) + float(np.sum(t)) + float(np.sum(np.exp(-t)))
    s = 1.0 + xi * t
    if np.any(s <= 0):
        return math.inf
    log_s = np.log(s)
    return (
        n * math.log(sigma)
        + (1.0 + 1.0 / xi) * float(np.sum(log_s))
        + float(np.sum(np.exp(-log_s / xi)))
    )


def pwm_start(maxima: np.ndarray) -> tuple[float, float, float]:
    """Probability-weighted-moment estimates (Hosking), used to seed the MLE."""
    x = np.sort(np.asarray(maxima, dtype=float))
    n = len(x)
    j = np.arange(1, n + 1)
    b0 = x.mean()
    b1 = float(np.sum((j - 1) / (n - 1) * x)) / n
    b2 = float(np.sum((j - 1) * (j - 2) / ((n - 1) * (n - 2)) * x)) / n
    l1 = b0
    l2 = 2 * b1 - b0
    l3 = 6 * b2 - 6 * b1 + b0
    if l2 <= 0:
        return _gumbel_moments(x)
    t3 = l3 / l2
    c = 2.0 / (3.0 + t3) - math.log(2) / math.log(3)
    k = 7.8590 * c + 2.9554 * c * c  # Hosking's approximation; xi = -k
    if abs(k) < 1e-8:
        return _gumbel_moments(x)
    sigma = l2 * k / ((1 - 2.0 ** (-k)) * math.gamma(1 + k))
    mu = l1 - sigma * (1 - math.gamma(1 + k)) / k
    if not (math.isfinite(sigma) and sigma > 0 and math.isfinite(mu)):
        return _gumbel_moments(x)
    return mu, sigma, -k


def _gumbel_moments(x: np.ndarray) -> tuple[float, float, float]:
    sigma = max(float(np.std(x)) * math.sqrt(6.0) / math.pi, 1e-12)
    mu = float(np.mean(x)) - EULER_GAMMA * sigma
    return mu, sigma, 0.0


@functools.cache
def _ratio_series() -> tuple[np.ndarray, np.ndarray]:
    """Powers k = 0..5 and the Taylor coefficients of u**k of `_log1p_ratios`'
    three functions; built on first use, so that importing gev runs no numpy."""
    k = np.arange(6.0)
    return k, (-1.0) ** k * np.array([1 / (k + 1), -(k + 1) / (k + 2), (k + 1) * (k + 2) / (k + 3)])


def _log1p_ratios(u: np.ndarray) -> np.ndarray:
    """Rows l(u) = log1p(u)/u, g(u) = (1/(1+u) - l)/u and (-1/(1+u)**2 - 2g)/u.

    Below |u| = 1e-3, where the divisions cancel, they are summed from their
    Taylor series instead (truncation error below 1e-17).
    """
    small = np.abs(u) < 1e-3
    v = np.where(small, 1.0, u)
    inv = 1.0 / (1.0 + v)
    log_ratio = np.log1p(v) / v
    g = (inv - log_ratio) / v
    out = np.array([log_ratio, g, (-inv * inv - 2.0 * g) / v])
    k, series = _ratio_series()
    out[:, small] = series @ u[small] ** k[:, None]
    return out


def _nll_derivatives(theta: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """GEV negative log-likelihood at theta = (mu, log sigma, xi), with its
    gradient and Hessian; the likelihood is +inf outside the support.

    With y = (x - mu)/sigma and r = log1p(xi*y)/xi, each maximum contributes
    log sigma + (1 + xi)*r + exp(-r), and the derivatives follow from r's.
    """
    mu, log_sigma, xi = theta
    n = len(x)
    with np.errstate(all="ignore"):
        sigma = np.exp(log_sigma)
        y = (x - mu) / sigma
        u = xi * y
        if not np.all(u > -1.0):
            return math.inf, None, None
        log_ratio, g, g2 = _log1p_ratios(u)
        r = y * log_ratio
        e = np.exp(-r)
        f = n * log_sigma + (1.0 + xi) * r.sum() + e.sum()
        inv = 1.0 / (1.0 + u)
        q = inv * inv
        # r's gradient (rows), then the Hessian of the sum.
        dr = np.array([-inv / sigma, -y * inv, y * y * g])
        a = 1.0 + xi - e
        qa, qay = q * a, q * a * y
        s0, s1, s2 = qa.sum(), qay.sum(), (qay * y).sum()
        hess = (dr * e) @ dr.T + np.array([
            [-xi * s0 / sigma**2, s0 / sigma, s1 / sigma],
            [s0 / sigma, s1, s2],
            [s1 / sigma, s2, a @ (y**3 * g2)],
        ])
        dr_sum = dr.sum(axis=1)
        hess[2] += dr_sum
        hess[:, 2] += dr_sum
        grad = dr @ a + np.array([0.0, n, r.sum()])
    if not (np.isfinite(f) and np.isfinite(hess).all() and np.isfinite(grad).all()):
        return math.inf, None, None
    return float(f), grad, hess


def _mle_start(x: np.ndarray) -> np.ndarray:
    """The fit's start (mu, log sigma, xi): the PWM estimates, with the shape
    pulled towards 0 until every maximum lies in the support."""
    mu, sigma, xi = pwm_start(x)
    for _ in range(60):
        if math.isfinite(gev_neg_log_likelihood((mu, sigma, xi), x)):
            return np.array([mu, math.log(sigma), xi])
        xi *= 0.5
        if abs(xi) < 1e-6:
            break
    mu, sigma, xi = _gumbel_moments(x)
    return np.array([mu, math.log(sigma), xi])


def fit_gev_mle(maxima: np.ndarray, max_iter: int = 2000) -> GevParams:
    """Maximum-likelihood GEV fit by a damped Newton search from a PWM start.

    The search runs on (mu, log sigma, xi) with the likelihood's analytic
    gradient and Hessian.  Each step goes along the Hessian with its
    eigenvalues replaced by their absolute values, so it descends also where
    the likelihood is not convex, and is halved until the point lies in the
    support and the likelihood does not rise.  The search stops when the
    step's predicted decrease falls below 1e-10 of the likelihood's
    magnitude, or after max_iter steps.  It gives up at once when it reaches
    xi < -1 with the upper endpoint mu - sigma/xi on the sample maximum,
    where the likelihood is unbounded.

    Deterministic.  Raises DegenerateSampleError for constant input and
    FitConvergenceError (carrying the best point found) if the search does
    not converge within max_iter steps, no halving of a step lowers the
    likelihood, or the likelihood is unbounded.
    """
    x = np.asarray(maxima, dtype=float)
    if len(x) < 10:
        raise ValueError(f"need at least 10 block maxima, got {len(x)}")
    x_max = float(np.max(x))
    if x_max == float(np.min(x)):
        raise DegenerateSampleError("all block maxima are identical")

    theta = _mle_start(x)
    f, grad, hess = _nll_derivatives(theta, x)
    converged = unbounded = False
    for _ in range(max_iter):
        w, v = np.linalg.eigh(hess)
        step = -v @ ((v.T @ grad) / np.abs(w))
        # A step that promises this little is the last one taken.
        converged = -grad @ step <= 1e-10 * abs(f)
        t = 1.0
        for _ in range(60):
            trial = _nll_derivatives(theta + t * step, x)
            if trial[0] <= f:
                break
            t *= 0.5
        else:
            break
        theta = theta + t * step
        f, grad, hess = trial
        if converged:
            break
        # Below xi = -1 the density grows without bound at the upper
        # endpoint mu - sigma/xi, so once that endpoint sits on the sample
        # maximum (to rounding) no step count converges.
        unbounded = theta[2] < -1.0 and theta[0] - math.exp(theta[1]) / theta[2] <= x_max
        if unbounded:
            break
    mu, sigma, xi = float(theta[0]), math.exp(theta[1]), float(theta[2])
    if abs(xi) < XI_ZERO_TOL:
        xi = 0.0
    params = GevParams(mu=mu, sigma=max(sigma, 1e-300), xi=xi)
    if unbounded:
        raise FitConvergenceError(
            f"likelihood is unbounded for xi < -1: the search reached xi = {xi} "
            f"with the upper endpoint on the sample maximum {x_max}", params
        )
    if not converged:
        raise FitConvergenceError(
            f"likelihood search did not converge (at most {max_iter} Newton steps)", params
        )
    return params


def load_trace_samples(path: str | Path, payload_bits: float) -> dict[str, SampleSet]:
    """Read a trace CSV into the four sample sets used for fitting.

    Row-wise: v_up = (queue_up + payload)/rate_up, v_down likewise on the
    downlink (seconds), j = power_up/rate_up, h = power_down/rate_down
    (mW*s/bit).  The samples
    are derived in place, in the queue and power columns of the table read.
    """
    rows = _read_trace_rows(path)
    q_up = rows["queue_up_bits"]
    q_dn = rows["queue_down_bits"]
    r_up = rows["rate_up_bps"]
    r_dn = rows["rate_down_bps"]
    p_up = rows["power_up_mw"]
    p_dn = rows["power_down_mw"]
    if np.any(r_up <= 0) or np.any(r_dn <= 0):
        raise ValueError("trace rates must be positive")
    for queue, power, rate in ((q_up, p_up, r_up), (q_dn, p_dn, r_dn)):
        queue += payload_bits
        queue /= rate
        power /= rate
    return {
        "v_up": SampleSet(q_up),
        "v_down": SampleSet(q_dn),
        "j": SampleSet(p_up),
        "h": SampleSet(p_dn),
    }


def _read_trace_rows(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of a trace CSV by header name; blank lines are skipped.

    Raises ValueError for a wrong header, a row with the wrong number of
    fields or a cell that is not a number.
    """
    absolute = os.path.abspath(path)
    with open(absolute) as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header != TRACE_HEADER:
            raise ValueError(f"trace CSV header must be {','.join(TRACE_HEADER)}")
        # Given a str path, np.loadtxt's C reader reads the file in large
        # chunks; given a handle, it reads one Python line at a time.  Its
        # path opener decompresses by suffix and fetches URL-like names, so
        # only an absolute path (never URL-like) without such a suffix goes
        # by name; both ways parse the same text.
        if absolute.lower().endswith(_DECOMPRESSING_SUFFIXES):
            source, skip = fh, 0
        else:
            source, skip = absolute, 1
        # Seven numbers and their line end take at least 14 bytes, so a file
        # holds more rows than this only after a shorter row, which numpy
        # rejects.  Given the bound, numpy allocates the table once (only the
        # pages it fills become resident) instead of growing it by copies
        # whose freed space the heap keeps after the fit.
        max_rows = os.fstat(fh.fileno()).st_size // 14 + 1
        with warnings.catch_warnings():
            # A header-only file is an empty table, not a malformed one, and
            # blank lines are skipped, which numpy notes once `max_rows` is set.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data", UserWarning)
            table = np.loadtxt(
                source, delimiter=",", ndmin=2, comments=None, skiprows=skip, max_rows=max_rows
            )
    if table.size == 0:
        table = np.empty((0, len(TRACE_HEADER)))
    if table.shape[1] != len(TRACE_HEADER):
        raise ValueError(f"trace row has {table.shape[1]} fields, expected {len(TRACE_HEADER)}")
    return {name: table[:, i] for i, name in enumerate(TRACE_HEADER)}
