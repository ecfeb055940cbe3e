"""Extreme-value statistics for worst-case transfer time and energy.

Block maxima of transfer-time and energy-per-bit samples are fitted with a
generalized extreme value (GEV) distribution; its upper quantile gives the
worst-case transfer budget and its mean the worst-case expected energy
coefficient.  Shape convention: xi > 0 heavy tail (Frechet), xi = 0 Gumbel,
xi < 0 bounded tail (Weibull).
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.special import gamma as gamma_fn

from .energy import is_finite_number

# Below this magnitude the Gumbel branch is used; avoids catastrophic
# cancellation of (1 - y**-xi)/xi near the Gumbel limit.
XI_ZERO_TOL = 1e-9

EULER_GAMMA = float(np.euler_gamma)

TRACE_HEADER = [
    "t_ms",
    "queue_up_bits",
    "queue_down_bits",
    "rate_up_bps",
    "rate_down_bps",
    "power_up_mw",
    "power_down_mw",
]


class DegenerateSampleError(ValueError):
    """All block maxima identical; the likelihood has no interior optimum."""


class FitConvergenceError(RuntimeError):
    """Simplex search hit its iteration cap. Carries the best point found."""

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
    unit: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("samples must be finite and nonnegative")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class BlockMaxima:
    maxima: np.ndarray
    block_size: int


def block_maxima(samples: SampleSet, k: int) -> BlockMaxima:
    """Maximum of each consecutive block of k samples; partial tail dropped."""
    if k < 1:
        raise ValueError(f"block size must be >= 1, got {k}")
    values = samples.values
    if len(values) < k:
        raise ValueError(f"need at least {k} samples, got {len(values)}")
    n_blocks = len(values) // k
    maxima = values[: n_blocks * k].reshape(n_blocks, k).max(axis=1)
    return BlockMaxima(maxima=maxima, block_size=k)


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
    """Value exceeded with probability eps_m: Pr(Z >= z) = eps_m."""
    if not 0.0 < eps_m < 1.0:
        raise ValueError(f"eps_m must lie in (0, 1), got {eps_m}")
    # y = -log(1 - eps_m), computed without cancellation for small eps_m
    y = -math.log1p(-eps_m)
    mu, sigma, xi = params.mu, params.sigma, params.xi
    if abs(xi) < XI_ZERO_TOL:
        return mu - sigma * math.log(y)
    # mu - (sigma/xi) * (1 - y**-xi)  ==  mu + (sigma/xi) * expm1(-xi*log(y))
    return mu + sigma / xi * math.expm1(-xi * math.log(y))


def gev_mean(params: GevParams) -> float:
    """E[Z]; +inf when xi >= 1 (the heavy-tail mean diverges)."""
    mu, sigma, xi = params.mu, params.sigma, params.xi
    if xi >= 1.0:
        return math.inf
    if abs(xi) < XI_ZERO_TOL:
        return mu + sigma * EULER_GAMMA
    return mu + sigma * (gamma_fn(1.0 - xi) - 1.0) / xi


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
    sigma = l2 * k / ((1 - 2.0 ** (-k)) * gamma_fn(1 + k))
    mu = l1 - sigma * (1 - gamma_fn(1 + k)) / k
    if not (math.isfinite(sigma) and sigma > 0 and math.isfinite(mu)):
        return _gumbel_moments(x)
    return mu, sigma, -k


def _gumbel_moments(x: np.ndarray) -> tuple[float, float, float]:
    sigma = max(float(np.std(x)) * math.sqrt(6.0) / math.pi, 1e-12)
    mu = float(np.mean(x)) - EULER_GAMMA * sigma
    return mu, sigma, 0.0


def fit_gev_mle(maxima: BlockMaxima, max_iter: int = 2000) -> GevParams:
    """Maximum-likelihood GEV fit via Nelder-Mead from a PWM start.

    Deterministic.  Raises DegenerateSampleError for constant input and
    FitConvergenceError (carrying the best point) if the simplex search
    does not converge within max_iter iterations.
    """
    x = np.asarray(maxima.maxima, dtype=float)
    if len(x) < 10:
        raise ValueError(f"need at least 10 block maxima, got {len(x)}")
    if float(np.max(x)) == float(np.min(x)):
        raise DegenerateSampleError("all block maxima are identical")

    theta0 = list(pwm_start(x))
    # Pull the start inside the support if the PWM shape overshoots.
    for _ in range(60):
        if math.isfinite(gev_neg_log_likelihood(theta0, x)):
            break
        theta0[2] *= 0.5
        if abs(theta0[2]) < 1e-6:
            theta0 = list(_gumbel_moments(x))
            break

    res = minimize(
        gev_neg_log_likelihood,
        np.array(theta0),
        args=(x,),
        method="Nelder-Mead",
        options={"maxiter": max_iter, "maxfev": 4 * max_iter, "xatol": 1e-8, "fatol": 1e-12},
    )
    mu, sigma, xi = (float(v) for v in res.x)
    if abs(xi) < XI_ZERO_TOL:
        xi = 0.0
    params = GevParams(mu=mu, sigma=max(sigma, 1e-300), xi=xi)
    if not res.success:
        raise FitConvergenceError(f"simplex search did not converge: {res.message}", params)
    return params


def load_trace_samples(path: str | Path, payload_bits: float) -> dict[str, SampleSet]:
    """Read a trace CSV into the four sample sets used for fitting.

    Row-wise: v_up = (queue_up + payload)/rate_up, v_down likewise on the
    downlink, j = power_up/rate_up, h = power_down/rate_down.
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
    return {
        "v_up": SampleSet((q_up + payload_bits) / r_up, unit="s"),
        "v_down": SampleSet((q_dn + payload_bits) / r_dn, unit="s"),
        "j": SampleSet(p_up / r_up, unit="mW*s/bit"),
        "h": SampleSet(p_dn / r_dn, unit="mW*s/bit"),
    }


def _read_trace_rows(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of a trace CSV by header name; blank lines are skipped.

    Raises ValueError for a wrong header, a row with the wrong number of
    fields or a cell that is not a number.
    """
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header != TRACE_HEADER:
            raise ValueError(f"trace CSV header must be {','.join(TRACE_HEADER)}")
        with warnings.catch_warnings():
            # A header-only file is an empty table, not a malformed one.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    if table.size == 0:
        table = np.empty((0, len(TRACE_HEADER)))
    if table.shape[1] != len(TRACE_HEADER):
        raise ValueError(f"trace row has {table.shape[1]} fields, expected {len(TRACE_HEADER)}")
    return {name: table[:, i] for i, name in enumerate(TRACE_HEADER)}
