import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize

from evtoffload.gev import (
    DegenerateSampleError,
    GevParams,
    SampleSet,
    _mle_start,
    _nll_derivatives,
    block_maxima,
    fit_gev_mle,
    gev_cdf,
    gev_mean,
    gev_neg_log_likelihood,
    gev_quantile,
    gev_sample,
    load_trace_samples,
    pwm_start,
)

EULER_GAMMA = 0.5772156649015329


# --- block maxima -----------------------------------------------------------

def test_block_maxima_direct():
    maxima = block_maxima(SampleSet(np.array([1.0, 5, 3, 2, 4, 6])), 3)
    assert maxima.tolist() == [5.0, 6.0]


def test_block_maxima_k1_identity():
    values = np.array([3.0, 1.0, 4.0])
    maxima = block_maxima(SampleSet(values), 1)
    assert maxima.tolist() == values.tolist()


def test_block_maxima_truncates_partial_block():
    maxima = block_maxima(SampleSet(np.arange(7.0)), 3)
    assert len(maxima) == 2


@pytest.mark.parametrize("k,count", [(0, 5), (6, 5)])
def test_block_maxima_bad_input(k, count):
    with pytest.raises(ValueError):
        block_maxima(SampleSet(np.arange(float(count))), k)


# --- closed forms -----------------------------------------------------------

def test_gumbel_quantile_at_special_eps():
    eps = 1.0 - math.exp(-1.0)
    assert gev_quantile(GevParams(0, 1, 0), eps) == pytest.approx(0.0, abs=1e-12)


def test_frechet_quantile_at_special_eps():
    eps = 1.0 - math.exp(-1.0)
    assert gev_quantile(GevParams(0, 1, 1), eps) == pytest.approx(0.0, abs=1e-12)


def test_gumbel_quantile_at_ten_percent():
    # Independent oracle: numerically invert the CDF.
    z = gev_quantile(GevParams(0, 1, 0), 0.1)
    root = brentq(lambda x: gev_cdf(GevParams(0, 1, 0), x) - 0.9, -10, 20, xtol=1e-12)
    assert z == pytest.approx(root, abs=1e-9)
    assert z == pytest.approx(2.250367, abs=1e-6)


def test_quantile_beyond_float_range_is_infinite():
    assert gev_quantile(GevParams(0.1, 0.01, 200.0), 0.01) == math.inf
    assert gev_quantile(GevParams(0.1, 0.01, -2000.0), 0.9) == -math.inf


def test_quantile_rejects_bad_eps():
    for eps in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            gev_quantile(GevParams(0, 1, 0), eps)


def test_cdf_gumbel_at_zero():
    assert gev_cdf(GevParams(0, 1, 0), 0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_cdf_outside_support():
    # Left endpoint mu - sigma/xi for xi > 0.
    assert gev_cdf(GevParams(0, 1, 0.5), -2.0) == 0.0
    assert gev_cdf(GevParams(0, 1, 0.5), -5.0) == 0.0
    # Right endpoint for xi < 0.
    assert gev_cdf(GevParams(0, 1, -0.5), 3.0) == 1.0


def test_cdf_quantile_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = GevParams(
            mu=float(rng.uniform(-5, 5)),
            sigma=float(rng.uniform(0.1, 5)),
            xi=float(rng.uniform(-1.5, 1.5)),
        )
        eps = float(rng.uniform(0.001, 0.999))
        z = gev_quantile(params, eps)
        assert abs(gev_cdf(params, z) - (1.0 - eps)) < 1e-9


@settings(max_examples=60, derandomize=True)
@given(
    mu=st.floats(-10, 10),
    sigma=st.floats(0.01, 10),
    xi=st.floats(-2, 2),
    eps=st.floats(0.001, 0.999),
)
def test_roundtrip_property(mu, sigma, xi, eps):
    params = GevParams(mu, sigma, xi)
    assert abs(gev_cdf(params, gev_quantile(params, eps)) - (1.0 - eps)) < 1e-9


@settings(max_examples=40, derandomize=True)
@given(
    mu=st.floats(-5, 5),
    sigma=st.floats(0.1, 5),
    xi=st.floats(-1, 1),
    eps_lo=st.floats(0.01, 0.45),
    eps_hi=st.floats(0.55, 0.99),
)
def test_quantile_strictly_decreasing_in_eps(mu, sigma, xi, eps_lo, eps_hi):
    params = GevParams(mu, sigma, xi)
    assert gev_quantile(params, eps_lo) > gev_quantile(params, eps_hi)


def test_shape_continuity_near_gumbel():
    for mu, sigma in [(0, 1), (2, 0.5), (-1, 3)]:
        for eps in (0.01, 0.1, 0.5, 0.9):
            near = gev_quantile(GevParams(mu, sigma, 1e-8), eps)
            exact = gev_quantile(GevParams(mu, sigma, 0.0), eps)
            assert abs(near - exact) < 1e-5


def test_mean_gumbel_is_euler_gamma():
    assert gev_mean(GevParams(0, 1, 0)) == pytest.approx(EULER_GAMMA, abs=1e-9)


def test_mean_diverges_at_heavy_shape():
    assert gev_mean(GevParams(0, 1, 1.2)) == math.inf
    assert gev_mean(GevParams(0, 1, 1.0)) == math.inf


def test_mean_half_shape_closed_form():
    # Gamma(0.5) = sqrt(pi), so the mean is 2(sqrt(pi) - 1).
    assert gev_mean(GevParams(0, 1, 0.5)) == pytest.approx(2 * (math.sqrt(math.pi) - 1), rel=1e-12)


def test_mean_finite_iff_shape_below_one():
    assert math.isfinite(gev_mean(GevParams(0, 1, 0.999)))
    assert not math.isfinite(gev_mean(GevParams(0, 1, 1.0)))


@pytest.mark.parametrize("xi", [-171.0, -200.0, -1e6])
def test_mean_below_float_range_is_minus_infinity(xi):
    # Gamma(1 - xi) lies beyond float range from 1 - xi = 171.6 up; the mean
    # is then -inf, as a quantile beyond float range is infinite, and no
    # OverflowError escapes.
    assert gev_mean(GevParams(0, 1, xi)) == -math.inf
    assert gev_mean(GevParams(5, 1e-3, xi)) == -math.inf


# --- sampling ---------------------------------------------------------------

def test_sample_deterministic_given_seed():
    a = gev_sample(GevParams(0, 1, 0), np.random.default_rng(42))
    b = gev_sample(GevParams(0, 1, 0), np.random.default_rng(42))
    assert a == b


def test_sample_quantile_crosscheck():
    rng = np.random.default_rng(3)
    draws = gev_sample(GevParams(0, 1, 0), rng, size=1_000_000)
    p90 = float(np.quantile(draws, 0.9))
    assert abs(p90 - 2.2504) < 0.02


def test_sample_mean_crosscheck():
    rng = np.random.default_rng(4)
    draws = gev_sample(GevParams(1, 2, 0.5), rng, size=1_000_000)
    mean = gev_mean(GevParams(1, 2, 0.5))
    se = float(np.std(draws)) / math.sqrt(len(draws))
    assert abs(float(np.mean(draws)) - mean) < 4 * se


# --- fitting ----------------------------------------------------------------

def _synthetic_maxima(params: GevParams, n: int, seed: int) -> np.ndarray:
    return gev_sample(params, np.random.default_rng(seed), size=n)


def test_fit_recovers_known_params():
    true = GevParams(2.0, 0.5, 0.1)
    fitted = fit_gev_mle(_synthetic_maxima(true, 500, 11))
    assert abs(fitted.mu - 2.0) < 0.1
    assert abs(fitted.sigma - 0.5) < 0.1
    assert abs(fitted.xi - 0.1) < 0.15


def test_fit_recovers_gumbel_shape():
    fitted = fit_gev_mle(_synthetic_maxima(GevParams(0.0, 1.0, 0.0), 500, 12))
    assert abs(fitted.xi) < 0.15


def test_fit_rejects_degenerate_input():
    maxima = block_maxima(SampleSet(np.full(30, 3.0)), 1)
    with pytest.raises(DegenerateSampleError):
        fit_gev_mle(maxima)


def test_fit_rejects_tiny_samples():
    maxima = block_maxima(SampleSet(np.arange(5.0)), 1)
    with pytest.raises(ValueError, match="at least 10"):
        fit_gev_mle(maxima)


def test_fit_improves_on_pwm_start():
    maxima = _synthetic_maxima(GevParams(1.0, 0.7, -0.2), 400, 13)
    fitted = fit_gev_mle(maxima)
    start_nll = gev_neg_log_likelihood(pwm_start(maxima), maxima)
    fit_nll = gev_neg_log_likelihood((fitted.mu, fitted.sigma, fitted.xi), maxima)
    assert fit_nll <= start_nll


_MAGNITUDES = st.integers(-300, 299)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.one_of(
        # One scale for the whole sample, or one per value (spikes).
        st.tuples(st.lists(st.floats(0.0, 10.0), min_size=10, max_size=60), _MAGNITUDES).map(
            lambda sample: [value * 10.0**sample[1] for value in sample[0]]
        ),
        st.lists(
            st.builds(lambda value, exponent: value * 10.0**exponent, st.floats(0.0, 10.0), _MAGNITUDES),
            min_size=10,
            max_size=60,
        ),
    )
)
def test_pwm_start_is_finite_on_any_magnitude(values):
    # Hosking's k stays in about (-1, 4), since a sample's |t3| < 1, so the
    # Gamma function of the start never leaves float range.
    start = pwm_start(np.array(values))
    assert all(map(math.isfinite, start)) and start[1] > 0


def test_fit_support_holds_for_every_maximum():
    maxima = _synthetic_maxima(GevParams(3.0, 1.0, 0.4), 300, 14)
    fitted = fit_gev_mle(maxima)
    support = 1 + fitted.xi * (maxima - fitted.mu) / fitted.sigma
    assert np.all(support > 0)


def test_start_repair_pulls_the_shape_into_the_support():
    # Short-tailed maxima whose PWM start leaves some maximum outside the
    # support: the start halves xi until every maximum lies inside it.
    maxima = gev_sample(GevParams(0.0, 1.0, -0.8), np.random.default_rng(3), 30)
    assert gev_neg_log_likelihood(pwm_start(maxima), maxima) == math.inf
    mu, log_sigma, xi = _mle_start(maxima)
    assert math.isfinite(gev_neg_log_likelihood((mu, math.exp(log_sigma), xi), maxima))
    fitted = fit_gev_mle(maxima)
    assert np.all(1 + fitted.xi * (maxima - fitted.mu) / fitted.sigma > 0)


def test_sigma_must_be_positive():
    with pytest.raises(ValueError):
        GevParams(0, 0, 0)


@pytest.mark.parametrize(
    "fields", [{"mu": math.nan}, {"mu": "a"}, {"sigma": math.inf}, {"xi": math.nan}, {"xi": None}]
)
def test_fields_must_be_finite_numbers(fields):
    with pytest.raises(ValueError, match="must be a finite number"):
        GevParams(**{"mu": 0.0, "sigma": 1.0, "xi": 0.1, **fields})


def test_fit_iteration_cap_error_carries_best_params():
    from evtoffload.gev import FitConvergenceError

    maxima = _synthetic_maxima(GevParams(2.0, 0.5, 0.1), 200, 15)
    with pytest.raises(FitConvergenceError) as excinfo:
        fit_gev_mle(maxima, max_iter=2)
    carried = excinfo.value.params
    assert carried.sigma > 0
    assert math.isfinite(carried.mu)


@pytest.mark.parametrize("seed", [0, 10])
def test_fit_stops_at_once_where_the_likelihood_is_unbounded(monkeypatch, seed):
    # Short-tailed samples whose search runs to xi < -1 with the upper
    # endpoint on the sample maximum; the step budget used to run out there.
    from evtoffload import gev
    from evtoffload.gev import FitConvergenceError

    sample = gev_sample(GevParams(0.0, 1.0, -0.8), np.random.default_rng(seed), size=30)
    calls = []
    derivatives = gev._nll_derivatives
    monkeypatch.setattr(gev, "_nll_derivatives", lambda theta, x: calls.append(1) or derivatives(theta, x))
    with pytest.raises(FitConvergenceError, match=r"likelihood is unbounded for xi < -1") as excinfo:
        fit_gev_mle(sample)
    carried = excinfo.value.params
    assert carried.xi < -1
    assert carried.mu - carried.sigma / carried.xi <= sample.max()
    assert len(calls) < 200


@pytest.mark.parametrize("xi", [0.3, -0.2, 2e-3, 1e-7, 0.0])
def test_nll_derivatives_match_finite_differences(xi):
    # xi of 0 and 1e-7 put every maximum below the |xi*y| at which the
    # ratios of log1p are summed from their series; 2e-3 puts a third there.
    maxima = _synthetic_maxima(GevParams(1.0, 0.5, xi), 200, 16)
    theta = np.array([1.05, math.log(0.45), xi])
    f, grad, hess = _nll_derivatives(theta, maxima)
    assert f == pytest.approx(gev_neg_log_likelihood((1.05, 0.45, xi), maxima), rel=1e-9)
    h = 1e-6
    for i in range(3):
        f_hi, grad_hi, _ = _nll_derivatives(theta + h * np.eye(3)[i], maxima)
        f_lo, grad_lo, _ = _nll_derivatives(theta - h * np.eye(3)[i], maxima)
        assert grad[i] == pytest.approx((f_hi - f_lo) / (2 * h), rel=1e-6, abs=1e-6)
        np.testing.assert_allclose(hess[:, i], (grad_hi - grad_lo) / (2 * h), rtol=1e-6, atol=1e-6)


def test_fit_converges_on_three_thousand_maxima():
    # A likelihood of about -1.5e4, where an absolute tolerance of 1e-12 on
    # its value is below the float spacing.
    sample = gev_sample(GevParams(0.01, 1e-3, 0.1), np.random.default_rng(7), size=3000)
    fitted = fit_gev_mle(sample)
    assert fitted.mu == pytest.approx(0.01, abs=1e-4)
    assert fitted.sigma == pytest.approx(1e-3, rel=0.05)
    assert fitted.xi == pytest.approx(0.1, abs=0.05)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    n=st.integers(10, 4000),
    mu=st.floats(-5, 5),
    log10_sigma=st.floats(-3, 3),
    xi=st.floats(-0.45, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_likelihood_is_never_above_scipy_nelder_mead(n, mu, log10_sigma, xi, seed):
    sigma = 10.0**log10_sigma
    maxima = _synthetic_maxima(GevParams(mu * sigma, sigma, xi), n, seed)
    fitted = fit_gev_mle(maxima)
    fit_nll = gev_neg_log_likelihood((fitted.mu, fitted.sigma, fitted.xi), maxima)
    start_mu, start_log_sigma, start_xi = _mle_start(maxima)
    start = np.array([start_mu, math.exp(start_log_sigma), start_xi])
    with warnings.catch_warnings():
        # Nelder-Mead probes points outside the support.
        warnings.simplefilter("ignore", RuntimeWarning)
        reference = minimize(
            gev_neg_log_likelihood, start, args=(maxima,), method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14 * abs(gev_neg_log_likelihood(start, maxima)),
                     "maxiter": 40_000, "maxfev": 80_000},
        )
    assert fit_nll <= reference.fun + 1e-10 * abs(reference.fun)


# --- trace CSV --------------------------------------------------------------

def test_trace_loader(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "t_ms,queue_up_bits,queue_down_bits,rate_up_bps,rate_down_bps,power_up_mw,power_down_mw\n"
        "0,1000,500,10000,20000,100,50\n"
        "1,2000,1000,20000,40000,200,100\n"
    )
    samples = load_trace_samples(path, payload_bits=1000.0)
    assert samples["v_up"].values.tolist() == [(1000 + 1000) / 10000, (2000 + 1000) / 20000]
    assert samples["j"].values.tolist() == [100 / 10000, 200 / 20000]
    assert samples["h"].values.tolist() == [50 / 20000, 100 / 40000]


def test_trace_loader_rejects_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_trace_samples(path, 0.0)
