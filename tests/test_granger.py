"""Granger F-test against scipy oracles, plus power/calibration checks."""
import numpy as np
import pytest
import scipy.special
import scipy.stats

from vmflow.granger import (GrangerError, betainc_reg, f_sf, granger_test,
                            latent_causality_report)


# ---------------------------------------------------------------------------
# tail probability vs scipy

def test_betainc_matches_scipy_grid():
    for a in (0.5, 1.0, 2.5, 24.0, 248.0):
        for b in (0.5, 1.0, 3.0, 50.0):
            for x in (1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-9):
                want = float(scipy.special.betainc(a, b, x))
                got = betainc_reg(x, a, b)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-13), (a, b, x)


def test_f_sf_matches_scipy_grid():
    for d1 in (1, 2, 5, 12):
        for d2 in (4, 30, 117, 496):
            for f in (0.0, 0.1, 1.0, 2.5, 5.0, 10.0, 50.0):
                want = float(scipy.stats.f.sf(f, d1, d2))
                got = f_sf(f, d1, d2)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-14), (d1, d2, f)


def test_f_sf_edge_cases():
    assert f_sf(0.0, 3, 10) == 1.0
    assert f_sf(-1.0, 3, 10) == 1.0
    assert f_sf(np.inf, 3, 10) == 0.0
    with pytest.raises(GrangerError):
        f_sf(1.0, 0, 10)


# ---------------------------------------------------------------------------
# the test itself

def _coupled(n, rng, gain=0.9, noise=0.1):
    x = rng.standard_normal(n)
    y = np.zeros(n)
    y[1:] = gain * x[:-1] + noise * rng.standard_normal(n - 1)
    return x, y


def test_coupled_series_detected():
    rng = np.random.default_rng(7)
    x, y = _coupled(500, rng)
    res = granger_test(x, y, max_lag=1)
    assert res.p_value < 1e-3
    assert res.f_statistic > 10.0
    assert res.n_obs == 499
    assert res.lags == 1
    assert res.rss_unrestricted < res.rss_restricted


def test_reverse_direction_weak():
    rng = np.random.default_rng(11)
    x, y = _coupled(500, rng)
    forward = granger_test(x, y, max_lag=1)
    backward = granger_test(y, x, max_lag=1)
    assert forward.p_value < 1e-3
    assert backward.f_statistic < forward.f_statistic / 100.0


def test_identical_series_near_zero_f():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200)
    res = granger_test(x, x, max_lag=2)
    assert res.f_statistic == pytest.approx(0.0, abs=1e-4)
    assert res.p_value > 0.99


def test_matches_explicit_ols_f():
    # plain lstsq on the same nested designs, classic F formula
    rng = np.random.default_rng(19)
    x, y = _coupled(160, rng, gain=0.4, noise=0.5)
    lag = 2
    res = granger_test(x, y, max_lag=lag)
    t = y[lag:]
    yl = np.stack([y[lag - k: len(y) - k] for k in (1, 2)], axis=1)
    xl = np.stack([x[lag - k: len(x) - k] for k in (1, 2)], axis=1)
    ones = np.ones((t.size, 1))
    rss = []
    for d in (np.hstack([ones, yl]), np.hstack([ones, yl, xl])):
        beta, *_ = np.linalg.lstsq(d, t, rcond=None)
        r = t - d @ beta
        rss.append(float(r @ r))
    dof2 = t.size - 2 * lag - 1
    want_f = ((rss[0] - rss[1]) / lag) / (rss[1] / dof2)
    assert res.f_statistic == pytest.approx(want_f, rel=1e-6)
    assert res.p_value == pytest.approx(float(scipy.stats.f.sf(want_f, lag, dof2)), rel=1e-6)


def test_scale_and_offset_invariance():
    rng = np.random.default_rng(23)
    x, y = _coupled(300, rng, gain=0.5, noise=0.3)
    base = granger_test(x, y, max_lag=1)
    scaled = granger_test(40.0 * x, 40.0 * y, max_lag=1)
    shifted = granger_test(x + 13.0, y - 6.0, max_lag=1)
    assert scaled.f_statistic == pytest.approx(base.f_statistic, rel=1e-5)
    assert shifted.f_statistic == pytest.approx(base.f_statistic, rel=1e-5)
    assert scaled.p_value == pytest.approx(base.p_value, rel=1e-4, abs=1e-12)


def test_null_rejection_rate_calibrated():
    rng = np.random.default_rng(101)
    trials, hits = 400, 0
    for _ in range(trials):
        x = rng.standard_normal(120)
        y = rng.standard_normal(120)
        if granger_test(x, y, max_lag=1).p_value < 0.05:
            hits += 1
    rate = hits / trials
    assert 0.02 <= rate <= 0.08, rate


def test_power_on_strong_coupling():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(30):
        x, y = _coupled(500, rng)
        if granger_test(x, y, max_lag=1).p_value < 1e-3:
            hits += 1
    assert hits == 30


def test_error_cases():
    good = np.random.default_rng(0).standard_normal(50)
    with pytest.raises(GrangerError, match="max_lag"):
        granger_test(good, good, max_lag=0)
    with pytest.raises(GrangerError, match="lengths differ"):
        granger_test(good, good[:-1], max_lag=1)
    with pytest.raises(GrangerError, match="too short"):
        granger_test(good[:7], good[:7], max_lag=1)
    bad = good.copy()
    bad[3] = np.nan
    with pytest.raises(GrangerError, match="non-finite"):
        granger_test(good, bad, max_lag=1)
    with pytest.raises(GrangerError, match="zero-variance target"):
        granger_test(good, np.ones(50), max_lag=1)
    with pytest.raises(GrangerError, match="degenerate"):
        granger_test(np.full(50, 2.0), good, max_lag=1)


# ---------------------------------------------------------------------------
# latent report

def _report_fixture(n, coupled, series_len=60, seed=0):
    rng = np.random.default_rng(seed)
    out = np.zeros((n, 2, series_len))
    for s in range(n):
        if coupled:
            x, y = _coupled(series_len, rng, gain=0.9, noise=0.05)
        else:
            x = rng.standard_normal(series_len)
            y = rng.standard_normal(series_len)
        out[s, 0], out[s, 1] = x, y
    return out


def test_report_separates_coupled_from_independent():
    coupled = latent_causality_report(_report_fixture(12, True), max_lag=1)
    iid = latent_causality_report(_report_fixture(12, False, seed=1), max_lag=1)
    assert coupled["bins"]["p<0.001"] >= 10
    assert iid["bins"]["p<0.001"] <= 3
    assert sum(coupled["bins"].values()) == 12
    assert coupled["skipped_pairs"] == 0 and coupled["skipped_samples"] == 0


def test_report_counts_skips():
    arr = _report_fixture(5, True, seed=3)
    arr[2, 1, :] = 7.0  # constant group kills both ordered pairs of sample 2
    rep = latent_causality_report(arr, max_lag=1)
    assert rep["skipped_pairs"] == 2
    assert rep["skipped_samples"] == 1
    assert sum(rep["bins"].values()) == 4


def test_report_input_validation():
    for bad in (np.zeros((4, 60)), np.zeros((4, 2, 60, 2))):
        with pytest.raises(GrangerError, match=r"\[n, groups, series_len\]"):
            latent_causality_report(bad)
    with pytest.raises(GrangerError, match="2 groups"):
        latent_causality_report(np.zeros((4, 1, 60)))
