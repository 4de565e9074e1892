"""Granger-causality F-tests between latent group series.

Nested lagged regressions solved by ridge-stabilized normal equations in
float64; the F survival probability comes from a continued-fraction
regularized incomplete beta, so p-values need no stats library. Exact
zero-variance regressors (constant series, collinear with the intercept)
are reported as errors; merely collinear lag columns, as with identical
input series, are absorbed by the ridge and produce F near 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_RIDGE = 1e-8


class GrangerError(ValueError):
    pass


@dataclass
class GrangerResult:
    f_statistic: float
    p_value: float
    lags: int
    n_obs: int
    rss_restricted: float
    rss_unrestricted: float


# ---------------------------------------------------------------------------
# incomplete beta via modified Lentz continued fraction

def _betacf(a: float, b: float, x: float) -> float:
    max_iter, eps, fpmin = 300, 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < eps:
            return h
    raise GrangerError(f"incomplete beta failed to converge (a={a}, b={b}, x={x})")


def betainc_reg(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise GrangerError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def f_sf(f: float, d1: int, d2: int) -> float:
    """Upper tail of the F(d1, d2) distribution."""
    if d1 < 1 or d2 < 1:
        raise GrangerError("degrees of freedom must be >= 1")
    if not np.isfinite(f):
        return 0.0
    if f <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return min(1.0, max(0.0, betainc_reg(x, d2 / 2.0, d1 / 2.0)))


# ---------------------------------------------------------------------------
# nested regressions

def _lag_columns(series: np.ndarray, lags: int) -> np.ndarray:
    n = series.size
    return np.stack([series[lags - k: n - k] for k in range(1, lags + 1)], axis=1)


def _rss(design: np.ndarray, target: np.ndarray) -> float:
    gram = design.T @ design + _RIDGE * np.eye(design.shape[1])
    beta = np.linalg.solve(gram, design.T @ target)
    resid = target - design @ beta
    return float(resid @ resid)


def granger_test(x, y, max_lag: int) -> GrangerResult:
    """Does lagged x improve the prediction of y beyond y's own lags?

    F compares the restricted AR(max_lag) fit of y against the fit
    augmented with x's lags; p from F(max_lag, n_obs - 2*max_lag - 1).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if max_lag < 1:
        raise GrangerError(f"max_lag must be >= 1, got {max_lag}")
    if x.size != y.size:
        raise GrangerError(f"series lengths differ: {x.size} vs {y.size}")
    if y.size < 3 * max_lag + 5:
        raise GrangerError(f"series too short: {y.size} < {3 * max_lag + 5}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise GrangerError("non-finite values in series")

    target = y[max_lag:]
    n_obs = target.size
    y_lags = _lag_columns(y, max_lag)
    x_lags = _lag_columns(x, max_lag)
    if target.std() == 0.0:
        raise GrangerError("zero-variance target series")
    for cols, who in ((y_lags, "y"), (x_lags, "x")):
        if np.any(cols.std(axis=0) == 0.0):
            raise GrangerError(f"degenerate (constant) regressor from {who}")

    ones = np.ones((n_obs, 1))
    restricted = np.concatenate([ones, y_lags], axis=1)
    unrestricted = np.concatenate([ones, y_lags, x_lags], axis=1)
    rss_r = _rss(restricted, target)
    rss_u = _rss(unrestricted, target)

    dof2 = n_obs - 2 * max_lag - 1
    num = max(rss_r - rss_u, 0.0) / max_lag
    den = rss_u / dof2
    if den <= 0.0:
        f_stat, p = math.inf, 0.0
    else:
        f_stat = num / den
        p = f_sf(f_stat, max_lag, dof2)
    return GrangerResult(f_statistic=f_stat, p_value=p, lags=max_lag,
                         n_obs=n_obs, rss_restricted=rss_r,
                         rss_unrestricted=rss_u)


# ---------------------------------------------------------------------------
# report over latent groups

P_BIN_EDGES = (0.001, 0.01, 0.05, 0.1)
P_BIN_LABELS = ("p<0.001", "0.001<=p<0.01", "0.01<=p<0.05",
                "0.05<=p<0.1", "p>=0.1")


def latent_causality_report(latents, max_lag: int = 1) -> dict:
    """Minimum Granger p per sample across ordered group pairs, binned.

    latents: [n, groups, series_len] (trailing axis is time). Pairs whose
    test degenerates are skipped and counted; a sample with no testable
    pair is counted under skipped_samples. GrangerError if no sample has
    one: a series needs 3 * max_lag + 5 points, and variance.
    """
    arr = np.asarray(latents, dtype=np.float64)
    if arr.ndim != 3:
        raise GrangerError(f"latents must be [n, groups, series_len], "
                           f"got {arr.ndim} dimensions")
    n, groups, series_len = arr.shape
    if groups < 2:
        raise GrangerError("need at least 2 groups")

    counts = {label: 0 for label in P_BIN_LABELS}
    skipped_pairs = 0
    skipped_samples = 0
    for s in range(n):
        min_p = None
        for i in range(groups):
            for j in range(groups):
                if i == j:
                    continue
                try:
                    res = granger_test(arr[s, i], arr[s, j], max_lag)
                except GrangerError:
                    skipped_pairs += 1
                    continue
                if min_p is None or res.p_value < min_p:
                    min_p = res.p_value
        if min_p is None:
            skipped_samples += 1
            continue
        idx = int(np.searchsorted(P_BIN_EDGES, min_p, side="right"))
        counts[P_BIN_LABELS[idx]] += 1
    if skipped_samples == n:
        raise GrangerError(f"no sample has a testable group pair: a series needs "
                           f"3 * max_lag + 5 = {3 * max_lag + 5} points with "
                           f"variance, these have {series_len}")
    return {"bins": counts, "n_samples": n, "max_lag": max_lag,
            "skipped_pairs": skipped_pairs, "skipped_samples": skipped_samples}
