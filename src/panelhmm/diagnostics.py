"""Convergence and model-comparison metrics.

The potential scale reduction factor is computed without chain splitting:
with m chains of length n, W is the mean within-chain variance (ddof 1),
B/n the variance of the chain means (ddof 1), and

    R-hat = sqrt( ((n - 1)/n * W + B/n) / W ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inference
from .errors import InputError, NumericalError
from .model import param_paths


@dataclass(frozen=True)
class DicReport:
    """Deviance summary: DIC = mean_deviance + p_d = 2*D-bar - D(theta-bar)."""

    mean_deviance: float
    deviance_at_mean: float
    p_d: float
    dic: float


def potential_scale_reduction(traces: np.ndarray) -> float:
    """R-hat of one scalar parameter from per-chain traces.

    Parameters
    ----------
    traces : ndarray, shape (n_chains, n_draws)

    Returns NaN when the within-chain variance is zero (undefined).
    """
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 2 or traces.shape[0] < 2:
        raise InputError("need at least 2 chains of equal length")
    m, n = traces.shape
    if n < 10:
        raise InputError("chains too short for R-hat (need length >= 10)")
    W = traces.var(axis=1, ddof=1).mean()
    if W == 0.0:
        return float("nan")
    B_over_n = traces.mean(axis=1).var(ddof=1)
    var_hat = (n - 1) / n * W + B_over_n
    return float(np.sqrt(var_hat / W))


def effective_sample_size(trace: np.ndarray) -> float:
    """ESS via Geyer's initial positive sequence of autocorrelations.

    Sums autocorrelations in pairs while the pair sums stay positive;
    ESS = n / (1 + 2 * sum(rho)).  Capped at n (within a 5% tolerance
    factor for noisy near-white traces).  Constant traces are undefined.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 1 or trace.size < 10:
        raise InputError("trace must be 1-d with length >= 10")
    n = trace.size
    centered = trace - trace.mean()
    var = centered @ centered / n
    if var == 0.0:
        raise NumericalError("ESS undefined for a constant trace")
    acov = np.correlate(centered, centered, mode="full")[n - 1:] / n
    rho = acov / var
    total = 0.0
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        total += pair
        t += 2
    ess = n / (1.0 + 2.0 * total)
    return float(min(ess, 1.05 * n))


def deviance(panel, design, params) -> float:
    """-2 log p(Y_obs | theta) under the model ``params`` belong to (the
    HMM when they hold emissions ``P``); the random-effect prior terms
    are not included (theta enters only through alpha, beta, pi, and P)."""
    loglik = (inference.log_likelihood_markov if params.P is None
              else inference.log_likelihood_hmm)
    return -2.0 * loglik(panel, design, params)


def dic(chain_set, panel, design) -> DicReport:
    """DIC from a fitted chain set.

    D-bar comes from the stored per-iteration deviances; D(theta-bar) is
    evaluated at the element-wise posterior mean parameters (probability
    vectors renormalized).  The identity DIC = 2*D-bar - D(theta-bar)
    holds exactly.
    """
    devs = chain_set.per_chain("deviance").ravel()
    if devs.size == 0:
        raise InputError("chain set has no retained draws")
    d_bar = float(devs.mean())
    theta_bar = chain_set.posterior_mean_params()
    d_at_mean = deviance(panel, design, theta_bar)
    p_d = d_bar - d_at_mean
    return DicReport(mean_deviance=d_bar, deviance_at_mean=d_at_mean,
                     p_d=p_d, dic=d_bar + p_d)


def scalar_summaries(chain_set, names=None) -> list:
    """Per-scalar convergence table: (path, mean, sd, q2.5, q97.5, R-hat, ESS).

    Paths are those of :func:`model.param_paths`: subjects and covariates
    0-based, rows and targets 1-based, as in the params text format;
    ``deviance`` is bare.  R-hat is NaN for single-chain runs; ESS is
    summed across chains.  Both are NaN when the chains hold fewer than 10
    draws, and ESS is NaN for a constant trace.  Used by the diagnose
    command.
    """
    rows = []
    names = names or sorted(chain_set.chains[0].draws) + ["deviance"]
    for name in names:
        a = chain_set.per_chain(name)  # (m, n, ...)
        m, n = a.shape[:2]
        flat = a.reshape(m, n, -1)
        paths = [name] if name == "deviance" else param_paths(name, a.shape[2:])
        for j, path in enumerate(paths):
            traces = flat[:, :, j]
            pooled = traces.ravel()
            rhat = ess = float("nan")
            if n >= 10:
                if m >= 2:
                    rhat = potential_scale_reduction(traces)
                try:
                    ess = sum(effective_sample_size(traces[c]) for c in range(m))
                except NumericalError:
                    pass
            rows.append({
                "parameter": path,
                "mean": float(pooled.mean()),
                "sd": float(pooled.std(ddof=1)) if pooled.size > 1 else 0.0,
                "q025": float(np.quantile(pooled, 0.025)),
                "q975": float(np.quantile(pooled, 0.975)),
                "rhat": rhat,
                "ess": ess,
            })
    return rows
