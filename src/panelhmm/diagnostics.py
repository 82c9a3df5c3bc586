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
from .errors import InputError
from .model import param_paths


@dataclass(frozen=True)
class DicReport:
    """Deviance summary: DIC = mean_deviance + p_d = 2*D-bar - D(theta-bar)."""

    mean_deviance: float
    deviance_at_mean: float
    p_d: float
    dic: float


def _rhat_rows(traces: np.ndarray) -> np.ndarray:
    """R-hat of each scalar from its (m, n) chains, for a stack
    (J, m, n); NaN where the within-chain variance is zero.  Every
    reduction runs along the last axis, so each row gets the same bits as
    a 2-d call on its own."""
    n = traces.shape[-1]
    W = traces.var(axis=-1, ddof=1).mean(axis=-1)
    B_over_n = traces.mean(axis=-1).var(axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(((n - 1) / n * W + B_over_n) / W)
    return np.where(W == 0.0, np.nan, rhat)


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length the FFT transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            length = p35
            while length < n:
                length *= 2
            best = min(best, length)
            p35 *= 3
        p5 *= 5
    return best


def _ess_rows(traces: np.ndarray) -> np.ndarray:
    """ESS of each row of a (B, n) stack of traces via Geyer's initial
    positive sequence; NaN for a constant row.

    The autocovariances of every row come from one batched FFT, zero
    padded to at least 2n so none wraps around.  The autocorrelations are
    summed in pairs (lags 1+2, 3+4, ...) while the pair sums stay
    positive; a running ``cumsum`` adds the kept pairs in the order a
    loop over lags would.  ESS = n / (1 + 2 * sum), capped at 1.05 n for
    noisy near-white traces.
    """
    n = traces.shape[-1]
    centered = traces - traces.mean(axis=-1, keepdims=True)
    var = np.einsum("bi,bi->b", centered, centered) / n
    nfft = _fft_length(2 * n)
    spectrum = np.fft.rfft(centered, nfft, axis=-1)
    acov = np.fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2, nfft,
                        axis=-1)[:, :n] / n
    del spectrum
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = acov / var[:, None]
    n_pairs = (n - 1) // 2  # lags t, t + 1 with t odd and t + 1 < n
    pairs = rho[:, 1:2 * n_pairs:2] + rho[:, 2:2 * n_pairs + 1:2]
    kept = np.logical_and.accumulate(pairs > 0.0, axis=-1).sum(axis=-1)
    sums = np.zeros((len(pairs), n_pairs + 1))  # sums[:, k]: the first k pairs
    np.cumsum(pairs, axis=-1, out=sums[:, 1:])
    total = sums[np.arange(len(sums)), kept]
    ess = np.minimum(n / (1.0 + 2.0 * total), 1.05 * n)
    return np.where(var == 0.0, np.nan, ess)


def deviance(panel, design, params) -> float:
    """-2 log p(Y_obs | theta) under the model ``params`` belong to (the
    HMM when they hold emissions ``P``); the random-effect prior terms
    are not included (theta enters only through alpha, beta, pi, and P)."""
    return -2.0 * inference.log_likelihood(panel, design, params)


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


# Draws per block of scalars in scalar_summaries: 2**18 floats (2 MB), so
# a block and its FFT take about 20 MB however long the chains; a
# paper-scale fit (3 x 10k draws) is summarized 8 scalars at a time.
_BLOCK_FLOATS = 1 << 18
_COLUMNS = ("mean", "sd", "q025", "q975", "rhat", "ess")


def scalar_summaries(chain_set) -> list:
    """Per-scalar convergence table: (path, mean, sd, q2.5, q97.5, R-hat, ESS).

    Paths are those of :func:`model.param_paths`: subjects and covariates
    0-based, rows and targets 1-based, as in the params text format;
    ``deviance`` is bare.  R-hat is NaN for single-chain runs; ESS is
    summed across chains.  Both are NaN when the chains hold fewer than 10
    draws, and ESS is NaN for a constant trace.  Used by the diagnose
    command.

    The draws are summarized in blocks of scalars: a block of columns of
    every chain's ``values`` is copied scalars-major, shape (J, m, n), and
    every statistic is one reduction along its last axis, so each scalar
    gets the same bits as a one-scalar call.
    """
    chains = chain_set.chains
    m, n = chain_set.n_chains, chain_set.n_kept
    scalars = [path for name, shape in chains[0].shapes.items()
               for path in param_paths(name, shape)]
    step = max(1, _BLOCK_FLOATS // (m * n))
    rows = []
    for paths, flats in ((scalars, [c.values for c in chains]),
                         (["deviance"], [c.deviance.reshape(n, 1) for c in chains])):
        for j0 in range(0, len(paths), step):
            cols = slice(j0, j0 + step)
            block = np.empty((len(paths[cols]), m, n))
            for c, flat in enumerate(flats):
                block[:, c] = flat[:, cols].T
            stats = _block_summaries(block)
            rows.extend({"parameter": path, **dict(zip(_COLUMNS, values))}
                        for path, *values in zip(paths[cols], *stats))
    return rows


def _block_summaries(block: np.ndarray) -> list:
    """The :data:`_COLUMNS` of every scalar of a (J, m, n) block, each a
    list of J floats."""
    J, m, n = block.shape
    pooled = block.reshape(J, m * n)
    sd = pooled.std(axis=-1, ddof=1) if m * n > 1 else np.zeros(J)
    q025, q975 = np.quantile(pooled, [0.025, 0.975], axis=-1)
    rhat = ess = np.full(J, np.nan)
    if n >= 10:
        if m >= 2:
            rhat = _rhat_rows(block)
        ess = _ess_rows(block.reshape(J * m, n)).reshape(J, m).sum(axis=-1)
    return [a.tolist() for a in (pooled.mean(axis=-1), sd, q025, q975, rhat, ess)]
