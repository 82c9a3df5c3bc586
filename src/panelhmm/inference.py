"""Exact likelihoods, smoothing, sampling, and decoding.

Missing observations are handled by propagating the forward vector
through the per-day transition matrices across the gap, which is exactly
the multi-step-transition marginalization: no likelihood factor is
applied on missing days.  Both models run through the same recursions;
the Markov model is the special case whose "states" are the observed
levels and whose likelihood factors are indicators on observed cells.

The forward recursion normalizes per day and accumulates log scaling
factors, so filtered vectors are proper distributions and the backward
pass stays in probability space.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dataset import DesignMatrix, ObservationPanel
from .model import (Params, _categorical, softmax_rows, transition_logits,
                    transition_matrices)


def _hmm_factors(codes: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Likelihood factors L[..., s] = p(y | H = s) under the (S, M) emissions
    ``P`` for a grid of ``codes``, 1 on missing cells (code 0); a new array."""
    return np.vstack([np.ones(len(P)), P.T])[codes]


def _factors(panel: ObservationPanel, params: Params) -> np.ndarray:
    """Likelihood factors of either model, shape (R, T, N): emissions for
    the HMM; for the Markov model, whose states are the observed levels,
    the identity emissions, i.e. indicators on the observed levels."""
    P = np.eye(params.m_levels) if params.P is None else params.P
    return np.ascontiguousarray(_hmm_factors(panel.codes, P).T)


def _filter_all(L: np.ndarray, Q: np.ndarray, pi: np.ndarray):
    """Scaled forward pass vectorized over subjects, from the (R, T, N)
    factors ``L`` and the (T-1, R, R, N) transition matrices ``Q``.

    Returns (filtered (T, R, N), scaling (N, T)).  A subject whose factors
    are all ones (all data missing) gets scaling 1 on every day and hence
    contributes zero log-likelihood.
    """
    R, T, N = L.shape
    filtered = np.empty((T, R, N))
    scaling = np.empty((N, T))
    f = pi[:, None] * L[:, 0]
    for t in range(T):
        if t:
            f = np.einsum("rn,rsn->sn", filtered[t - 1], Q[t - 1]) * L[:, t]
        c = f.sum(axis=0)
        filtered[t] = f / np.where(c > 0, c, 1.0)
        scaling[:, t] = c
    return filtered, scaling


def _backward_messages(L: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Backward messages beta[t, r] proportional to p(y after day t | row r
    on day t), normalized per day, in the layouts of :func:`_filter_all`;
    shape (T, R, N).  ``filtered * beta``, normalized per day, is the
    smoothed marginal."""
    R, T, N = L.shape
    beta = np.empty((T, R, N))
    beta[T - 1] = 1.0 / R
    for t in range(T - 2, -1, -1):
        b = np.einsum("rsn,sn->rn", Q[t], L[:, t + 1] * beta[t + 1])
        b_sum = b.sum(axis=0)
        beta[t] = b / np.where(b_sum > 0, b_sum, 1.0)
    return beta


def _expected_counts(codes: np.ndarray, A: np.ndarray, P: np.ndarray,
                     pi: np.ndarray) -> tuple:
    """Baum-Welch E-step of one homogeneous HMM pooled over subjects, on
    the (N, T) ``codes`` (0 on missing cells), through the forward filter
    and backward pass the sampler and smoothing use, with ``A`` broadcast
    over days and subjects.  Returns the log-likelihood and the expected
    transition (S, S), emission (S, M) and initial (S,) counts."""
    (N, T), S = codes.shape, len(A)
    L = _hmm_factors(codes, P).T  # (S, T, N)
    Q = np.broadcast_to(A[None, :, :, None], (T - 1, S, S, N))
    filtered, scaling = _filter_all(L, Q, pi)
    beta = _backward_messages(L, Q)
    gamma = filtered * beta
    norm = gamma.sum(axis=1)  # (T, N)
    gamma /= norm[:, None]
    # ξ[t] = filtered[t] ⊗ (L β)[t+1] * A / (c[t+1] Σ filtered[t+1] β[t+1])
    w = filtered[:-1] / (scaling.T[1:] * norm[1:])[:, None]
    xi = A * np.einsum("trn,tsn->rs", w, L[:, 1:].transpose(1, 0, 2) * beta[1:])
    emissions = np.array([np.bincount(codes.T.ravel(), gamma[:, s].ravel(),
                                      P.shape[1] + 1)[1:] for s in range(S)])
    return float(_log_scaling(scaling).sum()), xi, emissions, gamma[0].sum(axis=1)


def _backward_sample_all(filtered: np.ndarray, Q: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Exact joint draw of the chain from its full conditional, one path
    per subject, vectorized over subjects, from the layouts of
    :func:`_filter_all`.  Returns (N, T) 1-based values."""
    T, R, N = filtered.shape
    states = np.empty((N, T), dtype=np.int64)
    cols = np.arange(N)
    u = rng.random((N, T))
    w = filtered[T - 1]
    for t in range(T - 1, -1, -1):
        if t < T - 1:
            # column states[i, t+1] of subject i's matrix Q[t, :, :, i]
            w = filtered[t] * Q[t].reshape(R, R * N).take(
                (states[:, t + 1] - 1) * N + cols, axis=1)
            w /= w.sum(axis=0)
        # accumulate adds in order, as np.cumsum does
        states[:, t] = _categorical(itertools.accumulate(w[:-1]), u[:, t])
    return states


def _log_scaling(scaling: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):  # log 0 = -inf: the data are impossible
        return np.log(scaling)


def log_likelihood(panel: ObservationPanel, design: DesignMatrix,
                   params: Params) -> float:
    """log p(Y_obs | theta) under the model ``params`` belong to: hidden
    states marginalized exactly for the HMM; for the Markov model the
    initial distribution enters at day 1, and missing runs are
    marginalized through the multi-step transitions."""
    scaling = _filter_all(_factors(panel, params),
                          transition_matrices(params, design), params.pi)[1]
    return float(_log_scaling(scaling).sum())


# perfbench/checks.py still recomputes deviances through these two names;
# drop them when it calls diagnostics.deviance instead (ROADMAP item 9).
log_likelihood_hmm = log_likelihood_markov = log_likelihood


def draw_complete_data(panel: ObservationPanel, design: DesignMatrix,
                       params: Params, rng: np.random.Generator) -> tuple:
    """One data-augmentation draw, log p(Y_obs | params) and the
    transition logits, the first two from a single forward filter.

    HMM parameters give a hidden-state grid drawn from p(H | Y_obs, theta),
    with states on every day, missing days included; Markov parameters
    give the complete panel with every missing run imputed from its exact
    conditional given the flanking observed values, and observed cells
    unchanged.  Either is an (N, T) array of 1-based values.  The
    log-likelihood is the same filter's scaling factors summed the same
    way as in :func:`log_likelihood`, so it equals it bit for bit.  The
    (T-1, R, K, N) logits of :func:`model.transition_logits` are returned
    for the parameter updates that follow the draw.
    """
    eta = transition_logits(params, design)
    Q = softmax_rows(eta, axis=2)
    filtered, scaling = _filter_all(_factors(panel, params), Q, params.pi)
    draw = _backward_sample_all(filtered, Q, rng)
    if params.P is None:
        obs = ~panel.mask
        draw[obs] = panel.codes[obs]
    return draw, float(_log_scaling(scaling).sum()), eta


def model_arrays(panel: ObservationPanel, design: DesignMatrix,
                 params: Params) -> tuple:
    """The (R, T, N) likelihood factors and (T-1, R, R, N) transition
    matrices of ``params`` on the panel and design, which
    :func:`smoothed_marginals` and :func:`viterbi` take so that a caller
    of both builds them once."""
    return _factors(panel, params), transition_matrices(params, design)


def smoothed_marginals(panel: ObservationPanel, design: DesignMatrix,
                       params: Params, arrays: tuple | None = None) -> np.ndarray:
    """Exact p(H_it = s | Y_obs, theta), shape (N, T, S), from ``arrays``
    (see :func:`model_arrays`) when given."""
    L, Q = model_arrays(panel, design, params) if arrays is None else arrays
    smoothed = _filter_all(L, Q, params.pi)[0] * _backward_messages(L, Q)
    total = smoothed.sum(axis=1, keepdims=True)
    return (smoothed / np.where(total > 0, total, 1.0)).transpose(2, 0, 1)


def viterbi(panel: ObservationPanel, design: DesignMatrix,
            params: Params, arrays: tuple | None = None) -> tuple:
    """Most likely hidden path per subject (max-product DP, all subjects
    at once): the (N, T) int64 1-based states and the (N,) log joint
    probability of each path with the observed data, from ``arrays``
    (see :func:`model_arrays`) when given.

    Missing days contribute transition terms only.  Ties are broken toward
    the lower state index.
    """
    L, Q = model_arrays(panel, design, params) if arrays is None else arrays
    S, T, N = L.shape
    with np.errstate(divide="ignore"):
        logL = np.log(L)
        logQ = np.log(Q)
        logpi = np.log(params.pi)
    delta = logpi[:, None] + logL[:, 0]  # (S, N)
    back = np.zeros((T, S, N), dtype=np.int64)
    for t in range(1, T):
        cand = delta[:, None] + logQ[t - 1]  # (from, to, N)
        back[t] = cand.argmax(axis=0)  # first max: lower-state tie break
        delta = cand.max(axis=0) + logL[:, t]
    cols = np.arange(N)
    states = np.empty((N, T), dtype=np.int64)
    states[:, T - 1] = delta.argmax(axis=0)
    for t in range(T - 1, 0, -1):
        states[:, t - 1] = back[t, states[:, t], cols]
    return states + 1, delta.max(axis=0)
