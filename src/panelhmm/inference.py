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

from dataclasses import dataclass

import numpy as np

from .dataset import DesignMatrix, ObservationPanel
from .model import Params, softmax_rows, transition_logits, transition_matrices


@dataclass(frozen=True)
class ViterbiPath:
    """Most likely hidden path for one subject and its log joint
    probability with the observed data."""

    states: np.ndarray
    log_joint: float


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
        states[:, t] = (u[:, t] > np.cumsum(w, axis=0)).sum(axis=0) + 1
    return states


def _log_scaling(scaling: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(scaling > 0, np.log(np.where(scaling > 0, scaling, 1.0)),
                        -np.inf)


def _scaling(panel: ObservationPanel, design: DesignMatrix,
             params: Params) -> np.ndarray:
    """The forward filter's per-day normalizers, shape (N, T), under the
    model ``params`` belong to."""
    return _filter_all(_factors(panel, params),
                       transition_matrices(params, design), params.pi)[1]


def log_likelihood(panel: ObservationPanel, design: DesignMatrix,
                   params: Params) -> float:
    """log p(Y_obs | theta) under the model ``params`` belong to: hidden
    states marginalized exactly for the HMM; for the Markov model the
    initial distribution enters at day 1, and missing runs are
    marginalized through the multi-step transitions."""
    return float(_log_scaling(_scaling(panel, design, params)).sum())


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


def smoothed_marginals(panel: ObservationPanel, design: DesignMatrix,
                       params: Params) -> np.ndarray:
    """Exact p(H_it = s | Y_obs, theta), shape (N, T, S)."""
    L = _factors(panel, params)
    Q = transition_matrices(params, design)
    smoothed = _filter_all(L, Q, params.pi)[0] * _backward_messages(L, Q)
    total = smoothed.sum(axis=1, keepdims=True)
    return (smoothed / np.where(total > 0, total, 1.0)).transpose(2, 0, 1)


def viterbi(panel: ObservationPanel, design: DesignMatrix,
            params: Params) -> list[ViterbiPath]:
    """Most likely hidden path per subject (max-product DP, all subjects
    at once).

    Missing days contribute transition terms only.  Ties are broken toward
    the lower state index.
    """
    L = _factors(panel, params)
    Q = transition_matrices(params, design)
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
    return [ViterbiPath(states=s + 1, log_joint=float(d))
            for s, d in zip(states, delta.max(axis=0))]


def log_joint_hmm(panel: ObservationPanel, design: DesignMatrix,
                  params: Params, hidden: np.ndarray) -> float:
    """log p(H, Y_obs | theta) for a given hidden grid (checking aid for
    decoded paths; emissions count only on observed cells)."""
    h = np.asarray(hidden, dtype=np.int64)
    Q = transition_matrices(params, design)
    N, T = h.shape
    subjects = np.arange(N)[:, None]
    days = np.arange(T - 1)[None, :]
    with np.errstate(divide="ignore"):
        ll = np.log(params.pi[h[:, 0] - 1]).sum()
        ll += np.log(Q[days, h[:, :-1] - 1, h[:, 1:] - 1, subjects]).sum()
        obs = ~panel.mask
        ll += np.log(params.P[h[obs] - 1, panel.codes[obs] - 1]).sum()
    return float(ll)


def pointwise_predictive(panel: ObservationPanel, design: DesignMatrix,
                         params: Params) -> np.ndarray:
    """Per-cell predictive probability of each observed value: the forward
    filter's normalizer of that day, NaN on missing cells.

    For HMM parameters it is p(y_t | y_{1..t-1}, theta); for Markov
    parameters, p(y_t | previous observed value, theta), with multi-step
    transitions across gaps.
    """
    return np.where(panel.mask, np.nan, _scaling(panel, design, params))
