"""Metropolis-within-Gibbs samplers for both models.

Each iteration alternates a data-augmentation draw (hidden states for the
HMM, imputed observations for the Markov model) with parameter updates:
random-walk Metropolis on the random intercepts and fixed effects, and
exact conjugate draws for the intercept means/sds, the initial
distribution, and the emission rows.

All four Metropolis moves (intercepts, fixed effects, and the joint
scale and location moves) take one path: ``_RowData.propose`` shifts a
target's logits and prices the shift, ``_accept`` runs the Metropolis
test, and ``_RowData.adopt`` keeps the shift where it was accepted.
Each sweep builds one such row cache per transition row, once, by
gathering from the logits its data step computed; the four moves share
those caches, and ``adopt`` keeps them in step with the parameters.

Sigma prior note: the default prior is flat on sigma (not sigma^2).  With
n intercepts and sum of squares SS around mu, the induced full
conditional is sigma^2 ~ SS / chi^2_{n-1}; a proper
scaled-inverse-chi-squared(nu0, s0^2) prior gives nu0 + n degrees of
freedom with scale sum nu0*s0^2 + SS.  Both run through the same draw.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import diagnostics, inference
from .dataset import DesignMatrix, ObservationPanel
from .errors import InputError, NumericalError
from .model import Params, inverse_softmax

TARGET_ACCEPTANCE = 0.44  # optimal for univariate random-walk proposals
START_STEPS = {"alpha": 0.4, "beta": 0.1}  # random-walk sds before adaptation
SCALE_STEP = 0.3  # sd of the log scale factor in update_scale_joint
LOCATION_STEP = 0.15  # sd of the shift in update_location_joint
_ADAPT_BATCH = 50
_DIRICHLET = 1.0  # uniform Dirichlet prior on pi and the emission rows


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters.

    ``sigma_prior`` is ``"flat-sigma"`` (default) or ``"inv-chisq"``; the
    latter requires ``sigma_nu0`` and ``sigma_s0sq`` and is the proper
    choice (used by sampler validation, which needs to draw from the
    prior).
    """

    beta_sd: float = 10.0
    mu_sd: float = 10.0
    sigma_prior: str = "flat-sigma"
    sigma_nu0: float | None = None
    sigma_s0sq: float | None = None

    def __post_init__(self):
        if self.beta_sd <= 0 or self.mu_sd <= 0:
            raise InputError("prior scales must be positive")
        if self.sigma_prior not in ("flat-sigma", "inv-chisq"):
            raise InputError(f"unknown sigma prior {self.sigma_prior!r}")
        if self.sigma_prior == "inv-chisq":
            if not (self.sigma_nu0 and self.sigma_nu0 > 0
                    and self.sigma_s0sq and self.sigma_s0sq > 0):
                raise InputError("inv-chisq sigma prior needs positive nu0 and s0sq")

    def sigma_conditional(self, n: int, ss: float) -> tuple:
        """(degrees of freedom, scale sum) of the sigma^2 full conditional."""
        if self.sigma_prior == "flat-sigma":
            nu, scale_sum = n - 1, ss
        else:
            nu, scale_sum = self.sigma_nu0 + n, self.sigma_nu0 * self.sigma_s0sq + ss
        if nu < 1:
            raise InputError(
                f"sigma full conditional undefined: {n} subjects with "
                f"{self.sigma_prior} prior"
            )
        return nu, scale_sum


@dataclass(frozen=True)
class SamplerConfig:
    n_chains: int = 3
    n_burnin: int = 10_000
    n_keep: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 1 or self.n_keep < 1 or self.n_burnin < 0:
            raise InputError("chain and iteration counts must be positive")


@dataclass
class Chain:
    """Post-burn-in draws of one chain, stacked along the first axis;
    ``draws`` holds ``P`` only for the HMM."""

    chain_index: int
    draws: dict
    deviance: np.ndarray
    acceptance: dict

    @property
    def n_kept(self) -> int:
        return self.deviance.size

    def params_at(self, g: int):
        """Reconstruct the full parameter object of draw g."""
        return Params(**{name: a[g] for name, a in self.draws.items()})


@dataclass
class ChainSet:
    """Merged multi-chain posterior sample."""

    chains: list

    @property
    def model_kind(self) -> str:
        """``"hmm"`` when the draws hold emissions ``P``, else ``"markov"``."""
        return "hmm" if "P" in self.chains[0].draws else "markov"

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def n_kept(self) -> int:
        return self.chains[0].n_kept

    def per_chain(self, name: str) -> np.ndarray:
        """Draws of one parameter array, shape (n_chains, n_kept, ...)."""
        if name == "deviance":
            return np.stack([c.deviance for c in self.chains])
        return np.stack([c.draws[name] for c in self.chains])

    def stacked(self, name: str) -> np.ndarray:
        """Draws pooled across chains, shape (n_chains * n_kept, ...)."""
        a = self.per_chain(name)
        # an explicit length: numpy cannot infer -1 when a trailing axis
        # is 0, as alpha's is for a one-state HMM
        return a.reshape((a.shape[0] * a.shape[1],) + a.shape[2:])

    def params_at(self, g: int):
        """Parameter object for pooled draw index g (chain-major order)."""
        chain, local = divmod(g, self.n_kept)
        return self.chains[chain].params_at(local)

    def posterior_mean_params(self):
        """Element-wise posterior mean parameters; probability vectors are
        averaged in probability space and renormalized."""
        def prob_mean(name):
            m = self.stacked(name).mean(axis=0)
            return m / m.sum(axis=-1, keepdims=True)

        return Params(
            alpha=self.stacked("alpha").mean(axis=0),
            beta=self.stacked("beta").mean(axis=0),
            mu=self.stacked("mu").mean(axis=0),
            sigma=self.stacked("sigma").mean(axis=0),
            pi=prob_mean("pi"),
            P=prob_mean("P") if self.model_kind == "hmm" else None,
        )


# -- EM initialization ------------------------------------------------------

@dataclass(frozen=True)
class EmFit:
    """Pooled homogeneous fit used to anchor chain starting points."""

    transition: np.ndarray
    emissions: np.ndarray | None
    initial: np.ndarray
    log_likelihoods: tuple


def _em_start(S: int, M: int) -> tuple:
    # Deterministic, mildly state-anchored start: state s leans toward
    # level round(1 + (s-1)(M-1)/(S-1)).  Breaks symmetry without an RNG.
    A = np.full((S, S), 0.2 / S) + 0.8 * np.eye(S)
    A /= A.sum(axis=1, keepdims=True)
    P = np.ones((S, M))
    for s in range(S):
        anchor = 0 if S == 1 else round(s * (M - 1) / (S - 1))
        P[s, anchor] += 2.0
    P /= P.sum(axis=1, keepdims=True)
    return A, P, np.full(S, 1.0 / S)


def em_initialize(panel: ObservationPanel, S: int, tol: float = 1e-8,
                  max_iter: int = 500) -> EmFit:
    """Baum-Welch MLE of a homogeneous HMM pooled over all subjects.

    Missing cells are marginalized.  The log-likelihood sequence is
    monotone nondecreasing; iteration stops when the improvement drops
    below ``tol`` or after ``max_iter`` iterations.
    """
    if panel.n_subjects == 0 or panel.n_days == 0:
        raise InputError("cannot run EM on an empty panel")
    A, P, pi = _em_start(S, panel.m_levels)
    lls = []
    for _ in range(max_iter):
        ll, xi, emissions, initial = inference._expected_counts(panel.codes, A, P, pi)
        lls.append(ll)
        A = xi / xi.sum(axis=1, keepdims=True)
        P = emissions / np.clip(emissions.sum(axis=1, keepdims=True), 1e-300, None)
        pi = initial / initial.sum()
        if len(lls) > 1 and lls[-1] - lls[-2] < tol:
            break
    return EmFit(transition=A, emissions=P, initial=pi, log_likelihoods=tuple(lls))


def empirical_markov_fit(panel: ObservationPanel) -> EmFit:
    """Pooled empirical transition frequencies over adjacent observed
    pairs, add-one smoothed; the Markov-model analogue of the EM anchor."""
    M = panel.m_levels
    counts = np.ones((M, M))
    prev, nxt = panel.codes[:, :-1], panel.codes[:, 1:]
    both = ~panel.mask[:, :-1] & ~panel.mask[:, 1:]
    np.add.at(counts, (prev[both] - 1, nxt[both] - 1), 1.0)
    A = counts / counts.sum(axis=1, keepdims=True)
    first = panel.codes[:, 0][~panel.mask[:, 0]]
    pi = np.bincount(first - 1, minlength=M) + 1.0
    pi /= pi.sum()
    return EmFit(transition=A, emissions=None, initial=pi, log_likelihoods=())


def init_chain(em_fit: EmFit, n_subjects: int, n_covariates: int,
               chain_index: int = 0, jitter_scale: float = 0.1,
               seed: int = 0) -> Params:
    """Starting parameters anchored at the pooled fit.

    beta starts at zero, mu at the softmax inverse of the pooled
    transition rows (so the implied matrix at alpha = mu, x = 0 equals the
    pooled matrix), alpha at mu plus a small per-chain jitter, sigma at 1.
    An anchor with emissions (:func:`em_initialize`) gives an HMM start,
    one without (:func:`empirical_markov_fit`) a Markov start.
    """
    A = em_fit.transition
    R = A.shape[0]
    K = R - 1
    mu = np.stack([inverse_softmax(A[r]) for r in range(R)])
    rng = np.random.default_rng(np.random.SeedSequence((seed, 977, chain_index)))
    alpha = mu[None, :, :] + jitter_scale * rng.standard_normal((n_subjects, R, K))
    beta = np.zeros((R, K, n_covariates))
    sigma = np.ones((R, K))
    pi = np.clip(em_fit.initial, 1e-6, None)
    pi = pi / pi.sum()
    P = None
    if em_fit.emissions is not None:
        P = np.clip(em_fit.emissions, 1e-6, None)
        P = P / P.sum(axis=1, keepdims=True)
    return Params(alpha=alpha, beta=beta, mu=mu, sigma=sigma, pi=pi, P=P)


# -- complete-data multinomial-logit machinery ------------------------------

def _log_denominator(columns, n: int) -> np.ndarray:
    """log(1 + sum_j exp(c_j)) per point over the 1-D target columns c_j
    (n points each): the log-denominator of a multinomial logit with a
    baseline logit of 0.  Shifted by m = max(0, max_j c_j), so no
    exponential overflows."""
    m = np.zeros(n)
    for c in columns:
        np.maximum(m, c, out=m)
    total = np.exp(-m)
    for c in columns:
        total += np.exp(c - m)
    return m + np.log(total)


class _RowData:
    """Sufficient structure for one transition row given complete sequences:
    the points (subject, day) whose row value matches, their design
    vectors, targets, and current logits and log-denominators.

    A sweep gathers one cache per row from the data step's logits and
    passes it to all four Metropolis moves: :meth:`propose` prices a shift
    of one target's logits and :meth:`adopt` keeps it where it was
    accepted, so the cache stays in step with the parameters."""

    def __init__(self, seq: np.ndarray, design: DesignMatrix, eta: np.ndarray,
                 row: int):
        i_arr, t_arr = np.nonzero(seq[:, :-1] == row)
        self.i_arr = i_arr
        self.X = design.values[i_arr, t_arr]          # (n_pts, p)
        self.target = seq[i_arr, t_arr + 1]           # 1-based
        self.eta = eta[t_arr, row - 1, :, i_arr]      # (n_pts, K)
        self.log_denom = _log_denominator(self.eta.T, i_arr.size)

    def propose(self, k: int, d) -> tuple:
        """Shift target k's logit by ``d``, a scalar or one value per point.

        Returns the shifted logits, their log-denominators and the
        per-point change of the complete-data log-likelihood.
        """
        eta_k = self.eta[:, k] + d
        others = [self.eta[:, j] for j in range(self.eta.shape[1]) if j != k]
        log_denom = _log_denominator([eta_k] + others, eta_k.size)
        dll = np.where(self.target == k + 2, d, 0.0) - log_denom + self.log_denom
        return eta_k, log_denom, dll

    def adopt(self, k: int, eta_k: np.ndarray, log_denom: np.ndarray,
              at=slice(None)) -> None:
        """Keep a :meth:`propose` shift of target k at the points ``at``."""
        self.eta[at, k] = eta_k[at]
        self.log_denom[at] = log_denom[at]


def _row_caches(seq: np.ndarray, design: DesignMatrix, eta: np.ndarray) -> list:
    """One :class:`_RowData` per row, gathered from the (T-1, R, K, N)
    transition logits ``eta`` of the parameters ``seq`` was drawn under."""
    return [_RowData(seq, design, eta, r + 1) for r in range(eta.shape[1])]


def _blocks(rows: list):
    """Yield ``(row cache, r, k)`` for every (row, target) block, row by row."""
    for r, data in enumerate(rows):
        for k in range(data.eta.shape[1]):
            yield data, r, k


def _accept(name: str, log_ratio, rng: np.random.Generator):
    """Metropolis test of one proposal, or of one per entry of an array
    ``log_ratio``; a non-finite ratio is a numerical error."""
    if not np.all(np.isfinite(log_ratio)):
        raise NumericalError(f"non-finite posterior quantity in {name} update")
    return np.log(rng.random(np.shape(log_ratio) or None)) < log_ratio


def update_alpha(params, rows: list, rng: np.random.Generator,
                 steps) -> np.ndarray:
    """Random-walk Metropolis update of every random intercept.

    ``rows`` holds the row caches of :func:`_row_caches` for the complete
    (N, T) grid of row values (hidden states for the HMM, complete
    observations for the Markov model), in step with ``params``.
    Proposals for a given (row, target) block are made jointly across
    subjects, which is valid because the intercepts are conditionally
    independent given the fixed effects.  ``steps`` holds the (R, K)
    proposal sds.  Returns the (R, K) acceptance fractions.
    """
    N, R, K = params.alpha.shape
    steps = np.broadcast_to(np.asarray(steps, dtype=float), (R, K))
    acc = np.zeros((R, K))
    for data, r, k in _blocks(rows):
        d = steps[r, k] * rng.standard_normal(N)
        eta_k, log_denom, dll = data.propose(k, d[data.i_arr])
        a_old = params.alpha[:, r, k]
        a_new = a_old + d
        dprior = ((a_old - params.mu[r, k]) ** 2
                  - (a_new - params.mu[r, k]) ** 2) / (2.0 * params.sigma[r, k] ** 2)
        dll = np.bincount(data.i_arr, weights=dll, minlength=N)
        accept = _accept("alpha", dll + dprior, rng)
        params.alpha[accept, r, k] = a_new[accept]
        data.adopt(k, eta_k, log_denom, accept[data.i_arr])
        acc[r, k] = accept.mean()
    return acc


def update_beta(params, rows: list, prior: PriorSpec,
                rng: np.random.Generator, steps) -> np.ndarray:
    """Univariate random-walk Metropolis update of every fixed effect, with
    the row caches ``rows`` and the (R, K, p) proposal sds ``steps``.
    Returns the (R, K, p) acceptance indicators (0 or 1 per scalar)."""
    R, K, p = params.beta.shape
    steps = np.broadcast_to(np.asarray(steps, dtype=float), (R, K, p))
    acc = np.zeros((R, K, p))
    for data, r, k in _blocks(rows):
        for j in range(p):
            db = steps[r, k, j] * rng.standard_normal()
            eta_k, log_denom, dll = data.propose(k, data.X[:, j] * db)
            b_old = params.beta[r, k, j]
            b_new = b_old + db
            dprior = (b_old ** 2 - b_new ** 2) / (2.0 * prior.beta_sd ** 2)
            if _accept("beta", float(np.sum(dll)) + dprior, rng):
                params.beta[r, k, j] = b_new
                data.adopt(k, eta_k, log_denom)
                acc[r, k, j] = 1.0
    return acc


def update_mu(params, prior: PriorSpec, rng: np.random.Generator) -> None:
    """Exact conjugate normal draw of every random-intercept mean."""
    N = params.alpha.shape[0]
    sig2 = params.sigma ** 2
    prec = N / sig2 + 1.0 / prior.mu_sd ** 2
    mean = (params.alpha.sum(axis=0) / sig2) / prec
    params.mu[...] = mean + rng.standard_normal(params.mu.shape) / np.sqrt(prec)


def update_sigma(params, prior: PriorSpec, rng: np.random.Generator) -> None:
    """Exact scaled-inverse-chi-squared draw of every intercept variance;
    :meth:`PriorSpec.sigma_conditional` rejects a prior and subject count
    that leave it undefined."""
    N = params.alpha.shape[0]
    ss = ((params.alpha - params.mu[None]) ** 2).sum(axis=0)
    R, K = params.mu.shape
    for r in range(R):
        for k in range(K):
            nu, scale_sum = prior.sigma_conditional(N, float(ss[r, k]))
            draw = scale_sum / rng.chisquare(nu)
            params.sigma[r, k] = np.sqrt(max(draw, 1e-300))


def _log_prior_sigma(prior: PriorSpec, sigma: float) -> float:
    """Unnormalized log prior density on the sigma scale."""
    if prior.sigma_prior == "flat-sigma":
        return 0.0
    return float(-(prior.sigma_nu0 + 1.0) * np.log(sigma)
                 - prior.sigma_nu0 * prior.sigma_s0sq / (2.0 * sigma ** 2))


def update_scale_joint(params, rows: list, prior: PriorSpec,
                       rng: np.random.Generator) -> np.ndarray:
    """Joint rescaling of each (row, target) intercept block with its sd.

    Proposes sigma' = sigma * e^eps and moves every deviation alpha_i - mu
    by the same factor.  The hierarchical prior terms cancel against the
    transform Jacobian, leaving the complete-data likelihood ratio times
    p(sigma') * sigma' / (p(sigma) * sigma).  This move travels the
    narrow-sigma funnel that coordinatewise updates cross only slowly.
    Returns the (R, K) acceptance indicators.
    """
    acc = np.zeros(params.mu.shape)
    for data, r, k in _blocks(rows):
        sigma_old = params.sigma[r, k]
        factor = float(np.exp(SCALE_STEP * rng.standard_normal()))
        sigma_new = sigma_old * factor
        d = (factor - 1.0) * (params.alpha[:, r, k] - params.mu[r, k])
        eta_k, log_denom, dll = data.propose(k, d[data.i_arr])
        log_ratio = (float(np.sum(dll))
                     + _log_prior_sigma(prior, sigma_new)
                     - _log_prior_sigma(prior, sigma_old)
                     + np.log(factor))
        if _accept("scale", log_ratio, rng):
            params.sigma[r, k] = sigma_new
            params.alpha[:, r, k] += d
            data.adopt(k, eta_k, log_denom)
            acc[r, k] = 1.0
    return acc


def update_location_joint(params, rows: list, prior: PriorSpec,
                          rng: np.random.Generator) -> np.ndarray:
    """Joint translation of each (row, target) block: mu and every
    intercept shift by the same amount, so the hierarchical prior terms
    are unchanged and only the likelihood and the mu prior enter.
    Returns the (R, K) acceptance indicators."""
    acc = np.zeros(params.mu.shape)
    for data, r, k in _blocks(rows):
        d = LOCATION_STEP * rng.standard_normal()
        eta_k, log_denom, dll = data.propose(k, d)
        mu_old = params.mu[r, k]
        mu_new = mu_old + d
        dprior = (mu_old ** 2 - mu_new ** 2) / (2.0 * prior.mu_sd ** 2)
        if _accept("location", float(np.sum(dll)) + dprior, rng):
            params.mu[r, k] = mu_new
            params.alpha[:, r, k] += d
            data.adopt(k, eta_k, log_denom)
            acc[r, k] = 1.0
    return acc


def update_pi(params, first_values: np.ndarray,
              rng: np.random.Generator) -> None:
    """Dirichlet draw of the initial distribution from day-1 counts."""
    R = params.pi.size
    counts = np.bincount(np.asarray(first_values, dtype=np.int64) - 1, minlength=R)
    params.pi[...] = rng.dirichlet(_DIRICHLET + counts)


def update_emissions(params: Params, hidden: np.ndarray,
                     panel: ObservationPanel,
                     rng: np.random.Generator) -> None:
    """Dirichlet draw of each emission row from (hidden, observed-level)
    co-occurrence counts over observed cells only."""
    S, M = params.P.shape
    obs = ~panel.mask
    counts = np.zeros((S, M))
    np.add.at(counts, (hidden[obs] - 1, panel.codes[obs] - 1), 1.0)
    for s in range(S):
        params.P[s] = rng.dirichlet(_DIRICHLET + counts[s])


# -- chain orchestration ----------------------------------------------------

def _sweep(params, panel: ObservationPanel, design: DesignMatrix,
           prior: PriorSpec, rng: np.random.Generator, steps: dict) -> tuple:
    """One Metropolis-within-Gibbs sweep, updating ``params`` in place.

    The data step draws the complete grid and returns its transition
    logits; the row caches are gathered from those logits once and shared
    by the four Metropolis moves, whose adopted shifts keep them in step
    with ``params`` (the mu and sigma draws leave the logits unchanged).
    ``steps`` holds the proposal sds of :func:`update_alpha` and
    :func:`update_beta`, keyed ``"alpha"`` and ``"beta"``.  Returns the
    log-likelihood of the parameters the sweep started from and the two
    moves' acceptance, keyed the same way.
    """
    seq, loglik, eta = inference.draw_complete_data(panel, design, params, rng)
    rows = _row_caches(seq, design, eta)
    acc = {"alpha": update_alpha(params, rows, rng, steps["alpha"]),
           "beta": update_beta(params, rows, prior, rng, steps["beta"])}
    update_mu(params, prior, rng)
    update_sigma(params, prior, rng)
    update_scale_joint(params, rows, prior, rng)
    update_location_joint(params, rows, prior, rng)
    if params.P is not None:
        update_emissions(params, seq, panel, rng)
    update_pi(params, seq[:, 0], rng)
    return loglik, acc


def run_chain(panel: ObservationPanel, design: DesignMatrix, prior: PriorSpec,
              config: SamplerConfig, init_params: Params,
              chain_index: int = 0) -> Chain:
    """Run one chain from ``init_params`` and return its post-burn-in draws.

    The start decides the model: the HMM when it holds emissions ``P``,
    the Markov model otherwise.  Fully reproducible from
    ``(config.seed, chain_index)`` and the start, which :func:`run_chains`
    builds with :func:`init_chain`.  Each kept draw's deviance comes from
    the next sweep's forward filter, which runs on exactly that draw's
    parameters; only the last kept draw needs a likelihood pass of its own.
    Every burn-in batch moves each proposal sd toward
    ``TARGET_ACCEPTANCE``, from ``START_STEPS``.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, chain_index)))
    params = init_params.copy()
    shapes = {"alpha": params.mu.shape, "beta": params.beta.shape}
    steps = {move: np.full(shape, START_STEPS[move]) for move, shape in shapes.items()}
    batch = {move: np.zeros(shape) for move, shape in shapes.items()}
    acceptance = {move: np.zeros(shape) for move, shape in shapes.items()}
    n_total = config.n_burnin + config.n_keep
    kept = {name: [] for name, a in vars(params).items() if a is not None}
    deviance = np.zeros(config.n_keep)
    adapt_round = 0
    for g in range(n_total):
        loglik, acc = _sweep(params, panel, design, prior, rng, steps)
        if g > config.n_burnin:  # the sweep started from kept draw g - 1
            deviance[g - 1 - config.n_burnin] = -2.0 * loglik
        if g < config.n_burnin:
            for move in batch:
                batch[move] += acc[move]
            if (g + 1) % _ADAPT_BATCH == 0:
                adapt_round += 1
                gain = 1.0 / np.sqrt(adapt_round)
                for move, step in steps.items():
                    step *= np.exp(gain * (batch[move] / _ADAPT_BATCH
                                           - TARGET_ACCEPTANCE))
                    np.clip(step, 1e-3, 50.0, out=step)
                    batch[move][...] = 0.0
        else:
            for move in acceptance:
                acceptance[move] += acc[move]
            for name in kept:
                kept[name].append(getattr(params, name).copy())
    deviance[-1] = diagnostics.deviance(panel, design, params)
    return Chain(
        chain_index=chain_index,
        draws={name: np.stack(values) for name, values in kept.items()},
        deviance=deviance,
        acceptance={move: total / config.n_keep for move, total in acceptance.items()},
    )


def run_chains(model_kind: str, panel: ObservationPanel, design: DesignMatrix,
               prior: PriorSpec | None = None,
               config: SamplerConfig | None = None,
               n_states: int | None = None) -> ChainSet:
    """Run ``config.n_chains`` independently seeded chains.

    Chains share the pooled anchor fit but receive per-chain jitter; each
    chain's output depends only on ``(config.seed, chain_index)``, so the
    result is invariant to execution order.  The chains run in worker
    processes forked from this one, one per chain up to two per usable
    CPU (further chains wait for a free worker); with one usable CPU,
    one chain, or no ``fork`` start method they run here, one after
    another.  Either way the output is the same bit for bit, with
    the chains in ``chain_index`` order, and an error raised in a chain
    reaches the caller as the same exception type.  ``n_states`` defaults
    to the number of observed levels (HMM only; the Markov model's rows
    are the levels themselves).
    """
    prior = prior or PriorSpec()
    config = config or SamplerConfig()
    if model_kind == "hmm":
        S = n_states if n_states is not None else panel.m_levels
        if S < 1:
            raise InputError(f"{S} hidden states: an HMM needs at least 1")
        anchor = em_initialize(panel, S=S)
    elif model_kind == "markov":
        anchor = empirical_markov_fit(panel)
    else:
        raise InputError(f"unknown model kind {model_kind!r}")
    starts = [init_chain(anchor, panel.n_subjects, design.p, chain_index=c,
                         seed=config.seed)
              for c in range(config.n_chains)]
    run = functools.partial(run_chain, panel, design, prior, config)
    indices = range(config.n_chains)
    workers = _chain_workers(config.n_chains)
    if workers == 1:
        chains = list(map(run, starts, indices))
    else:
        # fork: spawn and forkserver start each worker by re-importing the
        # caller's main module, which re-runs a script without a __main__
        # guard, and they start slower
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            chains = list(pool.map(run, starts, indices))
    return ChainSet(chains=chains)


def _chain_workers(n_chains: int) -> int:
    """Worker processes for ``n_chains`` chains: one per chain, so the OS
    shares the CPUs among all of them and no CPU idles while the last
    chains run, but at most two per usable CPU, since each worker holds
    a whole chain's draws; 1 (run in process) when only one CPU is
    usable or there is no ``fork``."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return 1 if cpus < 2 else min(n_chains, 2 * cpus)


def sample_params_from_prior(prior: PriorSpec, n_subjects: int, n_rows: int,
                             n_covariates: int, m_levels: int,
                             model_kind: str, rng: np.random.Generator):
    """Draw a full parameter state from the prior (requires the proper
    inv-chisq sigma prior); used for sampler validation."""
    if prior.sigma_prior != "inv-chisq":
        raise InputError("prior sampling requires the proper inv-chisq sigma prior")
    R, K = n_rows, n_rows - 1
    sigma2 = (prior.sigma_nu0 * prior.sigma_s0sq
              / rng.chisquare(prior.sigma_nu0, size=(R, K)))
    sigma = np.sqrt(sigma2)
    mu = prior.mu_sd * rng.standard_normal((R, K))
    alpha = mu[None] + sigma[None] * rng.standard_normal((n_subjects, R, K))
    beta = prior.beta_sd * rng.standard_normal((R, K, n_covariates))
    pi = rng.dirichlet(np.full(R, _DIRICHLET))
    P = None
    if model_kind == "hmm":
        P = np.stack([rng.dirichlet(np.full(m_levels, _DIRICHLET))
                      for _ in range(R)])
    return Params(alpha=alpha, beta=beta, mu=mu, sigma=sigma, pi=pi, P=P)
