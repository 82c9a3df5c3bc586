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

Sigma prior note: sigma has a scaled-inverse-chi-squared(nu0, s0^2)
prior.  With n intercepts and sum of squares SS around mu, the full
conditional is sigma^2 ~ (nu0*s0^2 + SS) / chi^2_{nu0+n}.  The default
(nu0, s0^2) = (-1, 0) is the flat prior on sigma (not sigma^2), whose
conditional is SS / chi^2_{n-1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import diagnostics, inference, pool
from .dataset import DesignMatrix, ObservationPanel
from .errors import InputError, NumericalError
from .model import Params, inverse_softmax, unpack

TARGET_ACCEPTANCE = 0.44  # optimal for univariate random-walk proposals
START_STEPS = {"alpha": 0.4, "beta": 0.1}  # random-walk sds before adaptation
SCALE_STEP = 0.3  # sd of the log scale factor in update_scale_joint
LOCATION_STEP = 0.15  # sd of the shift in update_location_joint
_ADAPT_BATCH = 50
EM_MAX_ITER = 500  # Baum-Welch iterations of em_initialize at most
_DIRICHLET = 1.0  # uniform Dirichlet prior on pi and the emission rows


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters.

    sigma has the scaled-inverse-chi-squared(``sigma_nu0``, ``sigma_s0sq``)
    prior p(sigma) ∝ sigma^-(nu0+1) exp(-nu0 s0^2 / (2 sigma^2)).  The
    default (-1, 0) makes that density 1, the flat prior on sigma; any
    other pair must be positive, a proper prior, which sampler validation
    needs in order to draw from it.
    """

    beta_sd: float = 10.0
    mu_sd: float = 10.0
    sigma_nu0: float = -1.0
    sigma_s0sq: float = 0.0

    def __post_init__(self):
        if self.beta_sd <= 0 or self.mu_sd <= 0:
            raise InputError("prior scales must be positive")
        flat = self.sigma_nu0 == -1 and self.sigma_s0sq == 0
        if not (flat or (self.sigma_nu0 > 0 and self.sigma_s0sq > 0)):
            raise InputError("sigma prior needs nu0 = -1 with s0sq = 0 (flat), "
                             "or positive nu0 and s0sq")

    def sigma_conditional(self, n: int, ss):
        """(degrees of freedom, scale sum) of the sigma^2 full conditional
        of ``n`` intercepts whose sum of squares around mu is ``ss``."""
        nu = self.sigma_nu0 + n
        if nu < 1:
            raise InputError(f"sigma full conditional undefined: {n} subjects "
                             f"with sigma prior nu0 = {self.sigma_nu0:g}")
        return nu, self.sigma_nu0 * self.sigma_s0sq + ss


@dataclass(frozen=True)
class SamplerConfig:
    n_chains: int = 3
    n_burnin: int = 10_000
    n_keep: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 1 or self.n_keep < 1 or self.n_burnin < 0:
            raise InputError("chain and iteration counts must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative; got {self.seed}")


@dataclass
class Chain:
    """Post-burn-in draws of one chain: row g of ``values`` is draw g's
    :attr:`Params.vector`, and ``shapes`` its :attr:`Params.shapes`."""

    chain_index: int
    values: np.ndarray
    shapes: dict
    deviance: np.ndarray
    acceptance: dict

    @property
    def n_kept(self) -> int:
        return self.deviance.size

    @property
    def draws(self) -> dict:
        """Each parameter array's draws, shaped (n_kept, ...): writable
        views into ``values``, with ``P`` only for the HMM."""
        return unpack(self.values, self.shapes)

    def params_at(self, g: int):
        """Reconstruct the full parameter object of draw g."""
        return Params(**unpack(self.values[g], self.shapes))


@dataclass
class ChainSet:
    """Merged multi-chain posterior sample."""

    chains: list

    @property
    def model_kind(self) -> str:
        """``"hmm"`` when the draws hold emissions ``P``, else ``"markov"``."""
        return "hmm" if "P" in self.chains[0].shapes else "markov"

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

    def params_at(self, g: int):
        """Parameter object for pooled draw index g (chain-major order)."""
        chain, local = divmod(g, self.n_kept)
        return self.chains[chain].params_at(local)

    def posterior_mean_params(self):
        """Element-wise posterior mean parameters; probability vectors are
        averaged in probability space and renormalized.

        The draws are added one row at a time, in order from the first:
        the additions of one axis-0 sum over every draw, without a copy
        of every draw."""
        total = functools.reduce(np.add, (row for c in self.chains for row in c.values))
        mean = total / sum(c.n_kept for c in self.chains)
        arrays = unpack(mean, self.chains[0].shapes)
        for name in ("pi", "P"):
            if name in arrays:
                arrays[name] /= arrays[name].sum(axis=-1, keepdims=True)
        return Params(**arrays)


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


def em_initialize(panel: ObservationPanel, S: int) -> EmFit:
    """Baum-Welch MLE of a homogeneous HMM pooled over all subjects.

    Missing cells are marginalized.  The log-likelihood sequence is
    monotone nondecreasing; iteration stops when the improvement drops
    below 1e-8 or after ``EM_MAX_ITER`` iterations.
    """
    if panel.n_subjects == 0 or panel.n_days == 0:
        raise InputError("cannot run EM on an empty panel")
    A, P, pi = _em_start(S, panel.m_levels)
    lls = []
    for _ in range(EM_MAX_ITER):
        ll, xi, emissions, initial = inference._expected_counts(panel.codes, A, P, pi)
        lls.append(ll)
        A = xi / xi.sum(axis=1, keepdims=True)
        P = emissions / np.clip(emissions.sum(axis=1, keepdims=True), 1e-300, None)
        pi = initial / initial.sum()
        if len(lls) > 1 and lls[-1] - lls[-2] < 1e-8:
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
               chain_index: int = 0, seed: int = 0) -> Params:
    """Starting parameters anchored at the pooled fit.

    beta starts at zero, mu at the softmax inverse of the pooled
    transition rows (so the implied matrix at alpha = mu, x = 0 equals the
    pooled matrix), alpha at mu plus a per-chain jitter of sd 0.1, sigma at 1.
    An anchor with emissions (:func:`em_initialize`) gives an HMM start,
    one without (:func:`empirical_markov_fit`) a Markov start.
    """
    A = em_fit.transition
    R = A.shape[0]
    K = R - 1
    mu = np.stack([inverse_softmax(A[r]) for r in range(R)])
    rng = np.random.default_rng(np.random.SeedSequence((seed, 977, chain_index)))
    alpha = mu[None, :, :] + 0.1 * rng.standard_normal((n_subjects, R, K))
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
    N = params.alpha.shape[0]
    acc = np.zeros(params.mu.shape)
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
    acc = np.zeros(params.beta.shape)
    for data, r, k in _blocks(rows):
        for j in range(params.beta.shape[2]):
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
    nu, scale_sum = prior.sigma_conditional(N, ss)
    draw = scale_sum / rng.chisquare(nu, size=ss.shape)
    params.sigma[...] = np.sqrt(np.maximum(draw, 1e-300))


def _log_prior_sigma(prior: PriorSpec, sigma: float) -> float:
    """Unnormalized log prior density on the sigma scale (±0 under the
    flat default)."""
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
    draws = np.empty((config.n_keep, params.vector.size))
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
            draws[g - config.n_burnin] = params.vector
    deviance[-1] = diagnostics.deviance(panel, design, params)
    return Chain(chain_index=chain_index, values=draws, shapes=params.shapes,
                 deviance=deviance,
                 acceptance={move: total / config.n_keep for move, total in acceptance.items()})


def run_chains(model_kind: str, panel: ObservationPanel, design: DesignMatrix,
               config: SamplerConfig | None = None,
               n_states: int | None = None) -> ChainSet:
    """Run ``config.n_chains`` independently seeded chains.

    Chains share the pooled anchor fit but receive per-chain jitter; each
    chain's output depends only on ``(config.seed, chain_index)``, so the
    result is invariant to execution order.  The chains run through
    :func:`pool.fork_map`, which decides how many worker processes to
    fork, if any.  Either way the output is the same bit for bit, with
    the chains in ``chain_index`` order, and an error raised in a chain
    reaches the caller as the same exception type.  ``n_states`` defaults
    to the number of observed levels, the Markov model's rows, and only
    an HMM may have another number.  The prior is :class:`PriorSpec`'s
    default; :func:`run_chain` takes any other.
    """
    config = config or SamplerConfig()
    S = panel.m_levels if n_states is None else n_states
    if model_kind == "hmm":
        if S < 1:
            raise InputError(f"{S} hidden states: an HMM needs at least 1")
        anchor = em_initialize(panel, S=S)
    elif model_kind == "markov":
        if S != panel.m_levels:
            raise InputError(f"{S} states: a Markov model's states are the "
                             f"{panel.m_levels} observed levels")
        anchor = empirical_markov_fit(panel)
    else:
        raise InputError(f"unknown model kind {model_kind!r}")
    starts = [init_chain(anchor, panel.n_subjects, design.p, chain_index=c,
                         seed=config.seed)
              for c in range(config.n_chains)]

    def chain(c):
        return run_chain(panel, design, PriorSpec(), config, starts[c],
                         chain_index=c)

    return ChainSet(chains=pool.fork_map(chain, range(config.n_chains)))
