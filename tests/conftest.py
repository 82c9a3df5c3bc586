import itertools

import numpy as np
import pytest

from panelhmm import mcmc
from panelhmm.dataset import DesignMatrix, ObservationPanel, RawCovariates, build_design
from panelhmm.errors import InputError
from panelhmm.model import Params, transition_matrices

# acceptance verdict lines, echoed after the test report by the summary hook
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_design(n_subjects, n_days, rng, p=2):
    """A small standardized-looking design with p covariate columns."""
    values = rng.normal(0.0, 0.5, size=(n_subjects, n_days, p))
    return DesignMatrix(values=values, names=tuple(f"x{j}" for j in range(p)))


def trial_design(n_subjects, n_days, rng):
    """A design built through the real covariate pipeline."""
    d_drink = rng.uniform(0.05, 0.95, n_subjects)
    d_heavy = d_drink * rng.uniform(0.0, 1.0, n_subjects)
    raw = RawCovariates(
        treatment=rng.integers(0, 2, n_subjects),
        sex=rng.integers(0, 2, n_subjects),
        d_drink=d_drink,
        d_heavy=d_heavy,
    )
    return build_design(raw, n_days)


def random_hmm_params(n_subjects, S, M, p, rng, concentrated=False):
    alpha = rng.normal(0.0, 0.7, (n_subjects, S, S - 1))
    beta = rng.normal(0.0, 0.4, (S, S - 1, p))
    mu = rng.normal(0.0, 0.5, (S, S - 1))
    sigma = rng.uniform(0.3, 1.2, (S, S - 1))
    pi = rng.dirichlet(np.ones(S) * (8.0 if concentrated else 1.0))
    if concentrated:
        P = np.full((S, M), 0.02 / max(M - 1, 1))
        for s in range(S):
            P[s, min(s, M - 1)] = 0.98
        P = P / P.sum(axis=1, keepdims=True)
    else:
        P = rng.dirichlet(np.ones(M), size=S)
    return Params(alpha=alpha, beta=beta, mu=mu, sigma=sigma, pi=pi, P=P)


def random_markov_params(n_subjects, M, p, rng):
    alpha = rng.normal(0.0, 0.7, (n_subjects, M, M - 1))
    beta = rng.normal(0.0, 0.4, (M, M - 1, p))
    mu = rng.normal(0.0, 0.5, (M, M - 1))
    sigma = rng.uniform(0.3, 1.2, (M, M - 1))
    pi = rng.dirichlet(np.ones(M))
    return Params(alpha=alpha, beta=beta, mu=mu, sigma=sigma, pi=pi)


def random_instance(rng, n_subjects=1, n_days=5, S=3, M=3, p=2,
                    missing_rate=0.25):
    """A random (panel, design, params) triple with random missing cells."""
    design = random_design(n_subjects, n_days, rng, p=p)
    params = random_hmm_params(n_subjects, S, M, p, rng)
    codes = rng.integers(1, M + 1, size=(n_subjects, n_days))
    mask = rng.random((n_subjects, n_days)) < missing_rate
    panel = ObservationPanel(codes=np.where(mask, 0, codes), mask=mask,
                             m_levels=M)
    return panel, design, params


def enumerate_paths(panel, design, params, subject=0):
    """All hidden paths for one subject with their joint probabilities
    p(h, y_obs); the exhaustive oracle for likelihood, decoding, FFBS,
    and smoothing tests."""
    T = panel.n_days
    S = params.n_states
    Q = transition_matrices(params, design)
    paths = []
    probs = []
    for h in itertools.product(range(1, S + 1), repeat=T):
        prob = params.pi[h[0] - 1]
        for t in range(T - 1):
            prob *= Q[t, h[t] - 1, h[t + 1] - 1, subject]
        for t in range(T):
            if not panel.mask[subject, t]:
                prob *= params.P[h[t] - 1, panel.codes[subject, t] - 1]
        paths.append(h)
        probs.append(prob)
    return paths, np.array(probs)


def log_joint_hmm(panel, design, params, hidden):
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


def sample_params_from_prior(prior, n_subjects, n_rows, n_covariates, m_levels,
                             model_kind, rng):
    """Draw a full parameter state from the prior (requires a proper
    sigma prior, nu0 > 0); used for sampler validation."""
    if prior.sigma_nu0 <= 0:
        raise InputError("prior sampling requires a proper sigma prior (nu0 > 0)")
    R, K = n_rows, n_rows - 1
    sigma2 = (prior.sigma_nu0 * prior.sigma_s0sq
              / rng.chisquare(prior.sigma_nu0, size=(R, K)))
    sigma = np.sqrt(sigma2)
    mu = prior.mu_sd * rng.standard_normal((R, K))
    alpha = mu[None] + sigma[None] * rng.standard_normal((n_subjects, R, K))
    beta = prior.beta_sd * rng.standard_normal((R, K, n_covariates))
    pi = rng.dirichlet(np.full(R, mcmc._DIRICHLET))
    P = None
    if model_kind == "hmm":
        P = np.stack([rng.dirichlet(np.full(m_levels, mcmc._DIRICHLET))
                      for _ in range(R)])
    return Params(alpha=alpha, beta=beta, mu=mu, sigma=sigma, pi=pi, P=P)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
