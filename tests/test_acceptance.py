"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or
in captured output on failure).  Criterion 11 requires the clinical-trial
data files and is skipped when they are absent.
"""

import itertools
import os
import time

import numpy as np
import pytest
from scipy import stats

from panelhmm import mcmc
from panelhmm.analytics import (
    average_transition_difference,
    ppc_quantile,
    ppc_replicates,
    ppc_statistics,
    stationary_distribution,
)
from panelhmm.dataset import ObservationPanel
from panelhmm.diagnostics import _ess_rows, _rhat_rows, dic
from panelhmm.inference import (
    draw_complete_data,
    log_likelihood,
    viterbi,
)
from panelhmm.mcmc import (
    Chain,
    ChainSet,
    PriorSpec,
    SamplerConfig,
    run_chains,
    update_emissions,
    update_mu,
    update_pi,
    update_sigma,
)
from panelhmm.model import (
    Params,
    inverse_softmax,
    simulate,
    softmax_rows,
    transition_matrices,
)

from conftest import (
    ACCEPTANCE_LINES,
    enumerate_paths,
    log_joint_hmm,
    random_design,
    random_instance,
    sample_params_from_prior,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def _verdict(number, description, ok):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {description}"
    print(line)
    # echoed in the terminal summary so the line survives output capture
    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number} failed: {description}"


def _one_draw_chain_set(params):
    chain = Chain(chain_index=0, values=params.vector[None], shapes=params.shapes,
                  deviance=np.zeros(1), acceptance={})
    return ChainSet(chains=[chain])


@pytest.fixture(scope="module")
def oracle_instances():
    rng = np.random.default_rng(2024)
    instances = []
    for _ in range(50):
        T = int(rng.integers(2, 7))
        S = int(rng.integers(2, 4))
        panel, design, params = random_instance(
            rng, n_subjects=1, n_days=T, S=S, M=3, missing_rate=0.25)
        paths, probs = enumerate_paths(panel, design, params)
        instances.append((panel, design, params, paths, probs))
    return instances


@pytest.fixture(scope="module")
def small_fits():
    rng = np.random.default_rng(88)
    panel, design, _ = random_instance(rng, n_subjects=8, n_days=25,
                                       missing_rate=0.1)
    config = SamplerConfig(n_chains=2, n_burnin=40, n_keep=30, seed=6)
    hmm = run_chains("hmm", panel, design, config=config)
    markov = run_chains("markov", panel, design, config=config)
    return panel, design, hmm, markov


def test_criterion_01_likelihood_oracle(oracle_instances):
    worst = 0.0
    elapsed = 0.0
    for panel, design, params, _, probs in oracle_instances:
        t0 = time.perf_counter()
        got = np.exp(log_likelihood(panel, design, params))
        elapsed += time.perf_counter() - t0
        worst = max(worst, abs(got - probs.sum()) / probs.sum())
    _verdict(1, f"likelihood matches path enumeration on 50 instances "
                f"(max rel err {worst:.2e}, {elapsed:.3f}s)",
             worst < 1e-10 and elapsed < 1.0)


def test_criterion_02_viterbi_oracle(oracle_instances):
    ok = True
    elapsed = 0.0
    for panel, design, params, paths, probs in oracle_instances:
        t0 = time.perf_counter()
        states, _ = viterbi(panel, design, params)
        elapsed += time.perf_counter() - t0
        best = probs.max()
        joint = np.exp(log_joint_hmm(panel, design, params, states))
        ok = ok and joint >= best * (1 - 1e-12)
    _verdict(2, f"decoded paths achieve the enumerated maximum on 50 "
                f"instances ({elapsed:.3f}s)", ok and elapsed < 1.0)


def test_criterion_03_ffbs_exactness():
    rng = np.random.default_rng(303)
    panel, design, params = random_instance(rng, n_subjects=1, n_days=4,
                                            S=2, M=3, missing_rate=0.3)
    paths, probs = enumerate_paths(panel, design, params)
    probs = probs / probs.sum()
    index = {h: k for k, h in enumerate(paths)}
    # replicate the subject so one vectorized call yields all draws
    n_draws = 100_000
    big_panel = ObservationPanel(
        codes=np.repeat(panel.codes, n_draws, axis=0),
        mask=np.repeat(panel.mask, n_draws, axis=0), m_levels=3)
    big_design = type(design)(values=np.repeat(design.values, n_draws, axis=0),
                              names=design.names)
    big_params = params.copy()
    big_params.alpha = np.repeat(params.alpha, n_draws, axis=0)
    t0 = time.perf_counter()
    draws = draw_complete_data(big_panel, big_design, big_params, rng)[0]
    elapsed = time.perf_counter() - t0
    counts = np.zeros(len(paths))
    for h in draws:
        counts[index[tuple(h)]] += 1
    tv = 0.5 * np.abs(counts / n_draws - probs).sum()
    _verdict(3, f"FFBS total variation vs enumerated posterior over "
                f"{len(paths)} paths is {tv:.4f} ({elapsed:.1f}s)",
             tv < 0.01 and elapsed < 10.0)


def test_criterion_04_conjugate_updates():
    rng = np.random.default_rng(404)
    n_draws = 100_000
    N = 10
    params = Params(
        alpha=rng.normal(0.3, 0.9, (N, 3, 2)), beta=np.zeros((3, 2, 2)),
        mu=rng.normal(0, 0.5, (3, 2)), sigma=rng.uniform(0.5, 1.0, (3, 2)),
        pi=np.full(3, 1 / 3), P=np.full((3, 3), 1 / 3),
    )
    prior = PriorSpec(mu_sd=2.0)
    mu_fixed = params.mu.copy()

    sig2 = params.sigma[0, 0] ** 2
    prec = N / sig2 + 1.0 / prior.mu_sd ** 2
    mean = params.alpha[:, 0, 0].sum() / sig2 / prec
    mu_draws = np.empty(n_draws)
    for i in range(n_draws):
        update_mu(params, prior, rng)
        mu_draws[i] = params.mu[0, 0]
        params.mu[...] = mu_fixed
    ks_mu = stats.kstest(mu_draws, "norm",
                         args=(mean, 1.0 / np.sqrt(prec))).statistic

    ss = ((params.alpha[:, 0, 0] - mu_fixed[0, 0]) ** 2).sum()
    sigma_draws = np.empty(n_draws)
    for i in range(n_draws):
        update_sigma(params, prior, rng)
        sigma_draws[i] = params.sigma[0, 0]
        params.mu[...] = mu_fixed
    ks_sigma = stats.kstest(ss / sigma_draws ** 2, "chi2",
                            args=(N - 1,)).statistic

    first = np.array([1, 1, 1, 2, 2, 3, 1, 2, 1, 1])
    pi_draws = np.empty(n_draws)
    for i in range(n_draws):
        update_pi(params, first, rng)
        pi_draws[i] = params.pi[0]
    ks_pi = stats.kstest(pi_draws, "beta", args=(7, 6)).statistic

    codes = np.array([[1, 1, 2, 3, 1]])
    panel = ObservationPanel(codes=codes, mask=np.zeros((1, 5), bool))
    hidden = np.ones((1, 5), dtype=np.int64)
    # state-1 counts: level 1 x 3, level 2 x 1, level 3 x 1
    P_draws = np.empty(n_draws)
    small = params.copy()
    small.alpha = params.alpha[:1]
    for i in range(n_draws):
        update_emissions(small, hidden, panel, rng)
        P_draws[i] = small.P[0, 0]
    ks_P = stats.kstest(P_draws, "beta", args=(4, 4)).statistic

    worst = max(ks_mu, ks_sigma, ks_pi, ks_P)
    _verdict(4, f"mu/sigma/pi/P full conditionals match closed forms "
                f"(max KS statistic {worst:.4f} at {n_draws} draws)",
             worst < 0.02)


def test_criterion_05_joint_distribution_validation():
    # successive-conditional simulator: alternating a Gibbs sweep with a
    # fresh data simulation leaves the prior invariant, so every recorded
    # scalar must match its prior marginal
    rng = np.random.default_rng(505)
    N, T, S, M, p = 5, 10, 2, 3, 2
    design = random_design(N, T, rng, p=p)
    prior = PriorSpec(beta_sd=0.4, mu_sd=0.7, sigma_nu0=8.0, sigma_s0sq=0.09)
    params = sample_params_from_prior(prior, N, S, p, M, "hmm", rng)
    n_sweeps = 6000
    burn = 500
    records = {name: [] for name in
               ("mu", "beta", "sigma2", "pi", "P", "alpha")}
    for sweep in range(n_sweeps):
        sim = simulate([params], design, N, T, [int(rng.integers(2 ** 63))])[0]
        panel = sim.observed
        mcmc._sweep(params, panel, design, prior, rng,
                    {"alpha": np.full((S, S - 1), 1.2),
                     "beta": np.full((S, S - 1, p), 0.8)})
        if sweep >= burn:
            records["mu"].append(params.mu[0, 0])
            records["beta"].append(params.beta[0, 0, 0])
            records["sigma2"].append(params.sigma[0, 0] ** 2)
            records["pi"].append(params.pi[0])
            records["P"].append(params.P[0, 0])
            records["alpha"].append(params.alpha[0, 0, 0])
    medians = {
        "mu": 0.0,
        "beta": 0.0,
        "sigma2": prior.sigma_nu0 * prior.sigma_s0sq
        / stats.chi2.median(prior.sigma_nu0),
        "pi": stats.beta.median(1, S - 1),
        "P": stats.beta.median(1, M - 1),
        "alpha": 0.0,
    }
    worst_p = 1.0
    for name, values in records.items():
        trace = np.asarray(values)
        below = (trace < medians[name]).astype(float)
        ess = _ess_rows(below[None])[0]
        assert np.isfinite(ess), f"{name}: constant indicator trace"
        z = (below.mean() - 0.5) / np.sqrt(0.25 / ess)
        p_value = 2 * stats.norm.sf(abs(z))
        worst_p = min(worst_p, p_value)
    _verdict(5, f"prior-marginal quantile tests over 6 scalars "
                f"(min p-value {worst_p:.3f})", worst_p > 0.01)


def test_criterion_06_synthetic_recovery():
    rng = np.random.default_rng(606)
    N, T, S, M, p = 100, 150, 3, 3, 4
    design = random_design(N, T, rng, p=p)
    mu_true = np.stack([
        inverse_softmax(np.array([0.80, 0.12, 0.08])),
        inverse_softmax(np.array([0.12, 0.76, 0.12])),
        inverse_softmax(np.array([0.08, 0.12, 0.80])),
    ])
    P_true = np.array([
        [0.997, 0.002, 0.001],
        [0.030, 0.956, 0.014],
        [0.014, 0.020, 0.966],
    ])
    sigma_true = np.full((S, S - 1), 0.4)
    truth = Params(
        alpha=mu_true[None] + sigma_true[None]
        * rng.standard_normal((N, S, S - 1)),
        beta=rng.normal(0.0, 0.3, (S, S - 1, p)),
        mu=mu_true, sigma=sigma_true,
        pi=np.array([0.50, 0.30, 0.20]), P=P_true,
    )
    mask = rng.random((N, T)) < 0.15  # missing completely at random
    sim = simulate([truth], design, N, T, [66], mask)[0]
    t0 = time.perf_counter()
    config = SamplerConfig(n_chains=3, n_burnin=2000, n_keep=2000, seed=60)
    cs = run_chains("hmm", sim.observed, design, config=config)
    elapsed = time.perf_counter() - t0
    P_err = np.max(np.abs(cs.per_chain("P").mean(axis=(0, 1)) - P_true))
    mu_err = np.max(np.abs(cs.per_chain("mu").mean(axis=(0, 1)) - mu_true))
    trans = softmax_rows(cs.per_chain("mu"))  # implied x=0 transition rows
    m, n = trans.shape[:2]
    # (J, m, n), scalars-major: every reduction runs along contiguous draws
    traces = np.ascontiguousarray(np.concatenate(
        [cs.per_chain("P").reshape(m, n, S * M), trans.reshape(m, n, S * S)],
        axis=2).transpose(2, 0, 1))
    worst_rhat = np.nanmax(_rhat_rows(traces))
    _verdict(6, f"posterior means within tolerance (emissions {P_err:.4f} "
                f"<= 0.03, mu {mu_err:.3f} <= 0.3), max R-hat "
                f"{worst_rhat:.4f} < 1.02, runtime {elapsed / 60:.1f} min",
             P_err <= 0.03 and mu_err <= 0.3 and worst_rhat < 1.02
             and elapsed < 15 * 60)


def test_criterion_07_stationary_solver():
    rng = np.random.default_rng(707)
    worst_residual = 0.0
    worst_power = 0.0
    for _ in range(1000):
        S = int(rng.integers(2, 6))
        Q = rng.dirichlet(np.ones(S) * rng.uniform(0.3, 4.0), size=S)
        pi = stationary_distribution(Q)
        worst_residual = max(worst_residual, np.max(np.abs(pi @ Q - pi)))
        power = np.full(S, 1.0 / S)
        for _ in range(8000):
            power = power @ Q
        worst_power = max(worst_power, np.max(np.abs(pi - power)))
    # covariate-dependent per-subject Markov transition matrices run
    # through the same solver
    design = random_design(3, 5, rng, p=2)
    mparams = Params(
        alpha=rng.normal(0, 0.5, (3, 3, 2)), beta=rng.normal(0, 0.3, (3, 2, 2)),
        mu=np.zeros((3, 2)), sigma=np.ones((3, 2)),
        pi=np.array([0.6, 0.3, 0.1]),
    )
    Qs = transition_matrices(mparams, design)
    markov_ok = all(
        np.max(np.abs(stationary_distribution(Qs[t, :, :, i]) @ Qs[t, :, :, i]
                      - stationary_distribution(Qs[t, :, :, i]))) < 1e-12
        for i in range(3) for t in range(4)
    )
    _verdict(7, f"1000 random chains solved (max residual "
                f"{worst_residual:.2e}, max power-iteration gap "
                f"{worst_power:.2e}); covariate-dependent matrices ok",
             worst_residual < 1e-12 and worst_power < 1e-10 and markov_ok)


def test_criterion_08_dic_identity(small_fits):
    panel, design, hmm, markov = small_fits
    ok = True
    for cs in (hmm, markov):
        report = dic(cs, panel, design)
        ok = ok and abs(report.p_d - (report.mean_deviance
                                      - report.deviance_at_mean)) < 1e-12
        ok = ok and abs(report.dic - (report.mean_deviance
                                      + report.p_d)) < 1e-12
        for chain in cs.chains:
            for g in range(chain.n_kept):
                recomputed = -2.0 * log_likelihood(panel, design, chain.params_at(g))
                ok = ok and abs(chain.deviance[g] - recomputed) < 1e-8
    _verdict(8, "DIC identities hold to 1e-12 and stored deviances match "
                "recomputed log-likelihoods to 1e-8 on both models", ok)


def test_criterion_09_apc_zero_effect(small_fits):
    _, design, hmm, _ = small_fits
    col = 0
    for chain in hmm.chains:
        chain.draws["beta"][:, :, :, col] = 0.0
    hi, lo = 0.5, -0.5
    draws = average_transition_difference(hmm, design, design.names[col], hi, lo)
    ok = np.all(draws == 0.0)
    # the invariant also holds for a covariate with nonzero effects
    nonzero = average_transition_difference(hmm, design, design.names[1], hi, lo)
    ok = ok and np.max(np.abs(nonzero.sum(axis=2))) < 1e-12
    _verdict(9, "zeroed coefficients give exactly zero comparisons and "
                "destination sums vanish to 1e-12", ok)


def test_criterion_10_ppc_calibration():
    # observed panels are drawn from the same parameters as the
    # replicates, so every statistic's quantile is uniform by
    # construction; miscalibration would expose a simulation or
    # statistic-computation bug
    rng = np.random.default_rng(1010)
    N, T = 12, 168
    design = random_design(N, T, rng, p=2)
    n_reps = 200
    n_replicates = 199
    outside = 0
    total = 0
    for rep in range(n_reps):
        mu = rng.normal(0.0, 0.7, (3, 2))
        sigma = rng.uniform(0.3, 0.8, (3, 2))
        params = Params(
            alpha=mu[None] + sigma[None] * rng.standard_normal((N, 3, 2)),
            beta=rng.normal(0.0, 0.3, (3, 2, 2)),
            mu=mu, sigma=sigma,
            pi=rng.dirichlet([5.0, 2.0, 2.0]),
            P=np.stack([rng.dirichlet(1.0 + 8.0 * np.eye(3)[s])
                        for s in range(3)]),
        )
        observed = simulate([params], design, N, T,
                            [int(rng.integers(2 ** 63))])[0].observed
        cs = _one_draw_chain_set(params)
        stat_obs = {k: v for k, v in ppc_statistics(observed).items()
                    if k.startswith("block")}
        reps = {k: [] for k in stat_obs}
        for sim in ppc_replicates(cs, design, mode="same_subjects",
                                  rng=rng, draw_indices=[0] * n_replicates):
            for k, v in ppc_statistics(sim.observed).items():
                if k.startswith("block"):
                    reps[k].append(v)
        for k, v in stat_obs.items():
            q = ppc_quantile(v, np.asarray(reps[k]))
            total += 1
            if not 0.005 < q < 0.995:
                outside += 1
    assert total == n_reps * 36
    frac = outside / total
    _verdict(10, f"{outside}/{total} block-statistic quantiles outside "
                 f"(0.005, 0.995) = {100 * frac:.2f}% (<= 2%)", frac <= 0.02)


def test_criterion_11_trial_data_reproduction():
    y_path = os.path.join(DATA_DIR, "y.csv")
    x_path = os.path.join(DATA_DIR, "x.csv")
    if not (os.path.exists(y_path) and os.path.exists(x_path)):
        line = ("[criterion 11] SKIP: trial data files data/y.csv and "
                "data/x.csv are not present")
        print(line)
        ACCEPTANCE_LINES.append(line)
        pytest.skip("trial data not available; criteria 1-10 govern")
    from panelhmm.dataset import build_design, load_covariates, load_observations
    panel = load_observations(y_path)
    design = build_design(load_covariates(x_path), panel.n_days)
    config = SamplerConfig(n_chains=3, n_burnin=10_000, n_keep=10_000, seed=0)
    cs = run_chains("hmm", panel, design, config=config)
    P_hat = cs.per_chain("P").mean(axis=(0, 1))
    P_expected = np.array([
        [0.997, 0.002, 0.001],
        [0.030, 0.956, 0.014],
        [0.014, 0.020, 0.966],
    ])
    pi_hat = cs.per_chain("pi").mean(axis=(0, 1))
    report = dic(cs, panel, design)
    from panelhmm.analytics import default_comparison_levels
    hi, lo = default_comparison_levels(design, "treatment")
    draws = average_transition_difference(cs, design, "treatment", hi, lo)[:, 2, 2]
    lo_q, hi_q = np.quantile(draws, [0.025, 0.975])
    ok = (np.max(np.abs(P_hat - P_expected)) <= 0.02
          and np.max(np.abs(pi_hat - [0.936, 0.034, 0.030])) <= 0.015
          and abs(report.dic - 20_500) <= 100
          and lo_q <= -0.09 <= hi_q)
    _verdict(11, "full-scale fit reproduces published emission rows, "
                 "initial distribution, DIC, and treatment effect", ok)
