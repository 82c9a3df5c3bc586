import numpy as np
import pytest

from panelhmm.diagnostics import (
    deviance,
    dic,
    effective_sample_size,
    potential_scale_reduction,
    scalar_summaries,
)
from panelhmm.errors import InputError, NumericalError
from panelhmm.inference import log_likelihood_hmm, log_likelihood_markov
from panelhmm.mcmc import SamplerConfig, run_chains

from conftest import random_instance, random_markov_params


class TestPotentialScaleReduction:
    def test_hand_computed_fixture(self):
        # [DERIVED] m=2, n=10: W = mean of the two sample variances,
        # B/n = variance of the chain means, computed by hand below
        traces = np.array([
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.0, 4.0, 6.0, 8.0, 10.0, 1.0, 3.0, 5.0, 7.0, 9.0],
        ])
        W = (traces[0].var(ddof=1) + traces[1].var(ddof=1)) / 2
        B_over_n = np.var([traces[0].mean(), traces[1].mean()], ddof=1)
        expected = np.sqrt(((9 / 10) * W + B_over_n) / W)
        assert potential_scale_reduction(traces) == pytest.approx(expected,
                                                                  rel=1e-14)

    def test_identical_chains_near_one(self, rng):
        base = rng.normal(size=500)
        traces = np.stack([base, base])
        # same chain twice: B = 0, R-hat = sqrt((n-1)/n)
        assert potential_scale_reduction(traces) == \
            pytest.approx(np.sqrt(499 / 500), rel=1e-12)

    def test_shifted_chains_flagged(self, rng):
        traces = np.stack([rng.normal(0, 1, 400), rng.normal(5, 1, 400)])
        assert potential_scale_reduction(traces) > 2.0

    def test_degenerate_chains_nan(self):
        assert np.isnan(potential_scale_reduction(np.ones((3, 50))))

    def test_input_validation(self, rng):
        with pytest.raises(InputError):
            potential_scale_reduction(rng.normal(size=(1, 100)))
        with pytest.raises(InputError):
            potential_scale_reduction(rng.normal(size=(3, 5)))


class TestEffectiveSampleSize:
    def test_white_noise_near_n(self, rng):
        trace = rng.normal(size=20_000)
        ess = effective_sample_size(trace)
        assert 0.9 * 20_000 < ess <= 1.05 * 20_000

    def test_ar1_matches_theory(self, rng):
        # [DERIVED] AR(1) with coefficient rho has
        # ESS/n -> (1 - rho) / (1 + rho)
        rho = 0.8
        n = 200_000
        e = rng.normal(size=n)
        trace = np.empty(n)
        trace[0] = e[0]
        for t in range(1, n):
            trace[t] = rho * trace[t - 1] + e[t]
        ess = effective_sample_size(trace)
        expected = n * (1 - rho) / (1 + rho)
        assert abs(ess - expected) / expected < 0.1

    def test_constant_trace_rejected(self):
        with pytest.raises(NumericalError):
            effective_sample_size(np.full(100, 3.0))

    def test_short_trace_rejected(self, rng):
        with pytest.raises(InputError):
            effective_sample_size(rng.normal(size=5))

    def test_antithetic_capped(self):
        trace = np.tile([1.0, -1.0], 500) + 1e-6 * np.arange(1000)
        assert effective_sample_size(trace) <= 1.05 * 1000


@pytest.fixture(scope="module")
def fit():
    rng = np.random.default_rng(23)
    panel, design, _ = random_instance(rng, n_subjects=6, n_days=20,
                                       missing_rate=0.1)
    config = SamplerConfig(n_chains=2, n_burnin=30, n_keep=20, seed=3)
    return panel, design, run_chains("hmm", panel, design, config=config)


@pytest.fixture(scope="module")
def summaries():
    rng = np.random.default_rng(29)
    panel, design, _ = random_instance(rng, n_subjects=4, n_days=15)
    config = SamplerConfig(n_chains=2, n_burnin=20, n_keep=15, seed=5)
    cs = run_chains("hmm", panel, design, config=config)
    return cs, scalar_summaries(cs)


class TestDic:
    def test_deviance_definition(self, rng):
        # the parameters decide the likelihood: HMM with P, Markov without
        panel, design, params = random_instance(rng, n_subjects=3, n_days=8)
        markov = random_markov_params(3, 3, design.p, rng)
        for theta, loglik in ((params, log_likelihood_hmm),
                              (markov, log_likelihood_markov)):
            assert deviance(panel, design, theta) == \
                -2.0 * loglik(panel, design, theta)
        assert deviance(panel, design, params) != deviance(panel, design, markov)

    def test_identities_exact(self, fit):
        panel, design, cs = fit
        report = dic(cs, panel, design)
        devs = cs.per_chain("deviance").ravel()
        assert report.mean_deviance == pytest.approx(devs.mean(), abs=1e-12)
        assert report.p_d == pytest.approx(
            report.mean_deviance - report.deviance_at_mean, abs=1e-12)
        assert report.dic == pytest.approx(
            2 * report.mean_deviance - report.deviance_at_mean, abs=1e-12)

    def test_deviance_at_mean_is_recomputed(self, fit):
        panel, design, cs = fit
        report = dic(cs, panel, design)
        expected = deviance(panel, design, cs.posterior_mean_params())
        assert report.deviance_at_mean == pytest.approx(expected, abs=1e-12)

class TestScalarSummaries:
    def test_paths_cover_all_scalars(self, summaries):
        cs, rows = summaries
        # the params text format's labels: rows and targets 1-based,
        # subjects 0-based
        names = {r["parameter"] for r in rows}
        assert {"pi[1]", "pi[3]", "mu[1,2]", "mu[3,3]", "alpha[0,1,2]",
                "alpha[3,3,3]", "beta[1,2,0]", "P[3,3]", "deviance"} <= names
        assert not names & {"pi[0]", "mu[0,0]", "alpha[0,0,0]", "P[0,0]"}
        n_scalars = sum(np.prod(cs.chains[0].draws[k].shape[1:], dtype=int)
                        for k in cs.chains[0].draws) + 1  # + deviance
        assert len(rows) == n_scalars

    def test_statistics_match_pooled_draws(self, summaries):
        cs, rows = summaries
        for path, pooled in (("pi[2]", cs.stacked("pi")[:, 1]),
                             ("mu[2,3]", cs.stacked("mu")[:, 1, 1]),
                             ("alpha[3,1,2]", cs.stacked("alpha")[:, 3, 0, 0])):
            row = next(r for r in rows if r["parameter"] == path)
            assert row["mean"] == pytest.approx(pooled.mean())
            assert row["q025"] == pytest.approx(np.quantile(pooled, 0.025))
            assert row["q975"] == pytest.approx(np.quantile(pooled, 0.975))

    def test_single_chain_rhat_nan(self):
        rng = np.random.default_rng(31)
        panel, design, _ = random_instance(rng, n_subjects=4, n_days=15)
        config = SamplerConfig(n_chains=1, n_burnin=20, n_keep=15, seed=5)
        cs = run_chains("hmm", panel, design, config=config)
        rows = scalar_summaries(cs)
        assert all(np.isnan(r["rhat"]) for r in rows)

    def test_short_chains_nan(self):
        # fewer than 10 draws per chain: R-hat and ESS are undefined, the
        # moments and quantiles are not
        rng = np.random.default_rng(37)
        panel, design, _ = random_instance(rng, n_subjects=4, n_days=15)
        config = SamplerConfig(n_chains=2, n_burnin=2, n_keep=3, seed=5)
        rows = scalar_summaries(run_chains("hmm", panel, design, config=config))
        assert all(np.isnan(r["rhat"]) and np.isnan(r["ess"]) for r in rows)
        assert all(np.isfinite([r["mean"], r["sd"], r["q025"], r["q975"]]).all()
                   for r in rows)
