import numpy as np
import pytest

from panelhmm import diagnostics
from panelhmm.diagnostics import (
    deviance,
    dic,
    effective_sample_size,
    potential_scale_reduction,
    scalar_summaries,
)
from panelhmm.errors import InputError, NumericalError
from panelhmm.inference import log_likelihood
from panelhmm.mcmc import Chain, ChainSet, SamplerConfig, run_chains
from panelhmm.model import param_paths

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
        for theta in (params, markov):
            assert deviance(panel, design, theta) == \
                -2.0 * log_likelihood(panel, design, theta)
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
        assert_matches_reference(rows, cs)

    def test_single_chain_rhat_nan(self):
        rng = np.random.default_rng(31)
        panel, design, _ = random_instance(rng, n_subjects=4, n_days=15)
        config = SamplerConfig(n_chains=1, n_burnin=20, n_keep=15, seed=5)
        cs = run_chains("hmm", panel, design, config=config)
        rows = scalar_summaries(cs)
        assert all(np.isnan(r["rhat"]) for r in rows)
        assert_matches_reference(rows, cs)

    def test_short_chains_nan(self):
        # fewer than 10 draws per chain: R-hat and ESS are undefined, the
        # moments and quantiles are not
        rng = np.random.default_rng(37)
        panel, design, _ = random_instance(rng, n_subjects=4, n_days=15)
        config = SamplerConfig(n_chains=2, n_burnin=2, n_keep=3, seed=5)
        cs = run_chains("hmm", panel, design, config=config)
        rows = scalar_summaries(cs)
        assert all(np.isnan(r["rhat"]) and np.isnan(r["ess"]) for r in rows)
        assert all(np.isfinite([r["mean"], r["sd"], r["q025"], r["q975"]]).all()
                   for r in rows)
        assert_matches_reference(rows, cs)


# -- reference loops: one scalar and one chain at a time -------------------

def reference_ess(trace):
    """Geyer's initial positive sequence from the O(n^2) direct
    autocovariance, summing pairs in a loop; NaN for a constant trace."""
    n = trace.size
    centered = trace - trace.mean()
    var = centered @ centered / n
    if var == 0.0:
        return float("nan")
    rho = np.correlate(centered, centered, mode="full")[n - 1:] / n / var
    total = 0.0
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        total += pair
        t += 2
    return float(min(n / (1.0 + 2.0 * total), 1.05 * n))


def reference_rhat(traces):
    m, n = traces.shape
    W = traces.var(axis=1, ddof=1).mean()
    if W == 0.0:
        return float("nan")
    B_over_n = traces.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((n - 1) / n * W + B_over_n) / W))


def reference_summaries(cs):
    rows = []
    for name in sorted(cs.chains[0].draws) + ["deviance"]:
        a = cs.per_chain(name)
        m, n = a.shape[:2]
        width = int(np.prod(a.shape[2:], dtype=int))
        flat = a.reshape(m, n, width)
        paths = [name] if name == "deviance" else param_paths(name, a.shape[2:])
        for j, path in enumerate(paths):
            traces = flat[:, :, j]
            pooled = traces.ravel()
            rhat = ess = float("nan")
            if n >= 10:
                if m >= 2:
                    rhat = reference_rhat(traces)
                ess = sum(reference_ess(traces[c]) for c in range(m))
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


def assert_matches_reference(rows, cs):
    """Every column but ESS bit for bit; ESS, whose autocovariances come
    from an FFT instead of a direct sum, to 1e-12 relative."""
    expected = reference_summaries(cs)
    assert [r["parameter"] for r in rows] == [r["parameter"] for r in expected]
    for row, ref in zip(rows, expected):
        for key in ("mean", "sd", "q025", "q975", "rhat"):
            assert row[key] == ref[key] or (np.isnan(row[key]) and np.isnan(ref[key])), \
                (row["parameter"], key)
        np.testing.assert_allclose(row["ess"], ref["ess"], rtol=1e-12, atol=0)


def ar1_chain_set(rng, n_chains, n_draws):
    """Synthetic draws: AR(1) traces with coefficients from -0.5 to 0.95,
    a white-noise array and a constant one, plus a deviance trace."""
    chains = []
    coef = np.linspace(-0.5, 0.95, 6).reshape(3, 2)
    for c in range(n_chains):
        mu = np.empty((n_draws, 3, 2))
        mu[0] = rng.standard_normal((3, 2))
        for t in range(1, n_draws):
            mu[t] = coef * mu[t - 1] + rng.standard_normal((3, 2))
        draws = {"mu": mu + 0.1 * c,
                 "sigma": rng.uniform(0.5, 1.5, (n_draws, 3, 2)),
                 "pi": np.full((n_draws, 3), 1.0 / 3.0)}
        chains.append(Chain(chain_index=c, draws=draws,
                            deviance=rng.standard_normal(n_draws).cumsum(),
                            acceptance={}))
    return ChainSet(chains=chains)


class TestScalarSummariesAgainstLoop:
    def test_long_traces(self, rng):
        cs = ar1_chain_set(rng, n_chains=2, n_draws=3000)
        rows = scalar_summaries(cs)
        assert_matches_reference(rows, cs)
        by_path = {r["parameter"]: r for r in rows}
        # the constant pi traces: R-hat and ESS undefined
        assert np.isnan(by_path["pi[1]"]["rhat"]) and np.isnan(by_path["pi[1]"]["ess"])
        # a strongly autocorrelated trace is worth far fewer draws
        assert by_path["mu[3,3]"]["ess"] < 0.1 * by_path["sigma[1,2]"]["ess"]

    def test_blocks_split_parameters(self, rng, monkeypatch):
        # blocks of 4 scalars: the 6 scalars of mu and sigma each span two
        cs = ar1_chain_set(rng, n_chains=3, n_draws=40)
        monkeypatch.setattr(diagnostics, "_BLOCK_FLOATS", 4 * 3 * 40)
        assert_matches_reference(scalar_summaries(cs), cs)

    def test_one_state_hmm(self):
        # alpha has zero width, and pi is 1 up to rounding
        rng = np.random.default_rng(41)
        panel, design, _ = random_instance(rng, n_subjects=4, n_days=15)
        config = SamplerConfig(n_chains=2, n_burnin=5, n_keep=12, seed=5)
        cs = run_chains("hmm", panel, design, config=config, n_states=1)
        rows = scalar_summaries(cs)
        assert_matches_reference(rows, cs)
        assert not any(r["parameter"].startswith("alpha") for r in rows)
        assert next(r for r in rows if r["parameter"] == "pi[1]")["mean"] == \
            pytest.approx(1.0, abs=1e-15)

    def test_one_row_calls(self, rng):
        # the public one-scalar functions are the same kernels
        traces = rng.standard_normal((3, 500)).cumsum(axis=1)
        assert potential_scale_reduction(traces) == reference_rhat(traces)
        for trace in traces:
            assert effective_sample_size(trace) == pytest.approx(
                reference_ess(trace), rel=1e-12, abs=0)
