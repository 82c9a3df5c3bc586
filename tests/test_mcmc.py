import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from panelhmm import inference, mcmc
from panelhmm.dataset import DesignMatrix, ObservationPanel
from panelhmm.diagnostics import effective_sample_size
from panelhmm.errors import InputError, NumericalError
from panelhmm.mcmc import (
    Chain,
    ChainSet,
    PriorSpec,
    SamplerConfig,
    em_initialize,
    empirical_markov_fit,
    init_chain,
    run_chain,
    run_chains,
    sample_params_from_prior,
    update_alpha,
    update_beta,
    update_emissions,
    update_location_joint,
    update_mu,
    update_pi,
    update_scale_joint,
    update_sigma,
)
from panelhmm.inference import draw_complete_data, log_likelihood
from panelhmm.model import (
    Params,
    inverse_softmax,
    simulate,
    softmax_rows,
    transition_logits,
    transition_matrices,
)

from conftest import (
    random_design,
    random_hmm_params,
    random_instance,
    random_markov_params,
)

KS_ALPHA = 1e-3


def row_caches(params, seq, design):
    """The Metropolis moves' row caches for ``params`` and the complete
    grid ``seq``."""
    return mcmc._row_caches(seq, design, transition_logits(params, design))


class TestPriorSpec:
    def test_sigma_conditional_degrees_of_freedom(self):
        assert PriorSpec().sigma_conditional(5, 2.0) == (4, 2.0)
        prior = PriorSpec(sigma_prior="inv-chisq", sigma_nu0=3.0, sigma_s0sq=1.5)
        nu, scale = prior.sigma_conditional(5, 2.0)
        assert nu == 8.0
        assert scale == pytest.approx(3.0 * 1.5 + 2.0)

    def test_too_few_subjects_rejected(self):
        with pytest.raises(InputError):
            PriorSpec().sigma_conditional(1, 0.5)

    def test_validation(self):
        with pytest.raises(InputError):
            PriorSpec(beta_sd=0.0)
        with pytest.raises(InputError):
            PriorSpec(sigma_prior="jeffreys")
        with pytest.raises(InputError):
            PriorSpec(sigma_prior="flat-sigma-sq")
        with pytest.raises(InputError):
            PriorSpec(sigma_prior="inv-chisq")


class TestConjugateUpdates:
    """KS tests of the exact full-conditional draws against closed forms.

    Each draw is independent given the conditioning quantities, which stay
    fixed across calls, so standard KS applies.
    """

    N_DRAWS = 100_000

    def test_mu_normal(self, rng):
        params = random_hmm_params(8, 3, 3, 2, rng)
        prior = PriorSpec(mu_sd=2.0)
        N = 8
        sig2 = params.sigma[0, 0] ** 2
        prec = N / sig2 + 1.0 / prior.mu_sd ** 2
        mean = params.alpha[:, 0, 0].sum() / sig2 / prec
        draws = np.empty(self.N_DRAWS)
        for i in range(self.N_DRAWS):
            update_mu(params, prior, rng)
            draws[i] = params.mu[0, 0]
            params.mu[...] = 0.0  # the draw must not feed back
        p = stats.kstest(draws, "norm", args=(mean, 1.0 / np.sqrt(prec))).pvalue
        assert p > KS_ALPHA

    def test_sigma_scaled_inverse_chisq(self, rng):
        params = random_hmm_params(10, 3, 3, 2, rng)
        prior = PriorSpec()  # flat on sigma
        mu_fixed = params.mu.copy()
        ss = ((params.alpha[:, 0, 0] - mu_fixed[0, 0]) ** 2).sum()
        draws = np.empty(self.N_DRAWS)
        for i in range(self.N_DRAWS):
            update_sigma(params, prior, rng)
            draws[i] = params.sigma[0, 0]
            params.mu[...] = mu_fixed
        # ss / sigma^2 should be chi^2 with N - 1 degrees of freedom
        p = stats.kstest(ss / draws ** 2, "chi2", args=(9,)).pvalue
        assert p > KS_ALPHA

    def test_sigma_needs_two_subjects_under_flat_prior(self, rng):
        # the flat-sigma conditional has N - 1 degrees of freedom
        params = random_hmm_params(1, 3, 3, 2, rng)
        with pytest.raises(InputError, match="1 subjects with flat-sigma"):
            update_sigma(params, PriorSpec(), rng)

    def test_pi_dirichlet_counts(self, rng):
        params = random_hmm_params(4, 3, 3, 2, rng)
        first = np.array([1, 1, 2, 3])
        draws = np.empty(self.N_DRAWS)
        for i in range(self.N_DRAWS):
            update_pi(params, first, rng)
            draws[i] = params.pi[0]
        # Dirichlet(3, 2, 2) marginal: Beta(3, 4)
        p = stats.kstest(draws, "beta", args=(3, 4)).pvalue
        assert p > KS_ALPHA

    def test_emission_dirichlet_counts(self, rng):
        params = random_hmm_params(2, 2, 3, 2, rng)
        codes = np.array([[1, 1, 2, 3], [1, 2, 2, 1]])
        mask = np.array([[0, 0, 0, 1], [0, 0, 0, 0]], dtype=bool)
        panel = ObservationPanel(codes=np.where(mask, 0, codes), mask=mask)
        hidden = np.array([[1, 1, 1, 1], [1, 1, 2, 2]])
        # state-1 observed counts: level1 x 3, level2 x 2, level3 x 0
        draws = np.empty(self.N_DRAWS)
        for i in range(self.N_DRAWS):
            update_emissions(params, hidden, panel, rng)
            draws[i] = params.P[0, 0]
        p = stats.kstest(draws, "beta", args=(4, 4)).pvalue
        assert p > KS_ALPHA


class TestMetropolisUpdates:
    def _binary_logit_setup(self, rng, T=40):
        """S=2, N=1, p=1 instance whose row-1 scalar conditionals have a
        numerically integrable closed form."""
        design = random_design(1, T + 1, rng, p=1)
        seq = rng.integers(1, 3, size=(1, T + 1))
        params = Params(
            alpha=np.zeros((1, 2, 1)), beta=np.zeros((2, 1, 1)),
            mu=np.zeros((2, 1)), sigma=np.full((2, 1), 0.8),
            pi=np.array([0.5, 0.5]), P=np.full((2, 3), 1.0 / 3),
        )
        pts = seq[0, :-1] == 1
        x = design.values[0, :-1, 0][pts]
        y = (seq[0, 1:][pts] == 2).astype(float)
        return design, seq, params, x, y

    @staticmethod
    def _grid_cdf(grid, log_post):
        w = np.exp(log_post - log_post.max())
        cdf = np.cumsum(w)
        return cdf / cdf[-1]

    @staticmethod
    def _tv_against_grid(draws, grid, log_post, bins=20):
        cdf = TestMetropolisUpdates._grid_cdf(grid, log_post)
        edges = np.quantile(draws, np.linspace(0, 1, bins + 1))
        edges[0], edges[-1] = -np.inf, np.inf
        emp = np.histogram(draws, bins=edges)[0] / draws.size
        theo = np.diff(np.interp(edges, grid, cdf, left=0.0, right=1.0))
        return 0.5 * np.abs(emp - theo).sum()

    def test_beta_update_targets_exact_conditional(self):
        # [DERIVED] MH chain for one fixed effect against numerical
        # integration of the binary-logit posterior
        rng = np.random.default_rng(101)
        design, seq, params, x, y = self._binary_logit_setup(rng)
        prior = PriorSpec(beta_sd=3.0)
        grid = np.linspace(-12, 12, 6001)
        eta = grid[:, None] * x[None, :]
        log_post = (y[None, :] * eta - np.logaddexp(0.0, eta)).sum(axis=1)
        log_post -= grid ** 2 / (2 * prior.beta_sd ** 2)
        rows = row_caches(params, seq, design)
        draws = np.empty(30_000)
        for i in range(draws.size):
            update_beta(params, rows, prior, rng, steps=np.full((2, 1, 1), 2.0))
            draws[i] = params.beta[0, 0, 0]
        assert self._tv_against_grid(draws[2000:], grid, log_post) < 0.05

    def test_alpha_update_targets_exact_conditional(self):
        # [DERIVED] same scheme for one random intercept, whose
        # conditional adds the N(mu, sigma^2) prior term
        rng = np.random.default_rng(103)
        design, seq, params, x, y = self._binary_logit_setup(rng)
        grid = np.linspace(-8, 8, 4001)
        log_post = (y.sum() * grid
                    - np.logaddexp(0.0, grid[:, None]).sum(axis=1) * 0.0)
        log_post = (y[None, :] * grid[:, None]
                    - np.logaddexp(0.0, grid[:, None] + 0.0 * x[None, :])).sum(axis=1)
        log_post -= (grid - params.mu[0, 0]) ** 2 / (2 * params.sigma[0, 0] ** 2)
        rows = row_caches(params, seq, design)
        draws = np.empty(30_000)
        for i in range(draws.size):
            update_alpha(params, rows, rng, steps=np.full((2, 1), 2.0))
            draws[i] = params.alpha[0, 0, 0]
            params.beta[...] = 0.0  # pin the fixed effects out of the way
        assert self._tv_against_grid(draws[2000:], grid, log_post) < 0.05

    def test_unvisited_row_falls_back_to_prior(self):
        # a row never visited has no data points; its intercepts must be
        # distributed as the N(mu, sigma^2) prior under repeated updates
        rng = np.random.default_rng(107)
        design = random_design(3000, 4, rng)
        params = random_hmm_params(3000, 3, 3, 2, rng)
        params.mu[2, :] = 0.7
        params.sigma[2, :] = 1.3
        params.alpha[:, 2, :] = 0.7 + 1.3 * rng.standard_normal((3000, 2))
        seq = rng.integers(1, 3, size=(3000, 4))  # states 1 and 2 only
        rows = row_caches(params, seq, design)
        for _ in range(5):
            update_alpha(params, rows, rng, steps=np.full((3, 2), 1.5))
        p = stats.kstest(params.alpha[:, 2, 0], "norm", args=(0.7, 1.3)).pvalue
        assert p > KS_ALPHA

    def test_acceptance_step_size_monotonicity(self, rng):
        panel, design, params = random_instance(rng, n_subjects=20, n_days=30,
                                                missing_rate=0.0)
        seq = panel.codes
        tiny = update_alpha(params.copy(), row_caches(params, seq, design),
                            rng, steps=np.full((3, 2), 1e-4))
        huge = update_alpha(params.copy(), row_caches(params, seq, design),
                            rng, steps=np.full((3, 2), 40.0))
        assert tiny.mean() > 0.95
        assert huge.mean() < 0.3


class TestRowCache:
    """The row cache that every Metropolis move prices its shift with."""

    @staticmethod
    def _point_loglik(data):
        # log p(target | row) per point: the target's logit (0 for the
        # baseline) minus the log-denominator
        eta = np.hstack([np.zeros((data.eta.shape[0], 1)), data.eta])
        return eta[np.arange(eta.shape[0]), data.target - 1] - data.log_denom

    def test_adopted_shifts_match_fresh_cache(self, rng):
        panel, design, params = random_instance(rng, n_subjects=15, n_days=20,
                                                missing_rate=0.0)
        seq = panel.codes
        N, R, K = params.alpha.shape
        for r in range(R):
            data = row_caches(params, seq, design)[r]
            for k in range(K):
                d = rng.normal(0.0, 0.5, N)
                eta_k, log_denom, dll = data.propose(k, d[data.i_arr])
                shifted = params.copy()
                shifted.alpha[:, r, k] += d
                moved = row_caches(shifted, seq, design)[r]
                np.testing.assert_allclose(
                    dll, self._point_loglik(moved) - self._point_loglik(data),
                    rtol=0, atol=1e-12)
                keep = rng.random(N) < 0.5
                params.alpha[keep, r, k] += d[keep]
                data.adopt(k, eta_k, log_denom, keep[data.i_arr])
                fresh = row_caches(params, seq, design)[r]
                np.testing.assert_allclose(data.eta, fresh.eta, rtol=0, atol=1e-12)
                np.testing.assert_allclose(data.log_denom, fresh.log_denom,
                                           rtol=0, atol=1e-12)

    @staticmethod
    def _built_from_params(params, seq, design, r):
        # [DERIVED] the cache of row r + 1 computed directly from the
        # parameters: per-point logits alpha + x beta, and the
        # log-denominator by a logaddexp reduction with the baseline 0
        i_arr, t_arr = np.nonzero(seq[:, :-1] == r + 1)
        X = design.values[i_arr, t_arr]
        eta = params.alpha[i_arr, r] + X @ params.beta[r].T
        full = np.hstack([np.zeros((eta.shape[0], 1)), eta])
        return i_arr, X, seq[i_arr, t_arr + 1], eta, np.logaddexp.reduce(full, axis=1)

    @pytest.mark.parametrize("shift", ["per-point", "scalar"])
    def test_extreme_shifts_match_fresh_cache(self, rng, shift):
        # logits up to 30 in size and shifts up to 50: the max-shifted
        # log-denominator must neither overflow nor lose the small terms
        panel, design, params = random_instance(rng, n_subjects=40, n_days=30,
                                                missing_rate=0.0)
        seq = panel.codes
        N, R, K = params.alpha.shape
        params.alpha[...] = rng.uniform(-29.0, 29.0, params.alpha.shape)
        params.beta[...] = rng.uniform(-0.5, 0.5, params.beta.shape)
        rows = row_caches(params, seq, design)
        assert np.abs(np.concatenate([d.eta.ravel() for d in rows])).max() <= 30.0
        for r, data in enumerate(rows):
            for k in range(K):
                d = rng.uniform(-50.0, 50.0, N if shift == "per-point" else None)
                per_point = d[data.i_arr] if shift == "per-point" else d
                eta_k, log_denom, dll = data.propose(k, per_point)
                shifted = params.copy()
                shifted.alpha[:, r, k] += d
                moved = self._built_from_params(shifted, seq, design, r)
                np.testing.assert_allclose(eta_k, moved[3][:, k], rtol=0, atol=1e-12)
                np.testing.assert_allclose(log_denom, moved[4], rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    dll, self._point_loglik(SimpleNamespace(
                        eta=moved[3], target=moved[2], log_denom=moved[4]))
                    - self._point_loglik(data), rtol=0, atol=1e-12)
                keep = rng.random(N) < 0.5
                params.alpha[keep, r, k] += d if shift == "scalar" else d[keep]
                data.adopt(k, eta_k, log_denom, keep[data.i_arr])
                _, _, _, eta, fresh_log_denom = self._built_from_params(
                    params, seq, design, r)
                np.testing.assert_allclose(data.eta, eta, rtol=0, atol=1e-12)
                np.testing.assert_allclose(data.log_denom, fresh_log_denom,
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["hmm", "markov"])
    def test_gathered_cache_matches_params(self, rng, kind):
        # the caches a sweep gathers from the data step's logits equal the
        # ones computed from the parameters point by point
        panel, design, params = random_instance(rng, n_subjects=12, n_days=20,
                                                missing_rate=0.2)
        if kind == "markov":
            params.P = None
        seq, _, eta = draw_complete_data(panel, design, params, rng)
        rows = mcmc._row_caches(seq, design, eta)
        assert len(rows) == params.n_states
        for r, data in enumerate(rows):
            i_arr, X, target, eta_r, log_denom = self._built_from_params(
                params, seq, design, r)
            np.testing.assert_array_equal(data.i_arr, i_arr)
            np.testing.assert_array_equal(data.X, X)
            np.testing.assert_array_equal(data.target, target)
            np.testing.assert_allclose(data.eta, eta_r, rtol=0, atol=1e-12)
            np.testing.assert_allclose(data.log_denom, log_denom, rtol=0, atol=1e-12)

    def test_sweep_builds_one_cache_per_row(self, rng, monkeypatch):
        # one cache per row per sweep, shared by the four Metropolis moves
        panel, design, params = random_instance(rng, n_subjects=6, n_days=12)
        built = []
        row_data = mcmc._RowData
        monkeypatch.setattr(mcmc, "_RowData",
                            lambda *args: built.append(args[-1]) or row_data(*args))
        R, K, p = params.beta.shape
        mcmc._sweep(params, panel, design, PriorSpec(), rng,
                    {"alpha": np.full((R, K), 0.4), "beta": np.full((R, K, p), 0.1)})
        assert built == [1, 2, 3]


class TestJointBlockMoves:
    """The funnel-crossing moves rescale or translate a whole (row, target)
    intercept block together with its hyperparameter."""

    def _instance(self, rng, N=12):
        panel, design, params = random_instance(rng, n_subjects=N, n_days=25,
                                                missing_rate=0.0)
        return panel.codes, design, params

    def test_scale_move_preserves_standardized_deviations(self, rng, monkeypatch):
        seq, design, params = self._instance(rng)
        before = (params.alpha - params.mu[None]) / params.sigma[None]
        monkeypatch.setattr(mcmc, "SCALE_STEP", 0.5)
        update_scale_joint(params, row_caches(params, seq, design), PriorSpec(), rng)
        after = (params.alpha - params.mu[None]) / params.sigma[None]
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_location_move_preserves_deviations(self, rng, monkeypatch):
        seq, design, params = self._instance(rng)
        before = params.alpha - params.mu[None]
        monkeypatch.setattr(mcmc, "LOCATION_STEP", 0.5)
        update_location_joint(params, row_caches(params, seq, design), PriorSpec(),
                              rng)
        after = params.alpha - params.mu[None]
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_scale_move_leaves_prior_invariant(self, monkeypatch):
        # [DERIVED] on a row with no data the move must preserve the joint
        # prior of (alpha, sigma), so one step from a prior draw keeps the
        # sigma^2 marginal scaled inverse chi-squared
        rng = np.random.default_rng(211)
        nu0, s0sq = 6.0, 0.5
        prior = PriorSpec(sigma_prior="inv-chisq", sigma_nu0=nu0,
                          sigma_s0sq=s0sq)
        N = 5
        design = random_design(N, 4, rng)
        seq = rng.integers(1, 3, size=(N, 4))  # row 3 never visited
        monkeypatch.setattr(mcmc, "SCALE_STEP", 0.6)
        reps = 4000
        out = np.empty(reps)
        for j in range(reps):
            params = random_hmm_params(N, 3, 3, 2, rng)
            sig2 = nu0 * s0sq / rng.chisquare(nu0)
            params.sigma[2, 0] = np.sqrt(sig2)
            params.alpha[:, 2, 0] = (params.mu[2, 0]
                                     + params.sigma[2, 0]
                                     * rng.standard_normal(N))
            update_scale_joint(params, row_caches(params, seq, design), prior, rng)
            out[j] = params.sigma[2, 0] ** 2
        p = stats.kstest(nu0 * s0sq / out, "chi2", args=(nu0,)).pvalue
        assert p > KS_ALPHA

    def test_location_move_leaves_prior_invariant(self, monkeypatch):
        # [DERIVED] same scheme for the translation move: the mu marginal
        # must stay N(0, mu_sd^2) after one step from a prior draw
        rng = np.random.default_rng(223)
        prior = PriorSpec(mu_sd=0.9)
        N = 5
        design = random_design(N, 4, rng)
        seq = rng.integers(1, 3, size=(N, 4))
        monkeypatch.setattr(mcmc, "LOCATION_STEP", 0.7)
        reps = 4000
        out = np.empty(reps)
        for j in range(reps):
            params = random_hmm_params(N, 3, 3, 2, rng)
            params.mu[2, 0] = prior.mu_sd * rng.standard_normal()
            params.alpha[:, 2, 0] = (params.mu[2, 0]
                                     + params.sigma[2, 0]
                                     * rng.standard_normal(N))
            update_location_joint(params, row_caches(params, seq, design), prior,
                                  rng)
            out[j] = params.mu[2, 0]
        p = stats.kstest(out, "norm", args=(0.0, prior.mu_sd)).pvalue
        assert p > KS_ALPHA


class TestEmInitialize:
    def test_log_likelihood_monotone(self, rng):
        panel, design, params = random_instance(rng, n_subjects=15, n_days=40,
                                                missing_rate=0.1)
        fit = em_initialize(panel, S=3)
        lls = np.array(fit.log_likelihoods)
        assert np.all(np.diff(lls) >= -1e-9)

    def test_deterministic(self, rng):
        panel, _, _ = random_instance(rng, n_subjects=10, n_days=30)
        a = em_initialize(panel, S=3)
        b = em_initialize(panel, S=3)
        np.testing.assert_array_equal(a.transition, b.transition)
        np.testing.assert_array_equal(a.emissions, b.emissions)

    def test_recovers_concentrated_emissions(self, rng):
        design = random_design(40, 60, rng)
        params = random_hmm_params(40, 3, 3, 2, rng, concentrated=True)
        params.alpha[...] = params.mu[None]
        params.beta[...] = 0.0
        sim = simulate([params], design, 40, 60, [9])[0]
        fit = em_initialize(sim.observed, S=3)
        # up to label order; pooling over heterogeneous subjects blurs the
        # rows somewhat, so require dominance rather than near-identity
        order = fit.emissions.argmax(axis=1).argsort()
        diag = fit.emissions[order].diagonal()
        assert sorted(fit.emissions.argmax(axis=1)) == [0, 1, 2]
        assert np.all(diag > 0.7)

    def test_first_log_likelihood_scores_the_start(self, rng):
        # the first E-step scores the homogeneous start, which the
        # likelihood layer writes as rows inverse_softmax(A) and beta = 0
        codes = np.array([[1, 3, 0, 2, 2], [3, 0, 0, 1, 3], [0, 0, 0, 0, 0]])
        panel = ObservationPanel(codes=codes, mask=codes == 0)
        A, P, pi = mcmc._em_start(2, 3)
        mu = np.stack([inverse_softmax(row) for row in A])
        start = Params(alpha=np.repeat(mu[None], 3, axis=0),
                       beta=np.zeros((2, 1, 2)), mu=mu, sigma=np.ones((2, 1)),
                       pi=pi, P=P)
        fit = em_initialize(panel, S=2, max_iter=1)
        assert len(fit.log_likelihoods) == 1
        assert fit.log_likelihoods[0] == pytest.approx(
            log_likelihood(panel, random_design(3, 5, rng), start),
            rel=1e-12, abs=0)

    def test_unseen_level_gets_zero_emission(self, rng):
        # level 2 is on the scale but in no cell, so the first M-step zeroes
        # its column of P in every state; EM must stay finite and monotone
        panel, _, _ = random_instance(rng, n_subjects=8, n_days=30,
                                      missing_rate=0.2)
        codes = np.where(panel.codes == 2, 3, panel.codes)
        fit = em_initialize(ObservationPanel(codes=codes, mask=panel.mask), S=3)
        np.testing.assert_array_equal(fit.emissions[:, 1], 0.0)
        for values in (fit.transition, fit.emissions, fit.initial):
            assert np.all(np.isfinite(values))
        assert np.all(np.diff(fit.log_likelihoods) >= -1e-9)

    def test_single_state_closed_form(self, rng):
        panel, _, _ = random_instance(rng, n_subjects=5, n_days=20,
                                      missing_rate=0.2)
        fit = em_initialize(panel, S=1)
        counts = np.array([np.sum(panel.codes == m) for m in (1, 2, 3)],
                          dtype=float)
        np.testing.assert_allclose(fit.emissions[0], counts / counts.sum())

    def test_empty_panel_rejected(self):
        with pytest.raises(InputError):
            em_initialize(ObservationPanel(codes=np.zeros((0, 0), int),
                                           mask=np.zeros((0, 0), bool)), S=2)


class TestMarkovAnchor:
    def test_add_one_smoothed_pair_counts(self):
        codes = np.array([[1, 2, 2, 0, 3]])
        mask = np.array([[0, 0, 0, 1, 0]], dtype=bool)
        panel = ObservationPanel(codes=codes, mask=mask)
        fit = empirical_markov_fit(panel)
        # observed pairs: (1,2), (2,2); add-one over a 3x3 grid
        expected = np.ones((3, 3))
        expected[0, 1] += 1
        expected[1, 1] += 1
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(fit.transition, expected)
        np.testing.assert_allclose(fit.initial, [2 / 4, 1 / 4, 1 / 4])


class TestInitChain:
    def test_anchored_at_pooled_transitions(self, rng):
        panel, design, _ = random_instance(rng, n_subjects=10, n_days=30,
                                           missing_rate=0.0)
        fit = em_initialize(panel, S=3)
        params = init_chain(fit, 10, design.p, chain_index=0, jitter_scale=0.0)
        # with zero jitter, softmax(mu) must reproduce the pooled rows
        implied = softmax_rows(params.mu)
        np.testing.assert_allclose(implied, fit.transition, atol=1e-5)
        assert np.all(params.beta == 0.0)
        assert np.all(params.sigma == 1.0)

    def test_chains_get_distinct_jitter(self, rng):
        panel, design, _ = random_instance(rng, n_subjects=5, n_days=20)
        fit = em_initialize(panel, S=3)
        a = init_chain(fit, 5, design.p, chain_index=0)
        b = init_chain(fit, 5, design.p, chain_index=1)
        c = init_chain(fit, 5, design.p, chain_index=0)
        assert not np.array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.alpha, c.alpha)

    def test_markov_kind(self, rng):
        panel, design, _ = random_instance(rng, n_subjects=5, n_days=20)
        fit = empirical_markov_fit(panel)
        # an anchor without emissions gives a Markov start
        params = init_chain(fit, 5, design.p)
        assert params.P is None
        assert params.alpha.shape == (5, 3, 2)
        assert init_chain(em_initialize(panel, S=2), 5, design.p).P.shape == (2, 3)


class TestMissingImputation:
    def test_observed_cells_unchanged(self, rng):
        design = random_design(6, 15, rng)
        params = random_markov_params(6, 3, 2, rng)
        codes = rng.integers(1, 4, (6, 15))
        mask = rng.random((6, 15)) < 0.3
        panel = ObservationPanel(codes=np.where(mask, 0, codes), mask=mask)
        complete = draw_complete_data(panel, design, params, rng)[0]
        obs = ~mask
        np.testing.assert_array_equal(complete[obs], panel.codes[obs])
        assert np.all(complete >= 1) and np.all(complete <= 3)

    def test_single_gap_exact_conditional(self, rng):
        # [DERIVED] p(y_2 | y_1, y_3) proportional to Q[y1, v] * Q[v, y3]
        design = random_design(1, 3, rng)
        params = random_markov_params(1, 3, 2, rng)
        panel = ObservationPanel(codes=np.array([[2, 0, 3]]),
                                 mask=np.array([[False, True, False]]))
        Q = transition_matrices(params, design)
        weights = Q[0, 1, :, 0] * Q[1, :, 2, 0]
        weights /= weights.sum()
        counts = np.zeros(3)
        n = 30_000
        for _ in range(n):
            v = draw_complete_data(panel, design, params, rng)[0][0, 1]
            counts[v - 1] += 1
        tv = 0.5 * np.abs(counts / n - weights).sum()
        assert tv < 0.01


class TestMarkovJointDistribution:
    def test_successive_conditional_keeps_prior_marginals(self):
        # criterion 5 for the Markov sweep, whose data step imputes every
        # missing run: alternating a sweep with a fresh simulation leaves
        # the prior invariant, so each recorded scalar matches its prior
        # marginal
        rng = np.random.default_rng(506)
        N, T, M, p = 5, 10, 3, 2
        design = random_design(N, T, rng, p=p)
        prior = PriorSpec(beta_sd=0.4, mu_sd=0.7, sigma_prior="inv-chisq",
                          sigma_nu0=8.0, sigma_s0sq=0.09)
        mask = np.zeros((N, T), dtype=bool)
        mask[1, 3:6] = True   # an interior run
        mask[2, 7:] = True    # a dropout tail
        mask[3, :2] = True    # a leading gap
        mask[4, [2, 6]] = True  # isolated days
        params = sample_params_from_prior(prior, N, M, p, M, "markov", rng)
        n_sweeps, burn = 6000, 500
        steps = {"alpha": np.full((M, M - 1), 1.2),
                 "beta": np.full((M, M - 1, p), 0.8)}
        records = {name: [] for name in ("mu", "beta", "sigma2", "pi", "alpha")}
        for sweep in range(n_sweeps):
            panel = simulate([params], design, N, T, [int(rng.integers(2 ** 63))],
                             mask)[0].observed
            mcmc._sweep(params, panel, design, prior, rng, steps)
            if sweep >= burn:
                records["mu"].append(params.mu[0, 0])
                records["beta"].append(params.beta[0, 0, 0])
                records["sigma2"].append(params.sigma[0, 0] ** 2)
                records["pi"].append(params.pi[0])
                records["alpha"].append(params.alpha[0, 0, 0])
        medians = {"mu": 0.0, "beta": 0.0, "alpha": 0.0,
                   "sigma2": prior.sigma_nu0 * prior.sigma_s0sq
                   / stats.chi2.median(prior.sigma_nu0),
                   "pi": stats.beta.median(1, M - 1)}
        p_values = {}
        for name, values in records.items():
            below = (np.asarray(values) < medians[name]).astype(float)
            ess = effective_sample_size(below)
            z = (below.mean() - 0.5) / np.sqrt(0.25 / ess)
            p_values[name] = 2 * stats.norm.sf(abs(z))
        assert min(p_values.values()) > 0.01, p_values


class TestChainOrchestration:
    def _small_fit(self, rng, model_kind="hmm"):
        panel, design, _ = random_instance(rng, n_subjects=6, n_days=20,
                                           missing_rate=0.1)
        config = SamplerConfig(n_chains=2, n_burnin=30, n_keep=25, seed=7)
        return panel, design, run_chains(model_kind, panel, design,
                                         config=config)

    def test_bitwise_reproducibility(self, rng):
        panel, design, cs1 = self._small_fit(rng)
        config = SamplerConfig(n_chains=2, n_burnin=30, n_keep=25, seed=7)
        cs2 = run_chains("hmm", panel, design, config=config)
        for name in ("alpha", "beta", "mu", "sigma", "pi", "P"):
            np.testing.assert_array_equal(cs1.per_chain(name),
                                          cs2.per_chain(name))
        np.testing.assert_array_equal(cs1.per_chain("deviance"),
                                      cs2.per_chain("deviance"))

    def test_chains_differ(self, rng):
        _, _, cs = self._small_fit(rng)
        assert not np.array_equal(cs.chains[0].draws["mu"],
                                  cs.chains[1].draws["mu"])

    def test_stored_deviance_matches_recomputation(self, rng):
        panel, design, cs = self._small_fit(rng)
        for g in (0, 10, 24):
            params = cs.chains[1].params_at(g)
            expected = -2.0 * log_likelihood(panel, design, params)
            assert cs.chains[1].deviance[g] == pytest.approx(expected, abs=1e-8)

    def test_markov_deviance_matches_recomputation(self, rng):
        panel, design, cs = self._small_fit(rng, model_kind="markov")
        params = cs.chains[0].params_at(5)
        expected = -2.0 * log_likelihood(panel, design, params)
        assert cs.chains[0].deviance[5] == pytest.approx(expected, abs=1e-8)
        assert "P" not in cs.chains[0].draws

    def test_draw_validity(self, rng):
        _, _, cs = self._small_fit(rng)
        pi = cs.stacked("pi")
        P = cs.stacked("P")
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(P.sum(axis=2), 1.0, atol=1e-10)
        assert np.all(cs.stacked("sigma") > 0)

    def test_posterior_mean_params_valid(self, rng):
        _, _, cs = self._small_fit(rng)
        cs.posterior_mean_params().validate()

    def test_params_at_pooled_indexing(self, rng):
        _, _, cs = self._small_fit(rng)
        a = cs.params_at(cs.n_kept + 3)
        b = cs.chains[1].params_at(3)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_unknown_model_kind(self, rng):
        panel, design, _ = random_instance(rng)
        with pytest.raises(InputError):
            run_chains("semi-markov", panel, design,
                       config=SamplerConfig(n_chains=1, n_burnin=1, n_keep=1))


def _start(model_kind, panel, design, config, chain_index):
    """The start run_chains gives chain ``chain_index``."""
    if model_kind == "hmm":
        anchor = em_initialize(panel, S=panel.m_levels)
    else:
        anchor = empirical_markov_fit(panel)
    return init_chain(anchor, panel.n_subjects, design.p, chain_index=chain_index,
                      seed=config.seed)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods()
                    or not hasattr(os, "sched_getaffinity"),
                    reason="the chain pool needs fork and CPU affinity")
class TestChainPool:
    @pytest.fixture
    def pooled(self, monkeypatch):
        """Force one worker process per chain, whatever the CPU count."""
        monkeypatch.setattr(mcmc, "_chain_workers", lambda n_chains: n_chains)

    @pytest.mark.parametrize("model_kind", ["hmm", "markov"])
    def test_pooled_equals_in_process(self, rng, pooled, model_kind):
        panel, design, _ = random_instance(rng, n_subjects=6, n_days=20,
                                           missing_rate=0.1)
        # 50 burn-in sweeps: one step-size adaptation round
        config = SamplerConfig(n_chains=3, n_burnin=50, n_keep=8, seed=11)
        cs = run_chains(model_kind, panel, design, config=config)
        assert cs.model_kind == model_kind
        assert [c.chain_index for c in cs.chains] == [0, 1, 2]
        for c, chain in enumerate(cs.chains):
            ref = run_chain(panel, design, PriorSpec(), config,
                            _start(model_kind, panel, design, config, c),
                            chain_index=c)
            assert chain.draws.keys() == ref.draws.keys()
            for name in ref.draws:
                np.testing.assert_array_equal(chain.draws[name], ref.draws[name])
            np.testing.assert_array_equal(chain.deviance, ref.deviance)
            assert chain.acceptance.keys() == ref.acceptance.keys()
            for name in ref.acceptance:
                np.testing.assert_array_equal(chain.acceptance[name],
                                              ref.acceptance[name])

    def test_one_worker_per_chain_unless_one_cpu(self, monkeypatch):
        # with two CPUs, 3 chains get 3 workers: none waits for a second round
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert mcmc._chain_workers(1) == 1
        assert mcmc._chain_workers(2) == 2
        assert mcmc._chain_workers(3) == 3
        # but no more than two per CPU, each holding a whole chain's draws;
        # only the count is asked for, so no process starts
        assert mcmc._chain_workers(4) == 4
        assert mcmc._chain_workers(5) == 4
        assert mcmc._chain_workers(64) == 4
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert mcmc._chain_workers(64) == 16
        assert mcmc._chain_workers(3) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert mcmc._chain_workers(3) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert mcmc._chain_workers(3) == 1

    def test_worker_error_reaches_caller(self, rng, pooled):
        panel, design, _ = random_instance(rng, n_subjects=6, n_days=20)
        values = design.values.copy()
        values[0, 0, 0] = np.nan
        bad = DesignMatrix(values=values, standardizations=(), names=design.names)
        config = SamplerConfig(n_chains=2, n_burnin=2, n_keep=2)
        with pytest.raises(NumericalError):
            run_chains("hmm", panel, bad, config=config)


class TestDevianceReuse:
    @pytest.mark.parametrize("model_kind", ["hmm", "markov"])
    @pytest.mark.parametrize("n_burnin, n_keep", [(7, 6), (0, 5), (4, 1), (0, 1)])
    def test_every_deviance_is_exact(self, rng, model_kind, n_burnin, n_keep):
        panel, design, _ = random_instance(rng, n_subjects=5, n_days=15,
                                           missing_rate=0.2)
        config = SamplerConfig(n_chains=1, n_burnin=n_burnin, n_keep=n_keep, seed=2)
        chain = run_chain(panel, design, PriorSpec(), config,
                          _start(model_kind, panel, design, config, 0))
        # the start decides the model: emissions are kept only for the HMM
        assert ("P" in chain.draws) == (model_kind == "hmm")
        assert chain.deviance.shape == (n_keep,)
        for g in range(n_keep):
            expected = -2.0 * log_likelihood(panel, design, chain.params_at(g))
            assert chain.deviance[g] == expected

    @pytest.mark.parametrize("model_kind", ["hmm", "markov"])
    def test_one_full_likelihood_call_per_chain(self, rng, monkeypatch, model_kind):
        panel, design, _ = random_instance(rng, n_subjects=5, n_days=15)
        config = SamplerConfig(n_chains=1, n_burnin=3, n_keep=6, seed=4)
        start = _start(model_kind, panel, design, config, 0)
        original = inference.log_likelihood
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(inference, "log_likelihood", counted)
        run_chain(panel, design, PriorSpec(), config, start)
        assert len(calls) == 1


class TestPriorSampling:
    def test_requires_proper_prior(self, rng):
        with pytest.raises(InputError):
            sample_params_from_prior(PriorSpec(), 3, 3, 2, 3, "hmm", rng)

    def test_draws_are_valid_params(self, rng):
        prior = PriorSpec(sigma_prior="inv-chisq", sigma_nu0=5.0, sigma_s0sq=0.5)
        params = sample_params_from_prior(prior, 4, 3, 2, 3, "hmm", rng)
        params.validate()
        assert params.P.shape == (3, 3)
        markov = sample_params_from_prior(prior, 4, 3, 2, 3, "markov", rng)
        assert markov.P is None
