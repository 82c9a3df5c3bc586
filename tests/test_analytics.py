import numpy as np
import pytest

from panelhmm import analytics
from panelhmm.analytics import (
    average_stationary_difference,
    average_transition_difference,
    default_comparison_levels,
    ppc_check,
    ppc_quantile,
    ppc_replicates,
    ppc_statistics,
    stationary_distribution,
)
from panelhmm.dataset import ObservationPanel
from panelhmm.errors import InputError, NumericalError
from panelhmm.mcmc import Chain, ChainSet, SamplerConfig, run_chains
from panelhmm.model import simulate, softmax_rows, transition_logits

from conftest import (
    random_design,
    random_hmm_params,
    random_instance,
    random_markov_params,
    trial_design,
)


def chain_set_of(*params):
    """A one-chain set holding the given posterior draws in order."""
    chain = Chain(chain_index=0, values=np.stack([q.vector for q in params]),
                  shapes=params[0].shapes, deviance=np.zeros(len(params)),
                  acceptance={})
    return ChainSet(chains=[chain])


class TestComparisonLevels:
    def test_binary_uses_observed_codes(self, rng):
        design = trial_design(8, 5, rng)
        hi, lo = default_comparison_levels(design, "treatment")
        codes = np.unique(np.round(design.values[:, :, 0], 12))
        assert (hi, lo) == (codes.max(), codes.min())

    def test_continuous_uses_half_offsets(self, rng):
        design = trial_design(8, 5, rng)
        assert default_comparison_levels(design, "prior_drinking") == (0.5, -0.5)
        assert default_comparison_levels(design, "time") == (0.5, -0.5)

    def test_request_validation(self, rng):
        cs = chain_set_of(random_hmm_params(3, 3, 3, 2, rng))
        design = random_design(3, 4, rng)
        for compare in (average_transition_difference,
                        average_stationary_difference):
            with pytest.raises(InputError):
                compare(cs, design, "x0", 0.5, 0.5)
            with pytest.raises(InputError):
                compare(cs, design, "dose", 0.5, -0.5)


class TestTransitionComparisons:
    def test_zero_effect_gives_exact_zero(self, rng):
        params = random_hmm_params(5, 3, 3, 2, rng)
        params.beta[:, :, 0] = 0.0
        cs = chain_set_of(params)
        design = random_design(5, 6, rng)
        draws = average_transition_difference(cs, design, "x0", 0.5, -0.5)
        assert draws.shape == (1, 3, 3)
        assert np.all(draws == 0.0)

    def test_row_sums_to_zero_over_destinations(self, rng):
        params = random_hmm_params(5, 3, 3, 2, rng)
        cs = chain_set_of(params)
        design = random_design(5, 6, rng)
        draws = average_transition_difference(cs, design, "x1", 0.7, -0.3)
        for j in range(3):
            assert draws[0, j].sum() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("blocked", [False, True],
                             ids=["one_block", "three_blocks"])
    def test_matches_direct_computation(self, rng, monkeypatch, blocked):
        # [DERIVED] explicit per-(subject, day) loop over softmax rows
        params = random_hmm_params(3, 3, 3, 2, rng)
        n_days = 5
        if blocked:
            # R * R * N = 27 probabilities a day: 11 transitions split
            # into blocks of 4, 4 and 3 days; one row's +/-800 intercepts
            # overflow exp without the max shift
            monkeypatch.setattr(analytics, "_BLOCK_ELEMENTS", 4 * 27)
            params.alpha[1, 2] = [800.0, -800.0]
            n_days = 12
        block_days = []

        def logits(params, design):
            block_days.append(design.n_days - 1)
            return transition_logits(params, design)

        monkeypatch.setattr(analytics, "transition_logits", logits)
        cs = chain_set_of(params)
        design = random_design(3, n_days, rng)
        got = average_transition_difference(cs, design, "x0", 0.8, -0.2)[0]
        assert block_days == ([4, 4, 3] if blocked else [4]) * 2
        col = 0
        diffs = []
        for i in range(3):
            for t in range(n_days - 1):
                x_hi = design.values[i, t].copy()
                x_hi[col] = 0.8
                x_lo = design.values[i, t].copy()
                x_lo[col] = -0.2
                diffs.append([
                    softmax_rows(params.alpha[i, j] + params.beta[j] @ x_hi)
                    - softmax_rows(params.alpha[i, j] + params.beta[j] @ x_lo)
                    for j in range(3)])
        np.testing.assert_allclose(got, np.mean(diffs, axis=0), rtol=0,
                                   atol=1e-12)

    def test_sign_follows_coefficient(self, rng):
        params = random_hmm_params(4, 3, 3, 2, rng)
        params.beta[...] = 0.0
        params.beta[0, 0, 0] = 2.0  # x0 pushes row 1 toward state 2
        cs = chain_set_of(params)
        design = random_design(4, 6, rng)
        assert average_transition_difference(cs, design, "x0", 0.5, -0.5)[0, 0, 1] > 0


@pytest.mark.parametrize("apc", [average_transition_difference,
                                 average_stationary_difference])
class TestComparisonEdgeCases:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_logit_raises(self, rng, apc):
        params = random_hmm_params(4, 3, 3, 2, rng)
        params.beta[0, 0, 0] = 1e308  # times u = +/-2 is +/-inf
        with pytest.raises(NumericalError, match="non-finite linear "
                                                 "predictor in transition logits"):
            apc(chain_set_of(params), random_design(4, 6, rng), "x0", 2.0, -2.0)

    def test_one_state_gives_zeros(self, rng, apc):
        # K = 0 targets: every transition and stationary probability is 1
        cs = chain_set_of(*(random_hmm_params(4, 1, 3, 2, rng) for _ in range(2)))
        draws = apc(cs, random_design(4, 6, rng), "x0", 0.5, -0.5)
        assert draws.shape == ((2, 1, 1) if apc is average_transition_difference
                               else (2, 1))
        assert np.all(draws == 0.0)


class TestStationaryDistribution:
    def _power_iteration(self, Q, iters=20_000):
        pi = np.full(Q.shape[0], 1.0 / Q.shape[0])
        for _ in range(iters):
            pi = pi @ Q
        return pi

    def test_matches_power_iteration(self, rng):
        # [DERIVED] long-run row of Q^k for random irreducible matrices
        for _ in range(50):
            S = int(rng.integers(2, 6))
            Q = rng.dirichlet(np.ones(S) * rng.uniform(0.5, 5), size=S)
            pi = stationary_distribution(Q)
            np.testing.assert_allclose(pi, self._power_iteration(Q), atol=1e-10)

    def test_fixed_point_residual(self, rng):
        for _ in range(200):
            Q = rng.dirichlet(np.ones(3), size=3)
            pi = stationary_distribution(Q)
            assert np.max(np.abs(pi @ Q - pi)) < 1e-12
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_known_two_state_chain(self):
        # birth-death chain: pi = (b, a) / (a + b) for P(1->2)=a, P(2->1)=b
        Q = np.array([[0.7, 0.3], [0.1, 0.9]])
        np.testing.assert_allclose(stationary_distribution(Q),
                                   [0.25, 0.75], atol=1e-12)

    def test_reducible_rejected(self):
        Q = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            stationary_distribution(Q)
        block = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.4, 0.6, 0.0, 0.0],
            [0.0, 0.0, 0.3, 0.7],
            [0.0, 0.0, 0.8, 0.2],
        ])
        with pytest.raises(NumericalError):
            stationary_distribution(block)

    def test_periodic_rejected(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError):
            stationary_distribution(flip)

    def test_input_validation(self):
        with pytest.raises(InputError):
            stationary_distribution(np.ones((2, 3)))
        with pytest.raises(InputError):
            stationary_distribution(np.array([[0.5, 0.6], [0.5, 0.5]]))

    @pytest.mark.parametrize("S", [2, 3, 5])
    def test_stack_matches_per_matrix_calls(self, rng, S):
        Q = rng.dirichlet(np.ones(S), size=(4, 6, S))
        pi = stationary_distribution(Q)
        assert pi.shape == (4, 6, S)
        for idx in np.ndindex(4, 6):
            np.testing.assert_array_equal(pi[idx], stationary_distribution(Q[idx]))

    def test_solve_off_the_fixed_point_rejected(self, monkeypatch):
        # a solve whose answer is a distribution but not stationary must be
        # caught by the residual check, not clipped and returned
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda A, b: solve(A, b) + [[1e-6], [-1e-6]])
        with pytest.raises(NumericalError, match="residual"):
            stationary_distribution(np.array([[0.7, 0.3], [0.1, 0.9]]))

    def test_positive_stack_skips_eigenvalues_with_same_bits(self, rng,
                                                              monkeypatch):
        Q = rng.dirichlet(np.ones(3), size=(4, 5, 3))
        # an irreducible aperiodic cycle with a zero in every column sends
        # the whole stack through the eigenvalue test
        cycle = [[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
        eigvals, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(a.shape) or eigvals(a))
        tested = stationary_distribution(np.concatenate([Q.reshape(20, 3, 3),
                                                         [cycle]]))
        assert calls == [(21, 3, 3)]
        np.testing.assert_array_equal(stationary_distribution(Q),
                                      tested[:20].reshape(4, 5, 3))
        assert calls == [(21, 3, 3)]

    def test_positive_but_nearly_reducible_rejected(self):
        # every entry is positive, but the chain all but never leaves its
        # row: the solve alone would return (1, 0) for a pi of (1/2, 1/2)
        Q = np.array([[1.0, 1e-300], [1e-300, 1.0]])
        with pytest.raises(NumericalError, match="reducible or periodic"):
            stationary_distribution(Q)

    def test_stack_with_reducible_and_periodic_rejected(self, rng):
        Q = rng.dirichlet(np.ones(2), size=(5, 2))
        Q[1] = np.eye(2)
        Q[3] = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(NumericalError):
            stationary_distribution(Q)


class TestStationaryComparisons:
    def test_zero_effect_gives_exact_zero(self, rng):
        params = random_hmm_params(4, 3, 3, 2, rng)
        params.beta[:, :, 1] = 0.0
        cs = chain_set_of(params)
        design = random_design(4, 5, rng)
        draws = average_stationary_difference(cs, design, "x1", 0.5, -0.5)
        assert draws.shape == (1, 3)
        assert np.all(draws == 0.0)

    def test_differences_sum_to_zero_over_states(self, rng):
        params = random_hmm_params(4, 3, 3, 2, rng)
        cs = chain_set_of(params)
        design = random_design(4, 5, rng)
        total = average_stationary_difference(cs, design, "x0", 0.5, -0.5)[0].sum()
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_computation(self, rng):
        # [DERIVED] explicit per-(draw, subject) loop over 2-D solves of
        # each subject's last-day matrix
        draws = [random_hmm_params(4, 3, 3, 2, rng) for _ in range(2)]
        design = random_design(4, 5, rng)
        got = average_stationary_difference(chain_set_of(*draws), design,
                                            "x1", 0.6, -0.4)
        assert got.shape == (2, 3)
        for g, params in enumerate(draws):
            diffs = []
            for i in range(4):
                x_hi = design.values[i, -1].copy()
                x_hi[1] = 0.6
                x_lo = design.values[i, -1].copy()
                x_lo[1] = -0.4
                Q_hi = softmax_rows(params.alpha[i] + params.beta @ x_hi)
                Q_lo = softmax_rows(params.alpha[i] + params.beta @ x_lo)
                diffs.append(stationary_distribution(Q_hi)
                             - stationary_distribution(Q_lo))
            np.testing.assert_allclose(got[g], np.mean(diffs, axis=0), rtol=0,
                                       atol=1e-12)


class TestPpcStatistics:
    def test_hand_computed_fixture(self, monkeypatch):
        codes = np.array([
            [1, 2, 3, 1, 1, 0],
            [1, 1, 1, 1, 1, 1],
            [3, 3, 2, 2, 0, 1],
        ])
        mask = codes == 0
        panel = ObservationPanel(codes=codes, mask=mask)
        monkeypatch.setattr(analytics, "STAT_BLOCK_DAYS", 3)
        stats = ppc_statistics(panel)
        moderate = np.array([1.0, 0.0, 2.0])
        heavy = np.array([1.0, 0.0, 2.0])
        assert stats["mean_moderate_days"] == pytest.approx(moderate.mean())
        assert stats["var_moderate_days"] == pytest.approx(moderate.var(ddof=1))
        assert stats["mean_heavy_days"] == pytest.approx(heavy.mean())
        assert stats["var_heavy_days"] == pytest.approx(heavy.var(ddof=1))
        assert stats["never_drinkers"] == 1.0
        # first drinking day: subject 0 -> day 2, subject 2 -> day 1
        assert stats["fdd_mean"] == pytest.approx(1.5)
        assert stats["fdd_sd"] == pytest.approx(np.std([2.0, 1.0], ddof=1))
        # block 1 = days 1..3, block 2 = days 4..6
        block1_abstinent = np.array([1.0, 3.0, 0.0])
        assert stats["block1_abstinent_mean"] == \
            pytest.approx(block1_abstinent.mean())
        block2_heavy = np.array([0.0, 0.0, 0.0])
        assert stats["block2_heavy_mean"] == pytest.approx(block2_heavy.mean())
        # 4 scalar names + 1 never-drinkers + 2 fdd + 2 blocks * 3 levels * 2
        assert len(stats) == 19

    def test_all_abstinent_panel(self):
        panel = ObservationPanel(codes=np.ones((3, 4), int),
                                 mask=np.zeros((3, 4), bool))
        stats = ppc_statistics(panel)
        assert stats["never_drinkers"] == 3.0
        assert np.isnan(stats["fdd_mean"])


class TestPpcQuantile:
    def test_tie_half_rule(self):
        reps = np.array([1.0, 2.0, 2.0, 3.0])
        assert ppc_quantile(2.0, reps) == pytest.approx((1 + 0.5 * 2) / 4)
        assert ppc_quantile(0.0, reps) == 0.0
        assert ppc_quantile(5.0, reps) == 1.0
        assert ppc_quantile(2.5, reps) == pytest.approx(0.75)


class TestPpcReplicates:
    def test_mask_applied_and_counts(self, rng):
        panel, design, params = random_instance(rng, n_subjects=4, n_days=10,
                                                missing_rate=0.2)
        cs = chain_set_of(params)
        reps = list(ppc_replicates(cs, design, mode="new_subjects",
                                   mask=panel.mask, rng=rng))
        assert len(reps) == 1
        np.testing.assert_array_equal(reps[0].observed.mask, panel.mask)

    def test_same_subjects_preserves_intercepts(self, rng):
        panel, design, params = random_instance(rng, n_subjects=4, n_days=10)
        cs = chain_set_of(params)
        stored = cs.chains[0].draws["alpha"].copy()
        list(ppc_replicates(cs, design, mode="same_subjects", rng=rng))
        list(ppc_replicates(cs, design, mode="new_subjects", rng=rng))
        # neither mode may corrupt the stored draws
        np.testing.assert_array_equal(cs.chains[0].draws["alpha"], stored)

    def test_draw_subsampling(self, rng):
        panel, design, _ = random_instance(rng, n_subjects=3, n_days=8)
        cs = run_chains("hmm", panel, design,
                        config=SamplerConfig(n_chains=1, n_burnin=5,
                                             n_keep=10, seed=1))
        reps = list(ppc_replicates(cs, design, rng=rng, draw_indices=[0, 4, 9]))
        assert len(reps) == 3

    @pytest.mark.parametrize("kind", ["hmm", "markov"])
    @pytest.mark.parametrize("mode", ["new_subjects", "same_subjects"])
    def test_blocks_equal_one_draw_at_a_time(self, kind, mode):
        # 11 draws: one full block and a partial one
        assert 11 % analytics.PPC_BLOCK
        rng = np.random.default_rng(61)
        panel, design, _ = random_instance(rng, n_subjects=6, n_days=14,
                                           missing_rate=0.2)
        draws = [random_hmm_params(6, 3, 3, design.p, rng) if kind == "hmm"
                 else random_markov_params(6, 3, design.p, rng) for _ in range(11)]
        cs = chain_set_of(*draws)
        reps = list(ppc_replicates(cs, design, mode=mode, mask=panel.mask,
                                   rng=np.random.default_rng(5)))
        assert len(reps) == 11
        master = np.random.default_rng(5)
        for g, rep in enumerate(reps):
            params = cs.params_at(g)
            if mode == "new_subjects":
                params.alpha = (params.mu[None] + params.sigma[None]
                                * master.standard_normal(params.alpha.shape))
            ref = simulate([params], design, 6, 14, [master.integers(2 ** 63)],
                           panel.mask)[0]
            np.testing.assert_array_equal(rep.observed.codes, ref.observed.codes)
            np.testing.assert_array_equal(rep.observed.mask, panel.mask)
            if kind == "hmm":
                np.testing.assert_array_equal(rep.hidden, ref.hidden)
            else:
                assert rep.hidden is None

    def test_unknown_mode(self, rng):
        panel, design, params = random_instance(rng)
        cs = chain_set_of(params)
        with pytest.raises(InputError):
            list(ppc_replicates(cs, design, mode="bootstrap"))

    def test_check_results_consistent(self, rng):
        panel, design, params = random_instance(rng, n_subjects=5, n_days=12,
                                                missing_rate=0.1)
        cs = chain_set_of(params)
        results = ppc_check(cs, design, panel, rng=np.random.default_rng(3))
        observed = ppc_statistics(panel)
        assert {r.name for r in results} == set(observed)
        for r in results:
            if np.isfinite(r.observed) and np.isfinite(r.replicates).any():
                finite = r.replicates[np.isfinite(r.replicates)]
                assert r.quantile == pytest.approx(
                    ppc_quantile(r.observed, finite))
