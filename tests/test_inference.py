import itertools

import numpy as np
import pytest

from panelhmm.dataset import DesignMatrix, ObservationPanel
from panelhmm.inference import (
    _backward_sample_all,
    _expected_counts,
    _filter_all,
    _hmm_factors,
    draw_complete_data,
    log_likelihood,
    smoothed_marginals,
    viterbi,
)
from panelhmm.model import Params, softmax_rows, transition_matrices

from conftest import (
    enumerate_paths,
    log_joint_hmm,
    random_design,
    random_hmm_params,
    random_instance,
    random_markov_params,
)


class TestLikelihoodOracle:
    def test_matches_path_enumeration(self):
        # [DERIVED] brute-force sum over all S^T hidden paths
        rng = np.random.default_rng(11)
        for trial in range(30):
            T = int(rng.integers(2, 7))
            S = int(rng.integers(2, 4))
            panel, design, params = random_instance(
                rng, n_subjects=1, n_days=T, S=S, M=3)
            _, probs = enumerate_paths(panel, design, params)
            expected = np.log(probs.sum())
            got = log_likelihood(panel, design, params)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_multi_subject_sums_contributions(self, rng):
        panel, design, params = random_instance(rng, n_subjects=4, n_days=5)
        total = log_likelihood(panel, design, params)
        parts = 0.0
        for i in range(4):
            sub_panel = ObservationPanel(codes=panel.codes[i:i + 1],
                                         mask=panel.mask[i:i + 1])
            sub_design = type(design)(values=design.values[i:i + 1],
                                      names=design.names)
            sub_params = params.copy()
            sub_params.alpha = params.alpha[i:i + 1]
            parts += log_likelihood(sub_panel, sub_design, sub_params)
        assert total == pytest.approx(parts, rel=1e-12)

    def test_all_missing_subject_contributes_zero(self, rng):
        panel, design, params = random_instance(rng, n_subjects=1, n_days=5,
                                                missing_rate=0.0)
        blank = ObservationPanel(codes=np.zeros_like(panel.codes),
                                 mask=np.ones_like(panel.mask))
        assert log_likelihood(blank, design, params) == 0.0

    def test_missing_day_equals_level_marginalization(self, rng):
        # a missing cell must equal the sum of likelihoods over its values
        panel, design, params = random_instance(rng, n_subjects=1, n_days=5,
                                                missing_rate=0.0)
        codes = panel.codes.copy()
        mask = panel.mask.copy()
        mask[0, 2] = True
        holed = ObservationPanel(codes=np.where(mask, 0, codes), mask=mask)
        total = 0.0
        for v in range(1, 4):
            filled = codes.copy()
            filled[0, 2] = v
            total += np.exp(log_likelihood(
                ObservationPanel(codes=filled, mask=panel.mask), design, params))
        assert np.exp(log_likelihood(holed, design, params)) == \
            pytest.approx(total, rel=1e-10)


class TestSmoothing:
    @pytest.mark.parametrize("n_subjects", [1, 4])
    def test_marginals_match_enumeration(self, n_subjects):
        rng = np.random.default_rng(13)
        for trial in range(10):
            T = int(rng.integers(2, 6))
            panel, design, params = random_instance(rng, n_subjects=n_subjects,
                                                    n_days=T, S=3)
            marginals = smoothed_marginals(panel, design, params)
            assert marginals.shape == (n_subjects, T, 3)
            for i in range(n_subjects):
                paths, probs = enumerate_paths(panel, design, params, subject=i)
                probs = probs / probs.sum()
                expected = np.zeros((T, 3))
                for h, pr in zip(paths, probs):
                    for t in range(T):
                        expected[t, h[t] - 1] += pr
                np.testing.assert_allclose(marginals[i], expected, atol=1e-10)

    def test_filtered_and_smoothed_are_distributions(self, rng):
        panel, design, params = random_instance(rng, n_subjects=3, n_days=8)
        filtered, scaling = _filter_all(_hmm_factors(panel.codes, params.P).T,
                                        transition_matrices(params, design),
                                        params.pi)
        smoothed = smoothed_marginals(panel, design, params)
        np.testing.assert_allclose(filtered.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(smoothed.sum(axis=2), 1.0, atol=1e-12)
        assert np.log(scaling).sum() == pytest.approx(
            log_likelihood(panel, design, params))


class TestExpectedCounts:
    @pytest.mark.parametrize("S", [2, 3])
    def test_matches_path_enumeration(self, S):
        # [DERIVED] each expected count is a posterior average over all S^T
        # hidden paths of one homogeneous HMM, summed over subjects
        rng = np.random.default_rng(17)
        N, T, M = 3, 5, 3
        A = rng.dirichlet(np.ones(S), size=S)
        P = rng.dirichlet(np.ones(M), size=S)
        pi = rng.dirichlet(np.ones(S))
        mask = np.zeros((N, T), dtype=bool)
        mask[0, [1, 2]] = mask[1, 4] = True
        mask[2] = True  # a subject with every day missing
        codes = np.where(mask, 0, rng.integers(1, M + 1, size=(N, T)))
        ll, xi, emissions, initial = _expected_counts(codes, A, P, pi)
        paths = np.array(list(itertools.product(range(S), repeat=T)))
        want_ll, want_xi = 0.0, np.zeros((S, S))
        want_em, want_init = np.zeros((S, M)), np.zeros(S)
        for i in range(N):
            w = pi[paths[:, 0]] * A[paths[:, :-1], paths[:, 1:]].prod(axis=1)
            for t in np.flatnonzero(~mask[i]):
                w = w * P[paths[:, t], codes[i, t] - 1]
            want_ll += np.log(w.sum())
            w = w / w.sum()
            np.add.at(want_init, paths[:, 0], w)
            for t in range(T - 1):
                np.add.at(want_xi, (paths[:, t], paths[:, t + 1]), w)
            for t in np.flatnonzero(~mask[i]):
                np.add.at(want_em, (paths[:, t], codes[i, t] - 1), w)
        assert abs(ll - want_ll) <= 1e-12
        np.testing.assert_allclose(xi, want_xi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(emissions, want_em, rtol=0, atol=1e-12)
        np.testing.assert_allclose(initial, want_init, rtol=0, atol=1e-12)


class TestViterbi:
    def test_matches_enumeration_argmax(self):
        # [DERIVED] exhaustive argmax over paths, 1e-12 tie tolerance
        rng = np.random.default_rng(17)
        for trial in range(30):
            T = int(rng.integers(2, 7))
            S = int(rng.integers(2, 4))
            panel, design, params = random_instance(rng, n_days=T, S=S)
            paths, probs = enumerate_paths(panel, design, params)
            best = probs.max()
            states, log_joint = viterbi(panel, design, params)
            joint = np.exp(log_joint_hmm(panel, design, params, states))
            assert joint >= best * (1 - 1e-12)
            assert log_joint[0] == pytest.approx(np.log(best), abs=1e-10)

    def test_tie_breaks_toward_lower_state(self, rng):
        design = random_design(1, 3, rng)
        params = random_hmm_params(1, 2, 2, 2, rng)
        # fully symmetric model: every path has equal probability
        params.alpha[...] = 0.0
        params.beta[...] = 0.0
        params.pi[...] = [0.5, 0.5]
        params.P[...] = [[0.5, 0.5], [0.5, 0.5]]
        panel = ObservationPanel(codes=np.array([[1, 2, 1]]),
                                 mask=np.zeros((1, 3), bool), m_levels=2)
        states, _ = viterbi(panel, design, params)
        np.testing.assert_array_equal(states[0], [1, 1, 1])


    def test_panel_decodes_each_subject_as_alone(self):
        # every subject of a panel with missing days decodes to the path it
        # gets on its own, and its log joint is that path's log p(H, Y_obs);
        # subject 0 has no data and a uniform chain, so all its paths tie
        rng = np.random.default_rng(29)
        N, T = 7, 9
        panel, design, params = random_instance(rng, n_subjects=N, n_days=T,
                                                missing_rate=0.3)
        mask = panel.mask.copy()
        mask[0] = True
        panel = ObservationPanel(codes=np.where(mask, 0, panel.codes),
                                 mask=mask, m_levels=3)
        values = design.values.copy()
        values[0] = 0.0
        design = DesignMatrix(values=values, names=design.names)
        params.alpha[0] = 0.0
        params.pi[...] = 1.0 / 3
        states, log_joint = viterbi(panel, design, params)
        assert states.shape == (N, T) and states.dtype == np.int64
        assert log_joint.shape == (N,)
        np.testing.assert_array_equal(states[0], np.ones(T))
        for i in range(N):
            one = slice(i, i + 1)
            alone = (
                ObservationPanel(codes=panel.codes[one], mask=panel.mask[one],
                                 m_levels=3),
                DesignMatrix(values=design.values[one], names=design.names),
                Params(alpha=params.alpha[one], beta=params.beta,
                       mu=params.mu, sigma=params.sigma, pi=params.pi,
                       P=params.P),
            )
            own_states, own_log_joint = viterbi(*alone)
            np.testing.assert_array_equal(states[one], own_states)
            assert log_joint[i] == pytest.approx(own_log_joint[0], rel=1e-12)
            assert log_joint[i] == pytest.approx(
                log_joint_hmm(*alone, states[one]), rel=1e-12)


class TestFfbs:
    def test_path_distribution_total_variation(self):
        # [DERIVED] empirical path frequencies against the enumerated
        # posterior over 16 paths
        rng = np.random.default_rng(19)
        panel, design, params = random_instance(rng, n_subjects=1, n_days=4,
                                                S=2, missing_rate=0.3)
        paths, probs = enumerate_paths(panel, design, params)
        probs = probs / probs.sum()
        index = {h: k for k, h in enumerate(paths)}
        counts = np.zeros(len(paths))
        draws = 40_000
        for _ in range(draws):
            h = draw_complete_data(panel, design, params, rng)[0][0]
            counts[index[tuple(h)]] += 1
        tv = 0.5 * np.abs(counts / draws - probs).sum()
        assert tv < 0.01

    def test_draws_respect_observed_emission_support(self, rng):
        panel, design, params = random_instance(rng, n_subjects=3, n_days=6,
                                                missing_rate=0.0)
        params.P[...] = np.eye(3)  # observation pins the state exactly
        params.P[...] = params.P * 0.9994 + 0.0002
        h = draw_complete_data(panel, design, params, rng)[0]
        assert (h == panel.codes).mean() > 0.95

    @pytest.mark.parametrize("n_days", [1, 3])
    def test_top_uniform_draws_the_last_state(self, n_days):
        # weights whose running sum ends at 1 - 2**-52, below the largest
        # uniform rng.random() returns, 1 - 2**-53: no draw may pass the
        # last state
        class TopUniform:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        w = np.array([0.7380289979116733, 0.21375794350507327, 0.04821305858325322])
        assert np.cumsum(w)[-1] == 1.0 - 2.0 ** -52
        N, R = 4, len(w)
        filtered = np.repeat(w[None, :, None], n_days, axis=0).repeat(N, axis=2)
        Q = np.full((n_days - 1, R, R, N), 1.0 / R)
        states = _backward_sample_all(filtered, Q, TopUniform())
        np.testing.assert_array_equal(states, np.full((N, n_days), R))


def _data_step_by_loops(panel, design, params, u):
    """The data step one subject and one day at a time, from matrices
    built one at a time: forward filter, log-likelihood, and the backward
    draw with the (N, T) uniforms ``u``."""
    N, T = panel.codes.shape
    P = np.eye(params.m_levels) if params.P is None else params.P
    draw = np.zeros((N, T), dtype=np.int64)
    loglik = 0.0
    for i in range(N):
        Q = [softmax_rows(params.alpha[i] + params.beta @ design.values[i, t])
             for t in range(T - 1)]
        filtered = []
        for t in range(T):
            f = params.pi if t == 0 else filtered[-1] @ Q[t - 1]
            if not panel.mask[i, t]:
                f = f * P[:, panel.codes[i, t] - 1]
            loglik += np.log(f.sum())
            filtered.append(f / f.sum())
        w = filtered[-1]
        for t in range(T - 1, -1, -1):
            if t < T - 1:
                w = filtered[t] * Q[t][:, draw[i, t + 1] - 1]
                w = w / w.sum()
            draw[i, t] = np.sum(u[i, t] > np.cumsum(w)[:-1]) + 1
    if params.P is None:
        draw[~panel.mask] = panel.codes[~panel.mask]
    return draw, loglik


class TestDataStepLayout:
    @pytest.mark.parametrize("model_kind", ["hmm", "markov"])
    def test_matches_per_subject_day_loops(self, model_kind):
        # [DERIVED] the vectorized data step against plain loops over each
        # subject's per-day matrices, with the same uniforms
        rng = np.random.default_rng(31)
        N, T = 6, 12
        design = random_design(N, T, rng, p=2)
        params = (random_hmm_params(N, 3, 3, 2, rng) if model_kind == "hmm"
                  else random_markov_params(N, 3, 2, rng))
        mask = np.zeros((N, T), dtype=bool)
        mask[0, :3] = True      # a leading gap
        mask[1, 3:8] = True     # an interior run
        mask[2, 7:] = True      # a dropout tail
        mask[3, 1:11:2] = True  # isolated days
        codes = np.where(mask, 0, rng.integers(1, 4, (N, T)))
        panel = ObservationPanel(codes=codes, mask=mask)
        draw, loglik, _ = draw_complete_data(
            panel, design, params, np.random.default_rng(5))
        expected, expected_ll = _data_step_by_loops(
            panel, design, params, np.random.default_rng(5).random((N, T)))
        np.testing.assert_array_equal(draw, expected)
        assert loglik == pytest.approx(expected_ll, rel=1e-12)


class TestMarkovLikelihood:
    def test_complete_data_formula(self, rng):
        design = random_design(3, 6, rng)
        params = random_markov_params(3, 3, 2, rng)
        codes = rng.integers(1, 4, (3, 6))
        panel = ObservationPanel(codes=codes, mask=np.zeros((3, 6), bool))
        Q = transition_matrices(params, design)
        expected = 0.0
        for i in range(3):
            expected += np.log(params.pi[codes[i, 0] - 1])
            for t in range(5):
                expected += np.log(Q[t, codes[i, t] - 1, codes[i, t + 1] - 1, i])
        assert log_likelihood(panel, design, params) == \
            pytest.approx(expected, rel=1e-12)

    def test_gap_marginalization_equals_multi_step(self, rng):
        # [DERIVED] marginal likelihood over a gap equals summing the
        # complete-data likelihood over all gap fillings
        design = random_design(1, 5, rng)
        params = random_markov_params(1, 3, 2, rng)
        codes = np.array([[1, 0, 0, 2, 3]])
        mask = np.array([[False, True, True, False, False]])
        panel = ObservationPanel(codes=codes, mask=mask)
        Q = transition_matrices(params, design)
        total = 0.0
        for a, b in itertools.product(range(1, 4), repeat=2):
            y = [1, a, b, 2, 3]
            complete = params.pi[y[0] - 1]
            for t in range(4):
                complete *= Q[t, y[t] - 1, y[t + 1] - 1, 0]
            total += complete
        got = np.exp(log_likelihood(panel, design, params))
        assert got == pytest.approx(total, rel=1e-10)

    def test_leading_missing_uses_initial_distribution(self, rng):
        design = random_design(1, 3, rng)
        params = random_markov_params(1, 3, 2, rng)
        panel = ObservationPanel(codes=np.array([[0, 0, 2]]),
                                 mask=np.array([[True, True, False]]))
        Q = transition_matrices(params, design)
        expected = (params.pi @ Q[0, :, :, 0] @ Q[1, :, :, 0])[1]
        got = np.exp(log_likelihood(panel, design, params))
        assert got == pytest.approx(expected, rel=1e-12)
