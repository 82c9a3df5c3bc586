import numpy as np
import pytest

from panelhmm.dataset import ObservationPanel
from panelhmm.errors import InputError, NumericalError
from panelhmm.inference import _hmm_factors, log_likelihood
from panelhmm.model import (
    LAYOUT,
    Params,
    inverse_softmax,
    load_params,
    params_from_text,
    params_to_text,
    save_params,
    simulate,
    softmax_rows,
    transition_logits,
    transition_matrices,
    unpack,
)

from conftest import random_design, random_hmm_params, random_markov_params


class TestSoftmax:
    def test_baseline_category_has_zero_logit(self):
        # all logits zero -> uniform over S categories
        p = softmax_rows(np.zeros(2))
        np.testing.assert_allclose(p, np.ones(3) / 3)

    def test_rows_sum_to_one(self, rng):
        logits = rng.normal(0, 3, (4, 5, 2))
        p = softmax_rows(logits)
        assert p.shape == (4, 5, 3)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_extreme_logits_stable(self):
        p = softmax_rows(np.array([800.0, -800.0]))
        assert np.isfinite(p).all()
        assert p[1] == pytest.approx(1.0)

    def test_rows_without_targets_and_all_negative_logits(self):
        np.testing.assert_array_equal(softmax_rows(np.zeros((2, 0))), np.ones((2, 1)))
        np.testing.assert_array_equal(softmax_rows(np.array([-800.0, -900.0])),
                                      [1.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            softmax_rows(np.array([np.nan, 0.0]))

    def test_inverse_softmax_round_trip(self, rng):
        row = rng.dirichlet(np.ones(4))
        np.testing.assert_allclose(softmax_rows(inverse_softmax(row)), row,
                                   atol=1e-10)

    def test_inverse_softmax_clamps_zeros(self):
        logits = inverse_softmax(np.array([1.0, 0.0, 0.0]))
        assert np.isfinite(logits).all()
        p = softmax_rows(logits)
        assert p[0] > 0.999


def _set(index, value):
    """An edit that returns a copy of an array with ``index`` set."""
    def edit(a):
        a = a.copy()
        a[index] = value
        return a
    return edit


# (case, field, edit) rejections shared by both models, then the HMM's own
_INVALID = [
    ("pi-not-simplex", "pi", _set(slice(None), 0.5)),
    ("pi-nan", "pi", _set(slice(1, None), np.nan)),
    ("sigma-zero", "sigma", _set((0, 0), 0.0)),
    ("sigma-negative", "sigma", _set((2, 1), -0.5)),
    ("sigma-nan", "sigma", _set((1, 0), np.nan)),
    ("alpha-nan", "alpha", _set((1, 2, 1), np.nan)),
    ("alpha-shape", "alpha", lambda a: a[:, :, :1]),
    ("beta-shape", "beta", lambda a: a[:2]),
    ("mu-shape", "mu", lambda a: a[:, :1]),
]
_INVALID_HMM = [
    ("P-rows", "P", lambda a: a[:2]),
    ("P-not-simplex", "P", _set(1, 0.5)),
    ("P-nan", "P", _set(1, np.nan)),
]


class TestParams:
    @pytest.mark.parametrize("kind, field, edit", [
        pytest.param(kind, field, edit, id=f"{kind}-{case}")
        for kind in ("hmm", "markov") for case, field, edit in _INVALID
    ] + [pytest.param("hmm", field, edit, id=f"hmm-{case}")
         for case, field, edit in _INVALID_HMM])
    def test_invalid_params_rejected(self, rng, kind, field, edit):
        params = (random_hmm_params(2, 3, 3, 2, rng) if kind == "hmm"
                  else random_markov_params(2, 3, 2, rng))
        fields = dict(vars(params))
        Params(**fields)  # the unedited fields are valid
        fields[field] = edit(fields[field])
        with pytest.raises(InputError):
            Params(**fields)

    def test_copy_is_deep(self, rng):
        params = random_hmm_params(2, 3, 3, 2, rng)
        clone = params.copy()
        clone.alpha[0, 0, 0] += 1.0
        assert params.alpha[0, 0, 0] != clone.alpha[0, 0, 0]

    def test_markov_rows_are_levels(self, rng):
        params = random_markov_params(2, 3, 2, rng)
        assert params.n_states == params.m_levels == 3


_LAYOUT_CASES = {
    "hmm": lambda rng: random_hmm_params(2, 3, 4, 2, rng),
    "markov": lambda rng: random_markov_params(2, 3, 2, rng),
    "one-state-hmm": lambda rng: random_hmm_params(2, 1, 3, 2, rng),
}


class TestLayout:
    @pytest.mark.parametrize("case", list(_LAYOUT_CASES))
    def test_vector_follows_layout(self, rng, case):
        params = _LAYOUT_CASES[case](rng)
        assert list(LAYOUT) == sorted(vars(params))  # the convergence table's order
        names = [name for name in LAYOUT if getattr(params, name) is not None]
        assert list(params.shapes) == names
        assert params.shapes == {name: getattr(params, name).shape for name in names}
        vector = params.vector
        assert vector.dtype == np.float64 and vector.ndim == 1
        np.testing.assert_array_equal(
            vector, np.concatenate([getattr(params, name).ravel() for name in names]))
        assert not np.shares_memory(vector, params.alpha)

    @pytest.mark.parametrize("case", list(_LAYOUT_CASES))
    def test_unpack_inverts_vector(self, rng, case):
        params = _LAYOUT_CASES[case](rng)
        back = Params(**unpack(params.vector, params.shapes))
        assert back.shapes == params.shapes
        for name, a in vars(params).items():
            np.testing.assert_array_equal(getattr(back, name), a)

    def test_unpack_stacks_views(self, rng):
        draws = [random_hmm_params(2, 3, 4, 2, rng) for _ in range(3)]
        values = np.stack([params.vector for params in draws])
        arrays = unpack(values, draws[0].shapes)
        for name, shape in draws[0].shapes.items():
            assert arrays[name].shape == (3,) + shape
            assert np.shares_memory(arrays[name], values)
            np.testing.assert_array_equal(arrays[name][1], getattr(draws[1], name))

    def test_unpack_rejects_wrong_length(self, rng):
        params = random_markov_params(2, 3, 2, rng)
        with pytest.raises(InputError, match="do not hold"):
            unpack(params.vector[:-1], params.shapes)


class TestTransitions:
    def test_row_matches_hand_softmax(self, rng):
        design = random_design(1, 3, rng)
        params = random_hmm_params(1, 3, 3, 2, rng)
        x = design.values[0, 1]
        Q = transition_matrices(params, design)[1, :, :, 0]
        for r in range(1, 4):
            eta = params.alpha[0, r - 1] + params.beta[r - 1] @ x
            expected = np.concatenate([[1.0], np.exp(eta)])
            expected /= expected.sum()
            np.testing.assert_allclose(Q[r - 1], expected, atol=1e-12)

    def test_matrix_rows_stochastic(self, rng):
        design = random_design(3, 4, rng)
        params = random_hmm_params(3, 3, 3, 2, rng)
        Q = transition_matrices(params, design)
        np.testing.assert_allclose(Q.sum(axis=2), 1.0, atol=1e-12)

    def test_batch_matches_single(self, rng):
        # each subject-day's matrix is the softmax of that day's logits alone
        design = random_design(3, 4, rng)
        params = random_hmm_params(3, 3, 3, 2, rng)
        Q = transition_matrices(params, design)
        assert Q.shape == (3, 3, 3, 3)
        for i in range(3):
            for t in range(3):
                single = softmax_rows(params.alpha[i] + params.beta @ design.values[i, t])
                np.testing.assert_allclose(Q[t, :, :, i], single, atol=1e-14)

    @pytest.mark.parametrize("S", [1, 2, 3, 5])
    def test_matches_einsum_concatenate_reference(self, rng, S):
        # [DERIVED] logits by einsum, then the softmax of the rows with the
        # baseline column concatenated and the row maximum subtracted
        design = random_design(7, 9, rng, p=3)
        params = random_hmm_params(7, S, 3, 3, rng)
        eta = params.alpha[:, None] + np.einsum("rkp,ntp->ntrk", params.beta,
                                                design.values[:, :-1])
        full = np.concatenate([np.zeros(eta.shape[:-1] + (1,)), eta], axis=-1)
        e = np.exp(full - full.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(transition_logits(params, design),
                                   np.moveaxis(eta, 0, -1), rtol=0, atol=1e-14)
        np.testing.assert_allclose(transition_matrices(params, design),
                                   np.moveaxis(e / e.sum(axis=-1, keepdims=True), 0, -1),
                                   rtol=0, atol=1e-15)

    def test_multi_step_is_ordered_product(self, rng):
        # across a two-day gap the Markov likelihood moves by the ordered
        # product of the per-day matrices; subject 0 has no data and the
        # trailing missing day of subject 1 contributes a factor of 1
        design = random_design(2, 6, rng)
        params = random_markov_params(2, 3, 2, rng)
        Q = transition_matrices(params, design)
        expected = Q[1, :, :, 1] @ Q[2, :, :, 1] @ Q[3, :, :, 1]
        mask = np.array([[True] * 6, [True, False, True, True, False, True]])
        got = np.zeros((3, 3))
        for a in range(1, 4):
            for b in range(1, 4):
                codes = np.zeros((2, 6), dtype=int)
                codes[1, 1], codes[1, 4] = a, b
                panel = ObservationPanel(codes=codes, mask=mask)
                lik = np.exp(log_likelihood(panel, design, params))
                got[a - 1, b - 1] = lik / (params.pi @ Q[0, :, :, 1])[a - 1]
        np.testing.assert_allclose(got, expected, atol=1e-14)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)

    def test_emission_prob(self, rng):
        # P(Y = 3 | H = 2) is P[1, 2]: states and levels are 1-based
        params = random_hmm_params(1, 3, 3, 2, rng)
        panel = ObservationPanel(codes=np.array([[3]]), mask=np.array([[False]]))
        assert _hmm_factors(panel.codes, params.P)[0, 0, 1] == params.P[1, 2]


def reference_simulation(params, design, n_subjects, n_days, seed):
    """The direct algorithm: every transition matrix built up front, then
    one day at a time, one categorical draw per subject from its row.
    Returns (observed codes, hidden states or None)."""
    rng = np.random.default_rng(seed)

    def draw(probs, u):
        return (u[..., None] > np.cumsum(probs, axis=-1)).sum(axis=-1) + 1

    R = params.n_states
    Q = transition_matrices(params, design)[..., :n_subjects]
    states = np.zeros((n_subjects, n_days), dtype=np.int64)
    states[:, 0] = draw(np.broadcast_to(params.pi, (n_subjects, R)),
                        rng.random(n_subjects))
    for t in range(n_days - 1):
        rows = Q[t, states[:, t] - 1, :, np.arange(n_subjects)]
        states[:, t + 1] = draw(rows, rng.random(n_subjects))
    if params.P is None:
        return states, None
    return draw(params.P[states - 1], rng.random(states.shape)), states


def random_case(case):
    """Parameters of either model, with a design and simulation sizes, some
    smaller than the population and horizon; large logits on odd cases."""
    rng = np.random.default_rng(case)
    N, T = int(rng.integers(1, 30)), int(rng.integers(2, 25))
    S, M, p = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
    design = random_design(N, T, rng, p=p)
    if case % 3:
        params = random_hmm_params(N, S, M, p, rng)
    else:
        params = random_markov_params(N, M, p, rng)
    if case % 2:
        params.alpha *= 4.0
        params.beta *= 4.0
    return params, design, int(rng.integers(1, N + 1)), int(rng.integers(2, T + 1))


class TestSimulationAgainstLoop:
    @pytest.mark.parametrize("case", range(40))
    def test_same_draws_as_direct_loop(self, case):
        params, design, n, t = random_case(case)
        sim = simulate([params], design, n, t, [case])[0]
        codes, hidden = reference_simulation(params, design, n, t, case)
        np.testing.assert_array_equal(sim.observed.codes, codes)
        if hidden is None:
            assert sim.hidden is None
        else:
            np.testing.assert_array_equal(sim.hidden, hidden)

    @pytest.mark.parametrize("kind", ["hmm", "markov"])
    def test_block_equals_one_at_a_time(self, rng, kind):
        design = random_design(7, 13, rng)
        block = [random_hmm_params(7, 3, 3, 2, rng) if kind == "hmm"
                 else random_markov_params(7, 3, 2, rng) for _ in range(5)]
        seeds = [int(s) for s in rng.integers(2 ** 63, size=5)]
        mask = rng.random((6, 13)) < 0.2
        sims = simulate(block, design, 6, 13, seeds, mask)
        for params, seed, sim in zip(block, seeds, sims):
            ref = simulate([params], design, 6, 13, [seed], mask)[0]
            np.testing.assert_array_equal(sim.observed.codes, ref.observed.codes)
            np.testing.assert_array_equal(sim.observed.mask, mask)
            if kind == "hmm":
                np.testing.assert_array_equal(sim.hidden, ref.hidden)

    def test_kind_must_match(self, rng):
        # a block of both kinds would take its kind from its first entry,
        # and a 3-level Markov block entry has the HMM's shapes
        design = random_design(3, 5, rng)
        markov = random_markov_params(3, 3, 2, rng)
        hmm = random_hmm_params(3, 3, 3, 2, rng)
        for block in ([markov, hmm], [hmm, markov]):
            with pytest.raises(InputError, match="mixes"):
                simulate(block, design, 3, 5, [0, 1])


class TestSimulation:
    def test_seed_reproducibility(self, rng):
        design = random_design(4, 12, rng)
        params = random_hmm_params(4, 3, 3, 2, rng)
        a = simulate([params], design, 4, 12, [5])[0]
        b = simulate([params], design, 4, 12, [5])[0]
        np.testing.assert_array_equal(a.observed.codes, b.observed.codes)
        np.testing.assert_array_equal(a.hidden, b.hidden)
        c = simulate([params], design, 4, 12, [6])[0]
        assert not np.array_equal(a.observed.codes, c.observed.codes)

    def test_mask_applied_but_hidden_complete(self, rng):
        design = random_design(3, 10, rng)
        params = random_hmm_params(3, 3, 3, 2, rng)
        mask = rng.random((3, 10)) < 0.3
        sim = simulate([params], design, 3, 10, [0], mask)[0]
        np.testing.assert_array_equal(sim.observed.mask, mask)
        assert np.all(sim.observed.codes[mask] == 0)
        assert np.all(sim.hidden >= 1)

    def test_markov_has_no_hidden(self, rng):
        design = random_design(3, 10, rng)
        params = random_markov_params(3, 3, 2, rng)
        sim = simulate([params], design, 3, 10, [1])[0]
        assert sim.hidden is None
        assert set(np.unique(sim.observed.codes)) <= {1, 2, 3}

    def test_initial_distribution_frequencies(self, rng):
        # strongly peaked pi should dominate day-1 draws
        design = random_design(2000, 2, rng)
        params = random_hmm_params(2000, 3, 3, 2, rng)
        params.pi[...] = [0.9, 0.05, 0.05]
        sim = simulate([params], design, 2000, 2, [3])[0]
        frac = (sim.hidden[:, 0] == 1).mean()
        assert abs(frac - 0.9) < 0.03

    def test_emission_frequencies(self, rng):
        design = random_design(1500, 2, rng)
        params = random_hmm_params(1500, 3, 3, 2, rng, concentrated=True)
        sim = simulate([params], design, 1500, 2, [4])[0]
        match = (sim.observed.codes == sim.hidden).mean()
        assert match > 0.95


class TestSerialization:
    def test_hmm_round_trip(self, tmp_path, rng):
        params = random_hmm_params(3, 3, 3, 4, rng)
        path = tmp_path / "params.txt"
        save_params(params, path)
        back = load_params(path)
        assert back.P is not None
        for name in ("alpha", "beta", "mu", "sigma", "pi", "P"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(params, name))

    def test_markov_round_trip(self, rng):
        params = random_markov_params(2, 3, 2, rng)
        back = params_from_text(params_to_text(params))
        assert back.P is None
        np.testing.assert_array_equal(back.alpha, params.alpha)
        np.testing.assert_array_equal(back.pi, params.pi)

    def test_text_uses_one_based_states(self, rng):
        params = random_hmm_params(1, 3, 3, 2, rng)
        text = params_to_text(params)
        assert "mu[1,2]" in text
        assert "mu[0," not in text
        assert "P[3,3]" in text

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            params_from_text("not a params file")

    @pytest.mark.parametrize("case", ["only-alpha", "markov-with-P", "hmm-without-P",
                                      "entry-missing", "entry-twice",
                                      "zero-based-row", "index-missing"])
    def test_text_must_hold_its_kinds_arrays(self, rng, case):
        lines = params_to_text(random_hmm_params(2, 3, 3, 2, rng)).splitlines()
        header = lines[0]
        if case == "only-alpha":
            lines = [line for line in lines if line.startswith(("#", "alpha["))]
        elif case == "markov-with-P":
            lines[0] = header.replace("kind=hmm", "kind=markov")
        elif case == "hmm-without-P":
            lines = [line for line in lines if not line.startswith("P[")]
        elif case == "entry-missing":
            lines.remove(next(line for line in lines if line.startswith("mu[2,3] ")))
        elif case == "entry-twice":
            lines.append(next(line for line in lines if line.startswith("pi[1] ")))
        elif case == "zero-based-row":
            lines.append("pi[0] 0.5")
        else:
            lines.append("alpha[1] 0.5")
        with pytest.raises(InputError):
            params_from_text("\n".join(lines) + "\n")
