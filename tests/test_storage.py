import dataclasses
import json
import math

import numpy as np
import pytest

from panelhmm import storage
from panelhmm.errors import InputError
from panelhmm.mcmc import ChainSet, SamplerConfig, run_chains
from panelhmm.model import LAYOUT

from conftest import random_instance


@pytest.fixture(scope="module")
def chain_set():
    rng = np.random.default_rng(41)
    panel, design, _ = random_instance(rng, n_subjects=4, n_days=12,
                                       missing_rate=0.1)
    config = SamplerConfig(n_chains=2, n_burnin=10, n_keep=8, seed=11)
    return run_chains("hmm", panel, design, config=config)


@pytest.fixture(scope="module")
def markov_chain_set():
    rng = np.random.default_rng(43)
    panel, design, _ = random_instance(rng, n_subjects=3, n_days=10)
    return run_chains("markov", panel, design,
                      config=SamplerConfig(n_chains=1, n_burnin=5, n_keep=6,
                                           seed=1))


def relabelled(cs):
    """``cs`` with chain indices that are not the chains' positions."""
    return ChainSet(chains=[
        dataclasses.replace(c, chain_index=7 + 2 * c.chain_index)
        for c in cs.chains])


def assert_same_chain_set(back, cs):
    assert back.model_kind == cs.model_kind
    assert [c.chain_index for c in back.chains] == \
        [c.chain_index for c in cs.chains]
    for got, want in zip(back.chains, cs.chains):
        assert got.shapes == want.shapes
        np.testing.assert_array_equal(got.values, want.values)
        assert got.draws.keys() == want.draws.keys()
        for name in want.draws:
            np.testing.assert_array_equal(got.draws[name], want.draws[name])
        np.testing.assert_array_equal(got.deviance, want.deviance)
        assert got.acceptance.keys() == want.acceptance.keys()
        for name in want.acceptance:
            np.testing.assert_array_equal(got.acceptance[name],
                                          want.acceptance[name])


class TestSamplesRoundTrip:
    def test_draws_survive_exactly(self, chain_set, tmp_path):
        storage.save_chain_set(tmp_path, relabelled(chain_set))
        back = storage.load_chain_set(tmp_path)
        assert back.model_kind == "hmm"
        assert back.n_chains == chain_set.n_chains
        for name in ("alpha", "beta", "mu", "sigma", "pi", "P"):
            np.testing.assert_array_equal(back.per_chain(name),
                                          chain_set.per_chain(name))
        np.testing.assert_array_equal(back.per_chain("deviance"),
                                      chain_set.per_chain("deviance"))
        assert_same_chain_set(back, relabelled(chain_set))

    @pytest.mark.parametrize("kind", ["hmm", "markov"])
    def test_store_layout(self, chain_set, markov_chain_set, tmp_path, kind):
        cs = chain_set if kind == "hmm" else markov_chain_set
        storage.save_chain_set(tmp_path, cs)
        C, G = cs.n_chains, cs.n_kept
        shapes = cs.chains[0].shapes
        R, K, p = shapes["beta"]
        D = sum(math.prod(shape) for shape in shapes.values())
        with np.load(tmp_path / storage.SAMPLES_FILE, allow_pickle=False) as store:
            assert sorted(store.files) == sorted(
                ["draws", "layout", "chain_index", "deviance", "acceptance_alpha",
                 "acceptance_beta"])
            assert store["layout"].shape == ()
            layout = json.loads(str(store["layout"]))
            assert list(layout) == list(LAYOUT if kind == "hmm" else LAYOUT[1:])
            assert layout == {name: list(shape) for name, shape in shapes.items()}
            assert store["chain_index"].shape == (C,)
            assert store["chain_index"].dtype == np.int64
            for name, shape in {"draws": (C, G, D), "deviance": (C, G),
                                "acceptance_alpha": (C, R, K),
                                "acceptance_beta": (C, R, K, p)}.items():
                assert store[name].shape == shape, name
                assert store[name].dtype == np.float64, name
            np.testing.assert_array_equal(store["draws"][-1, 2],
                                          cs.chains[-1].params_at(2).vector)

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.pop("layout"), "missing layout"),
        (lambda a: a.pop("draws"), "missing draws"),
        (lambda a: a.update(draws=a["draws"][:1]), "disagree"),
        (lambda a: a.update(deviance=a["deviance"][:, :-1]), "disagree"),
        (lambda a: a.update(acceptance_beta=a["acceptance_beta"][0]), "disagree"),
        (lambda a: a.update(draws=a["draws"][..., :-1]), "do not match their layout"),
        (lambda a: a.update(layout=np.array(a["layout"].item().replace('"mu"', '"nu"'))),
         "do not match their layout"),
        (lambda a: a.update(draws=a["draws"][:, :0], deviance=a["deviance"][:, :0]),
         "no draws"),
        (lambda a: a.update({k: v[:0] for k, v in a.items() if v.ndim}), "no draws"),
    ], ids=["no-layout", "no-draws-array", "draws-chains", "deviance-draws",
            "acceptance-chains", "draws-width", "unknown-array", "no-draws", "no-chains"])
    def test_malformed_store_rejected(self, chain_set, tmp_path, edit, message):
        storage.save_chain_set(tmp_path, chain_set)
        path = tmp_path / storage.SAMPLES_FILE
        with np.load(path, allow_pickle=False) as store:
            arrays = {k: store[k] for k in store.files}
        edit(arrays)
        np.savez(path, **arrays)
        with pytest.raises(InputError, match=message):
            storage.load_chain_set(tmp_path)

    def test_store_with_one_array_per_parameter_rejected(self, chain_set, tmp_path):
        # the format of earlier versions: no draws or layout, a model_kind
        np.savez(tmp_path / storage.SAMPLES_FILE, model_kind=np.array("hmm"),
                 chain_index=np.arange(chain_set.n_chains),
                 deviance=chain_set.per_chain("deviance"),
                 **{name: chain_set.per_chain(name) for name in chain_set.chains[0].shapes},
                 **{f"acceptance_{move}": np.stack([c.acceptance[move]
                                                    for c in chain_set.chains])
                    for move in ("alpha", "beta")})
        with pytest.raises(InputError, match="missing draws, layout; run `fit` again"):
            storage.load_chain_set(tmp_path)

    def test_truncated_store_rejected(self, chain_set, tmp_path):
        storage.save_chain_set(tmp_path, chain_set)
        path = tmp_path / storage.SAMPLES_FILE
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(InputError, match="unreadable"):
            storage.load_chain_set(tmp_path)

    def test_markov_round_trip(self, markov_chain_set, tmp_path):
        cs = relabelled(markov_chain_set)
        storage.save_chain_set(tmp_path, cs)
        back = storage.load_chain_set(tmp_path)
        assert back.model_kind == "markov"
        assert "P" not in back.chains[0].draws
        np.testing.assert_array_equal(back.per_chain("alpha"),
                                      cs.per_chain("alpha"))
        assert_same_chain_set(back, cs)


class TestManifest:
    def test_contents(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("1,2,3\n")
        manifest = storage.write_manifest(
            tmp_path, "fit", {"chains": 2}, {"y": data}, seed=7)
        on_disk = json.loads((tmp_path / storage.MANIFEST_FILE).read_text())
        assert on_disk == manifest
        assert on_disk["command"] == "fit"
        assert on_disk["seed"] == 7
        assert on_disk["config"] == {"chains": 2}
        assert on_disk["schema_version"] == storage.SCHEMA_VERSION
        assert on_disk["inputs"]["y"]["sha256"] == storage.file_sha256(data)

    def test_hash_tracks_content(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("a")
        h1 = storage.file_sha256(f)
        f.write_text("b")
        assert storage.file_sha256(f) != h1
