"""Persistence of posterior samples and run manifests.

``samples.npz``, written by ``np.savez`` and read without pickles, holds
a fit's retained draws: ``draws`` ``(chain, draw, D)`` float64, each row
one draw's :attr:`model.Params.vector`; ``layout``, a 0-d JSON string of
its :attr:`model.Params.shapes`, which :func:`model.unpack` splits the
rows by; ``deviance`` ``(chain, draw)``; ``chain_index`` ``(chain,)``
int64; and ``acceptance_alpha`` ``(chain, R, K)`` and
``acceptance_beta`` ``(chain, R, K, p)``, each move's acceptance rate
over the kept sweeps.  The model is the HMM when the layout holds ``P``.
Indices are 0-based.  Hidden-state summaries are not stored.  Stores of
earlier versions, one array per parameter, have no ``draws`` and must be
re-fit.
"""

from __future__ import annotations

import hashlib
import json
import time
import zipfile

import numpy as np

from .errors import InputError
from .mcmc import Chain, ChainSet
from .model import Params, unpack

SCHEMA_VERSION = 1
SAMPLES_FILE = "samples.npz"
MANIFEST_FILE = "run_manifest.json"
_MOVES = ("alpha", "beta")  # the moves whose acceptance is stored


def save_chain_set(directory, chain_set: ChainSet) -> None:
    """Write all retained draws to ``<directory>/samples.npz``."""
    chains = chain_set.chains
    np.savez(f"{directory}/{SAMPLES_FILE}", draws=np.stack([c.values for c in chains]),
             layout=np.array(json.dumps(chains[0].shapes)),
             deviance=chain_set.per_chain("deviance"),
             chain_index=np.array([c.chain_index for c in chains], dtype=np.int64),
             **{f"acceptance_{move}": np.stack([c.acceptance[move] for c in chains])
                for move in _MOVES})


def load_chain_set(directory) -> ChainSet:
    """Rebuild a :class:`ChainSet` from ``samples.npz``; a missing,
    unreadable, incomplete or inconsistent store is an InputError."""
    path = f"{directory}/{SAMPLES_FILE}"
    try:
        with np.load(path, allow_pickle=False) as store:
            arrays = {name: store[name] for name in store.files}
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile) as exc:
        raise InputError(f"{path}: unreadable ({exc}); run `fit` again") from None
    by_chain = ("draws", "deviance", "chain_index") + tuple(f"acceptance_{m}" for m in _MOVES)
    missing = [name for name in by_chain + ("layout",) if name not in arrays]
    if missing:
        raise InputError(f"{path}: missing {', '.join(missing)}; run `fit` again")
    draws, deviance = arrays["draws"], arrays["deviance"]
    if (any(arrays[name].shape[:1] != arrays["chain_index"].shape for name in by_chain)
            or draws.ndim != 3 or draws.shape[:2] != deviance.shape):
        raise InputError(f"{path}: arrays disagree on the number of chains or draws")
    if deviance.size == 0:
        raise InputError(f"{path}: no draws")
    try:
        layout = json.loads(str(arrays["layout"]))
        shapes = {name: tuple(shape) for name, shape in layout.items()}
        Params(**unpack(draws[0, 0], shapes))
    except (ValueError, TypeError, AttributeError, InputError) as exc:
        raise InputError(f"{path}: draws do not match their layout ({exc})") from None
    return ChainSet(chains=[
        Chain(chain_index=int(c), values=draws[i], shapes=shapes, deviance=deviance[i],
              acceptance={move: arrays[f"acceptance_{move}"][i] for move in _MOVES})
        for i, c in enumerate(arrays["chain_index"])])


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(directory, command: str, config: dict, inputs: dict,
                   seed) -> dict:
    """Write ``run_manifest.json`` recording the command, configuration,
    input-file hashes, and seed; returns the manifest dict."""
    manifest = {
        "artifact_version": "panelhmm 0.1.0",
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": file_sha256(p)}
                   for name, p in inputs.items()},
        "seed": seed,
        "created_unix": time.time(),
    }
    with open(f"{directory}/{MANIFEST_FILE}", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest

