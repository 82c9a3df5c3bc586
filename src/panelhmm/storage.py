"""Persistence of posterior samples and run manifests.

``samples.npz``, written by ``np.savez`` and read without pickles, holds
a fit's retained draws: ``model_kind`` (0-d string), ``chain_index``
``(chain,)`` int64, and float64 arrays shaped ``(chain, draw, ...)`` per
parameter: ``alpha`` ``(..., N, R, K)``, ``beta`` ``(..., R, K, p)``,
``mu`` and ``sigma`` ``(..., R, K)``, ``pi`` ``(..., R)`` and, for the HMM,
``P`` ``(..., S, M)``; ``deviance`` is ``(chain, draw)``.
``acceptance_alpha`` ``(chain, R, K)`` and ``acceptance_beta``
``(chain, R, K, p)`` are each move's acceptance rate over the kept sweeps.
Indices are 0-based.  Hidden-state summaries are not stored.
"""

from __future__ import annotations

import hashlib
import json
import time
import zipfile

import numpy as np

from .errors import InputError
from .mcmc import Chain, ChainSet

SCHEMA_VERSION = 1
SAMPLES_FILE = "samples.npz"
MANIFEST_FILE = "run_manifest.json"
_PARAMS = {"hmm": ("alpha", "beta", "mu", "sigma", "pi", "P"),
           "markov": ("alpha", "beta", "mu", "sigma", "pi")}
_MOVES = ("alpha", "beta")  # the moves whose acceptance is stored


def save_chain_set(directory, chain_set: ChainSet) -> None:
    """Write all retained draws to ``<directory>/samples.npz``."""
    chains = chain_set.chains
    arrays = {name: chain_set.per_chain(name)
              for name in _PARAMS[chain_set.model_kind] + ("deviance",)}
    for move in _MOVES:
        arrays[f"acceptance_{move}"] = np.stack([c.acceptance[move] for c in chains])
    np.savez(f"{directory}/{SAMPLES_FILE}", model_kind=np.array(chain_set.model_kind),
             chain_index=np.array([c.chain_index for c in chains], dtype=np.int64),
             **arrays)


def load_chain_set(directory) -> ChainSet:
    """Rebuild a :class:`ChainSet` from ``samples.npz``; a missing,
    unreadable, incomplete or inconsistent store is an InputError."""
    path = f"{directory}/{SAMPLES_FILE}"
    try:
        with np.load(path, allow_pickle=False) as store:
            arrays = {name: store[name] for name in store.files}
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile) as exc:
        raise InputError(f"{path}: unreadable ({exc}); run `fit` again") from None
    kind = str(arrays.get("model_kind"))
    if kind not in _PARAMS:
        raise InputError(f"{path}: no model_kind of 'hmm' or 'markov'")
    required = ("chain_index", "deviance") + _PARAMS[kind] + tuple(
        f"acceptance_{move}" for move in _MOVES)
    missing = [name for name in required if name not in arrays]
    if missing:
        raise InputError(f"{path}: no {', '.join(missing)} array")
    if (any(arrays[name].shape[:1] != arrays["chain_index"].shape for name in required)
            or any(arrays[name].shape[:2] != arrays["deviance"].shape for name in _PARAMS[kind])):
        raise InputError(f"{path}: arrays disagree on the number of chains or draws")
    if arrays["deviance"].size == 0:
        raise InputError(f"{path}: no draws")
    return ChainSet(chains=[
        Chain(chain_index=int(c),
              draws={name: arrays[name][i] for name in _PARAMS[kind]},
              deviance=arrays["deviance"][i],
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

