"""Persistence of posterior samples and run manifests.

Samples are stored as append-only delimited records, one line per scalar
per retained iteration: ``iteration,chain,parameter,value``.  Parameter
paths use 0-based subject indices and 1-based state/level values, e.g.
``alpha[4,2,3]`` is subject 4's intercept for transitions from row 2
into target 3.  ``deviance`` is recorded like any other parameter.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from .errors import InputError
from .mcmc import Chain, ChainSet
from .model import param_paths, parse_param_path

SCHEMA_VERSION = 1
SAMPLES_FILE = "samples.csv"
MANIFEST_FILE = "run_manifest.json"


def save_chain_set(directory, chain_set: ChainSet) -> None:
    """Write all retained draws to ``<directory>/samples.csv``."""
    path = f"{directory}/{SAMPLES_FILE}"
    names = sorted(chain_set.chains[0].draws)
    paths = {n: param_paths(n, chain_set.chains[0].draws[n].shape[1:]) for n in names}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema-version: {SCHEMA_VERSION}\n")
        fh.write(f"# model-kind: {chain_set.model_kind}\n")
        fh.write("iteration,chain,parameter,value\n")
        for chain in chain_set.chains:
            c = chain.chain_index
            for g in range(chain.n_kept):
                for name in names:
                    values = chain.draws[name][g].ravel()
                    for p, v in zip(paths[name], values):
                        fh.write(f"{g},{c},{p},{float(v)!r}\n")
                fh.write(f"{g},{c},deviance,{float(chain.deviance[g])!r}\n")


def load_chain_set(directory) -> ChainSet:
    """Rebuild a :class:`ChainSet` from ``samples.csv``."""
    path = f"{directory}/{SAMPLES_FILE}"
    model_kind = None
    records = {}  # (chain, name) -> {iteration -> {idx tuple -> value}}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "model-kind:" in line:
                    model_kind = line.split("model-kind:")[1].strip()
                continue
            if line.startswith("iteration,"):
                continue
            # parameter paths contain commas, so peel the value off the right
            g_str, c_str, rest = line.split(",", 2)
            param, value = rest.rsplit(",", 1)
            g, c = int(g_str), int(c_str)
            if param == "deviance":
                name, idx = "deviance", ()
            else:
                name, idx = parse_param_path(param)
            records.setdefault((c, name), {}).setdefault(g, {})[idx] = float(value)
    if model_kind not in ("hmm", "markov"):
        raise InputError(f"{path}: missing model-kind header")
    chain_indices = sorted({c for c, _ in records})
    chains = []
    for c in chain_indices:
        draws = {}
        deviance = None
        for (cc, name), by_iter in records.items():
            if cc != c:
                continue
            iters = sorted(by_iter)
            if name == "deviance":
                deviance = np.array([by_iter[g][()] for g in iters])
                continue
            shape = tuple(max(idx[d] for idx in by_iter[iters[0]]) + 1
                          for d in range(len(next(iter(by_iter[iters[0]])))))
            a = np.zeros((len(iters),) + shape)
            for gi, g in enumerate(iters):
                for idx, v in by_iter[g].items():
                    a[(gi,) + idx] = v
            draws[name] = a
        if deviance is None:
            deviance = np.zeros(next(iter(draws.values())).shape[0])
        chains.append(Chain(model_kind=model_kind, chain_index=c, draws=draws,
                            deviance=deviance, acceptance={}))
    return ChainSet(model_kind=model_kind, chains=chains)


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
