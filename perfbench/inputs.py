"""Benchmark inputs: ``y.csv`` and ``x.csv`` in the formats the README
documents, generated with numpy alone from the workload seed.

The generator never calls the package's own simulators, so a change to
the package cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import os

import numpy as np

MISSING = "NA"


def _softmax(eta):
    """Softmax over the last axis with a baseline logit of 0 prepended."""
    full = np.concatenate([np.zeros(eta.shape[:-1] + (1,)), eta], axis=-1)
    full -= full.max(axis=-1, keepdims=True)
    e = np.exp(full)
    return e / e.sum(axis=-1, keepdims=True)


def _draw(probs, rng):
    """One categorical draw per row of ``probs``; 1-based values."""
    u = rng.random(probs.shape[:-1])
    return (u[..., None] > np.cumsum(probs, axis=-1)).sum(axis=-1) + 1


def covariates(rng, n):
    """Trial covariates: balanced treatment, about one third female, and
    pre-trial drinking and heavy-drinking proportions."""
    treatment = rng.permutation(np.arange(n) % 2).astype(float)
    sex = (rng.random(n) < 0.35).astype(float)
    sex[:2] = (0.0, 1.0)  # both codes present, so neither column is constant
    d_drink = rng.beta(2.0, 3.0, n)
    d_heavy = d_drink * rng.beta(2.0, 4.0, n)
    return {"treatment": treatment, "sex": sex,
            "d_drink": d_drink, "d_heavy": d_heavy}


def _daily_chain(rng, cov, n, t, base):
    """Row-indexed chain over 3 values whose per-subject logits shift with
    treatment, prior drinking and (linearly) time."""
    intercept = base[None] + 0.5 * rng.standard_normal((n,) + base.shape)
    effect = (-0.6 * (cov["treatment"] - 0.5)
              + 1.2 * (cov["d_drink"] + cov["d_heavy"] - 0.5))
    states = np.empty((n, t), dtype=np.int64)
    states[:, 0] = _draw(np.full((n, 3), 1.0 / 3.0), rng)
    rows = np.arange(n)
    for day in range(t - 1):
        trend = 0.4 * (day / (t - 1) - 0.5)
        eta = intercept[rows, states[:, day] - 1] + (effect + trend)[:, None]
        states[:, day + 1] = _draw(_softmax(eta), rng)
    return states


# Sticky rows: logits of moving to the 2nd and 3rd value from each value.
_STICKY = np.array([[-3.0, -4.0], [2.5, -1.0], [-1.0, 2.5]])
_EMISSIONS = np.array([[0.90, 0.08, 0.02],
                       [0.25, 0.65, 0.10],
                       [0.10, 0.25, 0.65]])


def hmm_panel(rng, cov, n, t, missing_frac):
    """Hidden 3-state chain, emitted levels, and cells missing at random."""
    hidden = _daily_chain(rng, cov, n, t, _STICKY)
    codes = _draw(_EMISSIONS[hidden - 1], rng)
    mask = rng.random((n, t)) < missing_frac
    mask[:, 0] = False  # every subject reports on day 1
    return codes, mask


def gappy_mask(rng, n, t, dropout_share=0.3, gaps_per_subject=3.0,
               mean_gap=6.0):
    """Missingness as multi-day gaps plus trailing dropout.

    A share of subjects drops out for good at a day drawn uniformly from
    the middle half of the panel; every subject also gets a Poisson
    number of gaps with geometric lengths.
    """
    mask = np.zeros((n, t), dtype=bool)
    drops = np.flatnonzero(rng.random(n) < dropout_share)
    starts = rng.integers(t // 4, 3 * t // 4, drops.size)
    for i, start in zip(drops, starts):
        mask[i, start:] = True
    n_gaps = rng.poisson(gaps_per_subject, n)
    for i in range(n):
        for _ in range(n_gaps[i]):
            start = int(rng.integers(1, t))
            length = int(rng.geometric(1.0 / mean_gap))
            mask[i, start:start + length] = True
    mask[:, 0] = False
    return mask


def gap_structure(mask):
    """Missing-cell summary: interior gaps (maximal missing runs that end
    before the last day) and trailing dropouts (runs that reach it)."""
    n, t = mask.shape
    padded = np.zeros((n, t + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1)
    run_starts = np.argwhere(edges == 1)
    run_ends = np.argwhere(edges == -1)  # same row-major order as starts
    lengths = run_ends[:, 1] - run_starts[:, 1]
    trailing = run_ends[:, 1] == t
    gaps = lengths[~trailing]
    drops = lengths[trailing]
    return {
        "missing_frac": float(mask.mean()),
        "interior_gaps": int(gaps.size),
        "mean_gap_days": float(gaps.mean()) if gaps.size else 0.0,
        "max_gap_days": int(gaps.max()) if gaps.size else 0,
        "dropout_subjects": int(drops.size),
        "mean_dropout_days": float(drops.mean()) if drops.size else 0.0,
    }


def markov_gappy_panel(rng, cov, n, t):
    """First-order Markov chain of observed levels under ``gappy_mask``."""
    codes = _daily_chain(rng, cov, n, t, _STICKY)
    return codes, gappy_mask(rng, n, t)


def write_inputs(directory, codes, mask, cov):
    """Write ``y.csv`` (missing cells as ``NA``) and ``x.csv``; returns
    their paths."""
    os.makedirs(directory, exist_ok=True)
    cells = np.where(mask, MISSING, codes.astype(str))
    y_path = os.path.join(directory, "y.csv")
    with open(y_path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\n" for row in cells)
    x_path = os.path.join(directory, "x.csv")
    with open(x_path, "w", encoding="utf-8") as fh:
        fh.write("treatment,sex,d_drink,d_heavy\n")
        for row in zip(cov["treatment"], cov["sex"], cov["d_drink"], cov["d_heavy"]):
            fh.write("%d,%d,%r,%r\n" % (row[0], row[1], float(row[2]), float(row[3])))
    return y_path, x_path


# Panel shapes: the paper's trial, and a wide short panel with the same
# number of cells.
SHAPES = {"hmm": (240, 168), "markov-gappy": (480, 84)}


def generate(kind, seed, directory):
    """Generate one workload's inputs; returns (y_path, x_path, record)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1010)))
    n, t = SHAPES[kind]
    cov = covariates(rng, n)
    if kind == "hmm":
        codes, mask = hmm_panel(rng, cov, n, t, missing_frac=0.10)
    else:
        codes, mask = markov_gappy_panel(rng, cov, n, t)
    y_path, x_path = write_inputs(directory, codes, mask, cov)
    record = {"kind": kind, "seed": seed, "subjects": n, "days": t,
              "covariates": 4, **gap_structure(mask)}
    return y_path, x_path, record
