"""Output checks.  Each returns a list of failure messages (empty when the
output is correct).  Stores are read through the package's own loader,
so the checks do not depend on the store's file format."""

from __future__ import annotations

import csv
import hashlib
import os
import re
from collections import defaultdict

import numpy as np


def dir_bytes(path) -> int:
    """Total size of the files in an output directory."""
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def read_csv(path):
    """Header and rows of a package CSV output (comment lines skipped)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def parse_value(cell) -> float:
    """A value cell.  Under numpy 2 the package writes some numpy scalars
    with ``repr``, e.g. ``np.float64(0.25)``; the number inside is read."""
    if cell.endswith(")"):
        cell = cell[cell.index("(") + 1:-1]
    return float(cell)


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def draws_digest(chain_set) -> str:
    """SHA-256 of every stored draw and deviance, chain by chain."""
    h = hashlib.sha256()
    for chain in chain_set.chains:
        for name in sorted(chain.draws):
            h.update(name.encode())
            h.update(np.ascontiguousarray(chain.draws[name], dtype=float).tobytes())
        h.update(np.ascontiguousarray(chain.deviance, dtype=float).tobytes())
    return h.hexdigest()


def check_store(chain_set, model_kind, n_chains, n_keep, panel, design, inference):
    """Draw counts, finiteness, simplex rows of ``pi`` and ``P`` to 1e-12,
    and for three kept draws the stored deviance against -2 x the
    log-likelihood recomputed through the package's public function, to
    1e-8 relative."""
    fails = []
    if chain_set.model_kind != model_kind:
        fails.append(f"store holds a {chain_set.model_kind} fit, expected {model_kind}")
    if chain_set.n_chains != n_chains or chain_set.n_kept != n_keep:
        fails.append(f"store has {chain_set.n_chains} x {chain_set.n_kept} draws, "
                     f"expected {n_chains} x {n_keep}")
        return fails
    names = sorted(chain_set.chains[0].draws) + ["deviance"]
    for name in names:
        if not np.all(np.isfinite(chain_set.per_chain(name))):
            fails.append(f"non-finite stored {name}")
    for name in ("pi", "P") if model_kind == "hmm" else ("pi",):
        rows = chain_set.per_chain(name)
        if rows.min() < 0.0 or np.abs(rows.sum(axis=-1) - 1.0).max() > 1e-12:
            fails.append(f"stored {name} rows are not simplices to 1e-12")
    loglik = (inference.log_likelihood_hmm if model_kind == "hmm"
              else inference.log_likelihood_markov)
    total = n_chains * n_keep
    deviance = chain_set.per_chain("deviance").ravel()
    for g in sorted({0, total // 2, total - 1}):
        recomputed = -2.0 * loglik(panel, design, chain_set.params_at(g))
        if not _rel_close(deviance[g], recomputed, 1e-8):
            fails.append(f"draw {g}: stored deviance {float(deviance[g])!r} != "
                         f"-2 loglik {recomputed!r}")
    return fails


def check_diagnose(out_dir, chain_set):
    """One convergence row per stored scalar plus deviance, and
    DIC = 2 D-bar - D(theta-bar) to 1e-9 relative, with D-bar the mean
    stored deviance."""
    fails = []
    _, rows = read_csv(f"{out_dir}/convergence.csv")
    scalars = sum(int(np.prod(a.shape[1:])) for a in chain_set.chains[0].draws.values())
    if len(rows) != scalars + 1:
        fails.append(f"convergence.csv has {len(rows)} rows, expected {scalars + 1}")
    header, rows = read_csv(f"{out_dir}/dic.csv")
    if len(rows) != 1:
        return fails + [f"dic.csv has {len(rows)} rows, expected 1"]
    report = dict(zip(header, map(parse_value, rows[0])))
    d_bar, d_at = report["mean_deviance"], report["deviance_at_mean"]
    if not _rel_close(report["dic"], 2.0 * d_bar - d_at, 1e-9):
        fails.append("dic.csv: DIC != 2 D-bar - D(theta-bar)")
    if not _rel_close(d_bar, float(chain_set.per_chain("deviance").mean()), 1e-9):
        fails.append("dic.csv: D-bar != mean stored deviance")
    return fails


def check_ppc(out_dir, n_draws):
    """One replicate row per statistic and draw, one summary row per
    statistic."""
    _, reps = read_csv(f"{out_dir}/ppc_replicates.csv")
    _, summary = read_csv(f"{out_dir}/ppc_summary.csv")
    n_stats = len({r[0] for r in reps})
    fails = []
    if len(summary) != n_stats or n_stats == 0:
        fails.append(f"ppc_summary.csv has {len(summary)} rows for {n_stats} statistics")
    if len(reps) != n_stats * n_draws:
        fails.append(f"ppc_replicates.csv has {len(reps)} rows, "
                     f"expected {n_stats} x {n_draws}")
    return fails


_APC_LABEL = re.compile(r"^(B\[(\d+)->\d+\]|Bstat\[\d+\])\((\w+)\)$")


def check_apc(out_dir, kind, covariates, n_states, n_draws):
    """Row counts, and destination sums of every draw: sum_m B[j->m] and
    sum_s Bstat[s] are 0 to 1e-12 per covariate and draw."""
    fails = []
    targets = n_states * n_states if kind == "transition" else n_states
    _, rows = read_csv(f"{out_dir}/apc_draws.csv")
    _, summary = read_csv(f"{out_dir}/apc_summary.csv")
    if len(summary) != len(covariates) * targets:
        fails.append(f"apc_summary.csv has {len(summary)} rows, "
                     f"expected {len(covariates) * targets}")
    if len(rows) != len(covariates) * targets * n_draws:
        fails.append(f"apc_draws.csv has {len(rows)} rows, "
                     f"expected {len(covariates) * targets * n_draws}")
    sums = defaultdict(float)
    for label, draw, value in rows:
        m = _APC_LABEL.match(label)
        if m is None:
            return fails + [f"apc_draws.csv: unexpected label {label!r}"]
        sums[(m.group(3), m.group(2), draw)] += parse_value(value)
    worst = max((abs(v) for v in sums.values()), default=0.0)
    if worst > 1e-12:
        fails.append(f"apc {kind}: destination sums reach {worst:.3g}")
    return fails


def check_viterbi(out_dir, n_subjects, n_days, n_states):
    """One row per subject-day, states in range, and state probabilities
    summing to 1 (to 1e-12) on every row."""
    _, rows = read_csv(f"{out_dir}/viterbi.csv")
    fails = []
    if len(rows) != n_subjects * n_days:
        fails.append(f"viterbi.csv has {len(rows)} rows, expected {n_subjects * n_days}")
    if not rows:
        return fails
    states = np.array([int(r[3]) for r in rows])
    probs = np.array([[parse_value(v) for v in r[4:]] for r in rows])
    if states.min() < 1 or states.max() > n_states or probs.shape[1] != n_states:
        fails.append("viterbi.csv: states or probability columns out of range")
    if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-12:
        fails.append("viterbi.csv: state probabilities do not sum to 1")
    return fails
