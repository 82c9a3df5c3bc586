"""Scientific outputs computed from a fitted chain set.

Average predictive comparisons follow the hold-others-at-observed-values
scheme: the quantity of interest is evaluated at a high and a low value
of one input while every other input keeps its observed per-(subject,
day) value, and the difference is averaged over all observations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import pool
from .dataset import DesignMatrix, ObservationPanel
from .errors import InputError, NumericalError
from .model import simulate, softmax_rows, transition_logits

PPC_BLOCK = 8  # replicates simulated together: a few MB of arrays at paper scale
STAT_BLOCK_DAYS = 28  # days per block of the per-block PPC statistics
# transition probabilities per day block of the transition APC: 0.5 MB
_BLOCK_ELEMENTS = 2 ** 16
_GAP = 1e-12  # a second eigenvalue this close to modulus 1 means no unique pi


@dataclass(frozen=True)
class PpcResult:
    """One posterior-predictive check: the observed statistic, its
    replicate distribution, and the observed quantile within it."""

    name: str
    observed: float
    replicates: np.ndarray
    quantile: float


def default_comparison_levels(design: DesignMatrix, name: str) -> tuple:
    """(u_hi, u_lo) convention: binary inputs use their two standardized
    codes; continuous inputs use mean +/- 1 sd of the standardized values
    (which have mean 0 and sd 1/2)."""
    col = design.column_index(name)
    values = np.unique(np.round(design.values[:, :, col], 12))
    if values.size == 2:
        return float(values.max()), float(values.min())
    return 0.5, -0.5


def _comparison_designs(design: DesignMatrix, input_name: str, u_hi: float,
                        u_lo: float) -> tuple:
    """Two copies of the design with one input set to u_hi and to u_lo."""
    if u_hi == u_lo:
        raise InputError("u_hi and u_lo must differ")
    col = design.column_index(input_name)
    out = []
    for u in (u_hi, u_lo):
        values = design.values.copy()
        values[:, :, col] = u
        out.append(replace(design, values=values))
    return tuple(out)


def average_transition_difference(chain_set, design: DesignMatrix,
                                  input_name: str, u_hi: float,
                                  u_lo: float) -> np.ndarray:
    """Posterior draws of every average transition-probability difference.

    Returns shape (G, R, R): entry ``[g, j-1, m-1]`` is, for draw g, the
    row-j-to-m transition probability at u_hi minus that at u_lo, holding
    the other inputs at their observed values, averaged over every
    (subject, day) pair.

    Each level's probabilities are built and summed one block of days at
    a time (:data:`_BLOCK_ELEMENTS` probabilities per block), from day
    slices of the two designs that overlap by one day, so memory per draw
    does not grow with the number of days.  The draws are split into
    contiguous ranges, one per usable CPU, each computed in its own
    process; every draw's arithmetic is the same wherever it runs.
    """
    hi, lo = _comparison_designs(design, input_name, u_hi, u_lo)
    N, T1 = design.n_subjects, design.n_days - 1
    R = chain_set.params_at(0).n_states
    days = max(1, _BLOCK_ELEMENTS // (R * R * N))
    blocks = [[replace(d, values=d.values[:, t:min(t + days, T1) + 1])
               for t in range(0, T1, days)] for d in (hi, lo)]

    def draw_range(draws):
        out = np.empty((len(draws), R, R))
        for row, g in zip(out, draws):
            params = chain_set.params_at(g)
            sums = np.zeros((2, R, R))
            for total, level in zip(sums, blocks):
                for block in level:
                    total += softmax_rows(transition_logits(params, block),
                                          axis=2).sum(axis=(0, 3))
            row[...] = (sums[0] - sums[1]) / (T1 * N)
        return out

    ranges = pool.ranges(chain_set.n_chains * chain_set.n_kept)
    return np.concatenate(pool.fork_map(draw_range, ranges))


def stationary_distribution(Q: np.ndarray) -> np.ndarray:
    """Stationary vectors of row-stochastic matrices via a linear solve.

    ``Q`` is one (S, S) matrix or a stack (..., S, S); the result has
    shape (..., S).  Every chain must be irreducible and aperiodic;
    reducibility/periodicity is detected through the eigenvalue gap (a
    second eigenvalue of modulus 1) and through the residual of the
    solution.  Every eigenvalue but the one at 1 has modulus at most
    ``1 - sum_j min_i Q[i, j]`` (Doeblin's bound), so the eigenvalues are
    computed only for a stack with a matrix whose sum is within the gap
    tolerance of 0.  A matrix of positive entries (irreducible and
    aperiodic by Perron-Frobenius) has a positive sum, but softmax rows
    can underflow to 0 or come near it.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim < 2 or Q.shape[-1] != Q.shape[-2]:
        raise InputError("Q must be square")
    if not (np.all(Q >= 0) and np.all(np.abs(Q.sum(axis=-1) - 1.0) <= 1e-9)):
        raise InputError("Q must be row-stochastic")
    S = Q.shape[-1]
    if S > 1 and np.any(Q.min(axis=-2).sum(axis=-1) <= _GAP):
        moduli = np.sort(np.abs(np.linalg.eigvals(Q)), axis=-1)
        if np.any(moduli[..., -2] >= 1.0 - _GAP):
            raise NumericalError("chain is reducible or periodic: no unique "
                                 "stationary distribution")
    A = np.swapaxes(Q - np.eye(S), -1, -2).copy()
    A[..., -1, :] = 1.0
    rhs = np.zeros(Q.shape[:-1] + (1,))
    rhs[..., -1, 0] = 1.0
    pi = np.linalg.solve(A, rhs)[..., 0]
    residual = np.max(np.abs(np.einsum("...r,...rs->...s", pi, Q) - pi))
    if residual > 1e-12 or np.any(pi < -1e-12):
        raise NumericalError(f"stationary solve failed (residual {residual:.2e})")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum(axis=-1, keepdims=True)


def average_stationary_difference(chain_set, design: DesignMatrix,
                                  input_name: str, u_hi: float,
                                  u_lo: float) -> np.ndarray:
    """Posterior draws of every average stationary-probability difference.

    Returns shape (G, S): entry ``[g, s-1]`` is, for draw g, the long-run
    probability of state s under each subject's last-day transition
    matrix at u_hi minus that at u_lo (time held at its last-day value),
    averaged over subjects.
    """
    x_hi, x_lo = (d.values[:, -1, :]
                  for d in _comparison_designs(design, input_name, u_hi, u_lo))
    out = []
    for g in range(chain_set.n_chains * chain_set.n_kept):
        params = chain_set.params_at(g)
        pi_hi, pi_lo = (
            stationary_distribution(softmax_rows(
                params.alpha + np.einsum("rkp,np->nrk", params.beta, x)))
            for x in (x_hi, x_lo))
        out.append((pi_hi - pi_lo).mean(axis=0))
    return np.stack(out)


def ppc_replicates(chain_set, design: DesignMatrix, mode: str = "new_subjects",
                   mask: np.ndarray | None = None, seed: int = 0,
                   draw_indices=None):
    """Yield one replicate panel per entry of ``draw_indices`` (every
    posterior draw when None).

    ``new_subjects`` draws fresh random intercepts from N(mu, sigma^2) per
    replicate; ``same_subjects`` reuses the draw's own intercepts.  The
    mask (typically the observed missingness pattern) is applied to every
    replicate so statistics ignore the same cells as the observed data.
    Replicate j, the j-th entry of the draw list, takes its new
    intercepts and then its simulation from its own generator,
    ``default_rng((seed, j))``: so a draw listed twice gives two
    different replicates, and a replicate is the same whatever block or
    process simulates it.  Replicates are simulated :data:`PPC_BLOCK` at
    a time by :func:`model.simulate`.
    """
    draws = _replicate_draws(chain_set, mode, draw_indices)
    yield from _replicate_range(chain_set, design, mode, mask, seed, draws,
                                range(len(draws)))


def _replicate_draws(chain_set, mode: str, draw_indices) -> list:
    """The draws to replicate, every draw when ``draw_indices`` is None."""
    if mode not in ("new_subjects", "same_subjects"):
        raise InputError(f"unknown replicate mode {mode!r}")
    if draw_indices is None:
        draw_indices = range(chain_set.n_chains * chain_set.n_kept)
    return list(draw_indices)


def _replicate_range(chain_set, design: DesignMatrix, mode: str, mask,
                     seed: int, draws: list, positions: range):
    """Yield the replicates of :func:`ppc_replicates` at ``positions`` of
    ``draws``, one block of :data:`PPC_BLOCK` at a time."""
    for start in range(positions.start, positions.stop, PPC_BLOCK):
        block, rngs = [], []
        for j in range(start, min(start + PPC_BLOCK, positions.stop)):
            params = chain_set.params_at(draws[j])
            rng = np.random.default_rng((seed, j))
            if mode == "new_subjects":
                params.alpha = (params.mu[None]
                                + params.sigma[None]
                                * rng.standard_normal(params.alpha.shape))
            block.append(params)
            rngs.append(rng)
        yield from simulate(block, design, design.n_subjects, design.n_days,
                            rngs, mask)


def ppc_statistics(panel: ObservationPanel) -> dict:
    """Named goodness-of-fit statistics over non-missing cells.

    Includes: mean/variance across subjects of moderate- and heavy-day
    counts; first-drinking-day (first observed day with level >= 2,
    1-based) mean and sd over subjects with at least one drinking day;
    the Never-Drinker count; and per-block (``STAT_BLOCK_DAYS`` days) mean
    and sd of abstinent/moderate/heavy day counts.
    """
    obs = ~panel.mask
    codes = panel.codes
    moderate = ((codes == 2) & obs).sum(axis=1).astype(float)
    heavy = ((codes == 3) & obs).sum(axis=1).astype(float)
    stats = {
        "mean_moderate_days": float(moderate.mean()),
        "var_moderate_days": float(moderate.var(ddof=1)),
        "mean_heavy_days": float(heavy.mean()),
        "var_heavy_days": float(heavy.var(ddof=1)),
    }
    drinking = (codes >= 2) & obs
    any_drink = drinking.any(axis=1)
    stats["never_drinkers"] = float((~any_drink).sum())
    if any_drink.any():
        fdd = drinking[any_drink].argmax(axis=1) + 1.0  # 1-based day
        stats["fdd_mean"] = float(fdd.mean())
        stats["fdd_sd"] = float(fdd.std(ddof=1)) if fdd.size > 1 else 0.0
    else:
        stats["fdd_mean"] = float("nan")
        stats["fdd_sd"] = float("nan")
    level_names = {1: "abstinent", 2: "moderate", 3: "heavy"}
    n_blocks = (panel.n_days + STAT_BLOCK_DAYS - 1) // STAT_BLOCK_DAYS
    for b in range(n_blocks):
        sl = slice(b * STAT_BLOCK_DAYS, (b + 1) * STAT_BLOCK_DAYS)
        for level in range(1, panel.m_levels + 1):
            days = ((codes[:, sl] == level) & obs[:, sl]).sum(axis=1).astype(float)
            name = level_names.get(level, f"level{level}")
            stats[f"block{b + 1}_{name}_mean"] = float(days.mean())
            stats[f"block{b + 1}_{name}_sd"] = (
                float(days.std(ddof=1)) if days.size > 1 else 0.0
            )
    return stats


def ppc_quantile(observed: float, replicates) -> float:
    """Fraction of replicates strictly below the observed value, counting
    ties as one half."""
    replicates = np.asarray(replicates, dtype=float)
    if replicates.size == 0:
        raise InputError("need at least one replicate")
    less = np.sum(replicates < observed)
    ties = np.sum(replicates == observed)
    return float((less + 0.5 * ties) / replicates.size)


def ppc_check(chain_set, design: DesignMatrix, panel: ObservationPanel,
              mode: str = "new_subjects", seed: int = 0,
              draw_indices=None) -> list:
    """Full posterior-predictive check: observed statistics against their
    replicate distributions, one :class:`PpcResult` per statistic.

    The replicates are those of :func:`ppc_replicates` with the same
    arguments.  The replicate positions are split into contiguous ranges,
    one per usable CPU, and each range's replicates are simulated and
    summarized in its own process; since every replicate has its own
    random stream, the results do not depend on the split.
    """
    observed = ppc_statistics(panel)
    draws = _replicate_draws(chain_set, mode, draw_indices)

    def replicate_range(positions):
        return [ppc_statistics(sim.observed) for sim in _replicate_range(
            chain_set, design, mode, panel.mask, seed, draws, positions)]

    reps = {name: [] for name in observed}
    for stats in pool.fork_map(replicate_range, pool.ranges(len(draws))):
        for replicate in stats:
            for name, value in replicate.items():
                reps[name].append(value)
    results = []
    for name, value in observed.items():
        r = np.array(reps[name])
        finite = r[np.isfinite(r)]
        q = ppc_quantile(value, finite) if finite.size and np.isfinite(value) else float("nan")
        results.append(PpcResult(name=name, observed=value, replicates=r, quantile=q))
    return results
