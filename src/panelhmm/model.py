"""The parameter type and generative probability kernels.

Both models share one transition structure: each row of the transition
matrix is a multinomial logit with per-subject random intercepts and
fixed covariate effects, with category 1 as the baseline (its logit is
identically zero).  For the hidden Markov model rows are indexed by the
previous hidden state; for the first-order Markov model they are indexed
by the previous observation and there is no emission matrix.  So one
type, :class:`Params`, holds either model, and its emission matrix
decides which: ``P`` is None for the Markov model.

Array layouts (N subjects, R rows, K = R - 1 non-baseline targets,
p covariates, M observed levels):

* ``alpha``: (N, R, K) random intercepts, ``alpha[i, r-1, s-2]`` for a
  transition from row value r into target value s (2-based targets).
* ``beta``:  (R, K, p) fixed effects.
* ``mu``, ``sigma``: (R, K) random-intercept means and sds.
* ``pi``: (R,) initial distribution; ``P``: (S, M) emissions, or None
  for the Markov model.
* transition logits and matrices: (T-1, R, K, N) and (T-1, R, R, N),
  day, from-row, to-target, subject, with the subjects innermost.  Every
  recursion over days (the forward filter, the backward sampler,
  smoothing, Viterbi, simulation) steps all subjects at once, so each
  day's step is a few whole-array operations on contiguous length-N rows,
  not on arrays whose inner axes have the length R of a row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dataset import DesignMatrix, ObservationPanel
from .errors import InputError, NumericalError

_PROB_TOL = 1e-12


def _check_simplex(v: np.ndarray, what: str) -> None:
    v = np.atleast_2d(v)
    if np.any(v < 0):
        raise InputError(f"{what} has negative entries")
    if np.any(np.abs(v.sum(axis=-1) - 1.0) > _PROB_TOL):
        raise InputError(f"{what} rows do not sum to 1")


@dataclass
class Params:
    """Complete parameter state of either model.

    ``P`` is the HMM's (S, M) emission matrix.  It is None for the
    first-order Markov model, whose transition rows are the observed
    levels; the model kind follows from it.
    """

    alpha: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    pi: np.ndarray
    P: np.ndarray | None = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.P is not None:
            self.P = np.asarray(self.P, dtype=float)
        self.validate()

    @property
    def n_states(self) -> int:
        """Rows of the transition matrix: hidden states or observed levels."""
        return self.pi.size

    @property
    def m_levels(self) -> int:
        return self.pi.size if self.P is None else self.P.shape[1]

    @property
    def n_subjects(self) -> int:
        return self.alpha.shape[0]

    @property
    def p(self) -> int:
        return self.beta.shape[2]

    def validate(self) -> None:
        R = self.n_states
        K = R - 1
        if self.alpha.ndim != 3 or self.alpha.shape[1:] != (R, K):
            raise InputError(f"alpha must have shape (N, {R}, {K})")
        if self.beta.ndim != 3 or self.beta.shape[:2] != (R, K):
            raise InputError(f"beta must have shape ({R}, {K}, p)")
        if self.mu.shape != (R, K) or self.sigma.shape != (R, K):
            raise InputError(f"mu and sigma must have shape ({R}, {K})")
        if np.any(self.sigma <= 0):
            raise InputError("sigma entries must be strictly positive")
        if self.P is not None:
            if self.P.ndim != 2 or self.P.shape[0] != R:
                raise InputError(f"P must have shape ({R}, M)")
            _check_simplex(self.P, "P")
        _check_simplex(self.pi, "pi")

    def copy(self) -> "Params":
        return Params(**{name: None if a is None else a.copy()
                         for name, a in vars(self).items()})


@dataclass(frozen=True)
class SimulatedPanel:
    """Output of a forward simulation.

    ``hidden`` is None for the Markov model.  Cells masked as missing in
    ``observed`` still have hidden states (and latent observations)
    simulated beneath them.
    """

    observed: ObservationPanel
    hidden: np.ndarray | None
    seed: object


def softmax_rows(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over the category ``axis`` with a prepended baseline logit
    of 0.

    Along ``axis``, entry k is the logit of target category k + 2; the
    implied logit of category 1 is exactly 0, and the output has one more
    entry along ``axis``.  Computed stably by shifting every logit by
    ``m = max(0, max_k logit_k)``, so the baseline is ``exp(-m)``.
    Written into one output array; the maximum and the sums loop over the
    few categories, each step one whole-array operation.
    """
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise NumericalError("non-finite linear predictor in transition logits")
    shape = list(logits.shape)
    shape[axis] += 1
    out = np.empty(shape)
    src, dst = np.moveaxis(logits, axis, 0), np.moveaxis(out, axis, 0)
    m = np.zeros(src.shape[1:])
    for row in src:
        np.maximum(m, row, out=m)
    np.subtract(src, m, out=dst[1:])
    np.negative(m, out=dst[0, ...])
    np.exp(out, out=out)
    total = dst[0].copy()
    for row in dst[1:]:
        total += row
    dst /= total
    return out


def inverse_softmax(row: np.ndarray, clamp: float = 1e-6) -> np.ndarray:
    """Logits (relative to category 1) reproducing a probability row.

    Entries below ``clamp`` are clamped before taking log ratios, since
    upstream estimates may contain exact zeros.
    """
    row = np.asarray(row, dtype=float)
    row = np.clip(row, clamp, None)
    row = row / row.sum()
    return np.log(row[1:] / row[0])


def transition_logits(params, design: DesignMatrix) -> np.ndarray:
    """All per-day transition logits, shape (T-1, R, K, N): entry
    ``[t, r-1, s-2, i]`` is the logit of subject i moving from row value r
    into target s between day t and day t + 1, at the design vector of
    day t."""
    R, K, p = params.beta.shape
    # (T-1, p, N) as a view: matmul hands BLAS the strides, so no call
    # copies the design
    X = design.values[:, :-1, :].transpose(1, 2, 0)
    T1, _, N = X.shape
    eta = (params.beta.reshape(R * K, p) @ X).reshape(T1, R, K, N)
    eta += params.alpha.transpose(1, 2, 0)
    return eta


def transition_matrices(params, design: DesignMatrix) -> np.ndarray:
    """All per-day transition matrices, shape (T-1, R, R, N): the softmax
    of :func:`transition_logits` over its target axis.

    Entry ``[t, r-1, s-1, i]`` is subject i's probability of moving from
    row value r to s between day t and day t + 1, evaluated at the design
    vector of day t.
    """
    return softmax_rows(transition_logits(params, design), axis=2)


def _categorical(cum, u: np.ndarray) -> np.ndarray:
    """1-based categorical draws from the uniforms ``u``: 1 plus the number
    of the cumulative probabilities in ``cum`` that ``u`` exceeds.  ``cum``
    holds every category's but the last (1 up to rounding), so no draw
    passes the last category."""
    draw = np.ones(u.shape, dtype=np.int64)
    for c in cum:
        draw += u > c
    return draw


def simulate(block: list, design: DesignMatrix, n_subjects: int,
             n_days: int, seeds: list, mask: np.ndarray | None = None) -> list:
    """Forward-simulate one panel per (params, seed) pair of ``block``, all
    of one model kind, as :class:`SimulatedPanel` objects; one replicate
    is a block of one.

    For HMM parameters the hidden states are simulated and emit the
    observations; for Markov parameters the chain is the observations.
    Each replicate draws from its own ``default_rng(seed)``: ``random(N)``
    for the first day, ``random((T-1, N))`` for the transitions and, for
    the HMM, ``random((N, T))`` for the emissions, so a replicate is the
    same bit for bit whatever block it is simulated in.  Each day one
    matrix product gives every replicate's logits for every row; only the
    row each subject is in is gathered (flat ``take``) and put through
    :func:`softmax_rows`.  Cells under ``mask`` are reported missing, but
    their hidden states (and latent levels) are simulated.
    """
    if len({params.P is None for params in block}) > 1:
        raise InputError("a simulation block mixes HMM and Markov parameters")
    if (n_subjects > min(params.n_subjects for params in block)
            or n_subjects > design.n_subjects):
        raise InputError("n_subjects exceeds the parameter/design population")
    if n_days > design.n_days:
        raise InputError("n_days exceeds the design horizon")
    hmm = block[0].P is not None
    B, N, T = len(block), n_subjects, n_days
    R, K, p = block[0].beta.shape
    rngs = [np.random.default_rng(seed) for seed in seeds]
    first = np.empty((B, N))
    days = np.empty((B, T - 1, N))
    for b, rng in enumerate(rngs):
        rng.random(out=first[b])
        rng.random(out=days[b])
    beta = np.concatenate([params.beta.reshape(R * K, p) for params in block])
    alpha = np.stack([params.alpha[:N].transpose(1, 2, 0) for params in block])
    X = design.values[:N, :-1, :].transpose(1, 2, 0)  # (T-1, p, N), a view
    # flat offset of [b, r-1, k, i] in a (B, R, K, N) logit array, less (r-1)KN
    base = (np.arange(B)[:, None, None] * (R * K * N)
            + np.arange(K)[None, :, None] * N + np.arange(N))
    chain = np.empty((B, N, T), dtype=np.int64)
    pi = np.stack([params.pi for params in block])  # (B, R)
    chain[:, :, 0] = _categorical(np.cumsum(pi, axis=1).T[:-1, :, None], first)
    for t in range(T - 1):
        eta = (beta @ X[t]).reshape(B, R, K, N)
        eta += alpha
        rows = eta.reshape(-1).take(base + (chain[:, None, :, t] - 1) * (K * N))
        probs = softmax_rows(rows, axis=1).swapaxes(0, 1)  # (R, B, N)
        # accumulate adds in order, as np.cumsum does
        chain[:, :, t + 1] = _categorical(itertools.accumulate(probs[:-1]), days[:, t])
    out = []
    for params, hidden, rng, seed in zip(block, chain, rngs, seeds):
        codes = hidden
        if hmm:
            cum = np.cumsum(params.P, axis=1).T[:-1]  # (M-1, S)
            codes = _categorical((c.take(hidden - 1) for c in cum), rng.random((N, T)))
        out.append(SimulatedPanel(observed=_masked_panel(codes, mask, params.m_levels),
                                  hidden=hidden if hmm else None, seed=seed))
    return out


def _masked_panel(codes: np.ndarray, mask, m_levels: int) -> ObservationPanel:
    """Simulated codes as a panel whose cells under ``mask`` (if given)
    are reported missing."""
    mask = np.zeros(codes.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != codes.shape:
        raise InputError("mask shape must match the simulated panel")
    return ObservationPanel(codes=codes, mask=mask, m_levels=m_levels)


# -- flat key-value parameter serialization ---------------------------------
#
# One line per scalar: "<path> <value>".  Paths use 0-based subject indices
# and 1-based state/level values, e.g. alpha[0,2,3] is subject 0, from-state
# 2, to-state 3.  Ordering is deterministic (C order per array, arrays in
# the order alpha, beta, mu, sigma, pi, P).

# Offsets from each array's 0-based indices to its path indices; the
# diagnose command's acceptance table uses the same paths.
PATH_OFFSETS = {"alpha": (0, 1, 2), "beta": (1, 2, 0), "mu": (1, 2),
                "sigma": (1, 2), "pi": (1,), "P": (1, 1)}


def param_paths(name: str, shape: tuple) -> list:
    """Paths of every entry of array ``name`` of ``shape``, in C order.
    A shape with fewer axes than the parameter indexes its trailing axes,
    e.g. ``(R, K)`` for one ``alpha`` path per row and target."""
    off = PATH_OFFSETS[name][len(PATH_OFFSETS[name]) - len(shape):]
    return [name + "[" + ",".join(str(i + o) for i, o in zip(idx, off)) + "]"
            for idx in np.ndindex(shape)]


def parse_param_path(path: str) -> tuple:
    """Inverse of :func:`param_paths`: ``(name, 0-based index tuple)``.
    ValueError unless the path indexes every axis of the parameter, each
    at or above its offset."""
    name, idx = path[:-1].split("[")
    parts, offsets = idx.split(","), PATH_OFFSETS[name]
    index = tuple(int(k) - o for k, o in zip(parts, offsets))
    if len(parts) != len(offsets) or min(index) < 0:
        raise ValueError(f"bad index in {path!r}")
    return name, index


def params_to_text(params) -> str:
    """Serialize parameters to flat key-value text."""
    lines = [f"# panelhmm-params 1 kind={'markov' if params.P is None else 'hmm'}"]
    for name in PATH_OFFSETS:
        a = getattr(params, name)
        if a is not None:  # Markov parameters have no P
            lines += [f"{path} {float(v)!r}"
                      for path, v in zip(param_paths(name, a.shape), a.ravel())]
    return "\n".join(lines) + "\n"


def params_from_text(text: str):
    """Inverse of :func:`params_to_text`.  The header's kind names the
    arrays the text must hold, each entry of each exactly once."""
    kind = None
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "kind=" in line:
                kind = line.split("kind=")[1].split()[0]
            continue
        try:
            path, value = line.split()
            name, idx = parse_param_path(path)
            entries.setdefault(name, []).append((idx, float(value)))
        except (ValueError, KeyError):
            raise InputError(f"malformed params line {line!r}") from None
    if kind not in ("hmm", "markov"):
        raise InputError("missing or invalid params header line")
    names = [name for name in PATH_OFFSETS if kind == "hmm" or name != "P"]
    if set(entries) != set(names):
        raise InputError(f"kind={kind} params hold the arrays {', '.join(names)}; "
                         f"this text has {', '.join(entries) or 'none'}")
    arrays = {}
    for name, items in entries.items():
        shape = tuple(max(idx[d] for idx, _ in items) + 1
                      for d in range(len(PATH_OFFSETS[name])))
        a = np.zeros(shape)
        for idx, value in items:
            a[idx] = value
        if len({idx for idx, _ in items}) != len(items) or len(items) != a.size:
            raise InputError(f"{name} entries do not fill its shape {shape} once each")
        arrays[name] = a
    return Params(**arrays)


def save_params(params, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(params_to_text(params))


def load_params(path):
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_text(fh.read())
