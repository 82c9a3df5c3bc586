"""The benchmark's own effective-sample-size estimator.

Geyer's initial positive sequence over an FFT autocovariance.  It is
fixed here, apart from ``panelhmm.diagnostics``, so that replacing the
package's estimator does not move the benchmark's ESS figures.
"""

from __future__ import annotations

import numpy as np


def ess(trace) -> float:
    """Effective sample size of one chain's trace of one scalar.

    tau = -1 + 2 * sum_k (rho[2k] + rho[2k+1]), summed while the pair
    sums stay positive; ESS = n / tau.  A trace that never moves carries
    a single value and counts as 1.
    """
    x = np.asarray(trace, dtype=float)
    n = x.size
    x = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()  # zero-pad: no circular wrap
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    if acov[0] <= 0.0:
        return 1.0
    rho = acov / acov[0]
    tau = -1.0
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(n / tau)


def group_ess(draws: np.ndarray) -> np.ndarray:
    """Per-scalar ESS summed over chains; ``draws`` is (chains, draws, ...)."""
    flat = draws.reshape(draws.shape[0], draws.shape[1], -1)
    return np.array([sum(ess(flat[c, :, j]) for c in range(flat.shape[0]))
                     for j in range(flat.shape[2])])


def reported_ess(chain_set, treatment_col: int) -> dict:
    """ESS of the quantities the paper reports: emission rows ``P`` (HMM
    only), ``mu``, and the treatment column of ``beta``.  Returns the
    median per group and over all of them together."""
    groups = {"mu": group_ess(chain_set.per_chain("mu")),
              "beta_treatment": group_ess(
                  chain_set.per_chain("beta")[..., treatment_col])}
    if chain_set.model_kind == "hmm":
        groups["P"] = group_ess(chain_set.per_chain("P"))
    out = {name: float(np.median(v)) for name, v in groups.items()}
    out["median"] = float(np.median(np.concatenate(list(groups.values()))))
    return out
