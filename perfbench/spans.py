"""Timing spans around the package's module-level public functions.

The tracer patches each traced function in every package namespace that
binds it (``model.transition_matrices`` is also ``inference.`` and
``mcmc.transition_matrices``), so calls are timed wherever they come
from.  Spans (name, start, end, parent) stay in memory until the run
writes them out; a span's self time is its duration minus its children's.
Functions that are only counted get a counter, not a span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

from checks import dir_bytes

# Functions timed with a span, by "<module>.<function>".
SPANNED = (
    "dataset.load_observations", "dataset.load_covariates", "dataset.build_design",
    "model.transition_matrices", "model.simulate_hmm", "model.simulate_markov",
    "inference.ffbs_sample_hidden", "inference.log_likelihood_hmm",
    "inference.log_likelihood_markov", "inference.viterbi",
    "inference.smoothed_marginals",
    "mcmc.em_initialize", "mcmc.empirical_markov_fit", "mcmc.run_chain",
    "mcmc.update_alpha", "mcmc.update_beta", "mcmc.update_scale_joint",
    "mcmc.update_location_joint", "mcmc.update_mu", "mcmc.update_sigma",
    "mcmc.update_pi", "mcmc.update_emissions", "mcmc.sample_missing_y",
    "storage.save_chain_set", "storage.load_chain_set", "storage.write_manifest",
    "diagnostics.scalar_summaries", "diagnostics.dic",
    "analytics.average_transition_difference",
    "analytics.average_stationary_difference",
    "analytics.ppc_check", "analytics.ppc_statistics",
)
# Functions called too often for a span each; only their calls are counted.
COUNTED = ("diagnostics.effective_sample_size", "analytics.stationary_distribution")


def _acceptance(per_proposal):
    """Hook for a Metropolis kernel that returns accept indicators, one
    per proposal; ``per_proposal(args)`` is the proposals each entry
    stands for (update_alpha returns fractions over all subjects)."""
    def hook(stats, args, result):
        acc = np.asarray(result, dtype=float)
        weight = per_proposal(args)
        stats["accepted"] += float(acc.sum()) * weight
        stats["proposals"] += acc.size * weight
    return hook


def _transition_bytes(stats, args, result):
    stats["bytes_out"] += result.nbytes


def _em_iters(stats, args, result):
    stats["iters"] += len(result.log_likelihoods)


def _saved_bytes(stats, args, result):
    stats["bytes"] += dir_bytes(args[0])


HOOKS = {
    "model.transition_matrices": _transition_bytes,
    "mcmc.em_initialize": _em_iters,
    "mcmc.update_alpha": _acceptance(lambda args: args[0].alpha.shape[0]),
    "mcmc.update_beta": _acceptance(lambda args: 1),
    "mcmc.update_scale_joint": _acceptance(lambda args: 1),
    "mcmc.update_location_joint": _acceptance(lambda args: 1),
    "storage.save_chain_set": _saved_bytes,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stats = defaultdict(lambda: defaultdict(float))
        self.absent = []
        self._stack = []
        self._patches = []

    def _spanned(self, name, fn):
        spans, stack, stats, hook = self.spans, self._stack, self.stats, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(stats[name], args, result)
            return result
        return traced

    def _counted(self, name, fn):
        stats = self.stats[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, modules) -> None:
        """Wrap every binding of each traced function in ``modules``,
        including default arguments (``ppc_check(statistics=ppc_statistics)``);
        names bound nowhere are recorded in ``absent``."""
        wanted = {name: self._spanned for name in SPANNED}
        wanted.update({name: self._counted for name in COUNTED})
        bindings = [(module, attr, obj) for module in modules
                    for attr, obj in list(vars(module).items())]
        wrappers = {}  # id(original) -> wrapper
        found = set()
        for module, attr, obj in bindings:
            module_name = getattr(obj, "__module__", None)
            if not isinstance(module_name, str):
                continue
            name = f"{module_name.rpartition('.')[2]}.{attr}"
            if name not in wanted or getattr(obj, "__name__", None) != attr:
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = wanted[name](name, obj)
                found.add(name)
            setattr(module, attr, wrappers[id(obj)])
            self._patches.append((module, attr, obj))
        for _, _, obj in bindings:
            defaults = getattr(obj, "__defaults__", None)
            if defaults and any(id(d) in wrappers for d in defaults):
                obj.__defaults__ = tuple(wrappers.get(id(d), d) for d in defaults)
                self._patches.append((obj, "__defaults__", defaults))
        self.absent = sorted(set(wanted) - found)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around a command."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def totals(self) -> dict:
        """Per name: calls, total seconds, and total self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - inner
        return out

    def write(self, path) -> None:
        """Write every span and stat as JSON (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent,
                       "stats": {k: dict(v) for k, v in self.stats.items()},
                       "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]},
                      fh)
