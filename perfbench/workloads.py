"""The three workloads: what each runs through ``panelhmm.cli.main`` and
how each checks its outputs.

* ``fit-hmm``: ``fit --model hmm`` on the paper's panel shape.
* ``fit-markov-gappy``: ``fit --model markov`` on a wide, short panel with
  multi-day gaps and dropout (imputation instead of FFBS and EM).
* ``postfit``: ``diagnose``, ``ppc``, ``apc`` (both kinds) and ``viterbi``
  on a short HMM fit stored during set-up.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import time
import traceback

import checks
import ess
import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run lengths are sized so one pass takes a few seconds on a 2-CPU box;
# see NOTES.md for the per-unit costs behind them.
WORKLOADS = {
    "fit-hmm": {"panel": "hmm", "model": "hmm", "chains": 3, "burnin": 20, "keep": 20},
    "fit-markov-gappy": {"panel": "markov-gappy", "model": "markov", "chains": 3,
                         "burnin": 20, "keep": 20},
    "postfit": {"panel": "hmm", "model": "hmm", "chains": 2, "burnin": 0, "keep": 10},
}
N_STATES = 3


def import_package():
    """Import ``panelhmm`` from this checkout's ``src/`` and nowhere else."""
    init = os.path.join(ROOT, "src", "panelhmm", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"benchmark: no package source at {init}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import panelhmm
    import panelhmm.cli

    if os.path.realpath(panelhmm.__file__) != os.path.realpath(init):
        raise SystemExit(f"benchmark: imported panelhmm from {panelhmm.__file__}")
    return panelhmm


def run_cli(pkg, argv, tracer=None):
    """One CLI invocation, in process; returns (exit code, wall seconds).
    An exception the CLI lets escape is reported and counts as exit code -1,
    so the run goes on and tallies it as a failed operation."""
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), span:
        start = time.perf_counter()
        try:
            code = pkg.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
    return code, elapsed


def fit_argv(spec, paths, seed, out_dir):
    return ["fit", "--y", paths["y"], "--x", paths["x"], "--model", spec["model"],
            "--chains", str(spec["chains"]), "--burnin", str(spec["burnin"]),
            "--keep", str(spec["keep"]), "--seed", str(seed), "--out", out_dir]


def prepare(name, seed, directory) -> dict:
    """Set-up of one workload: import, input generation, and for
    ``postfit`` the fit whose store the timed commands read."""
    pkg = import_package()
    spec = WORKLOADS[name]
    y, x, record = inputs.generate(spec["panel"], seed, directory)
    out = {"inputs": record}
    if name == "postfit":
        code, out["fit_s"] = run_cli(pkg, fit_argv(spec, {"y": y, "x": x}, seed,
                                                   os.path.join(directory, "fit")))
        if code != 0:
            raise SystemExit(f"benchmark: set-up fit exited {code}")
    return out


class Workload:
    """Shared state of one run: inputs, loaded panel and design, and the
    tally of operations and failures."""

    def __init__(self, pkg, name, seed, directory):
        self.pkg, self.name, self.seed, self.dir = pkg, name, seed, directory
        self.spec = WORKLOADS[name]
        self.paths = {"y": os.path.join(directory, "y.csv"),
                      "x": os.path.join(directory, "x.csv")}
        self.panel = pkg.dataset.load_observations(self.paths["y"])
        self.design = pkg.dataset.build_design(
            pkg.dataset.load_covariates(self.paths["x"]), self.panel.n_days)
        self.attempted = 0
        self.failures = []
        self.digests = set()
        self.ess = {}
        self.pending = []  # (label, exit code, output directory)

    def record_op(self, label, code, fails):
        self.attempted += 1
        if code != 0:
            fails = [f"exit code {code}"] + fails
        if fails:
            self.failures.append(f"{label}: " + "; ".join(fails))

    def check_pending(self):
        """Check the outputs of the commands run since the last call; kept
        out of ``run_pass`` so that checks are neither timed nor traced."""
        for label, code, out_dir in self.pending:
            fails = []
            if code == 0:
                try:
                    fails = self._check(label, out_dir)
                except (OSError, ValueError, IndexError, KeyError) as exc:
                    fails = [f"unreadable output: {exc!r}"]
            self.record_op(label, code, fails)
        self.pending.clear()

    def check_store(self, fit_dir):
        """Load a store through the package (untimed) and check it."""
        chain_set = self.pkg.storage.load_chain_set(fit_dir)
        fails = checks.check_store(chain_set, self.spec["model"], self.spec["chains"],
                                   self.spec["keep"], self.panel, self.design,
                                   self.pkg.inference)
        self.digests.add(checks.draws_digest(chain_set))
        if len(self.digests) > 1:
            fails.append("draws digest differs between runs of the same seed")
        if not self.ess:
            col = self.pkg.dataset.COVARIATE_NAMES.index("treatment")
            self.ess = ess.reported_ess(chain_set, col)
        return chain_set, fails


class FitWorkload(Workload):
    """Timed pass: one ``fit`` command."""

    def __init__(self, pkg, name, seed, directory):
        super().__init__(pkg, name, seed, directory)
        self.fit_dir = os.path.join(directory, "bench-fit")
        self.store_bytes = 0

    def run_pass(self, tracer=None):
        shutil.rmtree(self.fit_dir, ignore_errors=True)
        code, secs = run_cli(self.pkg, fit_argv(self.spec, self.paths, self.seed,
                                                self.fit_dir), tracer)
        self.pending.append(("fit", code, self.fit_dir))
        return {"fit": secs}

    def _check(self, label, out_dir):
        self.store_bytes = checks.dir_bytes(out_dir)
        return self.check_store(out_dir)[1]


class PostfitWorkload(Workload):
    """Timed pass: ``diagnose``, ``ppc``, ``apc`` (transition, then
    stationary) and ``viterbi`` on the store made in set-up."""

    def __init__(self, pkg, name, seed, directory, setup_dirs):
        super().__init__(pkg, name, seed, directory)
        self.fit_dir = os.path.join(directory, "fit")
        self.store_bytes = checks.dir_bytes(self.fit_dir)
        # every set-up made the same fit from the same seed: their draws agree
        fails = []
        for d in setup_dirs:
            self.chain_set, more = self.check_store(os.path.join(d, "fit"))
            fails += more
        self.record_op("set-up fit", 0, sorted(set(fails)))
        self.n_draws = self.spec["chains"] * self.spec["keep"]
        y, x, fit = self.paths["y"], self.paths["x"], self.fit_dir
        out = os.path.join(directory, "out")
        self.commands = [
            ("diagnose", ["diagnose", "--fit", fit, "--y", y, "--x", x,
                          "--out", f"{out}/diagnose"]),
            ("ppc", ["ppc", "--fit", fit, "--y", y, "--x", x, "--draws",
                     str(self.n_draws), "--seed", str(seed), "--out", f"{out}/ppc"]),
            ("apc_transition", ["apc", "--fit", fit, "--x", x, "--days",
                                str(self.panel.n_days), "--kind", "transition",
                                "--out", f"{out}/apc_transition"]),
            ("apc_stationary", ["apc", "--fit", fit, "--x", x, "--days",
                                str(self.panel.n_days), "--kind", "stationary",
                                "--out", f"{out}/apc_stationary"]),
            ("viterbi", ["viterbi", "--fit", fit, "--y", y, "--x", x,
                         "--out", f"{out}/viterbi"]),
        ]

    def _check(self, label, out_dir):
        names = list(self.design.names)
        if label == "fit":
            return self.check_store(out_dir)[1]
        if label == "diagnose":
            return checks.check_diagnose(out_dir, self.chain_set)
        if label == "ppc":
            return checks.check_ppc(out_dir, self.n_draws)
        if label == "apc_transition":
            return checks.check_apc(out_dir, "transition", names, N_STATES, self.n_draws)
        if label == "apc_stationary":
            return checks.check_apc(out_dir, "stationary",
                                    [n for n in names if n != "time"],
                                    N_STATES, self.n_draws)
        return checks.check_viterbi(out_dir, self.panel.n_subjects,
                                    self.panel.n_days, N_STATES)

    def run_pass(self, tracer=None):
        times = {}
        for label, argv in self.commands:
            shutil.rmtree(argv[-1], ignore_errors=True)
            code, times[label] = run_cli(self.pkg, argv, tracer)
            self.pending.append((label, code, argv[-1]))
        return times

    def traced_setup_fit(self, tracer):
        """The set-up fit again, traced, so the trace covers set-up too."""
        fit_dir = os.path.join(self.dir, "traced-fit")
        code, _ = run_cli(self.pkg, fit_argv(self.spec, self.paths, self.seed, fit_dir),
                          tracer)
        self.pending.append(("fit", code, fit_dir))
