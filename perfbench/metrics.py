"""Per-layer metrics derived from a traced pass.

Every name is reported on every workload; a function the workload never
calls (or that a refactor removed, see the trace file's ``absent`` list)
reads 0 calls and 0 ms.  The layer metric -> end-to-end metric map is in
NOTES.md.
"""

from __future__ import annotations

MH_KERNELS = ("update_alpha", "update_beta", "update_scale_joint",
              "update_location_joint")
CONJUGATE = ("update_mu", "update_sigma", "update_pi", "update_emissions")
COMMANDS = ("fit", "diagnose", "ppc", "apc", "viterbi")
TIMED_COMMANDS = ("fit", "diagnose", "ppc", "apc_transition", "apc_stationary",
                  "viterbi")
ESS_GROUPS = ("P", "mu", "beta_treatment", "median")


def per_layer(totals, stats, sweeps, command_s, ess, ess_per_s, overhead_s,
              untraced_s) -> dict:
    """``totals`` and ``stats`` come from the tracer; ``sweeps`` is the
    number of sampler sweeps in the traced fits; ``command_s`` holds the
    untraced median seconds per CLI command."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def calls(fn):
        return totals[fn]["calls"] if fn in totals else int(stats[fn]["calls"])

    def ms(fn, key="s"):
        return totals[fn][key] * 1e3 if fn in totals else 0.0

    def per_call(fn, key="s"):
        return ms(fn, key) / calls(fn) if calls(fn) else 0.0

    tm = "model.transition_matrices"
    put(f"{tm}.calls", calls(tm), "count")
    put(f"{tm}.ms_per_call", per_call(tm), "ms")
    put(f"{tm}.bytes_out", stats[tm]["bytes_out"] / calls(tm) if calls(tm) else 0, "B")
    put("model.simulate_hmm.ms_per_call", per_call("model.simulate_hmm"), "ms")

    fn = "inference.ffbs_sample_hidden"
    put(f"{fn}.calls", calls(fn), "count")
    put(f"{fn}.self_ms_per_call", per_call(fn, "self_s"), "ms")
    for fn in ("inference.log_likelihood_hmm", "inference.log_likelihood_markov"):
        put(f"{fn}.calls", calls(fn), "count")
        put(f"{fn}.ms_per_call", per_call(fn), "ms")
    put("inference.viterbi.ms", ms("inference.viterbi"), "ms")
    put("inference.smoothed_marginals.ms", ms("inference.smoothed_marginals"), "ms")

    put("mcmc.em_initialize.ms", ms("mcmc.em_initialize"), "ms")
    put("mcmc.em_initialize.iters", stats["mcmc.em_initialize"]["iters"], "count")
    for kernel in MH_KERNELS:
        fn = f"mcmc.{kernel}"
        proposals = stats[fn]["proposals"]
        put(f"{fn}.ms_per_call", per_call(fn), "ms")
        put(f"{fn}.accept_frac",
            stats[fn]["accepted"] / proposals if proposals else 0.0, "fraction")
        put(f"{fn}.proposals", proposals, "count")
    conj_calls = calls("mcmc.update_mu")
    put("mcmc.update_conjugate.ms_per_call",
        sum(ms(f"mcmc.{k}") for k in CONJUGATE) / conj_calls if conj_calls else 0.0, "ms")
    fn = "mcmc.sample_missing_y"
    put(f"{fn}.calls", calls(fn), "count")
    put(f"{fn}.self_ms_per_call", per_call(fn, "self_s"), "ms")
    put("mcmc.run_chain.sweep_ms", ms("mcmc.run_chain") / sweeps if sweeps else 0.0, "ms")
    put("mcmc.run_chain.self_ms", ms("mcmc.run_chain", "self_s"), "ms")

    put("storage.save_chain_set.ms", ms("storage.save_chain_set"), "ms")
    put("storage.save_chain_set.bytes", stats["storage.save_chain_set"]["bytes"], "B")
    fn = "storage.load_chain_set"
    put(f"{fn}.calls", calls(fn), "count")
    put(f"{fn}.ms_per_call", per_call(fn), "ms")

    put("diagnostics.scalar_summaries.ms", ms("diagnostics.scalar_summaries"), "ms")
    put("diagnostics.effective_sample_size.calls",
        calls("diagnostics.effective_sample_size"), "count")
    put("diagnostics.dic.ms", ms("diagnostics.dic"), "ms")

    for fn in ("analytics.average_transition_difference",
               "analytics.average_stationary_difference"):
        put(f"{fn}.calls", calls(fn), "count")
        put(f"{fn}.ms_per_call", per_call(fn), "ms")
    put("analytics.stationary_distribution.calls",
        calls("analytics.stationary_distribution"), "count")
    put("analytics.ppc_check.self_ms", ms("analytics.ppc_check", "self_s"), "ms")
    fn = "analytics.ppc_statistics"
    put(f"{fn}.calls", calls(fn), "count")
    put(f"{fn}.ms_per_call", per_call(fn), "ms")

    put("dataset.load_observations.ms", ms("dataset.load_observations"), "ms")
    put("dataset.build_design.ms", ms("dataset.build_design"), "ms")
    for cmd in COMMANDS:
        put(f"cli.{cmd}.self_ms", ms(f"cli.{cmd}", "self_s"), "ms")
    for cmd in TIMED_COMMANDS:
        put(f"cli.{cmd}.s", command_s.get(cmd, 0.0), "s")

    for group in ESS_GROUPS:
        put(f"ess.{group}", ess.get(group, 0.0), "count")
    put("ess.per_s", ess_per_s, "1/s")
    put("trace.overhead_s", overhead_s, "s")
    put("trace.overhead_frac", overhead_s / untraced_s, "fraction")
    return out
