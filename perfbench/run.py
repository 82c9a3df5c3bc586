"""panelhmm benchmark.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload fit-hmm --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process, and
prints every metric.  With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the run also makes one traced pass and reports the per-layer metrics.
Work files go to ``.bench_work/`` in the checkout; run records and span
files stay there, inputs and fits are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import sysinfo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
MIN_PASSES = 3
SETUPS = {"fit-hmm": 11, "fit-markov-gappy": 11, "postfit": 3}
CHILD_TIMEOUT_S = 120


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def timed_setups(name, seed, work):
    """Run the set-up ``SETUPS[name]`` times, each in a fresh process, and
    time each from process start to exit.  Returns (wall seconds, child
    reports, directories); the last directory is the one the run uses."""
    walls, reports, dirs = [], [], []
    for i in range(SETUPS[name]):
        directory = os.path.join(work, f"setup{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--prepare", directory,
               "--workload", name, "--seed", str(seed)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up failed ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        dirs.append(directory)
    return walls, reports, dirs


def peak_rss_mb() -> float:
    """Larger of this process's and its children's peak RSS (KiB on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_workload(name, seed, seconds, trace):
    import workloads
    from metrics import per_layer
    from spans import Tracer

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=WORK)
    try:
        walls, reports, dirs = timed_setups(name, seed, work)
        pkg = workloads.import_package()
        if name == "postfit":
            wl = workloads.PostfitWorkload(pkg, name, seed, dirs[-1], dirs)
        else:
            wl = workloads.FitWorkload(pkg, name, seed, dirs[-1])

        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(wl.run_pass())
            wl.check_pending()
        pass_s = [sum(p.values()) for p in passes]
        command_s = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
        if name == "postfit":
            command_s["fit"] = statistics.median(r["fit_s"] for r in reports)
        ess_per_s = wl.ess.get("median", 0.0) / command_s["fit"]
        e2e = {
            "setup_s": (statistics.median(walls), "s"),
            "command_s": (statistics.median(pass_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "store_mb": (wl.store_bytes / 1e6, "MB"),
        }

        layers = None
        if trace:
            tracer = Tracer()
            tracer.install([pkg] + [getattr(pkg, m) for m in
                                    ("dataset", "model", "inference", "mcmc",
                                     "storage", "diagnostics", "analytics", "cli")])
            try:
                if name == "postfit":
                    wl.traced_setup_fit(tracer)
                traced_s = sum(wl.run_pass(tracer).values())
            finally:
                tracer.uninstall()
            wl.check_pending()
            # one traced fit: the pass itself, or postfit's set-up fit
            sweeps = wl.spec["chains"] * (wl.spec["burnin"] + wl.spec["keep"])
            layers = per_layer(tracer.totals(), tracer.stats, sweeps, command_s,
                               wl.ess, ess_per_s, traced_s - e2e["command_s"][0],
                               e2e["command_s"][0])
            os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
            tracer.write(os.path.join(WORK, "trace", f"{name}-seed{seed}.json"))

        failed = len(wl.failures)
        command_metrics = {f"{k}_s": v for k, v in command_s.items()}
        command_metrics["ess_per_s"] = ess_per_s
        command_metrics["failed_frac"] = failed / wl.attempted
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "spec": wl.spec, "inputs": reports[-1]["inputs"],
            "system": sysinfo.record(), "passes": passes, "setup_walls": walls,
            "digest": sorted(wl.digests), "ess": wl.ess,
            "attempted": wl.attempted, "failures": wl.failures,
            "end_to_end": {k: v[0] for k, v in e2e.items()},
            "commands": command_metrics,
        }
        os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
        with open(os.path.join(WORK, "runs", f"{name}-seed{seed}-trace{trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({**record, "per_layer": layers}, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for metric, (value, unit) in e2e.items():
        print(f"{name} {metric} {value!r} {unit}")
    for metric, value in command_metrics.items():
        print(f"{name} {metric} {value!r}")
    for line in wl.failures:
        print(f"{name} FAILED {line}")
    print("record " + json.dumps({k: record[k] for k in
                                  ("inputs", "system", "digest", "ess", "spec")}))
    metrics = layers if trace else {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return {"correct": failed == 0, "attempted": wl.attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in ("fit-hmm", "fit-markov-gappy", "postfit"):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit-hmm", "fit-markov-gappy", "postfit", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sysinfo.cap_blas_threads()  # before anything imports numpy
    if args.prepare:
        import workloads

        print(json.dumps(workloads.prepare(args.workload, args.seed, args.prepare)))
        return 0
    definition = load_definition()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        key = "per_layer" if args.trace else "end_to_end"
        if set(result["metrics"]) != {m["name"] for m in definition[key]}:
            raise SystemExit(f"benchmark: metrics do not match BENCHMARK.json {key}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
