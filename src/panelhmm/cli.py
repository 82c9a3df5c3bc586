"""Command-line interface.

Every command is a pure function of its input files, flags, and seed:
re-execution reproduces the data outputs byte for byte.  Option
precedence is flags > config file > defaults; the config file is plain
``key = value`` text keyed by flag names (dashes or underscores).

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

import click
import numpy as np

from . import analytics, diagnostics, inference, mcmc, model, storage
from .dataset import (build_design, load_covariates, load_observations, open_text,
                      save_observations)
from .errors import InputError, NumericalError, PanelHmmError

SCHEMA_COMMENT = f"# schema-version: {storage.SCHEMA_VERSION}"
_SUBJECT_BLOCK = 64  # viterbi.csv rows are formatted 64 subjects at a time
INPUT_FILE = click.Path(exists=True, dir_okay=False)  # a directory exits 2
OUTPUT_DIR = click.Path(file_okay=False)  # an existing file exits 2


def _apply_config(ctx, path) -> None:
    """Apply a ``key = value`` config file to the options the user left at
    their defaults.

    Keys are flag names without the leading dashes, with dashes or
    underscores (``model``, ``missing-token``); the input, output and config
    paths are flags only.  Values are checked as the flag's would be.  A
    line that is not ``key = value``, an unknown key or a bad value is an
    input error naming the file, line and key.
    """
    if path is None:
        return
    options = {opt.lstrip("-").replace("-", "_"): param
               for param in ctx.command.params
               if param.name not in ("y_path", "x_path", "config_path", "out_dir")
               for opt in param.opts}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            param = options.get(key.replace("-", "_"))
            if param is None:
                raise InputError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"keys are {', '.join(sorted(options))}")
            try:
                value = param.type.convert(value, param, ctx)
            except click.BadParameter as exc:
                raise InputError(f"{path}:{lineno}: bad value for {key!r}: "
                                 f"{exc.message}") from None
            if ctx.get_parameter_source(param.name).name == "DEFAULT":
                ctx.params[param.name] = value


def _load_data(y_path, x_path, missing_token):
    panel = load_observations(y_path, missing_token=missing_token)
    raw = load_covariates(x_path)
    if raw.n_subjects != panel.n_subjects:
        raise InputError(
            f"subject count mismatch: {panel.n_subjects} rows in {y_path}, "
            f"{raw.n_subjects} in {x_path}"
        )
    return panel, build_design(raw, panel.n_days)


def _num(value) -> str:
    """A numeric CSV cell: the shortest repr that round-trips the float.
    Converting first keeps numpy's ``np.float64(...)`` repr out of files."""
    return repr(float(value))


def _num_column(values) -> list:
    """:func:`_num` of every value, in C order: ``repr`` of a list of
    floats writes each as ``repr(float)`` does."""
    text = repr(np.ravel(values).tolist())[1:-1]
    return text.split(", ") if text else []


def _csv_cell(value: str) -> str:
    """``value`` as ``csv.writer`` writes it in a row: quoted if it
    holds the delimiter, a quote or a line break."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SCHEMA_COMMENT + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fit_record(fit_dir, **inputs) -> dict:
    """The panel length and missing token that the fit in ``fit_dir``
    recorded, after checking that each input file (``y=``, ``x=``) is byte
    for byte the one the fit read."""
    path = os.path.join(fit_dir, storage.MANIFEST_FILE)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        config = manifest["config"]
        record = {"days": int(config["days"]),
                  "missing_token": str(config["missing_token"])}
        hashes = {name: manifest["inputs"][name]["sha256"] for name in inputs}
    except (OSError, ValueError, KeyError, TypeError):
        raise InputError(f"{path}: not a fit's run manifest; re-fit") from None
    for name, input_path in inputs.items():
        if storage.file_sha256(input_path) != hashes[name]:
            raise InputError(f"--{name} {input_path} is not the file the fit "
                             f"in {fit_dir} read")
    return record


def _load_fit(fit_dir, y_path, x_path):
    """The stored fit, the panel and design it was fitted to, and the
    missing token that panel was read with."""
    record = _fit_record(fit_dir, y=y_path, x=x_path)
    panel, design = _load_data(y_path, x_path, record["missing_token"])
    return storage.load_chain_set(fit_dir), panel, design, record["missing_token"]


def _missing_dirs(path) -> list:
    """The directories ``os.makedirs(path)`` would create, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


@click.group()
def cli():
    """Mixed-effects (hidden) Markov models for ordinal panel data."""


@cli.command()
@click.option("--y", "y_path", required=True, type=INPUT_FILE)
@click.option("--x", "x_path", required=True, type=INPUT_FILE)
@click.option("--model", "model_kind", type=click.Choice(["hmm", "markov"]),
              default="hmm", show_default=True)
@click.option("--states", type=click.IntRange(min=1), default=None,
              help="Hidden states of an HMM; defaults to the number of "
                   "observed levels.")
@click.option("--chains", type=int, default=3, show_default=True)
@click.option("--burnin", type=int, default=10_000, show_default=True)
@click.option("--keep", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--missing-token", default="NA", show_default=True)
@click.option("--config", "config_path", type=INPUT_FILE, default=None)
@click.option("--out", "out_dir", required=True, type=OUTPUT_DIR)
@click.pass_context
def fit(ctx, y_path, x_path, model_kind, states, chains, burnin, keep, seed,
        missing_token, config_path, out_dir):
    """Run the MCMC sampler and persist posterior samples."""
    _apply_config(ctx, config_path)
    p = ctx.params
    panel, design = _load_data(y_path, x_path, p["missing_token"])
    sampler_config = mcmc.SamplerConfig(
        n_chains=p["chains"], n_burnin=p["burnin"], n_keep=p["keep"],
        seed=p["seed"],
    )
    new_dirs = _missing_dirs(out_dir)
    os.makedirs(out_dir, exist_ok=True)  # an unusable --out fails before sampling
    try:
        chain_set = mcmc.run_chains(p["model_kind"], panel, design,
                                    config=sampler_config, n_states=p["states"])
    except BaseException:
        for path in new_dirs:  # still empty: nothing is written before this
            os.rmdir(path)
        raise
    storage.save_chain_set(out_dir, chain_set)
    storage.write_manifest(
        out_dir, "fit",
        {"model": p["model_kind"], "states": chain_set.chains[0].shapes["pi"][0],
         "chains": p["chains"], "burnin": p["burnin"], "keep": p["keep"],
         "days": panel.n_days, "missing_token": p["missing_token"]},
        {"y": y_path, "x": x_path}, p["seed"],
    )
    click.echo(f"fit complete: {sum(c.n_kept for c in chain_set.chains)} draws "
               f"in {out_dir}/{storage.SAMPLES_FILE}")


@cli.command()
@click.option("--params", "params_path", required=True, type=INPUT_FILE)
@click.option("--x", "x_path", required=True, type=INPUT_FILE)
@click.option("--days", type=click.IntRange(min=2), required=True)
@click.option("--subjects", type=click.IntRange(min=1), default=None)
@click.option("--mask-from", "mask_path", type=INPUT_FILE, default=None)
@click.option("--missing-token", default="NA", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=OUTPUT_DIR)
def simulate(params_path, x_path, days, subjects, mask_path, missing_token,
             seed, out_dir):
    """Simulate a panel from serialized parameters."""
    params = model.load_params(params_path)
    raw = load_covariates(x_path)
    design = build_design(raw, days)
    n = subjects if subjects is not None else params.n_subjects
    mask = None
    if mask_path is not None:
        mask = load_observations(mask_path, missing_token=missing_token).mask[:n, :days]
    sim = model.simulate([params], design, n, days, [seed], mask)[0]
    os.makedirs(out_dir, exist_ok=True)
    save_observations(sim.observed, os.path.join(out_dir, "y_sim.csv"),
                      missing_token=missing_token)
    if sim.hidden is not None:
        np.savetxt(os.path.join(out_dir, "hidden_sim.csv"), sim.hidden,
                   fmt="%d", delimiter=",")
    storage.write_manifest(out_dir, "simulate",
                           {"days": days, "subjects": n},
                           {"params": params_path, "x": x_path}, seed)
    click.echo(f"simulated {n}x{days} panel in {out_dir}")


@cli.command()
@click.option("--fit", "fit_dir", required=True, type=click.Path(exists=True))
@click.option("--y", "y_path", required=True, type=INPUT_FILE)
@click.option("--x", "x_path", required=True, type=INPUT_FILE)
@click.option("--out", "out_dir", required=True, type=OUTPUT_DIR)
def diagnose(fit_dir, y_path, x_path, out_dir):
    """Convergence summaries (R-hat, ESS, quantiles), acceptance rates and
    the DIC report."""
    chain_set, panel, design, _ = _load_fit(fit_dir, y_path, x_path)
    rows = diagnostics.scalar_summaries(chain_set)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "convergence.csv"),
        ["parameter", "mean", "sd", "q025", "q975", "rhat", "ess"],
        [[r["parameter"], _num(r["mean"]), _num(r["sd"]), _num(r["q025"]),
          _num(r["q975"])]
         + ["unavailable" if np.isnan(r[k]) else _num(r[k]) for k in ("rhat", "ess")]
         for r in rows],
    )
    _write_csv(
        os.path.join(out_dir, "acceptance.csv"),
        ["parameter", "chain", "rate"],
        [[path, c.chain_index, _num(rate)] for c in chain_set.chains
         for name, rates in c.acceptance.items()
         for path, rate in zip(model.param_paths(name, rates.shape), rates.ravel())],
    )
    report = diagnostics.dic(chain_set, panel, design)
    _write_csv(
        os.path.join(out_dir, "dic.csv"),
        ["mean_deviance", "deviance_at_mean", "p_d", "dic"],
        [[_num(report.mean_deviance), _num(report.deviance_at_mean),
          _num(report.p_d), _num(report.dic)]],
    )
    storage.write_manifest(out_dir, "diagnose", {},
                           {"y": y_path, "x": x_path}, None)
    click.echo(f"DIC = {report.dic:.1f} (p_d = {report.p_d:.1f})")


@cli.command()
@click.option("--fit", "fit_dir", required=True, type=click.Path(exists=True))
@click.option("--y", "y_path", required=True, type=INPUT_FILE)
@click.option("--x", "x_path", required=True, type=INPUT_FILE)
@click.option("--mode", type=click.Choice(["new-subjects", "same-subjects"]),
              default="new-subjects", show_default=True)
@click.option("--draws", type=click.IntRange(min=1), default=None,
              help="Subsample this many posterior draws (evenly spaced).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=OUTPUT_DIR)
def ppc(fit_dir, y_path, x_path, mode, draws, seed, out_dir):
    """Posterior predictive checks of drinking-pattern statistics."""
    chain_set, panel, design, _ = _load_fit(fit_dir, y_path, x_path)
    total = chain_set.n_chains * chain_set.n_kept
    indices = None
    if draws is not None:
        indices = np.linspace(0, total - 1, min(draws, total)).astype(int).tolist()
    results = analytics.ppc_check(
        chain_set, design, panel, mode=mode.replace("-", "_"),
        rng=np.random.default_rng(seed), draw_indices=indices)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "ppc_replicates.csv"),
        ["statistic", "draw", "value"],
        [[r.name, g, _num(v)] for r in results
         for g, v in enumerate(r.replicates)],
    )
    _write_csv(
        os.path.join(out_dir, "ppc_summary.csv"),
        ["statistic", "observed", "quantile", "rep_q025", "rep_median", "rep_q975"],
        [[r.name, _num(r.observed), _num(r.quantile),
          _num(np.nanquantile(r.replicates, 0.025)),
          _num(np.nanquantile(r.replicates, 0.5)),
          _num(np.nanquantile(r.replicates, 0.975))] for r in results],
    )
    storage.write_manifest(out_dir, "ppc", {"mode": mode, "draws": draws},
                           {"y": y_path, "x": x_path}, seed)
    click.echo(f"{len(results)} statistics checked; output in {out_dir}")


@cli.command()
@click.option("--fit", "fit_dir", required=True, type=click.Path(exists=True))
@click.option("--x", "x_path", required=True, type=INPUT_FILE)
@click.option("--days", type=int, default=None,
              help="Panel length of the fit (defines the time grid); "
                   "defaults to the fit's, and another value is an error.")
@click.option("--kind", type=click.Choice(["transition", "stationary"]),
              default="transition", show_default=True)
@click.option("--out", "out_dir", required=True, type=OUTPUT_DIR)
def apc(fit_dir, x_path, days, kind, out_dir):
    """Average predictive comparisons for every covariate and target."""
    fit_days = _fit_record(fit_dir, x=x_path)["days"]
    if days not in (None, fit_days):
        raise InputError(f"{days} days given; the fit in {fit_dir} has {fit_days}")
    chain_set = storage.load_chain_set(fit_dir)
    design = build_design(load_covariates(x_path), fit_days)
    if kind == "transition":
        compare, pattern = analytics.average_transition_difference, "B[{}->{}]({})"
        covariates = design.names
    else:
        compare, pattern = analytics.average_stationary_difference, "Bstat[{}]({})"
        covariates = [c for c in design.names if c != "time"]
    draws_rows = []
    summary_rows = []
    for name in covariates:
        u_hi, u_lo = analytics.default_comparison_levels(design, name)
        values = compare(chain_set, design, name, u_hi, u_lo)
        for target in np.ndindex(values.shape[1:]):
            column = values[(..., *target)]
            label = pattern.format(*(t + 1 for t in target), name)
            draws_rows.extend([label, g, _num(v)] for g, v in enumerate(column))
            summary_rows.append([
                label, _num(column.mean()),
                _num(np.quantile(column, 0.025)),
                _num(np.quantile(column, 0.975)),
            ])
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "apc_draws.csv"),
               ["comparison", "draw", "value"], draws_rows)
    _write_csv(os.path.join(out_dir, "apc_summary.csv"),
               ["comparison", "mean", "q025", "q975"], summary_rows)
    storage.write_manifest(out_dir, "apc", {"kind": kind, "days": fit_days},
                           {"x": x_path}, None)
    click.echo(f"{len(summary_rows)} comparisons written to {out_dir}")


@cli.command()
@click.option("--fit", "fit_dir", required=True, type=click.Path(exists=True))
@click.option("--y", "y_path", required=True, type=INPUT_FILE)
@click.option("--x", "x_path", required=True, type=INPUT_FILE)
@click.option("--out", "out_dir", required=True, type=OUTPUT_DIR)
def viterbi(fit_dir, y_path, x_path, out_dir):
    """Decode hidden states at the posterior-mean parameters."""
    chain_set, panel, design, missing_token = _load_fit(fit_dir, y_path, x_path)
    if chain_set.model_kind != "hmm":
        raise InputError("viterbi decoding requires an HMM fit")
    params = chain_set.posterior_mean_params()
    arrays = inference.model_arrays(panel, design, params)
    states, _ = inference.viterbi(panel, design, params, arrays)
    marginals = inference.smoothed_marginals(panel, design, params, arrays)
    S = params.n_states
    # cell strings by value: observed codes with the token at 0 (missing)
    observed = [_csv_cell(missing_token)] + [str(m) for m in range(1, panel.m_levels + 1)]
    state_names = [str(s) for s in range(S + 1)]
    days = [str(t + 1) for t in range(panel.n_days)]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "viterbi.csv"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(SCHEMA_COMMENT + "\n")
        csv.writer(fh).writerow(["subject", "day", "observed", "state"]
                                + [f"p_state_{s + 1}" for s in range(S)])
        for i0 in range(0, panel.n_subjects, _SUBJECT_BLOCK):
            block = slice(i0, i0 + _SUBJECT_BLOCK)
            columns = [
                [str(i) for i in range(panel.n_subjects)[block] for _ in days],
                days * len(states[block]),
                [observed[c] for c in panel.codes[block].ravel().tolist()],
                [state_names[s] for s in states[block].ravel().tolist()],
            ] + [_num_column(marginals[block, :, s]) for s in range(S)]
            fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))
    storage.write_manifest(out_dir, "viterbi", {},
                           {"y": y_path, "x": x_path}, None)
    click.echo(f"decoded {len(states)} subjects into {out_dir}/viterbi.csv")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return 1
    except click.ClickException as exc:
        exc.show()
        return 2
    except (InputError, FileNotFoundError, PermissionError, FileExistsError,
            NotADirectoryError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3
    except PanelHmmError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
