import codecs
import csv
import io
import json

import numpy as np
import pytest

from panelhmm import cli, inference, storage
from panelhmm.cli import main
from panelhmm.dataset import (
    DesignMatrix,
    ObservationPanel,
    build_design,
    load_covariates,
    load_observations,
    save_observations,
)
from panelhmm.inference import smoothed_marginals, viterbi
from panelhmm.errors import NumericalError
from panelhmm.model import save_params

from conftest import random_hmm_params, trial_design


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A data directory with a simulated panel, covariates, and params."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(51)
    N, T = 5, 15
    d_drink = rng.uniform(0.1, 0.9, N)
    x_path = root / "x.csv"
    lines = ["treatment,sex,d_drink,d_heavy"]
    for i in range(N):
        lines.append(f"{i % 2},{(i // 2) % 2},{d_drink[i]:.4f},"
                     f"{d_drink[i] * 0.5:.4f}")
    x_path.write_text("\n".join(lines) + "\n")
    design = trial_design(N, T, np.random.default_rng(51))
    params = random_hmm_params(N, 3, 3, design.p, rng, concentrated=True)
    params_path = root / "params.txt"
    save_params(params, params_path)
    from panelhmm.model import simulate
    sim = simulate([params], design, N, T, [1])[0]
    mask = rng.random((N, T)) < 0.1
    panel = ObservationPanel(codes=np.where(mask, 0, sim.observed.codes),
                             mask=mask)
    y_path = root / "y.csv"
    save_observations(panel, y_path)
    return root


@pytest.fixture(scope="module")
def fitted(workspace):
    out = workspace / "fit"
    code = main([
        "fit", "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
        "--chains", "2", "--burnin", "15", "--keep", "10", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestFit:
    def test_outputs_and_manifest(self, workspace, fitted):
        assert (fitted / "samples.npz").exists()
        manifest = json.loads((fitted / "run_manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["seed"] == 3
        assert manifest["config"]["chains"] == 2
        assert manifest["config"]["days"] == 15
        assert set(manifest["inputs"]) == {"y", "x"}

    def test_rerun_is_byte_identical(self, workspace, fitted):
        out2 = workspace / "fit2"
        code = main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"),
            "--chains", "2", "--burnin", "15", "--keep", "10", "--seed", "3",
            "--out", str(out2),
        ])
        assert code == 0
        assert (out2 / "samples.npz").read_bytes() == \
            (fitted / "samples.npz").read_bytes()

    def test_config_file_and_flag_precedence(self, workspace):
        cfg = workspace / "run.cfg"
        cfg.write_text("chains = 1\nburnin = 5\nkeep = 4\nseed = 9\n")
        out = workspace / "fit_cfg"
        code = main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"),
            "--config", str(cfg), "--keep", "6", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["chains"] == 1   # from config file
        assert manifest["config"]["keep"] == 6     # flag wins
        assert manifest["seed"] == 9

    def test_bad_config_line(self, workspace):
        cfg = workspace / "bad.cfg"
        cfg.write_text("chains 2\n")
        code = main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"),
            "--config", str(cfg), "--out", str(workspace / "nope"),
        ])
        assert code == 2

    def test_config_keys_are_flag_names(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        # both spellings of a two-word key; the later line wins
        cfg.write_text("model = markov\nchains = 1\nburnin = 2\nkeep = 2\n"
                       "missing_token = NA\nmissing-token = na\n")
        out = tmp_path / "fit"
        code = main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"),
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == 0
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        assert config["model"] == "markov"
        assert config["missing_token"] == "na"
        assert storage.load_chain_set(out).model_kind == "markov"

    @pytest.mark.parametrize("line, problem", [
        ("chians = 1", "unknown key 'chians'"),
        ("out = x", "unknown key 'out'"),
        ("model_kind = markov", "unknown key 'model_kind'"),
        ("chains = abc", "bad value for 'chains'"),
        ("model = semi-markov", "bad value for 'model'"),
        ("step-alpha = 0.3", "unknown key 'step-alpha'"),
    ], ids=["misspelt", "path-flag", "dest-name", "not-an-int", "not-a-choice",
            "removed-step"])
    def test_config_unknown_key_or_bad_value_exits_2(self, workspace, tmp_path,
                                                     capsys, line, problem):
        # even where a flag overrides the key, the line is an error
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        code = main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"), "--chains", "1", "--burnin", "2",
            "--keep", "2", "--config", str(cfg), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert f"{cfg}:2: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_subject_mismatch_exits_2(self, workspace, tmp_path):
        y_small = tmp_path / "y.csv"
        y_small.write_text("1,2,3\n")
        code = main([
            "fit", "--y", str(y_small), "--x", str(workspace / "x.csv"),
            "--burnin", "2", "--keep", "2", "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_markov_states_must_match_levels(self, workspace, tmp_path):
        def fit_markov(extra, out):
            return main([
                "fit", "--y", str(workspace / "y.csv"),
                "--x", str(workspace / "x.csv"), "--model", "markov",
                "--chains", "1", "--burnin", "2", "--keep", "2",
                "--out", str(tmp_path / out)] + extra)

        assert fit_markov(["--states", "4"], "four") == 2
        assert not (tmp_path / "four").exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("states = 2\n")
        assert fit_markov(["--config", str(cfg)], "cfg") == 2
        assert fit_markov(["--states", "3"], "three") == 0

    @pytest.mark.parametrize("states", ["0", "-1"])
    def test_states_below_one_exit_2(self, workspace, tmp_path, states):
        code = main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"), "--states", states,
            "--chains", "1", "--burnin", "2", "--keep", "2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_in_chain_exits_3(self, workspace, tmp_path,
                                                 monkeypatch):
        build = cli.build_design

        def nan_design(raw, n_days):
            design = build(raw, n_days)
            values = design.values.copy()
            values[0, 0, 0] = np.nan
            return DesignMatrix(values=values, names=design.names)

        monkeypatch.setattr(cli, "build_design", nan_design)
        code = main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"),
            "--chains", "2", "--burnin", "2", "--keep", "2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3

    @staticmethod
    def _fit_failing_in_sampler(workspace, out, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("non-finite posterior quantity in alpha update")

        monkeypatch.setattr(cli.mcmc, "run_chains", fail)
        return main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"), "--burnin", "2", "--keep", "2",
            "--out", str(out),
        ])

    @pytest.mark.parametrize("out", ["out", "new/out"])
    def test_failed_sampling_removes_the_out_it_made(self, workspace, tmp_path,
                                                     monkeypatch, out):
        assert self._fit_failing_in_sampler(workspace, tmp_path / out,
                                            monkeypatch) == 3
        assert list(tmp_path.iterdir()) == []

    def test_failed_sampling_keeps_an_existing_out(self, workspace, tmp_path,
                                                   monkeypatch):
        (tmp_path / "out").mkdir()
        assert self._fit_failing_in_sampler(workspace, tmp_path / "out",
                                            monkeypatch) == 3
        assert (tmp_path / "out").is_dir()

    @pytest.mark.parametrize("column", [2, 3])
    def test_nan_proportion_exits_2(self, workspace, tmp_path, column):
        header, *rows = (workspace / "x.csv").read_text().splitlines()
        cells = rows[0].split(",")
        cells[column] = "nan"
        x_bad = tmp_path / "x.csv"
        x_bad.write_text("\n".join([header, ",".join(cells)] + rows[1:]) + "\n")
        code = main([
            "fit", "--y", str(workspace / "y.csv"), "--x", str(x_bad),
            "--burnin", "2", "--keep", "2", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_heavy_within_tolerance_of_drink_fits(self, workspace, tmp_path):
        # x.csv's proportions are checked once, with RawCovariates' tolerance
        header, *rows = (workspace / "x.csv").read_text().splitlines()
        cells = rows[0].split(",")
        cells[3] = repr(float(cells[2]) + 1e-13)
        assert float(cells[3]) > float(cells[2])
        x_edge = tmp_path / "x.csv"
        x_edge.write_text("\n".join([header, ",".join(cells)] + rows[1:]) + "\n")
        code = main([
            "fit", "--y", str(workspace / "y.csv"), "--x", str(x_edge),
            "--chains", "1", "--burnin", "2", "--keep", "2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_invalid_data_exits_2(self, workspace, tmp_path):
        y_bad = tmp_path / "y.csv"
        y_bad.write_text("1,2,9\n")
        code = main([
            "fit", "--y", str(y_bad), "--x", str(workspace / "x.csv"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_inputs_with_byte_order_mark_fit(self, workspace, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
        for name in ("y.csv", "x.csv", "params.txt"):
            (tmp_path / name).write_bytes(codecs.BOM_UTF8
                                          + (workspace / name).read_bytes())
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(codecs.BOM_UTF8 + b"chains = 1\nburnin = 2\nkeep = 2\n")
        code = main([
            "fit", "--y", str(tmp_path / "y.csv"), "--x", str(tmp_path / "x.csv"),
            "--config", str(cfg), "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert json.loads((tmp_path / "out" / "run_manifest.json").read_text())[
            "config"]["chains"] == 1
        assert main([
            "simulate", "--params", str(tmp_path / "params.txt"),
            "--x", str(tmp_path / "x.csv"), "--days", "12",
            "--out", str(tmp_path / "sim"),
        ]) == 0

    @pytest.mark.parametrize("name, encoding", [
        ("x.csv", "latin-1"),  # a spreadsheet's default "CSV" export
        ("y.csv", "utf-16"),  # Excel's "Unicode Text"
        ("run.cfg", "latin-1"),
        ("params.txt", "utf-16"),
    ])
    def test_input_not_utf8_exits_2(self, workspace, tmp_path, capsys, name,
                                    encoding):
        paths = {n: str(workspace / n) for n in ("y.csv", "x.csv", "params.txt")}
        paths["run.cfg"] = str(tmp_path / "ok.cfg")
        (tmp_path / "ok.cfg").write_text("chains = 1\n")
        header, *rows = (workspace / "x.csv").read_text().splitlines()
        text = {"x.csv": "\n".join([header + ",site"]
                                   + [row + ",Québec" for row in rows]) + "\n",
                "run.cfg": "chains = 1  # é\n"}.get(name)
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text or (workspace / name).read_text(),
                                     encoding=encoding)
        out = tmp_path / "out"
        if name == "params.txt":
            argv = ["simulate", "--params", paths[name], "--x", paths["x.csv"],
                    "--days", "12", "--out", str(out)]
        else:
            argv = ["fit", "--y", paths["y.csv"], "--x", paths["x.csv"],
                    "--config", paths["run.cfg"], "--burnin", "2", "--keep", "2",
                    "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{paths[name]}: not UTF-8 text" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_2(self, workspace, tmp_path, capsys, where):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        seed = ["--seed", "-1"] if where == "flag" else ["--config", str(cfg)]
        code = main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"), "--chains", "1", "--burnin", "2",
            "--keep", "2", *seed, "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDiagnose:
    def test_tables(self, workspace, fitted, tmp_path):
        out = tmp_path / "diag"
        code = main([
            "diagnose", "--fit", str(fitted),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--out", str(out),
        ])
        assert code == 0
        conv = (out / "convergence.csv").read_text().splitlines()
        assert conv[0] == "# schema-version: 1"
        assert conv[1] == "parameter,mean,sd,q025,q975,rhat,ess"
        # labels as in acceptance.csv and params files: pi[1] is the first
        # initial probability
        rows = {r[0]: r for r in csv.reader(conv[2:])}
        assert "pi[0]" not in rows
        stored = storage.load_chain_set(fitted)
        assert float(rows["pi[1]"][1]) == pytest.approx(
            stored.per_chain("pi")[..., 0].mean(), rel=1e-12)
        acceptance = (out / "acceptance.csv").read_text().splitlines()[2:]
        beta_paths = {r[0] for r in csv.reader(acceptance) if r[0].startswith("beta")}
        assert len(beta_paths) == 3 * 2 * 4 and beta_paths <= rows.keys()
        dic_lines = (out / "dic.csv").read_text().splitlines()
        header = dic_lines[1].split(",")
        values = [float(v) for v in dic_lines[2].split(",")]
        dic_row = dict(zip(header, values))
        assert dic_row["dic"] == pytest.approx(
            dic_row["mean_deviance"] + dic_row["p_d"], abs=1e-9)

    def test_short_fit_writes_every_table(self, workspace, tmp_path):
        # 2 kept draws: too few for R-hat and ESS, which read unavailable,
        # but the other statistics and tables need no minimum
        fit = tmp_path / "fit"
        assert main([
            "fit", "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--chains", "1", "--burnin", "2", "--keep", "2", "--out", str(fit),
        ]) == 0
        out = tmp_path / "diag"
        assert main([
            "diagnose", "--fit", str(fit),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--out", str(out),
        ]) == 0
        header, *rows = csv.reader((out / "convergence.csv").read_text().splitlines()[1:])
        assert header[-2:] == ["rhat", "ess"]
        assert rows and all(r[-2:] == ["unavailable", "unavailable"] for r in rows)
        assert all(np.isfinite(float(v)) for r in rows for v in r[1:5])
        assert len((out / "acceptance.csv").read_text().splitlines()) == 2 + 3 * 2 + 3 * 2 * 4
        dic_row = (out / "dic.csv").read_text().splitlines()[2].split(",")
        assert all(np.isfinite(float(v)) for v in dic_row)

    def test_acceptance_rates(self, workspace, fitted, tmp_path):
        out = tmp_path / "diag"
        assert main([
            "diagnose", "--fit", str(fitted),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--out", str(out),
        ]) == 0
        lines = (out / "acceptance.csv").read_text().splitlines()
        header, *rows = csv.reader(lines[1:])
        assert header == ["parameter", "chain", "rate"]
        # 2 chains x (3 rows x 2 targets alpha blocks + 3 x 2 x 4 beta scalars)
        assert len(rows) == 2 * (3 * 2 + 3 * 2 * 4)
        paths = [r[0] for r in rows]
        assert paths[0] == "alpha[1,2]"
        assert "beta[3,3,3]" in paths
        assert {r[1] for r in rows} == {"0", "1"}
        rates = np.array([float(r[2]) for r in rows])
        assert np.all((rates >= 0.0) & (rates <= 1.0))

    def test_truncated_store_exits_2(self, workspace, fitted, tmp_path):
        fit = tmp_path / "fit"
        fit.mkdir()
        data = (fitted / "samples.npz").read_bytes()
        (fit / "samples.npz").write_bytes(data[:len(data) // 2])
        (fit / "run_manifest.json").write_bytes(
            (fitted / "run_manifest.json").read_bytes())
        code = main([
            "diagnose", "--fit", str(fit),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--out", str(tmp_path / "diag"),
        ])
        assert code == 2
        assert not (tmp_path / "diag").exists()

    def test_missing_fit_exits_2(self, workspace, tmp_path):
        code = main([
            "diagnose", "--fit", str(tmp_path),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--out", str(tmp_path / "diag"),
        ])
        assert code == 2


class TestPpc:
    def test_summary_and_replicates(self, workspace, fitted, tmp_path):
        out = tmp_path / "ppc"
        code = main([
            "ppc", "--fit", str(fitted),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--draws", "5", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        summary = (out / "ppc_summary.csv").read_text().splitlines()
        assert summary[1].startswith("statistic,observed,quantile")
        reps = (out / "ppc_replicates.csv").read_text().splitlines()
        name = summary[2].split(",")[0]
        rows = [l for l in reps if l.startswith(name + ",")]
        assert len(rows) == 5

    @pytest.mark.parametrize("draws", ["0", "-1"])
    def test_draws_below_one_exit_2(self, workspace, fitted, tmp_path, draws):
        code = main([
            "ppc", "--fit", str(fitted),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--draws", draws, "--out", str(tmp_path / "ppc"),
        ])
        assert code == 2
        assert not (tmp_path / "ppc").exists()

    def test_negative_seed_exits_2(self, workspace, fitted, tmp_path):
        code = main([
            "ppc", "--fit", str(fitted),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--draws", "2", "--seed", "-1", "--out", str(tmp_path / "ppc"),
        ])
        assert code == 2
        assert not (tmp_path / "ppc").exists()


class TestApc:
    def test_transition_comparisons(self, workspace, fitted, tmp_path):
        out = tmp_path / "apc"
        code = main([
            "apc", "--fit", str(fitted), "--x", str(workspace / "x.csv"),
            "--days", "15", "--out", str(out),
        ])
        assert code == 0
        summary = (out / "apc_summary.csv").read_text().splitlines()
        # 4 covariates x 9 transition cells
        assert len(summary) == 2 + 36
        assert "B[1->2](treatment)" in "\n".join(summary)

    def test_stationary_excludes_time(self, workspace, fitted, tmp_path):
        out = tmp_path / "apc_stat"
        code = main([
            "apc", "--fit", str(fitted), "--x", str(workspace / "x.csv"),
            "--days", "15", "--kind", "stationary", "--out", str(out),
        ])
        assert code == 0
        body = (out / "apc_summary.csv").read_text()
        assert "Bstat[1](treatment)" in body
        assert "(time)" not in body


def test_outputs_hold_plain_numbers(workspace, fitted, tmp_path):
    """No numpy scalar repr such as ``np.float64(0.25)`` in any output."""
    y, x, fit = str(workspace / "y.csv"), str(workspace / "x.csv"), str(fitted)
    runs = {
        "diagnose": ["diagnose", "--fit", fit, "--y", y, "--x", x],
        "ppc": ["ppc", "--fit", fit, "--y", y, "--x", x, "--draws", "4"],
        "apc": ["apc", "--fit", fit, "--x", x, "--days", "15"],
        "apc_stat": ["apc", "--fit", fit, "--x", x, "--days", "15",
                     "--kind", "stationary"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        files = sorted(out.glob("*.csv"))
        assert files
        for path in files:
            assert "np." not in path.read_text(), path.name


class TestViterbiCommand:
    def test_decoded_table(self, workspace, fitted, tmp_path):
        out = tmp_path / "vit"
        code = main([
            "viterbi", "--fit", str(fitted),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "viterbi.csv").read_text().splitlines()
        assert lines[1] == ("subject,day,observed,state,"
                            "p_state_1,p_state_2,p_state_3")
        assert len(lines) == 2 + 5 * 15
        panel = load_observations(workspace / "y.csv")
        na_rows = [l for l in lines[2:] if l.split(",")[2] == "NA"]
        assert len(na_rows) == int(panel.mask.sum())
        states = {int(l.split(",")[3]) for l in lines[2:]}
        assert states <= {1, 2, 3}

    def test_model_arrays_built_once(self, workspace, fitted, tmp_path,
                                     monkeypatch):
        built = []
        original = inference.transition_matrices
        monkeypatch.setattr(inference, "transition_matrices",
                            lambda *args: built.append(1) or original(*args))
        assert main(["viterbi", "--fit", str(fitted),
                     "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
                     "--out", str(tmp_path / "vit")]) == 0
        assert len(built) == 1

    def test_one_state_fit(self, workspace, tmp_path):
        # a one-state HMM has no non-baseline targets, so alpha's last
        # axis is empty; pooling its draws must still work
        fit = tmp_path / "fit"
        assert main([
            "fit", "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--states", "1", "--chains", "1", "--burnin", "2", "--keep", "2",
            "--out", str(fit),
        ]) == 0
        out = tmp_path / "vit"
        assert main([
            "viterbi", "--fit", str(fit),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--out", str(out),
        ]) == 0
        lines = (out / "viterbi.csv").read_text().splitlines()
        assert lines[1] == "subject,day,observed,state,p_state_1"
        assert len(lines) == 2 + 5 * 15
        assert {l.split(",")[3] for l in lines[2:]} == {"1"}

    def test_file_equals_csv_writer_rows(self, workspace, tmp_path, monkeypatch):
        # a missing token csv.writer must quote, and more subjects than
        # one formatting block
        y = tmp_path / "y.csv"
        y.write_text((workspace / "y.csv").read_text().replace("NA", 'n"a'))
        x, fit = str(workspace / "x.csv"), tmp_path / "fit"
        assert main(["fit", "--y", str(y), "--x", x, "--missing-token", 'n"a',
                     "--chains", "1", "--burnin", "2", "--keep", "2",
                     "--out", str(fit)]) == 0
        out = tmp_path / "vit"
        monkeypatch.setattr(cli, "_SUBJECT_BLOCK", 2)
        assert main(["viterbi", "--fit", str(fit), "--y", str(y), "--x", x,
                     "--out", str(out)]) == 0
        panel = load_observations(y, missing_token='n"a')
        design = build_design(load_covariates(x), panel.n_days)
        params = storage.load_chain_set(fit).posterior_mean_params()
        states, _ = viterbi(panel, design, params)
        marginals = smoothed_marginals(panel, design, params)
        expected = io.StringIO(newline="")
        expected.write(cli.SCHEMA_COMMENT + "\n")
        writer = csv.writer(expected)
        writer.writerow(["subject", "day", "observed", "state", "p_state_1",
                         "p_state_2", "p_state_3"])
        for i, path in enumerate(states):
            for t in range(panel.n_days):
                writer.writerow([i, t + 1, 'n"a' if panel.mask[i, t]
                                 else str(panel.codes[i, t]), int(path[t])]
                                + [repr(float(p)) for p in marginals[i, t]])
        assert '"n""a"' in expected.getvalue()
        assert (out / "viterbi.csv").read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("value", ["NA", "", "a,b", 'q"', "two\nlines", " x"])
    def test_csv_cell_is_what_csv_writer_writes(self, value):
        buf = io.StringIO(newline="")
        csv.writer(buf).writerow(["0", value, "1"])
        assert buf.getvalue() == f"0,{cli._csv_cell(value)},1\r\n"

    def test_markov_fit_rejected(self, workspace, tmp_path):
        out_fit = tmp_path / "mfit"
        assert main([
            "fit", "--y", str(workspace / "y.csv"),
            "--x", str(workspace / "x.csv"), "--model", "markov",
            "--chains", "1", "--burnin", "5", "--keep", "4",
            "--out", str(out_fit),
        ]) == 0
        code = main([
            "viterbi", "--fit", str(out_fit),
            "--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv"),
            "--out", str(tmp_path / "vit"),
        ])
        assert code == 2


@pytest.fixture(scope="module")
def mismatched(workspace):
    """Inputs that do not match the fit: 3 of its 5 subjects, and all 5
    subjects over 10 of its 15 days."""
    root = workspace / "mismatched"
    root.mkdir()
    y_rows = (workspace / "y.csv").read_text().splitlines()
    x_rows = (workspace / "x.csv").read_text().splitlines()
    (root / "y_subjects.csv").write_text("\n".join(y_rows[:3]) + "\n")
    (root / "x_subjects.csv").write_text("\n".join(x_rows[:4]) + "\n")
    (root / "y_days.csv").write_text(
        "\n".join(",".join(r.split(",")[:10]) for r in y_rows) + "\n")
    return {"subjects": (root / "y_subjects.csv", root / "x_subjects.csv"),
            "days": (root / "y_days.csv", workspace / "x.csv")}


class TestInputsMatchFit:
    """Commands reading a stored fit reject a panel of another shape."""

    @pytest.mark.parametrize("command", ["diagnose", "ppc", "viterbi"])
    def test_panel_commands(self, fitted, mismatched, tmp_path, command):
        for which, (y, x) in mismatched.items():
            out = tmp_path / which
            code = main([command, "--fit", str(fitted), "--y", str(y),
                         "--x", str(x), "--out", str(out)])
            assert code == 2, which
            assert not out.exists()

    def test_apc(self, workspace, fitted, mismatched, tmp_path):
        x_small = str(mismatched["subjects"][1])
        x = str(workspace / "x.csv")
        assert main(["apc", "--fit", str(fitted), "--x", x_small,
                     "--out", str(tmp_path / "a")]) == 2
        assert main(["apc", "--fit", str(fitted), "--x", x, "--days", "30",
                     "--out", str(tmp_path / "b")]) == 2
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
        # --days defaults to the fit's panel length, so it may be left out
        assert main(["apc", "--fit", str(fitted), "--x", x,
                     "--out", str(tmp_path / "c")]) == 0
        assert main(["apc", "--fit", str(fitted), "--x", x, "--days", "15",
                     "--out", str(tmp_path / "d")]) == 0
        assert (tmp_path / "c" / "apc_draws.csv").read_bytes() == \
            (tmp_path / "d" / "apc_draws.csv").read_bytes()

    @pytest.mark.parametrize("command", ["diagnose", "ppc", "viterbi"])
    def test_changed_cell_exits_2(self, workspace, fitted, tmp_path, capsys,
                                  command):
        # same shape, one cell different: not the panel the fit saw
        rows = [r.split(",") for r in (workspace / "y.csv").read_text().splitlines()]
        rows[2][4] = "1" if rows[2][4] != "1" else "2"
        y = tmp_path / "y.csv"
        y.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "out"
        assert main([command, "--fit", str(fitted), "--y", str(y),
                     "--x", str(workspace / "x.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(y) in err and str(fitted) in err
        assert not out.exists()

    def test_apc_changed_covariate_exits_2(self, workspace, fitted, tmp_path):
        header, first, *rest = (workspace / "x.csv").read_text().splitlines()
        cells = first.split(",")
        cells[2] = f"{float(cells[2]) + 0.01:.4f}"
        x = tmp_path / "x.csv"
        x.write_text("\n".join([header, ",".join(cells)] + rest) + "\n")
        out = tmp_path / "apc"
        assert main(["apc", "--fit", str(fitted), "--x", str(x),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_identical_copy_accepted(self, workspace, fitted, tmp_path):
        y = tmp_path / "copy_of_y.csv"
        y.write_bytes((workspace / "y.csv").read_bytes())
        assert main(["diagnose", "--fit", str(fitted), "--y", str(y),
                     "--x", str(workspace / "x.csv"),
                     "--out", str(tmp_path / "diag")]) == 0

    def test_missing_token_comes_from_the_fit(self, workspace, tmp_path):
        y = tmp_path / "y.csv"
        y.write_text((workspace / "y.csv").read_text().replace("NA", "."))
        x, fit = str(workspace / "x.csv"), tmp_path / "fit"
        assert main(["fit", "--y", str(y), "--x", x, "--missing-token", ".",
                     "--chains", "1", "--burnin", "2", "--keep", "2",
                     "--out", str(fit)]) == 0
        out = tmp_path / "vit"
        assert main(["viterbi", "--fit", str(fit), "--y", str(y), "--x", x,
                     "--out", str(out)]) == 0
        observed = [l.split(",")[2] for l in
                    (out / "viterbi.csv").read_text().splitlines()[2:]]
        assert observed.count(".") == int(load_observations(workspace / "y.csv").mask.sum())
        assert "NA" not in observed


class TestSimulate:
    def test_panel_written(self, workspace, tmp_path):
        out = tmp_path / "sim"
        code = main([
            "simulate", "--params", str(workspace / "params.txt"),
            "--x", str(workspace / "x.csv"), "--days", "12", "--seed", "4",
            "--out", str(out),
        ])
        assert code == 0
        panel = load_observations(out / "y_sim.csv")
        assert panel.codes.shape == (5, 12)
        hidden = np.loadtxt(out / "hidden_sim.csv", delimiter=",", dtype=int)
        assert hidden.shape == (5, 12)

    def test_seed_reproducible(self, workspace, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "simulate", "--params", str(workspace / "params.txt"),
                "--x", str(workspace / "x.csv"), "--days", "12", "--seed", "4",
                "--out", str(out),
            ]) == 0
            outs.append((out / "y_sim.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("case", ["only-alpha", "markov-with-P"])
    def test_params_not_matching_kind_exit_2(self, workspace, tmp_path, case):
        lines = (workspace / "params.txt").read_text().splitlines()
        if case == "only-alpha":
            lines = [line for line in lines if line.startswith(("#", "alpha["))]
        else:
            lines[0] = lines[0].replace("kind=hmm", "kind=markov")
        params_path = tmp_path / "params.txt"
        params_path.write_text("\n".join(lines) + "\n")
        code = main([
            "simulate", "--params", str(params_path),
            "--x", str(workspace / "x.csv"), "--days", "12",
            "--out", str(tmp_path / "sim"),
        ])
        assert code == 2
        assert not (tmp_path / "sim").exists()

    def test_negative_seed_exits_2(self, workspace, tmp_path):
        code = main([
            "simulate", "--params", str(workspace / "params.txt"),
            "--x", str(workspace / "x.csv"), "--days", "12", "--seed", "-1",
            "--out", str(tmp_path / "sim"),
        ])
        assert code == 2
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--days", "0"), ("--days", "-3"), ("--days", "1"),
        ("--subjects", "0"), ("--subjects", "-1"),
    ])
    def test_out_of_range_sizes_exit_2(self, workspace, tmp_path, flag, value):
        sizes = {"--days": "12", flag: value}
        code = main([
            "simulate", "--params", str(workspace / "params.txt"),
            "--x", str(workspace / "x.csv"), "--days", sizes["--days"],
            *(["--subjects", value] if flag == "--subjects" else []),
            "--out", str(tmp_path / "sim"),
        ])
        assert code == 2
        assert not (tmp_path / "sim").exists()


class TestErrorChannel:
    def test_unknown_option_exits_2(self):
        assert main(["fit", "--frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["fit", "--y", "{ws}/y.csv", "--x", "{ws}/x.csv", "--config", "{ws}"],
        ["fit", "--y", "{ws}", "--x", "{ws}/x.csv"],
        ["simulate", "--params", "{ws}", "--x", "{ws}/x.csv", "--days", "12"],
    ], ids=["fit-config", "fit-y", "simulate-params"])
    def test_directory_for_file_exits_2(self, workspace, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main([a.format(ws=workspace) for a in argv] + ["--out", str(out)])
        assert code == 2
        assert "is a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--y", "{ws}/y.csv", "--x", "{ws}/x.csv", "--step-alpha", "0.3"],
        ["diagnose", "--fit", "{fit}", "--y", "{ws}/y.csv", "--x", "{ws}/x.csv",
         "--missing-token", "NA"],
    ], ids=["fit-step-alpha", "diagnose-missing-token"])
    def test_removed_flag_exits_2(self, workspace, fitted, tmp_path, capsys, argv):
        # the sampler adapts its steps; post-fit commands read the fit's token
        out = tmp_path / "out"
        code = main([a.format(ws=workspace, fit=fitted) for a in argv]
                    + ["--out", str(out)])
        assert code == 2
        assert "No such option" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, out", [
        ("fit", "file"), ("fit", "file/sub"), ("diagnose", "file"),
    ], ids=["fit-file", "fit-below-file", "diagnose-file"])
    def test_out_not_a_directory_exits_2(self, workspace, fitted, tmp_path,
                                         monkeypatch, command, out):
        # an unusable --out is found before any sampling, not after it
        sampled = []
        monkeypatch.setattr(cli.mcmc, "run_chains",
                            lambda *args, **kwargs: sampled.append(1))
        (tmp_path / "file").write_text("not a directory\n")
        inputs = ["--y", str(workspace / "y.csv"), "--x", str(workspace / "x.csv")]
        argv = {"fit": ["fit"] + inputs + ["--burnin", "2", "--keep", "2"],
                "diagnose": ["diagnose", "--fit", str(fitted)] + inputs}[command]
        assert main(argv + ["--out", str(tmp_path / out)]) == 2
        assert sampled == []
        assert (tmp_path / "file").read_text() == "not a directory\n"

    def test_missing_file_exits_2(self, tmp_path):
        assert main([
            "fit", "--y", str(tmp_path / "absent.csv"),
            "--x", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o"),
        ]) == 2
