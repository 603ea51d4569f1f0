"""End-to-end CLI behaviour: gen / run / kl, file formats, exit codes."""

import copy
import json
import math
import shutil
import subprocess
import sys
import threading
from dataclasses import asdict

import numpy as np
import pytest

import gradmc.cli
from gradmc import FAMILIES, Dataset, Rng, SamplerConfig, gaussian_posterior, run_chain
from gradmc.cli import main
from gradmc.data import load_csv_columns


def run_cli(*args):
    return main([str(a) for a in args])


def read_chain(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = np.asarray([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


# -- gen ---------------------------------------------------------------------------

def test_gen_mixture_shapes_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen", "gaussian_mixture", "--n", 1000, "--seed", 2, "--out", out1) == 0
    assert run_cli("gen", "gaussian_mixture", "--n", 1000, "--seed", 2, "--out", out2) == 0
    train = load_csv_columns(out1 / "train.csv")
    assert train["x"].shape == (1000, 2)
    assert (out1 / "train.csv").read_bytes() == (out2 / "train.csv").read_bytes()
    assert (out1 / "test.csv").read_bytes() == (out2 / "test.csv").read_bytes()
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["model"] == "gaussian_mixture"
    assert meta["seed"] == 2 and meta["n"] == 1000


def test_gen_logistic_csv_layout(tmp_path):
    out = tmp_path / "lr"
    assert run_cli("gen", "logistic_regression", "--d", 5, "--n", 2000, "--seed", 1,
                   "--out", out) == 0
    header = (out / "train.csv").read_text().splitlines()[0]
    assert header == "X.1,X.2,X.3,X.4,X.5,y"
    train = load_csv_columns(out / "train.csv")
    assert train["X"].shape == (2000, 5)
    assert train["y"].shape == (2000,)


def test_gen_unknown_model_exit_code():
    assert run_cli("gen", "bogus", "--n", 10, "--out", "/tmp/never") == 2


@pytest.mark.parametrize("model, flags, rejected, accepted", [
    ("logistic_regression", ["--hidden", 4, "--classes", 7], "--hidden", "--d"),
    ("gaussian", ["--d", 3], "--d", "--prior-variance"),
    ("bayes_nn", ["--d", 4, "--prior-variance", 2.0], "--prior-variance",
     "--d, --hidden, --classes"),
], ids=["logistic_regression", "gaussian", "bayes_nn"])
def test_gen_rejects_hyper_flag_the_family_does_not_take(tmp_path, capsys, model, flags,
                                                         rejected, accepted):
    out = tmp_path / "data"
    assert run_cli("gen", model, "--n", 20, *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{model} takes no {rejected};" in err
    assert err.rstrip().endswith(f"flags are {accepted}")
    assert not out.exists()


@pytest.mark.parametrize("model, flags, message", [
    ("bayes_nn", ["--hidden", 0], "network dimensions must be positive"),
    ("bayes_nn", ["--classes", 0], "network dimensions must be positive"),
    ("logistic_regression", ["--d", 0], "needs at least one feature"),
    ("gaussian", ["--prior-variance", -1], "prior variance must be positive and finite"),
    ("gaussian", ["--prior-variance", "inf"], "prior variance must be positive and finite"),
    ("gaussian", ["--prior-variance", "nan"], "prior variance must be positive and finite"),
    ("gaussian", ["--n-test", -25], "n_test must be at least 1"),
], ids=["hidden_0", "classes_0", "d_0", "prior_variance_negative", "prior_variance_inf",
        "prior_variance_nan", "n_test_negative"])
def test_gen_rejects_a_bad_value_before_writing(tmp_path, capsys, model, flags, message):
    # The builder checks the values: gen exits 2 as run would, and writes nothing.
    out = tmp_path / "data"
    assert run_cli("gen", model, "--n", 20, *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_gen_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli("gen", "gaussian", "--n", 20, "--seed", -1, "--out", out) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


# -- run ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixture_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("gm")
    assert run_cli("gen", "gaussian_mixture", "--n", 1000, "--seed", 2, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def gaussian_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("g")
    assert run_cli("gen", "gaussian", "--n", 500, "--seed", 3, "--out", out) == 0
    return out


def test_run_mixture_chain_columns(mixture_data, tmp_path):
    out = tmp_path / "run"
    code = run_cli("run", "--data", mixture_data, "--algorithm", "sgld",
                   "--stepsize", "5e-3", "--minibatch-size", 100, "--seed", 2,
                   "--n-iters", 400, "--burnin", 0, "--thin", 10, "--out", out)
    assert code == 0
    header, rows = read_chain(out / "chain.csv")
    assert header == ["iter", "theta1.0", "theta1.1", "theta2.0", "theta2.1"]
    assert rows[0, 0] == 0
    assert rows[-1, 0] == 400
    assert np.all(np.isfinite(rows))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stepsize"] == {"theta1": 5e-3, "theta2": 5e-3}
    assert manifest["burnin"] == 0 and manifest["thin"] == 10
    assert manifest["elapsed_seconds"] > 0


def test_run_without_tuning_flags_records_sampler_config_defaults(gaussian_data, tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--data", gaussian_data, "--algorithm", "sgld",
                   "--stepsize", "1e-4", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    expected = asdict(SamplerConfig(algorithm="sgld", stepsize=1e-4))
    expected["stepsize"] = {"theta": 1e-4}
    assert {name: manifest[name] for name in expected} == expected


def test_run_zero_iterations_writes_initial_row_only(mixture_data, tmp_path):
    out = tmp_path / "run0"
    assert run_cli("run", "--data", mixture_data, "--algorithm", "sgld",
                   "--stepsize", "1e-3", "--n-iters", 0, "--out", out) == 0
    _, rows = read_chain(out / "chain.csv")
    assert rows.shape[0] == 1
    assert rows[0, 0] == 0


def test_run_thinning_selects_exact_rows(mixture_data, tmp_path):
    out = tmp_path / "thin"
    assert run_cli("run", "--data", mixture_data, "--algorithm", "sgld",
                   "--stepsize", "1e-3", "--n-iters", 95, "--burnin", 20,
                   "--thin", 7, "--out", out) == 0
    _, rows = read_chain(out / "chain.csv")
    expected = [0] + [t for t in range(21, 96) if t % 7 == 0]
    assert rows[:, 0].astype(int).tolist() == expected


def test_run_burnin_discards_rows_at_write_time(mixture_data, tmp_path):
    full = tmp_path / "full"
    cut = tmp_path / "cut"
    common = ["run", "--data", mixture_data, "--algorithm", "sgld", "--stepsize", "2e-3",
              "--n-iters", 100, "--thin", 5, "--seed", 9]
    assert run_cli(*common, "--burnin", 0, "--out", full) == 0
    assert run_cli(*common, "--burnin", 50, "--out", cut) == 0
    _, rows_full = read_chain(full / "chain.csv")
    _, rows_cut = read_chain(cut / "chain.csv")
    kept = rows_full[rows_full[:, 0] > 50]
    np.testing.assert_array_equal(rows_cut[1:], kept)  # identical chain, later rows only


def test_run_determinism_across_processes(gaussian_data, tmp_path):
    # byte-identical chains for equal seeds, different for different seeds;
    # subprocesses prove this holds across process boundaries
    outs = [tmp_path / f"r{i}" for i in range(3)]
    seeds = [13, 13, 14]
    for out, seed in zip(outs, seeds):
        cmd = [sys.executable, "-m", "gradmc.cli", "run", "--data", str(gaussian_data),
               "--algorithm", "sgld", "--stepsize", "1e-3", "--n-iters", "500",
               "--burnin", "0", "--seed", str(seed), "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    a, b, c = (out / "chain.csv" for out in outs)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_run_logistic_cv_log_loss_improves(tmp_path):
    data = tmp_path / "lr"
    assert run_cli("gen", "logistic_regression", "--d", 5, "--n", 2000, "--seed", 1,
                   "--n-test", 500, "--out", data) == 0
    out = tmp_path / "run"
    # a short mode search leaves the chain start visibly above stationarity,
    # so the trace itself shows the descent
    code = run_cli("run", "--data", data, "--algorithm", "sgldcv",
                   "--stepsize", "1e-4", "--opt-stepsize", "1e-5", "--opt-iters", 200,
                   "--minibatch-size", 100, "--seed", 1, "--n-iters", 1500,
                   "--thin", 10, "--out", out)
    assert code == 0
    trace = np.loadtxt(out / "logloss.csv", delimiter=",", skiprows=1)
    assert trace[0, 0] == 0
    assert trace[-10:, 1].mean() < trace[0, 1]


def test_run_bayes_nn_multiclass_log_loss_trace(tmp_path):
    data = tmp_path / "nn"
    assert run_cli("gen", "bayes_nn", "--d", 6, "--hidden", 4, "--classes", 3,
                   "--n", 400, "--seed", 4, "--n-test", 100, "--out", data) == 0
    out = tmp_path / "run"
    assert run_cli("run", "--data", data, "--algorithm", "sgld", "--stepsize", "1e-5",
                   "--minibatch-size", 50, "--n-iters", 200, "--burnin", 0,
                   "--test-function", "log-loss", "--thin", 10, "--seed", 4,
                   "--out", out) == 0
    trace = np.loadtxt(out / "logloss.csv", delimiter=",", skiprows=1)
    assert trace.shape == (21, 2)
    assert np.all(np.isfinite(trace))
    assert not (out / "chain.csv").exists()  # log-loss mode stores only the trace


@pytest.fixture(scope="module")
def nn_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("nn")
    assert run_cli("gen", "bayes_nn", "--d", 6, "--hidden", 4, "--classes", 3,
                   "--n", 400, "--seed", 4, "--n-test", 100, "--out", out) == 0
    return out


def test_run_log_loss_computed_only_at_written_rows(nn_data, tmp_path, monkeypatch):
    calls = []
    original = gradmc.cli.log_loss_multiclass

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gradmc.cli, "log_loss_multiclass", counting)
    out = tmp_path / "run"
    assert run_cli("run", "--data", nn_data, "--algorithm", "sgld", "--stepsize", "1e-5",
                   "--minibatch-size", 50, "--n-iters", 40, "--thin", 10, "--seed", 4,
                   "--test-function", "log-loss", "--out", out) == 0
    assert len(calls) == 5  # rows 0, 10, 20, 30 and 40
    trace = np.loadtxt(out / "logloss.csv", delimiter=",", skiprows=1)
    assert trace[:, 0].astype(int).tolist() == [0, 10, 20, 30, 40]


@pytest.mark.parametrize("data, test_function, read", [
    ("gaussian_data", "full-chain", ["train.csv"]),
    ("mixture_data", "running-mean", ["train.csv"]),
    ("nn_data", "running-mean", ["train.csv"]),
    ("nn_data", "full-chain", ["train.csv", "test.csv"]),
    ("nn_data", "log-loss", ["train.csv", "test.csv"]),
])
def test_run_reads_test_csv_only_for_a_log_loss_table(request, tmp_path, monkeypatch, data, test_function, read):
    loaded = []
    original = gradmc.cli.load_csv_columns

    def counting(path):
        loaded.append(path.name)
        return original(path)

    monkeypatch.setattr(gradmc.cli, "load_csv_columns", counting)
    assert run_cli("run", "--data", request.getfixturevalue(data), "--algorithm", "sgld",
                   "--stepsize", "1e-5", "--minibatch-size", 20, "--n-iters", 10, "--thin", 5,
                   "--test-function", test_function, "--out", tmp_path / "run") == 0
    assert loaded == read


def test_run_recording_hook_keeps_no_hook_values(nn_data, tmp_path, monkeypatch):
    outputs = []
    original = gradmc.cli.run_chain

    def keeping(*args, **kwargs):
        outputs.append(original(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(gradmc.cli, "run_chain", keeping)
    assert run_cli("run", "--data", nn_data, "--algorithm", "sgld", "--stepsize", "1e-5",
                   "--minibatch-size", 50, "--n-iters", 30, "--seed", 4, "--chains", 2,
                   "--out", tmp_path / "run") == 0
    assert len(outputs) == 2
    assert all(out.hook_values == [] for out in outputs)


def test_run_full_chain_and_log_loss_modes_write_the_same_trace(nn_data, tmp_path):
    common = ["run", "--data", nn_data, "--algorithm", "sghmc", "--stepsize", "1e-5",
              "--minibatch-size", 50, "--n-iters", 35, "--burnin", 12, "--thin", 4,
              "--seed", 7]
    full, loss = tmp_path / "full", tmp_path / "loss"
    assert run_cli(*common, "--out", full) == 0
    assert run_cli(*common, "--test-function", "log-loss", "--out", loss) == 0
    assert (full / "logloss.csv").read_bytes() == (loss / "logloss.csv").read_bytes()
    # the trace ignores burn-in, the chain does not
    trace = np.loadtxt(loss / "logloss.csv", delimiter=",", skiprows=1)
    assert trace[:, 0].astype(int).tolist() == list(range(0, 36, 4))
    _, rows = read_chain(full / "chain.csv")
    assert rows[:, 0].astype(int).tolist() == [0, 16, 20, 24, 28, 32]


def test_run_running_mean_mode(mixture_data, tmp_path):
    out = tmp_path / "rm"
    assert run_cli("run", "--data", mixture_data, "--algorithm", "sgld",
                   "--stepsize", "1e-3", "--n-iters", 55, "--thin", 20,
                   "--test-function", "running-mean", "--out", out) == 0
    header, rows = read_chain(out / "running_mean.csv")
    assert header[0] == "iter"
    assert rows[:, 0].astype(int).tolist() == [20, 40, 55]


@pytest.mark.parametrize("test_function", ["full-chain", "running-mean"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_run_tables_read_back_through_load_csv_columns(tmp_path, family, test_function):
    data = tmp_path / "data"
    flags = ["--d", 4, "--hidden", 3, "--classes", 3] if family == "bayes_nn" else []
    assert run_cli("gen", family, "--n", 200, "--seed", 1, *flags, "--out", data) == 0
    out = tmp_path / "run"
    assert run_cli("run", "--data", data, "--algorithm", "sgld", "--stepsize", "1e-5",
                   "--minibatch-size", 20, "--n-iters", 12, "--burnin", 0, "--thin", 4,
                   "--test-function", test_function, "--out", out) == 0
    model = FAMILIES[family].build(**json.loads((data / "meta.json").read_text())["hyper"])
    widths = {name: math.prod(model.param_shapes[name]) for name in model.param_names}
    tables = json.loads((out / "manifest.json").read_text())["files"].values()
    for table in tables:
        _, rows = read_chain(out / table)
        loaded = load_csv_columns(out / table)
        if table == "logloss.csv":
            assert list(loaded) == ["iter", "log_loss"]
        else:
            assert list(loaded) == ["iter", *widths]
            assert all(loaded[name].shape == (len(rows), k) for name, k in widths.items())
        assert np.array_equal(np.column_stack(list(loaded.values())), rows)
    expected = {"full-chain": ["chain.csv"], "running-mean": ["running_mean.csv"]}[test_function]
    if test_function == "full-chain" and FAMILIES[family].label_kind:
        expected.append("logloss.csv")
    assert sorted(tables) == expected


def test_run_parallel_chains_write_suffixed_files(gaussian_data, tmp_path):
    out = tmp_path / "multi"
    assert run_cli("run", "--data", gaussian_data, "--algorithm", "sgld",
                   "--stepsize", "1e-3", "--n-iters", 100, "--burnin", 0,
                   "--chains", 2, "--out", out) == 0
    assert (out / "chain.0.csv").exists() and (out / "chain.1.csv").exists()
    _, rows0 = read_chain(out / "chain.0.csv")
    _, rows1 = read_chain(out / "chain.1.csv")
    assert not np.array_equal(rows0, rows1)


def test_run_chains_run_in_order_on_the_calling_thread(gaussian_data, tmp_path, monkeypatch):
    calls = []
    original = gradmc.cli.run_chain

    def recording(*args, **kwargs):
        calls.append((threading.get_ident(), copy.deepcopy(kwargs["rng"])))
        return original(*args, **kwargs)

    monkeypatch.setattr(gradmc.cli, "run_chain", recording)
    assert run_cli("run", "--data", gaussian_data, "--algorithm", "sgld", "--stepsize", "1e-3",
                   "--n-iters", 20, "--burnin", 0, "--seed", 5, "--chains", 3,
                   "--out", tmp_path / "run") == 0
    assert [ident for ident, _ in calls] == [threading.get_ident()] * 3
    # Call i got chain i's stream: it draws what Rng(seed).spawn(3)[i] draws.
    for (_, rng), spawned in zip(calls, Rng(5).spawn(3), strict=True):
        assert np.array_equal(rng.standard_normal(8), spawned.standard_normal(8))


@pytest.mark.parametrize("data, algorithm, stepsize", [
    ("gaussian_data", "sgldcv", "1e-3"),
    ("nn_data", "sghmc", "1e-5"),
])
def test_run_chain_files_match_run_chain_on_spawned_streams(request, tmp_path, data, algorithm, stepsize):
    data_dir = request.getfixturevalue(data)
    seed, n_iters, burnin, thin = 6, 40, 9, 3
    out = tmp_path / "run"
    assert run_cli("run", "--data", data_dir, "--algorithm", algorithm, "--stepsize", stepsize,
                   "--minibatch-size", 50, "--n-iters", n_iters, "--burnin", burnin, "--thin", thin,
                   "--opt-stepsize", stepsize, "--opt-iters", 30, "--seed", seed, "--chains", 3,
                   "--out", out) == 0
    meta = json.loads((data_dir / "meta.json").read_text())
    family = FAMILIES[meta["model"]]
    model = family.build(**meta["hyper"])
    train = Dataset(load_csv_columns(data_dir / "train.csv"))
    config = SamplerConfig(algorithm=algorithm, stepsize=float(stepsize), minibatch_size=50,
                           n_iters=n_iters, seed=seed, opt_stepsize=float(stepsize), opt_iters=30)
    # The CLI draws the start from the root stream before spawning the chains' streams.
    root = Rng(seed)
    init = family.init_params(model, root)
    kept = [0] + [t for t in range(1, n_iters + 1) if t > burnin and t % thin == 0]
    for i, rng in enumerate(root.spawn(3)):
        chain = run_chain(model, train, init, config, rng=rng)
        flat = np.vstack([model.flatten(chain.start_params),
                          np.hstack([chain.samples[name].reshape(n_iters, -1) for name in model.param_names])])
        _, rows = read_chain(out / f"chain.{i}.csv")
        assert np.array_equal(rows[:, 0], kept)
        # %.17g round-trips a float64, so the parsed values carry the chain's bits.
        assert np.array_equal(rows[:, 1:], flat[kept])


def test_run_config_file_with_flag_override(gaussian_data, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "algorithm = sgld\nstepsize = 1e-3\nn_iters = 120\nburnin = 0\nseed = 5\n"
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("run", "--config", config, "--data", gaussian_data, "--out", out_a) == 0
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["n_iters"] == 120 and manifest["seed"] == 5
    # flags override the file
    assert run_cli("run", "--config", config, "--data", gaussian_data, "--out", out_b,
                   "--seed", 6) == 0
    assert json.loads((out_b / "manifest.json").read_text())["seed"] == 6


def test_run_stepsize_flag_replaces_config_file_value(gaussian_data, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("algorithm = sgld\nstepsize = 1e-3\nn_iters = 20\nburnin = 0\n")
    out = tmp_path / "run"
    assert run_cli("run", "--config", config, "--data", gaussian_data, "--out", out,
                   "--stepsize", "2e-3") == 0
    assert json.loads((out / "manifest.json").read_text())["stepsize"] == {"theta": 2e-3}


def test_run_config_file_values_are_checked_like_flags(gaussian_data, tmp_path, capsys):
    out = tmp_path / "run"
    base = "algorithm = sgld\nstepsize = 1e-3\n"
    cases = {
        "bad_int": (base + "n_iters = abc\n", 2),
        "bad_choice": (base + "test_function = everything\n", 2),
        "unknown_key": (base + "iterations = 5\n", 2),
        "nested_config": (base + "config = other.conf\n", 2),
    }
    for name, (text, code) in cases.items():
        config = tmp_path / f"{name}.conf"
        config.write_text(text)
        assert run_cli("run", "--config", config, "--data", gaussian_data, "--out", out) == code
        assert str(config) in capsys.readouterr().err
    assert run_cli("run", "--config", tmp_path / "missing.conf", "--data", gaussian_data,
                   "--out", out) == 4
    assert not out.exists()


def test_run_config_file_error_names_the_entry(gaussian_data, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("# settings\nstepsize = 1e-3\nalgorithm = sgldx\n")
    out = tmp_path / "run"
    assert run_cli("run", "--config", config, "--data", gaussian_data, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{config}:3:" in err and "'algorithm'" in err and "'sgldx'" in err
    assert "usage:" not in err and "--algorithm" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, key, line, first", [
    ("seed = 1\nseed = 2\n", "seed", 2, 1),
    ("n_iters = 5\n\n# again\nn-iters = 6\n", "n_iters", 4, 1),
], ids=["same_spelling", "dash_and_underscore"])
def test_run_config_file_rejects_a_key_set_twice(gaussian_data, tmp_path, capsys, text, key,
                                                 line, first):
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "run"
    assert run_cli("run", "--config", config, "--data", gaussian_data, "--algorithm", "sgld",
                   "--stepsize", "1e-3", "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{config}:{line}: key {key!r} already set on line {first}" in err
    assert not out.exists()


def test_run_negative_seed_exits_2(gaussian_data, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", "--data", gaussian_data, "--algorithm", "sgld", "--stepsize", "1e-3",
                   "--seed", -3, "--out", out) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--algorithm", "sgld", "--stepsize", "inf"], "stepsize for 'theta' must be positive and finite"),
    (["--algorithm", "sgldcv", "--stepsize", "1e-3", "--opt-stepsize", "inf"],
     "sgldcv needs a positive, finite opt_stepsize"),
    (["--algorithm", "sgnht", "--stepsize", "1e-3", "--diffusion", "inf"],
     "diffusion must be positive and finite"),
    (["--algorithm", "sgld", "--stepsize", "1e-3", "--minibatch-size", "nan"],
     "minibatch size must be positive and finite"),
    (["--algorithm", "sgld", "--stepsize", "1e-3", "--minibatch-size", "inf"],
     "minibatch size must be positive and finite"),
], ids=["stepsize_inf", "opt_stepsize_inf", "diffusion_inf", "minibatch_nan", "minibatch_inf"])
def test_run_rejects_non_finite_settings(gaussian_data, tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    assert run_cli("run", "--data", gaussian_data, *flags, "--n-iters", 5, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_run_config_errors_exit_2(mixture_data, tmp_path):
    out = tmp_path / "x"
    assert run_cli("run", "--data", mixture_data, "--algorithm", "sgldcv",
                   "--stepsize", "1e-3", "--out", out) == 2  # missing opt stepsize
    assert run_cli("run", "--data", mixture_data, "--algorithm", "sgld",
                   "--stepsize=-1e-3", "--out", out) == 2
    assert run_cli("run", "--data", mixture_data, "--algorithm", "sgld",
                   "--stepsize", "5e-3x", "--out", out) == 2
    assert run_cli("run", "--data", tmp_path / "missing", "--algorithm", "sgld",
                   "--stepsize", "1e-3", "--out", out) == 2  # no meta.json


SGLD = ["--algorithm", "sgld", "--stepsize", "1e-3", "--n-iters", 5]


@pytest.mark.parametrize("argv, train_csv, code, message", [
    (["--data", "{data}", "--algorithm", "sgld"], None, 2, "--stepsize is required"),
    (["--data", "{data}", *SGLD, "--thin", 0], None, 2, "thinning interval"),
    (["--data", "{data}", *SGLD, "--chains", 0], None, 2, "--chains must be at least 1"),
    (["--data", "{data}", *SGLD, "--burnin", -3], None, 2, "--burnin must be non-negative"),
    (["--data", "{data}", *SGLD, "--test-function", "log-loss"], None, 2,
     "log-loss test function needs a classification model"),
    (SGLD, None, 2, "--data is required"),
    (["--data", "{data}", *SGLD, "--config", "{config}"], None, 2, "expected key = value"),
    (["--data", "{data}", *SGLD], b"", 4, "empty file"),
    (["--data", "{data}", *SGLD], b"x.1,,x.2\n0,1,2\n", 4, "blank column name"),
    (["--data", "{data}", *SGLD], b"x.1,x.2\n1.0,2.0\n\xff\xfe3.0,4.0\n", 4, "train.csv: not UTF-8 text"),
    (["--data", "{data}", *SGLD], b"x.1,x.\xff\n1.0,2.0\n", 4, "train.csv: not UTF-8 text"),
    (["--data", "{data}", *SGLD, "--minibatch-size", "2.5"], None, 2,
     "a minibatch size of 1 or more is a count of rows, got 2.5"),
], ids=["no_stepsize", "thin_0", "chains_0", "burnin_negative", "log_loss_without_labels", "no_data",
        "config_line_without_equals", "empty_train_csv", "blank_header_column",
        "non_utf8_train_row", "non_utf8_train_header", "minibatch_size_fraction_above_1"])
def test_run_input_errors_exit_with_their_code(mixture_data, tmp_path, capsys, argv, train_csv,
                                               code, message):
    data = mixture_data
    if train_csv is not None:
        data = tmp_path / "data"
        data.mkdir()
        shutil.copy(mixture_data / "meta.json", data)
        (data / "train.csv").write_bytes(train_csv)
    config = tmp_path / "run.conf"
    config.write_text("n_iters 5\n")
    out = tmp_path / "out"
    argv = [str(a).format(data=data, config=config) for a in argv]
    assert run_cli("run", *argv, "--out", out) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("meta, message", [
    (b"{", "Expecting property name"),
    (b"\xff", "can't decode"),
    (b"[]", 'expected an object with "model" and "hyper" entries'),
    (b'{"model": "gaussian"}', 'expected an object with "model" and "hyper" entries'),
    (b'{"model": "poisson", "hyper": {}}', "unknown model 'poisson'"),
    (b'{"model": ["gaussian"], "hyper": {}}', "unknown model ['gaussian']"),
    (b'{"model": "gaussian", "hyper": {"prior_variance": "x"}}',
     "hyper-parameter 'prior_variance' must be a number, got 'x'"),
    (b'{"model": "gaussian", "hyper": {"prior_variance": -1}}', "prior variance must be positive"),
], ids=["not_json", "not_utf8", "list", "no_hyper", "unknown_model", "model_not_a_name",
        "prior_variance_not_a_number", "prior_variance_negative"])
def test_malformed_meta_exits_2_naming_the_file(gaussian_data, tmp_path, capsys, meta, message):
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(gaussian_data / "train.csv", data)
    (data / "meta.json").write_bytes(meta)
    out = tmp_path / "out"
    assert run_cli("run", "--data", data, *SGLD, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'meta.json'}: ") and message in err and err.count("\n") == 1
    assert not out.exists()
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,theta\n1,0.1\n2,0.2\n")
    assert run_cli("kl", "--chain", chain, "--data", data) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("flags, config", [
    (["--stepsize", "theta1=1e-3", "--stepsize", "theta2=2e-3"], None),
    (["--stepsize", "theta1=1e-3,theta2=2e-3"], None),
    ([], "stepsize = theta1=1e-3, theta2=2e-3\n"),
], ids=["repeated_flags", "comma_list", "config_file"])
def test_run_per_parameter_stepsizes(mixture_data, tmp_path, flags, config):
    if config is not None:
        path = tmp_path / "run.conf"
        path.write_text(config)
        flags = ["--config", path]
    out = tmp_path / "run"
    assert run_cli("run", "--data", mixture_data, "--algorithm", "sgld", "--n-iters", 5,
                   *flags, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stepsize"] == {"theta1": 1e-3, "theta2": 2e-3}


@pytest.mark.parametrize("flags, message", [
    (["--stepsize", "theta1=1e-3,theta2=2e-3", "--stepsize", "theta1=5e-3"],
     "stepsize for 'theta1' given twice"),
    (["--stepsize", "theta1=1e-3,theta2=2e-3,theta1=1e-3"], "stepsize for 'theta1' given twice"),
    (["--stepsize", "theta1=1e-3", "--stepsize", "1e-3"], "mix of scalar and per-parameter"),
    (["--stepsize", "theta1=1e-3"], "no stepsize given for ['theta2']"),
    (["--stepsize", "theta1=1e-3,theta2=2e-3,theta3=1e-3"], "stepsize names ['theta3'] match no parameter"),
], ids=["repeated_flag", "repeated_in_list", "mixed", "missing", "unknown"])
def test_run_rejects_bad_per_parameter_stepsizes(mixture_data, tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    assert run_cli("run", "--data", mixture_data, "--algorithm", "sgld", "--n-iters", 5,
                   *flags, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_divergence_exit_3(gaussian_data, tmp_path):
    out = tmp_path / "div"
    code = run_cli("run", "--data", gaussian_data, "--algorithm", "sgld",
                   "--stepsize", "1e308", "--n-iters", 50, "--out", out)
    assert code == 3


# -- kl -----------------------------------------------------------------------------

def test_kl_of_exact_posterior_fixture(gaussian_data, tmp_path, capsys):
    # a synthetic chain whose sample mean and unbiased variance equal the
    # analytic posterior's exactly must score KL ~ 0
    train = load_csv_columns(gaussian_data / "train.csv")
    post = gaussian_posterior(10.0, train["x"])
    mu, var = post.mean[0], post.variance[0]
    s = math.sqrt(3.0 * var / 4.0)  # four alternating points: unbiased var = 4 s^2 / 3
    chain = tmp_path / "chain.csv"
    rows = [f"{t},{mu + (s if t % 2 else -s):.17g}" for t in range(1, 5)]
    chain.write_text("iter,theta.0\n" + "\n".join(rows) + "\n")
    assert run_cli("kl", "--chain", chain, "--data", gaussian_data) == 0
    line = capsys.readouterr().out.strip()
    kl = float(line.split()[0].split("=")[1])
    assert kl < 1e-6


def test_kl_degenerate_chain_exit_2(gaussian_data, tmp_path):
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,theta.0\n" + "\n".join(f"{t},0.5" for t in range(1, 20)) + "\n")
    assert run_cli("kl", "--chain", chain, "--data", gaussian_data) == 2


def test_kl_needs_two_post_initial_rows(gaussian_data, tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,theta.0\n0,0.1\n1,0.2\n")
    assert run_cli("kl", "--chain", chain, "--data", gaussian_data) == 2
    assert "at least 2 post-initial chain rows" in capsys.readouterr().err


def test_kl_rejects_non_gaussian_model(mixture_data, tmp_path):
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,theta.0\n1,0.1\n2,0.2\n")
    assert run_cli("kl", "--chain", chain, "--data", mixture_data) == 2


def test_kl_reports_wall_clock_from_manifest(gaussian_data, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", "--data", gaussian_data, "--algorithm", "sgld",
                   "--stepsize", "1e-3", "--n-iters", 300, "--burnin", 0, "--out", out) == 0
    assert run_cli("kl", "--chain", out / "chain.csv", "--data", gaussian_data) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "wall_clock_seconds=" in line


def test_kl_sweep_plumbing(tmp_path, capsys):
    # gen -> run -> kl across dataset sizes with stepsize scaled 1/N stays
    # accurate; the full monotone-trend check runs in the acceptance suite
    # at its proper chain length
    kls = []
    for n in (100, 1000):
        data = tmp_path / f"d{n}"
        run = tmp_path / f"r{n}"
        assert run_cli("gen", "gaussian", "--n", n, "--seed", 3, "--out", data) == 0
        assert run_cli("run", "--data", data, "--algorithm", "sgldcv",
                       "--stepsize", 0.5 / n, "--opt-stepsize", 1e-3 / n,
                       "--opt-iters", 3000, "--n-iters", 3000, "--burnin", 0,
                       "--thin", 1, "--seed", 4, "--out", run) == 0
        assert run_cli("kl", "--chain", run / "chain.csv", "--data", data) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        kls.append(float(line.split()[0].split("=")[1]))
    assert all(k < 0.05 for k in kls)
