"""The benchmark's tracer (bench/tracing.py) still finds and sees every library name it wraps.

The tracer patches library functions by name from outside the package, so a
rename inside gradmc would silently empty a per-layer metric; this test makes
such a rename fail here.
"""

import importlib.util
from pathlib import Path

import gradmc.cli
import gradmc.models
import gradmc.samplers
from gradmc import Rng, SamplerConfig

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("gradmc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_records_calls(tmp_path):
    data_dir = tmp_path / "nn"
    assert gradmc.cli.main(["gen", "bayes_nn", "--d", "4", "--hidden", "3", "--classes", "3",
                            "--n", "60", "--seed", "2", "--out", str(data_dir)]) == 0
    tracer = load_tracing().Tracer().install()
    try:
        wrapped = len(tracer._patches)
        generated = gradmc.models.gen_synth("gaussian", 200, Rng(1))
        config = SamplerConfig(algorithm="sgldcv", stepsize=1e-3, minibatch_size=20, n_iters=20,
                               opt_stepsize=1e-3, opt_iters=10)
        gradmc.samplers.run_chain(gradmc.models.build_gaussian(), generated.train, {"theta": 0.0}, config)
        assert gradmc.cli.main(["run", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                                "--algorithm", "sgld", "--stepsize", "1e-4", "--minibatch-size", "10",
                                "--n-iters", "20", "--thin", "5", "--test-function", "log-loss"]) == 0
    finally:
        tracer.uninstall()
    calls = tracer.snapshot()["calls"]
    assert len(calls) == wrapped, sorted(calls)
    assert all(count > 0 for count in calls.values()), calls


def test_traced_multiclass_log_loss_sees_no_logistic_run(tmp_path):
    # The binary log loss goes through the multiclass one inside diagnostics,
    # not through the name the tracer wraps in the CLI.
    data_dir = tmp_path / "lr"
    assert gradmc.cli.main(["gen", "logistic_regression", "--d", "3", "--n", "60", "--seed", "2",
                            "--out", str(data_dir)]) == 0
    tracer = load_tracing().Tracer().install()
    try:
        assert gradmc.cli.main(["run", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                                "--algorithm", "sgld", "--stepsize", "1e-4", "--minibatch-size", "10",
                                "--n-iters", "20", "--thin", "5", "--test-function", "log-loss"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["calls"].get("log_loss", 0) == 0
