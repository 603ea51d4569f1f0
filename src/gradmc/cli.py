"""Batch front-end: generate data, run samplers, report KL against the oracle.

Subcommands
-----------
``gen``   writes a synthetic train/test split plus a metadata file.
``run``   runs one of the six samplers on a generated dataset and writes the
          thinned chain, a log-loss trace for classifiers, and a manifest with
          the fully resolved configuration (enough to reproduce the run
          byte-for-byte).
``kl``    moment-matches a gaussian-model chain and prints its KL divergence
          to the analytic posterior, with the run's wall clock from the
          manifest.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .data import Dataset, Rng, load_csv_columns, save_csv_columns
from .diagnostics import RunningMean, log_loss_binary, log_loss_multiclass, moment_match, kl_diag_gaussian
from .errors import (
    ConfigError,
    CsvFormatError,
    DomainError,
    GradmcError,
    NumericalDivergence,
    UnsupportedForKL,
)
from .models import FAMILIES, gaussian_posterior, nn_forward, gen_synth
from .samplers import ALGORITHMS, SamplerConfig, run_chain

TEST_FUNCTIONS = ("full-chain", "log-loss", "running-mean")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _hyper_from_args(family_name, args) -> dict:
    hyper = FAMILIES[family_name].hyper_defaults
    # Each hyper-parameter flag and the builder names it can set: --d sets the
    # feature dimension under whichever name the family's builder uses.
    flag_keys = {
        "--d": ("d", "input_dim"),
        "--hidden": ("hidden",),
        "--classes": ("classes",),
        "--prior-variance": ("prior_variance",),
    }
    targets = {
        flag: next((k for k in keys if k in hyper), None) for flag, keys in flag_keys.items()
    }
    for flag, key in targets.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if key is None:
            accepted = ", ".join(f for f, k in targets.items() if k is not None)
            raise ConfigError(
                f"{family_name} takes no {flag}; its hyper-parameter flags are {accepted}"
            )
        hyper[key] = value
    return hyper


def cmd_gen(args) -> int:
    if args.model not in FAMILIES:
        raise ConfigError(f"unknown model {args.model!r}; choose from {sorted(FAMILIES)}")
    hyper = _hyper_from_args(args.model, args)
    generated = gen_synth(args.model, args.n, Rng(args.seed), n_test=args.n_test, **hyper)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_csv_columns(out / "train.csv", dict(generated.train.entries))
    save_csv_columns(out / "test.csv", dict(generated.test.entries))
    meta = {
        "model": args.model,
        "n": args.n,
        "n_test": generated.test.n,
        "seed": args.seed,
        "hyper": hyper,
        "true_params": generated.true_params,
    }
    with open(out / "meta.json", "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out / 'train.csv'} ({generated.train.n} rows), "
          f"{out / 'test.csv'} ({generated.test.n} rows)")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _load_meta(data_dir: Path) -> dict:
    meta_path = data_dir / "meta.json"
    if not meta_path.exists():
        raise ConfigError(f"no meta.json under {data_dir}")
    with open(meta_path) as handle:
        return json.load(handle)


def _parse_stepsize(entries) -> float | dict:
    if entries is None:
        raise ConfigError("--stepsize is required")
    scalars = []
    named = {}
    for entry in entries:
        for part in str(entry).split(","):
            part = part.strip()
            if not part:
                continue
            name, _, value = part.rpartition("=")
            try:
                value = float(value)
            except ValueError:
                raise ConfigError(f"stepsize {part!r} is not a number") from None
            if "=" in part:
                named[name.strip()] = value
            else:
                scalars.append(value)
    if named and scalars:
        raise ConfigError("mix of scalar and per-parameter stepsizes")
    if named:
        return named
    if len(scalars) != 1:
        raise ConfigError("exactly one scalar stepsize expected")
    return scalars[0]


def _resolve_burnin(burnin, config: SamplerConfig) -> int:
    # Plain kernels discard an initial stretch; CV kernels replace burn-in
    # with the mode-search phase and keep the whole chain.
    if burnin is None:
        burnin = 0 if config.algorithm.endswith("cv") else 10_000
    return min(max(int(burnin), 0), config.n_iters)


def _log_loss_fn(meta, model, test: Dataset):
    kind = FAMILIES[meta["model"]].label_kind
    if kind == "binary":
        return lambda params: log_loss_binary(params["bias"], params["beta"], test["X"], test["y"])
    if kind == "multiclass":
        return lambda params: log_loss_multiclass(
            params, test["X"], test["y"], lambda p, x: nn_forward(model, p, x)
        )
    return None


class _Table(NamedTuple):
    """One CSV per chain: its header, the iterations it keeps, and their values."""

    stem: str
    comment: str | None
    columns: list[str]
    keep: Callable[[int], bool]
    value: Callable[[dict], Sequence[float]]


def _write_table(path, table: _Table, rows: dict) -> None:
    with open(path, "w", newline="") as handle:
        if table.comment:
            handle.write(table.comment + "\n")
        handle.write(",".join(["iter", *table.columns]) + "\n")
        for t in sorted(rows):
            handle.write(",".join([str(t), *(f"{v:.17g}" for v in rows[t])]) + "\n")


def cmd_run(args) -> int:
    started = time.perf_counter()
    for field in ("data", "out", "algorithm"):
        if getattr(args, field) in (None, ""):
            raise ConfigError(f"--{field} is required (flag or config file)")
    data_dir = Path(args.data)
    meta = _load_meta(data_dir)
    family = FAMILIES[meta["model"]]
    model = family.build(**meta["hyper"])
    train = Dataset(load_csv_columns(data_dir / "train.csv"))
    # Only a classifier's log-loss table reads the test split.
    test_path = data_dir / "test.csv"
    reads_test = family.label_kind is not None and args.test_function != "running-mean"
    test = Dataset(load_csv_columns(test_path)) if reads_test and test_path.exists() else None

    # Every SamplerConfig field is a run flag of the same name; one left unset
    # takes the dataclass default.
    settings = {f.name: getattr(args, f.name) for f in fields(SamplerConfig)}
    settings = {name: value for name, value in settings.items() if value is not None}
    settings["stepsize"] = _parse_stepsize(args.stepsize)
    config = SamplerConfig(**settings)
    config.validate(model.param_names)
    burnin = _resolve_burnin(args.burnin, config)
    thin = int(args.thin)
    if thin < 1:
        raise ConfigError("thinning interval must be at least 1")
    n_chains = int(args.chains)
    if n_chains < 1:
        raise ConfigError("--chains must be at least 1")

    log_loss = _log_loss_fn(meta, model, test) if test is not None else None
    if args.test_function == "log-loss" and log_loss is None:
        raise ConfigError("log-loss test function needs a classification model and a test split")

    columns = [
        f"{name}.{j}"
        for name in model.param_names
        for j in range(int(np.prod(model.param_shapes[name])))
    ]

    chain = _Table("chain", "# parameter columns are row-major flattened: <name>.<flat-index>",
                   columns, lambda t: t == 0 or (t > burnin and t % thin == 0), model.flatten)
    loss = _Table("logloss", None, ["log_loss"], lambda t: t % thin == 0,
                  lambda params: [log_loss(params)])
    mean = _Table("running_mean", "# running posterior means; columns <name>.<flat-index>",
                  columns, lambda t: t > 0 and (t % thin == 0 or t == config.n_iters), model.flatten)
    tables = {
        "full-chain": [chain] if log_loss is None else [chain, loss],
        "log-loss": [loss],
        "running-mean": [mean],
    }[args.test_function]

    root = Rng(config.seed)
    init_params = family.init_params(model, root)
    chain_rngs = [root] if n_chains == 1 else root.spawn(n_chains)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def run_one(rng):
        # The hook counts iterations and evaluates a table only at the rows it
        # keeps; the running mean is folded on every step.
        rows = {table.stem: {} for table in tables}
        fold = RunningMean() if args.test_function == "running-mean" else None
        count = itertools.count(1)

        def record(t, params):
            for table in tables:
                if table.keep(t):
                    rows[table.stem][t] = table.value(params)

        def hook(params):
            record(next(count), params if fold is None else fold(params))

        record(0, run_chain(model, train, init_params, config, hook=hook, rng=rng).start_params)
        return rows

    if n_chains == 1:
        outputs = [run_one(chain_rngs[0])]
    else:
        with ThreadPoolExecutor(max_workers=n_chains) as pool:
            outputs = list(pool.map(run_one, chain_rngs))

    files = {}
    for i, rows in enumerate(outputs):
        suffix = "" if n_chains == 1 else f".{i}"
        for table in tables:
            path = out / f"{table.stem}{suffix}.csv"
            _write_table(path, table, rows[table.stem])
            files[table.stem + suffix] = path.name

    elapsed = time.perf_counter() - started
    manifest = {
        "command": "run",
        "package_version": __version__,
        "numpy_version": np.__version__,
        "data_dir": str(data_dir),
        "model": meta["model"],
        "hyper": meta["hyper"],
        **asdict(config),
        "stepsize": config.resolved_stepsizes(model.param_names),
        "burnin": burnin,
        "thin": thin,
        "test_function": args.test_function,
        "chains": n_chains,
        "elapsed_seconds": elapsed,
        "files": files,
    }
    with open(out / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"completed {config.n_iters} iterations x {n_chains} chain(s) in {elapsed:.2f}s -> {out}")
    return 0


# ---------------------------------------------------------------------------
# kl
# ---------------------------------------------------------------------------

def cmd_kl(args) -> int:
    chain_path = Path(args.chain)
    data_dir = Path(args.data)
    meta = _load_meta(data_dir)
    if meta["model"] != "gaussian":
        raise UnsupportedForKL(
            f"KL reporting needs the gaussian model's analytic posterior, got {meta['model']!r}"
        )
    chain = load_csv_columns(chain_path)
    if "iter" not in chain or "theta" not in chain:
        raise CsvFormatError(f"{chain_path}: a chain file needs iter and theta columns")
    theta = chain["theta"] if chain["theta"].ndim == 2 else chain["theta"][:, None]
    draws = theta[chain["iter"] > 0]
    if draws.shape[0] < 2:
        raise DomainError("need at least 2 post-initial chain rows for moment matching")
    fit = moment_match(draws)
    train = load_csv_columns(data_dir / "train.csv")
    posterior = gaussian_posterior(meta["hyper"]["prior_variance"], train["x"])
    kl = kl_diag_gaussian(fit, posterior)
    manifest_path = Path(args.manifest) if args.manifest else chain_path.parent / "manifest.json"
    wall = None
    if manifest_path.exists():
        with open(manifest_path) as handle:
            wall = json.load(handle).get("elapsed_seconds")
    line = f"kl={kl:.8g} n_draws={draws.shape[0]}"
    if wall is not None:
        line += f" wall_clock_seconds={wall:.4g}"
    print(line)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path) -> dict:
    """Map each key of a key = value file to its (line number, value)."""
    entries = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            entries[key.strip().replace("-", "_")] = (lineno, value.strip())
    return entries


def _config_defaults(run_parser, path) -> dict:
    """Run-parser defaults from a key = value file.

    Every key must be the name of a run flag (``n_iters`` or ``n-iters`` for
    ``--n-iters``), and the run parser converts and checks every value just
    as it does the flag, so the file and the command line share one set of
    names, types and choices.  A bad entry is reported by file line, key and
    value.
    """
    entries = _load_config_file(path)
    known = set(vars(run_parser.parse_args([]))) - {"config", "func"}
    defaults = {}
    run_parser.exit_on_error = False  # raise ArgumentError instead of printing usage
    try:
        for key, (lineno, value) in entries.items():
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                parsed = run_parser.parse_args([f"--{key.replace('_', '-')}={value}"])
            except argparse.ArgumentError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad value {value!r} for {key!r}: {exc.message}"
                ) from None
            defaults[key] = getattr(parsed, key)
    finally:
        run_parser.exit_on_error = True
    return defaults


class _StepsizeAction(argparse.Action):
    """Collects repeated ``--stepsize`` entries.  The first flag replaces a
    value taken from the config file instead of adding to it."""

    def __call__(self, parser, namespace, values, option_string=None):
        entries = getattr(namespace, self.dest)
        if entries is None or entries is self.default:
            entries = []
        setattr(namespace, self.dest, [*entries, values])


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    parser = argparse.ArgumentParser(
        prog="gradmc",
        description="Minibatch-gradient MCMC: generate data, run chains, report KL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("model", help=f"one of {sorted(FAMILIES)}")
    gen.add_argument("--n", type=int, required=True, help="training observations")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--n-test", type=int, default=None, help="held-out rows (default n/5)")
    gen.add_argument("--d", type=int, default=None, help="feature/input dimension")
    gen.add_argument("--hidden", type=int, default=None, help="hidden width (bayes_nn)")
    gen.add_argument("--classes", type=int, default=None, help="class count (bayes_nn)")
    gen.add_argument("--prior-variance", type=float, default=None)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run a sampler on a generated dataset")
    run.add_argument("--config", default=None, help="key = value file; flags override it")
    run.add_argument("--data", help="directory produced by gen")
    run.add_argument("--out", help="output directory")
    run.add_argument("--algorithm", choices=ALGORITHMS)
    run.add_argument(
        "--stepsize",
        action=_StepsizeAction,
        help="scalar, or repeated name=value entries for per-parameter stepsizes",
    )
    # Sampler settings default to None here and to SamplerConfig's defaults in cmd_run.
    run.add_argument("--minibatch-size", type=float,
                     help="proportion below 1, absolute count at 1 or above")
    run.add_argument("--n-iters", type=int)
    run.add_argument("--burnin", type=int, default=None,
                     help="iterations discarded at write time (default 10000, 0 for cv kernels)")
    run.add_argument("--seed", type=int)
    run.add_argument("--friction", type=float, help="sghmc momentum decay")
    run.add_argument("--diffusion", type=float, help="sgnht noise scale")
    run.add_argument("--trajectory-length", type=int, help="sghmc inner updates")
    run.add_argument("--opt-stepsize", type=float, help="mode-search stepsize (cv)")
    run.add_argument("--opt-iters", type=int, help="mode-search iterations (cv)")
    run.add_argument("--test-function", choices=TEST_FUNCTIONS, default="full-chain")
    run.add_argument("--thin", type=int, default=10)
    run.add_argument("--chains", type=int, default=1, help="independent parallel chains")
    run.set_defaults(func=cmd_run)

    kl = sub.add_parser("kl", help="KL of a gaussian-model chain vs the analytic posterior")
    kl.add_argument("--chain", required=True, help="chain CSV from run")
    kl.add_argument("--data", required=True, help="directory produced by gen")
    kl.add_argument("--manifest", default=None, help="manifest path (default: next to chain)")
    kl.set_defaults(func=cmd_kl)
    return parser, run


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, run_parser = build_parser()

    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # A config file provides defaults; explicit flags override them.
            run_parser.set_defaults(**_config_defaults(run_parser, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except NumericalDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, CsvFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GradmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
