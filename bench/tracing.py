"""Per-layer trace, recorded by wrapping gradmc's public functions from outside.

``Tracer.install()`` replaces each traced function where the library looks it
up (``gradmc.samplers`` imports ``sample_minibatch`` by name, for instance) with
a wrapper that records a span: wall time, self time (minus the spans it
caused) and a call count.  Every workload runs one chain on one thread, so a
single record holds every span.  Timed runs never install it.  The module
names are the layers.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter, thread_time

# (name, unit, better) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    ("data.index_draw_us", "us/call", "lower"),
    ("data.gather_us", "us/call", "lower"),
    ("data.gather_bytes", "B/call", "lower"),
    ("data.noise_us", "us/step", "lower"),
    ("data.batch_draws_per_step", "count", "lower"),
    ("data.noise_draws_per_step", "count", "lower"),
    ("graph.grad_us", "us/call", "lower"),
    ("graph.grad_calls_per_step", "count", "lower"),
    ("graph.eval_us", "us/call", "lower"),
    ("samplers.step_us", "us/step", "lower"),
    ("samplers.kernel_self_us", "us/step", "lower"),
    ("samplers.grad_evals_per_step", "count", "lower"),
    ("samplers.find_mode_s", "s", "lower"),
    ("samplers.full_grad_s", "s", "lower"),
    ("models.gen_s", "s", "lower"),
    ("diagnostics.log_loss_us", "us/call", "lower"),
    ("diagnostics.log_loss_calls_per_row", "count", "lower"),
    ("cli.load_csv_s", "s", "lower"),
    ("cli.output_s", "s", "lower"),
    ("cli.chain_parallelism", "ratio", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
)


class _Record:
    def __init__(self):
        self.stack = []  # one [child seconds] cell per open span
        self.in_step = 0
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.step_time = defaultdict(float)  # spans opened inside SamplerHandle.step
        self.step_calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.first = {}
        self.last = {}


class Tracer:
    def __init__(self):
        self._record = _Record()
        self._patches = []

    def _wrap(self, owner, attr, name, enter=None, leave=None):
        """Replace owner.attr by a span named ``name``.

        ``enter(record, args)`` runs before the call and its result is handed
        to ``leave(record, args, result, context)`` after it.
        """
        original = getattr(owner, attr)
        record = self._record

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            context = enter(record, args) if enter else None
            cell = [0.0]
            record.stack.append(cell)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                record.stack.pop()
                record.time[name] += elapsed
                record.self_time[name] += elapsed - cell[0]
                record.calls[name] += 1
                if record.stack:
                    record.stack[-1][0] += elapsed
                if record.in_step and name != "step":
                    record.step_time[name] += elapsed
                    record.step_calls[name] += 1
                record.first.setdefault(name, start)
                record.last[name] = start + elapsed
            if leave:
                leave(record, args, result, context)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        import gradmc.cli
        import gradmc.data
        import gradmc.graph
        import gradmc.models
        import gradmc.samplers

        samplers = gradmc.samplers

        def step_enter(record, args):
            state = args[0].state
            record.in_step += 1
            return state.rng_batch.draw_count, state.rng_noise.draw_count, state.grad_evals

        def step_leave(record, args, result, before):
            state = args[0].state
            record.in_step -= 1
            record.counts["batch_draws"] += state.rng_batch.draw_count - before[0]
            record.counts["noise_draws"] += state.rng_noise.draw_count - before[1]
            record.counts["grad_evals"] += state.grad_evals - before[2]

        def gather_leave(record, args, result, context):
            record.counts["gather_bytes"] += sum(v.nbytes for v in result.views.values())

        def chain_enter(record, args):
            return thread_time()

        def chain_leave(record, args, result, cpu_start):
            record.counts["chain_cpu_s"] += thread_time() - cpu_start

        self._wrap(gradmc.data.Rng, "indices_without_replacement", "index_draw")
        self._wrap(samplers, "sample_minibatch", "sample_minibatch", leave=gather_leave)
        self._wrap(samplers, "standard_normal", "standard_normal")
        self._wrap(gradmc.graph.Graph, "grad", "grad")
        self._wrap(gradmc.graph.Graph, "eval", "eval")
        self._wrap(samplers.SamplerHandle, "step", "step", enter=step_enter, leave=step_leave)
        self._wrap(samplers, "find_mode", "find_mode")
        self._wrap(samplers, "full_log_posterior_grad", "full_grad")
        self._wrap(gradmc.models, "gen_synth", "gen_synth")
        self._wrap(gradmc.cli, "log_loss_multiclass", "log_loss")
        self._wrap(gradmc.cli, "load_csv_columns", "load_csv")
        self._wrap(gradmc.cli, "run_chain", "run_chain", enter=chain_enter, leave=chain_leave)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """The record's totals, as plain JSON-able dicts."""
        record = self._record
        keys = ("time", "self_time", "calls", "step_time", "step_calls", "counts", "first", "last")
        return {key: dict(getattr(record, key)) for key in keys}


def layer_metrics(raw: dict, rows_written: int = 0, main_end: float | None = None) -> dict:
    """Per-layer metrics of one traced round; a layer the round never calls reads 0.

    ``rows_written`` is the number of log-loss rows the CLI wrote;
    ``main_end`` the perf_counter reading when ``gradmc run`` returned.
    """
    time, self_time, calls = raw["time"], raw["self_time"], raw["calls"]
    counts, step_time, step_calls = raw["counts"], raw["step_time"], raw["step_calls"]
    steps = calls.get("step", 0)

    def per_call(name, seconds):
        n = calls.get(name, 0)
        return 1e6 * seconds.get(name, 0.0) / n if n else 0.0

    def per_step(value):
        return value / steps if steps else 0.0

    metrics = {
        "data.index_draw_us": per_call("index_draw", time),
        "data.gather_us": per_call("sample_minibatch", self_time),
        "data.gather_bytes": (counts.get("gather_bytes", 0.0) / calls["sample_minibatch"]
                              if calls.get("sample_minibatch") else 0.0),
        "data.noise_us": 1e6 * per_step(step_time.get("standard_normal", 0.0)),
        "data.batch_draws_per_step": per_step(counts.get("batch_draws", 0.0)),
        "data.noise_draws_per_step": per_step(counts.get("noise_draws", 0.0)),
        "graph.grad_us": per_call("grad", time),
        "graph.grad_calls_per_step": per_step(step_calls.get("grad", 0)),
        "graph.eval_us": per_call("eval", time),
        "samplers.step_us": 1e6 * per_step(time.get("step", 0.0)),
        "samplers.kernel_self_us": 1e6 * per_step(self_time.get("step", 0.0)),
        "samplers.grad_evals_per_step": per_step(counts.get("grad_evals", 0.0)),
        "samplers.find_mode_s": time.get("find_mode", 0.0),
        "samplers.full_grad_s": time.get("full_grad", 0.0),
        "models.gen_s": time.get("gen_synth", 0.0),
        "diagnostics.log_loss_us": per_call("log_loss", time),
        "diagnostics.log_loss_calls_per_row": (calls.get("log_loss", 0) / rows_written
                                               if rows_written else 0.0),
        "cli.load_csv_s": time.get("load_csv", 0.0),
        "cli.output_s": 0.0,
        "cli.chain_parallelism": 0.0,
    }
    if "run_chain" in raw["first"]:
        sampling_start, sampling_end = raw["first"]["run_chain"], raw["last"]["run_chain"]
        metrics["cli.chain_parallelism"] = counts.get("chain_cpu_s", 0.0) / (sampling_end - sampling_start)
        if main_end is not None:
            metrics["cli.output_s"] = main_end - sampling_end
    return metrics
