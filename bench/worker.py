"""One benchmark round in a fresh process; ``run.py`` starts it.

    worker.py api '<json: workload, tiny, seed, traced, result>'
        runs one gaussian round through the public API, checks it, and writes
        timing, check failures and (when traced) the raw trace to ``result``.
    worker.py cli <trace.json> <gradmc run arguments...>
        runs ``gradmc run`` in this process under the tracer and writes the
        raw trace to <trace.json>; exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def api_round(job: dict) -> dict:
    import workloads
    from gradmc.errors import GradmcError

    spec = workloads.spec_for(job["workload"], job["tiny"])
    tracer = None
    if job["traced"]:
        import tracing

        tracer = tracing.Tracer().install()
    result = {"attempted": spec.n_iters, "failed": 0, "trace": None}
    try:
        timing, outputs = workloads.gauss_round(spec, job["seed"])
    except GradmcError as exc:
        result.update(failed=result["attempted"], failures=[f"{type(exc).__name__}: {exc}"])
        return result
    finally:
        if tracer is not None:
            result["trace"] = tracer.snapshot()
            tracer.uninstall()
    result["timing"] = timing
    result["failures"] = workloads.gauss_check(spec, outputs)
    return result


def traced_cli(trace_path: str, argv: list[str]) -> int:
    import tracing

    tracer = tracing.Tracer().install()
    from gradmc.cli import main

    try:
        code = main(argv)
    finally:
        main_end = perf_counter()
        with open(trace_path, "w") as handle:
            json.dump({"raw": tracer.snapshot(), "main_end": main_end}, handle)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "api":
        job = json.loads(sys.argv[2])
        result = api_round(job)
        with open(job["result"], "w") as handle:
            json.dump(result, handle)
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown worker mode {sys.argv[1]!r}")
