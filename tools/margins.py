"""Measure criterion 6's margins over more seed pairs than the committed one.

Criterion 6 (``test_criterion_6_kl_trend_over_dataset_size`` in
``tests/test_acceptance.py``) generates gaussian data with ``--seed G`` at
N = 1e2, 1e3 and 1e4, runs ``sgldcv`` on each with ``--seed R``, and asks
that the three KLs do not increase with N and that the last is below 0.05.
The test runs one pair, (G, R) = (3, 4).  This script runs the same
``gen``/``run``/``kl`` sequence over that pair and 20 more, and prints for
each pair the three KLs, both margins (KL(1e2) - KL(1e3) and
KL(1e3) - KL(1e4); the criterion needs both >= 0) and pass/fail, then the
pass rate:

    PYTHONPATH=src python3 tools/margins.py

It takes about 2 s per pair (35 s in all) on one core, and is not a pytest
module.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from gradmc.cli import main as cli_main

COMMITTED = (3, 4)
# 20 more pairs, continuing the committed pattern (G, G + 1).
PAIRS = [COMMITTED] + [(g, g + 1) for g in range(5, 45, 2)]
SIZES = (100, 1_000, 10_000)


def gradmc(args: list[str]) -> str:
    """Run one gradmc command and return what it printed; stop if it fails."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli_main(args)
    if code != 0:
        raise SystemExit(f"gradmc {' '.join(args)} exited with {code}")
    return captured.getvalue()


def criterion_6_kls(gen_seed: int, run_seed: int, work: Path) -> list[float]:
    """The three KLs criterion 6 computes, for one (gen, run) seed pair."""
    kls = []
    for n in SIZES:
        data = work / f"data{n}"
        out = work / f"run{n}"
        gradmc(["gen", "gaussian", "--n", str(n), "--seed", str(gen_seed), "--out", str(data)])
        gradmc([
            "run", "--data", str(data), "--algorithm", "sgldcv",
            "--stepsize", str(0.5 / n), "--opt-stepsize", str(1e-3 / n),
            "--opt-iters", "10000", "--n-iters", "10000", "--burnin", "0",
            "--thin", "1", "--seed", str(run_seed), "--out", str(out),
        ])
        line = gradmc(["kl", "--chain", str(out / "chain.csv"), "--data", str(data)]).strip().splitlines()[-1]
        kls.append(float(line.split()[0].split("=")[1]))
    return kls


def main() -> int:
    print(f"{'gen':>4} {'run':>4}  {'KL(1e2)':>9} {'KL(1e3)':>9} {'KL(1e4)':>9}  "
          f"{'margin 1':>10} {'margin 2':>10}  result")
    passed = 0
    for gen_seed, run_seed in PAIRS:
        with tempfile.TemporaryDirectory() as tmp:
            kls = criterion_6_kls(gen_seed, run_seed, Path(tmp))
        ok = kls[0] >= kls[1] >= kls[2] and kls[2] < 0.05
        passed += ok
        note = "  (committed)" if (gen_seed, run_seed) == COMMITTED else ""
        print(f"{gen_seed:>4} {run_seed:>4}  {kls[0]:9.6f} {kls[1]:9.6f} {kls[2]:9.6f}  "
              f"{kls[0] - kls[1]:+10.2e} {kls[1] - kls[2]:+10.2e}  {'pass' if ok else 'FAIL'}{note}",
              flush=True)
    print(f"pass rate: {passed}/{len(PAIRS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
