"""Shared, stdlib-only helpers of the benchmark (no ``repro`` import).

Everything here is safe to import from the orchestrator
(:mod:`perfbench.run`), which must start fast and must not pull the
package under test into its own process.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(BENCH_DIR, "references")
C17_DIR = os.path.join(ROOT, "tests", "data")

#: Scratch space for stores, span files and temp files, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: The hold-out seed: it draws its inputs from a reserved part of each
#: workload's input pool that no other seed ever touches, and has its own
#: reference outputs.  Never tune on it; re-check a claimed gain with it.
HOLDOUT_SEED = 7919

#: Input pools: (tuning entries, hold-out entries) per workload.  A seed
#: selects a seeded permutation of its pool, so every request of every
#: seed has a committed reference output, and inputs within a run are
#: distinct: each part holds more entries than a 45 s run makes requests
#: on a fast host (table1 ~3, noise_path ~22, ssta_c17 ~225).
POOLS = {"table1": (12, 2), "noise_path": (32, 16), "ssta_c17": (256, 256)}

#: Workloads run.py accepts.  BENCHMARK.json lists the ones the benchmark
#: measures; ``table1`` and ``noise_path`` are left out there (see README)
#: but stay runnable.
WORKLOADS = ("table1", "noise_path", "ssta_c17", "service")
IN_PROCESS = ("table1", "noise_path", "ssta_c17")

#: Set-up repetitions per run for the in-process workloads (the service
#: sets up once: its warm-up fills the result store, see service_load).
SETUPS = 3


def entry_order(workload: str, seed: int) -> list[int]:
    """Pool entries a run with ``seed`` uses, in request order."""
    n_tune, n_hold = POOLS[workload]
    if seed == HOLDOUT_SEED:
        entries = list(range(n_tune, n_tune + n_hold))
    else:
        entries = list(range(n_tune))
    random.Random(f"{workload}:{seed}").shuffle(entries)
    return entries


def child_env(work_dir: str, **extra: str) -> dict:
    """Environment of a process under test.

    ``REPRO_*`` knobs of the caller are dropped so the workload settings
    are exactly the ones the benchmark passes; temp files go to the
    run's work directory inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, PYTHONUNBUFFERED="1", TMPDIR=work_dir,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.update(extra)
    return env


def make_work_dir(tag: str) -> str:
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only succeeds once no run uses it
    except OSError:
        pass


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def close(got: float, want: float, abs_tol: float, rel_tol: float = 0.0) -> bool:
    """Tolerance compare that treats two NaNs as equal."""
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return math.isclose(got, want, rel_tol=rel_tol, abs_tol=abs_tol)


def load_reference(workload: str) -> dict:
    """``{entry index (str): reference output}`` for a workload's pool."""
    with open(os.path.join(REFERENCES, f"{workload}.json")) as fh:
        return json.load(fh)["entries"]
