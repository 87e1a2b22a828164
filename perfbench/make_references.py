"""Regenerate the committed reference outputs of the input pools.

Run from the repository root, only when a change is *meant* to alter
results (the benchmark's checks compare every request against these)::

    PYTHONPATH=src python perfbench/make_references.py table1 noise_path ssta_c17

Each workload's file holds one output per pool entry, tuning and
hold-out entries alike (see ``POOLS`` and ``HOLDOUT_SEED`` in common.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import POOLS, REFERENCES
from workloads import WORKLOADS


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    os.makedirs(REFERENCES, exist_ok=True)
    for name in args.workloads:
        workload = WORKLOADS[name]()
        workload.build()
        n_tune, n_hold = POOLS[name]
        entries = {}
        t0 = time.perf_counter()
        for entry in range(n_tune + n_hold):
            _, output = workload.request(entry)
            entries[str(entry)] = output
        path = os.path.join(REFERENCES, f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"workload": name, "tuning_entries": n_tune,
                       "holdout_entries": n_hold, "entries": entries},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {n_tune + n_hold} entries in "
              f"{time.perf_counter() - t0:.0f} s -> {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
