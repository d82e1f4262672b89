"""Record the reference outputs that ``run.py`` checks every unit against.

    python3 perfbench/record_references.py [--workload NAME ...]

For the default and the held-out seed, runs each workload's first
``reference_units`` units at full size and two units at the ``tiny`` size
the tests use, and writes their operations to ``references.json``.  The
recorded file is the contract later versions of tbmpsk are held to: re-record
only when an output is meant to change, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads
from worker import import_tbmpsk

TINY_UNITS = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=sorted(workloads.WORKLOADS),
                        help="re-record only these (default: all)")
    args = parser.parse_args()
    tbmpsk = import_tbmpsk()
    try:
        refs = workloads.load_references()
    except FileNotFoundError:
        refs = {}
    chosen = [workloads.WORKLOADS[n] for n in args.workload or sorted(workloads.WORKLOADS)]
    # workloads that share a reference (the sweep at 1 and 2 processes) record it once
    for w in {w.reference: w for w in chosen}.values():
        workloads.warm_up(tbmpsk, w)
        entry = {}
        for size, count in (("full", w.reference_units), ("tiny", TINY_UNITS)):
            entry[size] = {}
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                t0 = time.perf_counter()
                entry[size][str(seed)] = [
                    workloads.run_unit(tbmpsk, w, size, seed, k)["ops"] for k in range(count)
                ]
                print(f"{w.reference} {size} seed {seed}: {count} units in "
                      f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
        refs[w.reference] = entry
        with open(workloads.REFERENCE_FILE, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
