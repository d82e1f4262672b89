"""The benchmark's four workloads, each driven through tbmpsk's public API,
and the checks of their outputs against recorded reference counts.

A workload is run as a sequence of *units*: one call into the program with a
fixed configuration.  Unit ``k`` of a run started with ``--seed s`` uses the
master seed ``s * 1000 + k``, so the same benchmark seed always gives the same
inputs and different benchmark seeds give different inputs.

This module imports only the standard library: the benchmark's parent process
uses it to check outputs without importing numpy or tbmpsk, and the worker
passes the imported ``tbmpsk`` package in.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

SWEEP_SHAPES = "4,2,2;4,4,2"
SWEEP_LO_DB, SWEEP_HI_DB = -2.0, 8.0
SWEEP_TARGET = 0.05
# A measured minimum SNR of another seed must lie this close to the
# reference seeds' mean (the grid step is 0.25 dB).
SWEEP_SNR_TOLERANCE_DB = 1.5
# Half-width of the plausibility band for error counts of seeds that have no
# recorded reference, in (over-dispersed) binomial standard deviations.
BAND_SIGMAS = 6.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``trials`` maps a size name to the trials per SNR point (``simulate``)
    or the ``--trials`` budget per sweep row (``sweep``).  ``ops_per_unit``
    is the number of operations one unit produces: SNR points or sweep rows.
    ``trace_units`` is the fixed number of units a traced run times, so its
    counts repeat exactly for a seed.  ``reference`` names the entry of
    ``references.json`` the outputs are checked against; ``reference_units``
    is how many units per reference seed ``record_references.py`` records at
    full size.
    """

    name: str
    kind: str
    reference: str
    trials: dict
    ops_per_unit: int
    trace_units: int
    reference_units: int
    units_per_trial: int = 1
    threads: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("awgn-422-grid", "simulate", "awgn-422-grid", {"full": 512, "tiny": 16}, 3,
                 trace_units=4, reference_units=48),
        Workload("awgn-paper", "simulate", "awgn-paper", {"full": 32, "tiny": 2}, 1,
                 trace_units=1, reference_units=4),
        Workload("simo-mac-paper", "simulate", "simo-mac-paper", {"full": 4, "tiny": 1}, 1,
                 trace_units=4, reference_units=32, units_per_trial=5),
        # the sweep's CSV does not depend on the process count, so both
        # sweep workloads share one reference
        Workload("sweep-1proc", "sweep", "sweep", {"full": 400, "tiny": 24}, 2,
                 trace_units=1, reference_units=12, threads=1),
        Workload("sweep-2proc", "sweep", "sweep", {"full": 400, "tiny": 24}, 2,
                 trace_units=1, reference_units=12, threads=2),
    )
}


def unit_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def sim_config(tbmpsk, name: str, trials: int, seed: int, threads: int = 1):
    """The ``SimConfig`` of one unit of a ``simulate`` workload."""
    common = dict(modulation_order=4, trials=trials, seed=seed, case=1,
                  stop_errors=0, threads=threads)
    if name == "awgn-422-grid":
        return tbmpsk.SimConfig(dims=(4, 2, 2), snrs_db=(0.0, 2.0, 4.0), **common)
    if name == "awgn-paper":
        return tbmpsk.SimConfig(dims=(10, 20, 16), snrs_db=(-14.0,), **common)
    if name == "simo-mac-paper":
        return tbmpsk.SimConfig(dims=(10, 20, 16), snrs_db=(-15.0,), scenario="simo-mac",
                                num_users=5, num_antennas=5, **common)
    raise ValueError(f"{name} is not a simulate workload")


def sweep_argv(trials: int, seed: int, threads: int, out: str) -> list[str]:
    """``tbmpsk sweep`` arguments of one unit of ``sweep-2proc``."""
    return [
        "sweep", "--shapes", SWEEP_SHAPES, "--mods", "4",
        "--target-per", repr(SWEEP_TARGET),
        "--snr-lo", repr(SWEEP_LO_DB), "--snr-hi", repr(SWEEP_HI_DB),
        "--trials", str(trials), "--seed", str(seed), "--threads", str(threads),
        "--out", out,
    ]


def _direct(name, fn, *args):
    return fn(*args)


def run_unit(tbmpsk, workload: Workload, size: str, seed: int, k: int,
             threads: int | None = None, call=_direct) -> dict:
    """Run unit ``k`` and return its output as plain data.

    ``ops`` holds one entry per operation: ``[snr_db, trials, errors]`` for
    an SNR point, or the CSV row text for a sweep row.  ``trials`` is the
    number of trials the output reports.  ``call(span_name, fn, *args)``
    makes the call into the program; the traced run passes one that records
    a span.
    """
    trials = workload.trials[size]
    s = unit_seed(seed, k)
    threads = threads or workload.threads
    if workload.kind == "simulate":
        cfg = sim_config(tbmpsk, workload.name, trials, s, threads)
        result = call("sim.run", tbmpsk.sim.run, cfg)
        ops = [[p.snr_db, p.trials, p.errors] for p in result.points]
        return {"ops": ops, "trials": sum(op[1] for op in ops)}
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR)
    try:
        out = os.path.join(tmp, "sweep.csv")
        code = call("cli.main", tbmpsk.cli.main, sweep_argv(trials, s, threads, out))
        if code != 0:
            raise RuntimeError(f"tbmpsk sweep exited with code {code}")
        with open(out) as fh:
            text = fh.read()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rows = text.splitlines()[1:]
    return {"ops": rows, "csv": text,
            "trials": sum(int(r.split(",")[7]) for r in rows)}


def warm_up(tbmpsk, workload: Workload) -> None:
    """Fill the program's lazy caches (generators, factor graph, BP
    workspace) with a 1-trial run of each configuration the workload uses."""
    if workload.kind == "simulate":
        tbmpsk.sim.run(sim_config(tbmpsk, workload.name, 1, 0))
        return
    for dims in SWEEP_SHAPES.split(";"):
        cfg = tbmpsk.SimConfig(dims=tuple(int(v) for v in dims.split(",")),
                               modulation_order=4, snrs_db=(SWEEP_LO_DB,), trials=1,
                               seed=0, stop_errors=0)
        tbmpsk.sim.run(cfg)


# --- output checks -----------------------------------------------------------


def load_references(path: Path = REFERENCE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_ops(refs: dict, workload: Workload, size: str, seed: int, k: int):
    """Recorded operations of unit ``k``, or None when none were recorded."""
    units = refs.get(workload.reference, {}).get(size, {}).get(str(seed))
    if units is None or k >= len(units):
        return None
    return units[k]


def _pooled_rates(refs: dict, workload: Workload, size: str) -> list[float]:
    """Per-point error rate pooled over every recorded unit."""
    errors = [0] * workload.ops_per_unit
    units = [0] * workload.ops_per_unit
    for per_seed in refs[workload.reference][size].values():
        for ops in per_seed:
            for i, (_, trials, err) in enumerate(ops):
                errors[i] += err
                units[i] += trials * workload.units_per_trial
    return [e / u for e, u in zip(errors, units)]


def _check_point(op, want_snr, trials, rate, units_per_trial) -> str | None:
    snr, got_trials, errors = op
    if snr != want_snr or got_trials != trials:
        return f"point {op}: expected snr {want_snr} and {trials} trials"
    n = trials * units_per_trial
    # errors of one trial's users are correlated: inflate the variance by
    # the users per trial
    band = BAND_SIGMAS * math.sqrt(n * rate * (1 - rate) * units_per_trial) + 3
    if not 0 <= errors <= n or abs(errors - n * rate) > band:
        return f"point {op}: {errors} errors is implausible (rate {rate:.4f}, band {band:.1f})"
    return None


def _check_sweep_row(row: str, refs: list[str], seed: int) -> str | None:
    cells = row.split(",")
    ref_cells = [r.split(",") for r in refs]
    want = ref_cells[0]
    fixed = [0, 1, 2, 3, 4, 6, 7]  # shape, M, case, rate, target, bound, trials
    if len(cells) != len(want) or any(cells[i] != want[i] for i in fixed):
        return f"row {row!r}: fixed columns differ from reference {refs[0]!r}"
    if cells[8] != str(seed):
        return f"row {row!r}: seed column is not {seed}"
    if not cells[5]:
        return f"row {row!r}: no minimum SNR found"
    ref_snrs = [float(c[5]) for c in ref_cells if c[5]]
    centre = sum(ref_snrs) / len(ref_snrs)
    if abs(float(cells[5]) - centre) > SWEEP_SNR_TOLERANCE_DB:
        return f"row {row!r}: minimum SNR is far from the reference mean {centre:.2f} dB"
    return None


def check_unit(refs: dict, workload: Workload, size: str, seed: int, k: int,
               ops: list) -> list[str | None]:
    """One verdict per expected operation: None when it is correct, else why.

    Units with a recorded reference must reproduce it exactly.  Other seeds
    get the checks that hold for every seed: fixed columns exactly, error
    counts and minimum SNRs within a band around the reference seeds.
    """
    n = workload.ops_per_unit
    if len(ops) != n:
        return [f"expected {n} operations, got {len(ops)}"] * n
    want = expected_ops(refs, workload, size, seed, k)
    if want is not None:
        return [None if got == ref else f"got {got!r}, reference {ref!r}"
                for got, ref in zip(ops, want)]
    if workload.kind == "sweep":
        ref_units = [u[0] for u in refs[workload.reference][size].values()]
        return [_check_sweep_row(row, [u[i] for u in ref_units], unit_seed(seed, k))
                for i, row in enumerate(ops)]
    first = next(iter(refs[workload.reference][size].values()))[0]
    rates = _pooled_rates(refs, workload, size)
    return [_check_point(op, ref[0], workload.trials[size], rate, workload.units_per_trial)
            for op, ref, rate in zip(ops, first, rates)]
