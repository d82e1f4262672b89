"""tbmpsk benchmark: trials/s, set-up time, CPU and memory of four seeded
Monte Carlo workloads, or, with ``--trace 1``, per-layer spans and counts.

    python3 perfbench/run.py --workload awgn-paper --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Each workload runs in fresh interpreters started from here (``worker.py``),
so that set-up time and peak memory are those of the workload alone.  Every
unit's output is checked against ``references.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(operations: SNR points or sweep rows) and ``metrics``, the end-to-end
metrics of BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``.  Outputs that mismatch the reference make ``correct`` false;
a workload that cannot start (say, with no ``src/tbmpsk`` to import) exits
non-zero without a result.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # fresh interpreters per run whose set-up time is measured
WORKER_TIMEOUT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class WorkerError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, seconds: float, mode: str):
    """Run one worker; return (seconds until it was ready, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("@@ready"):
                ready_s = time.perf_counter() - t0
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None or (mode != "setup" and result is None):
        raise WorkerError(f"worker for {workload} ({mode}) failed with exit code {code}")
    return ready_s, result


def check_units(workload, seed, units, refs) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over the operations of ``units``."""
    attempted = failed = 0
    messages = []
    for u in units:
        verdicts = ([u["error"]] * workload.ops_per_unit if "error" in u else
                    workloads.check_unit(refs, workload, "full", seed, u["k"], u["ops"]))
        attempted += len(verdicts)
        for v in verdicts:
            if v is not None:
                failed += 1
                messages.append(f"unit {u['k']}: {v}")
    return attempted, failed, messages


def trials_per_s(units) -> float:
    """Reported trials over the wall time of the units that produced them."""
    good = [u for u in units if "error" not in u]
    wall = sum(u["wall"] for u in good)
    return sum(u["trials"] for u in good) / wall if wall else 0.0


def cpu_ticks() -> list[int] | None:
    """Machine-wide CPU time counters (Linux /proc/stat), or None."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def machine_record(versions: dict, load_start, ticks_start) -> dict:
    """Where the run ran.  ``steal_frac`` is the share of the machine's CPU
    time its hypervisor gave to other guests while the run ran."""
    ticks = cpu_ticks()
    steal = None
    if ticks and ticks_start and len(ticks) > 7 and sum(ticks) > sum(ticks_start):
        steal = (ticks[7] - ticks_start[7]) / (sum(ticks) - sum(ticks_start))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "steal_frac": steal,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure(workload, seed, seconds, refs) -> dict:
    """Untraced run: end-to-end metrics."""
    setups = [start_worker(workload.name, seed, seconds, "setup")[0]
              for _ in range(SETUPS - 1)]
    ready_s, doc = start_worker(workload.name, seed, seconds, "measure")
    setups.append(ready_s)
    if doc["tracer_imported"]:
        raise WorkerError("the untraced run imported the tracer")
    units = doc["units"]
    attempted, failed, messages = check_units(workload, seed, units, refs)
    good = [u for u in units if "error" not in u]
    trials = sum(u["trials"] for u in good)
    rss = doc["peak_rss_kb"]
    metrics = {
        "trials_per_s": trials_per_s(units),
        "setup_s": statistics.median(setups),
        "cpu_ms_per_trial": sum(u["cpu"] for u in good) * 1e3 / trials if trials else 0.0,
        "peak_rss_mb": max(rss["self"], rss["children"]) / 1024.0,
    }
    detail = {"setups_s": setups, "unit_wall_s": [u["wall"] for u in units],
              "trials": sum(u["trials"] for u in units),
              "failed_frac": failed / attempted if attempted else 1.0}
    return {"attempted": attempted, "failed": failed, "messages": messages,
            "metrics": metrics, "detail": detail, "versions": doc["versions"]}


def trace(workload, seed, refs) -> dict:
    """Traced run: per-layer metrics; outputs must equal the untraced ones."""
    _, doc = start_worker(workload.name, seed, 0.0, "trace")
    untraced, traced = doc["untraced"], doc["traced"]
    attempted, failed, messages = check_units(workload, seed, untraced + traced, refs)
    for a, b in zip(untraced, traced):
        if a["ops"] != b["ops"]:
            failed += workload.ops_per_unit
            messages.append(f"unit {a['k']}: traced output {b['ops']} != untraced {a['ops']}")
    layers = doc["layers"]
    layers["sim.worker_speedup"] = 0.0
    if workload.kind == "sweep":
        first = {u["threads"]: u for u in untraced if u["k"] == 0}
        if len({u.get("csv") for u in untraced + traced if u["k"] == 0}) != 1:
            failed += workload.ops_per_unit
            messages.append("unit 0: sweep CSV differs between 1 and 2 processes")
        layers["sim.worker_speedup"] = first[1]["wall"] / first[2]["wall"]
    own = [i for i, u in enumerate(untraced) if u["threads"] == workload.threads]
    plain = trials_per_s([untraced[i] for i in own])
    traced_rate = trials_per_s([traced[i] for i in own])
    layers["trace.trials_per_s_untraced"] = plain
    layers["trace.trials_per_s_traced"] = traced_rate
    layers["trace.overhead_frac"] = plain / traced_rate - 1.0 if traced_rate else 0.0
    detail = {"span_file": doc["span_file"], "spans": doc["spans"],
              "unit_wall_s": {"untraced": [u["wall"] for u in untraced],
                              "traced": [u["wall"] for u in traced]}}
    return {"attempted": attempted, "failed": failed, "messages": messages,
            "metrics": layers, "detail": detail, "versions": doc["versions"]}


def run_workload(name, seed, seconds, traced, spec, refs) -> dict:
    workload = workloads.WORKLOADS[name]
    load_start, ticks_start = os.getloadavg(), cpu_ticks()
    res = trace(workload, seed, refs) if traced else measure(workload, seed, seconds, refs)
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    missing = {m["name"] for m in listed} ^ set(res["metrics"])
    if missing:
        raise WorkerError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    res["metrics"] = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                      for m in listed}
    res["machine"] = machine_record(res.pop("versions"), load_start, ticks_start)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out = workloads.OUT_DIR / f"result-{name}-seed{seed}-trace{int(traced)}.json"
    with open(out, "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, **res}, fh, indent=1)
        fh.write("\n")
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = load_spec()
    seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
    refs = workloads.load_references()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, seconds, bool(args.trace), spec, refs)
            attempted += res["attempted"]
            failed += res["failed"]
            for msg in res["messages"]:
                print(f"{name}: MISMATCH {msg}", file=sys.stderr)
            print(f"{name}: machine {json.dumps(res['machine'], sort_keys=True)}")
            print(f"{name}: {json.dumps(res['detail'], sort_keys=True)}")
            print(f"{name}: failed_frac {res['failed'] / max(res['attempted'], 1):.4f} "
                  f"fraction ({res['failed']}/{res['attempted']} operations)")
            for metric, m in res["metrics"].items():
                print(f"{name}: {metric} {m['value']:.6g} {m['unit']}")
            metrics = res["metrics"] if len(names) == 1 else {
                **metrics, **{f"{name}.{k}": v for k, v in res["metrics"].items()}}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
