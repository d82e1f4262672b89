"""One workload in a fresh interpreter; started by ``run.py``.

Imports tbmpsk from the checkout's ``src/``, fills its lazy caches with a
1-trial warm-up, prints ``@@ready``, and then (unless ``--mode setup``) runs
units and prints ``@@result <json>``.  Every other line it prints is the
program's own output, which ``run.py`` passes on to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def say(tag: str, doc=None) -> None:
    line = f"@@{tag}" if doc is None else f"@@{tag} {json.dumps(doc)}"
    print(line, flush=True)


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def import_tbmpsk():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tbmpsk
    import tbmpsk.cli

    if not Path(tbmpsk.__file__).resolve().is_relative_to(src):
        raise ImportError(f"tbmpsk was imported from {tbmpsk.__file__}, not from {src}")
    return tbmpsk


def timed_unit(tbmpsk, workload, seed, k, threads=None, call=workloads._direct) -> dict:
    """Run unit ``k`` and time it: wall, and CPU of this process and its
    reaped children."""
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        out = workloads.run_unit(tbmpsk, workload, "full", seed, k, threads, call)
    except Exception:  # one failed unit counts against failed ops; the run goes on
        traceback.print_exc()
        out = {"ops": [], "trials": 0, "error": traceback.format_exc(limit=3)}
    out.update(k=k, wall=time.perf_counter() - t0, cpu=cpu_seconds() - cpu0)
    return out


def run_for(tbmpsk, workload, seed, seconds) -> list[dict]:
    """Units 0, 1, ... until the next unit would end after ``seconds``."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(timed_unit(tbmpsk, workload, seed, len(units)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(units) > seconds:
            return units


def machine_versions(tbmpsk) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tbmpsk": tbmpsk.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
    }


def peak_rss_kb() -> dict:
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def run_traced(tbmpsk, workload, seed, import_s) -> dict:
    """Warm-up under the tracer, then the same units untraced and traced."""
    import tracer as tracing

    tr = tracing.Tracer(tbmpsk)
    tr.unit = "setup"
    t0 = time.perf_counter()
    with tr.installed():
        workloads.warm_up(tbmpsk, workload)
    caches_s = time.perf_counter() - t0
    say("ready")

    # A sweep also runs unit 0 at the other process count: its CSV must not
    # change, the two walls give the worker speed-up, and a 1-process sweep
    # gets its pool metrics from the 2-process run.
    plan = [(k, workload.threads) for k in range(workload.trace_units)]
    if workload.kind == "sweep":
        plan.append((0, 3 - workload.threads))
    # each unit untraced, then traced, so that drift of the machine's speed
    # during the run does not show as tracing overhead
    untraced, traced = [], []
    pool_cpu = 0.0
    for i, (k, threads) in enumerate(plan):
        untraced.append(timed_unit(tbmpsk, workload, seed, k, threads))
        kids0 = children_cpu_seconds()
        tr.unit = i
        with tr.installed():
            traced.append(timed_unit(tbmpsk, workload, seed, k, threads, call=tr.call))
        if threads > 1:
            pool_cpu += children_cpu_seconds() - kids0
    for u, (_, threads) in zip(untraced + traced, plan + plan):
        u["threads"] = threads

    own = {i for i, (_, threads) in enumerate(plan) if threads == workload.threads}
    layers = tracing.layer_metrics(tr.spans, own)
    setup_spans = [s for s in tr.spans if s[2] == "setup"]
    layers["factor_graph.build_graph_s"] = sum(
        s[5] - s[4] for s in setup_spans if s[0] == "factor_graph.build_graph")
    layers["setup.import_s"] = import_s
    layers["setup.caches_s"] = caches_s
    layers["sim.pool_points"] = sum(1 for s in tr.spans if s[0] == "sim.pool")
    pooled = [s for s in tr.spans if s[0] == "sim.run_point" and s[6]["threads"] > 1]
    pool_wall = sum(s[5] - s[4] for s in pooled)
    layers["sim.worker_busy_frac"] = (
        pool_cpu / (pooled[0][6]["threads"] * pool_wall) if pool_wall else 0.0)
    doc = {"untraced": untraced, "traced": traced, "layers": layers}

    workloads.OUT_DIR.mkdir(exist_ok=True)
    span_file = workloads.OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    tr.write(span_file)
    doc["span_file"] = str(span_file.relative_to(ROOT))
    doc["spans"] = len(tr.spans)
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    tbmpsk = import_tbmpsk()
    import_s = time.perf_counter() - t0

    if args.mode == "trace":
        doc = run_traced(tbmpsk, workload, args.seed, import_s)
    else:
        workloads.warm_up(tbmpsk, workload)
        say("ready")
        if args.mode == "setup":
            return 0
        doc = {"units": run_for(tbmpsk, workload, args.seed, args.seconds)}
    doc["peak_rss_kb"] = peak_rss_kb()
    doc["versions"] = machine_versions(tbmpsk)
    doc["tracer_imported"] = "tracer" in sys.modules
    say("result", doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
