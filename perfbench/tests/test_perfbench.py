"""Tests of the benchmark itself (not of tbmpsk):

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from worker import import_tbmpsk

TBMPSK = import_tbmpsk()
REFS = workloads.load_references()
SPEC = run.load_spec()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_unit_passes_output_check(name):
    w = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    ops = workloads.run_unit(TBMPSK, w, "tiny", seed, 0)["ops"]
    assert workloads.check_unit(REFS, w, "tiny", seed, 0, ops) == [None] * w.ops_per_unit
    broken = list(ops)
    broken[0] = (broken[0].replace(",4,1,", ",4,2,") if w.kind == "sweep"
                 else [broken[0][0], broken[0][1], broken[0][2] + 1])
    assert workloads.check_unit(REFS, w, "tiny", seed, 0, broken)[0] is not None


def test_sweep_csv_is_the_same_at_one_and_two_processes():
    w = workloads.WORKLOADS["sweep-1proc"]
    one = workloads.run_unit(TBMPSK, w, "tiny", 4, 0, threads=1)
    two = workloads.run_unit(TBMPSK, w, "tiny", 4, 0, threads=2)
    assert one["csv"] == two["csv"]


def test_unrecorded_seed_gets_plausibility_checks():
    w = workloads.WORKLOADS["awgn-422-grid"]
    ops = REFS[w.reference]["full"][str(workloads.DEFAULT_SEED)][0]
    seed = 999
    assert workloads.expected_ops(REFS, w, "full", seed, 0) is None
    assert workloads.check_unit(REFS, w, "full", seed, 0, ops) == [None] * 3
    all_wrong = [[snr, trials, trials] for snr, trials, _ in ops]
    assert all(v is not None for v in workloads.check_unit(REFS, w, "full", seed, 0, all_wrong))

    s = workloads.WORKLOADS["sweep-1proc"]
    rows = REFS[s.reference]["full"][str(workloads.DEFAULT_SEED)][0]
    reseeded = [r.rsplit(",", 1)[0] + f",{workloads.unit_seed(seed, 0)}" for r in rows]
    assert workloads.check_unit(REFS, s, "full", seed, 0, reseeded) == [None, None]
    no_snr = [r.split(",") for r in reseeded]
    no_snr[0][5] = ""
    verdicts = workloads.check_unit(REFS, s, "full", seed, 0, [",".join(c) for c in no_snr])
    assert verdicts[0] is not None and verdicts[1] is None


def _boundaries():
    found = [(m, a, getattr(getattr(TBMPSK, m), a)) for m, a, _, _ in tracer.WRAPPED]
    return found, dict(TBMPSK.decoders.SINGLE_USER_DECODERS)


@pytest.mark.parametrize("name", ["awgn-422-grid", "simo-mac-paper"])
def test_tracer_keeps_counts_and_restores_attributes(name):
    w = workloads.WORKLOADS[name]
    before = _boundaries()
    plain = workloads.run_unit(TBMPSK, w, "tiny", 3, 0)["ops"]
    tr = tracer.Tracer(TBMPSK)
    tr.unit = 0
    with tr.installed():
        traced = workloads.run_unit(TBMPSK, w, "tiny", 3, 0, call=tr.call)["ops"]
    assert traced == plain
    after = _boundaries()
    assert all(x[2] is y[2] for x, y in zip(before[0], after[0]))
    assert before[1] == after[1]
    names = {s[0] for s in tr.spans}
    assert {"sim.run", "sim.run_point", "sim.trial_rng", "decoders.bp_decode_batch"} <= names
    layers = tracer.layer_metrics(tr.spans, {0})
    assert layers["decoders.bp_calls"] > 0 and layers["sim.engine_self_s"] >= 0


def test_tracer_restores_attributes_on_error():
    before = _boundaries()
    awgn = TBMPSK.sim.awgn
    tr = tracer.Tracer(TBMPSK)
    with pytest.raises(KeyError):
        with tr.installed():
            assert TBMPSK.sim.awgn is not awgn
            raise KeyError("boom")
    assert TBMPSK.sim.awgn is awgn
    after = _boundaries()
    assert all(x[2] is y[2] for x, y in zip(before[0], after[0]))
    assert before[1] == after[1]


def test_self_time_subtracts_direct_children():
    spans = [["a", None, 0, None, 0.0, 10.0, None],
             ["b", 0, 0, None, 1.0, 4.0, None],
             ["c", 1, 0, None, 2.0, 3.0, None],
             ["d", 0, 0, None, 5.0, 6.0, None]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _last_json(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "awgn-422-grid",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    doc = _last_json(trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())


def test_fails_without_the_program():
    bare = workloads.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "awgn-422-grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
