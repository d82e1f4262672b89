"""The determinism contract on a committed corpus of ``simulate`` and
``sweep`` runs: each CSV's sha256 equals the recorded one, the CSV does not
depend on the batch size or the worker count, and, where numpy dispatches
AVX-512 kernels, it does not depend on that dispatch either."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.lib.introspect import opt_func_info

from tbmpsk.cli import main

# check data recorded before the code it guards changed; never re-recorded to
# make a change pass
CORPUS = json.loads((Path(__file__).parent / "digest_corpus.json").read_text())["runs"]

# appended to a run's arguments (the last value of a flag wins); with the
# recorded run at the default batch size 64 they cover batch sizes 1, 7 and
# 64 and 1 and 2 worker processes
VARIANTS = (("--batch-size", "1"), ("--batch-size", "7"), ("--threads", "1"), ("--threads", "2"))


def test_corpus_covers_the_contract():
    flags = [run["argv"] for run in CORPUS]
    assert {a[a.index("--mod") + 1] for a in flags if "--mod" in a} == {"2", "3", "4", "8", "16"}
    assert {a[a.index("--stop-errors") + 1] for a in flags} >= {"0", "1", "5", "30"}
    assert sum(a[0] == "sweep" for a in flags) == 2
    assert sum("simo-mac" in a for a in flags) == 2


def test_csvs_match_recorded_digests_at_every_batch_size_and_thread_count(capsys):
    differ, vary = [], []
    for run in CORPUS:
        texts = []
        for extra in ((), *VARIANTS):
            capsys.readouterr()
            assert main([*run["argv"], *extra]) == 0, run["name"]
            texts.append(capsys.readouterr().out)
        if hashlib.sha256(texts[0].encode()).hexdigest() != run["sha256"]:
            differ.append(run["name"])
        vary += [f"{run['name']} {' '.join(v)}" for v, t in zip(VARIANTS, texts[1:]) if t != texts[0]]
    assert not differ, f"CSV differs from its recorded digest: {differ}"
    assert not vary, f"CSV depends on the batch size or thread count: {vary}"


# what a host without AVX-512 gets: numpy's X86_V3 (AVX2) and baseline kernels
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
# the float64 ufuncs whose kernels round differently under AVX-512 (ROADMAP item 13)
DISPATCHED = "^(exp|log|log2|log10)$"
# runs whose CSV moves without AVX-512: a sweep's bound_snr_db, in its last
# digit, through bounds' np.log2 and np.log10 (ROADMAP item 13(b)); the other
# sweep's bounds happen to round alike
MOVES_WITHOUT_AVX512 = {"sweep-m2-m4-case1-bp-stop5"}

# runs the corpus in one fresh interpreter; prints the dispatch targets of
# DISPATCHED and each run's exit code and CSV digest as JSON
_RUN_CORPUS = """
import contextlib, hashlib, io, json, sys
from numpy.lib.introspect import opt_func_info
from tbmpsk.cli import main
targets = [sig["current"] for sigs in opt_func_info(sys.argv[2], "float64.*").values()
           for sig in sigs.values()]
digests = {}
for run in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(run["argv"])
    digests[run["name"]] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps({"targets": targets, "digests": digests}))
"""


def _targets() -> list[str]:
    """The kernels numpy dispatches for DISPATCHED's float64 loops here."""
    return [sig["current"] for sigs in opt_func_info(DISPATCHED, "float64.*").values()
            for sig in sigs.values()]


def _avx512(targets) -> bool:
    return any(t.startswith(("X86_V4", "AVX512")) for t in targets)


@pytest.fixture(scope="module")
def digests_without_avx512():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _RUN_CORPUS, json.dumps(CORPUS), DISPATCHED],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # the variable took effect: no kernel of DISPATCHED is an AVX-512 one
    assert not _avx512(got["targets"]), got["targets"]
    return got["digests"]


@pytest.mark.skipif(not _avx512(_targets()), reason="numpy dispatches no AVX-512 kernel here")
@pytest.mark.parametrize("run", [
    pytest.param(run, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 13: bounds' log2 and log10 round by SIMD dispatch"))
    if run["name"] in MOVES_WITHOUT_AVX512 else run
    for run in CORPUS], ids=[run["name"] for run in CORPUS])
def test_csv_digest_does_not_depend_on_avx512_dispatch(run, digests_without_avx512):
    assert digests_without_avx512[run["name"]] == [0, run["sha256"]]
