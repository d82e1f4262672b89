"""The determinism contract on a committed corpus of ``simulate`` and
``sweep`` runs: each CSV's sha256 equals the recorded one, and the CSV does
not depend on the batch size or the worker count."""

import hashlib
import json
from pathlib import Path

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
