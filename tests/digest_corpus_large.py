"""The determinism contract on a larger corpus than tier-1 runs: rerun every
``simulate`` and ``sweep`` argument list of ``digest_corpus_large.json`` and
compare the sha256 of each CSV with the recorded one.

    python tests/digest_corpus_large.py

It covers budgeted ``simulate`` on (4,2,2), (3,3) and (4,4,2) at M = 2, 4
and 8, cases 1 and 3, BP and (where the codebook signals fit in 1 MiB) ML,
batch sizes 1, 7 and 64 and stop 0, 1, 5 and 30, with 3 SNRs of 60 trials
each; and nine sweep tables, batch sizes 1, 7 and 64 by stop 0, 5 and 100.
It prints every run whose CSV differs and exits 1 if any does.  Not collected
by pytest (no ``test_`` prefix); it takes about 40 s in one process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tbmpsk.cli import main as tbmpsk_main  # noqa: E402

# check data recorded before the code it guards changed; never re-recorded to
# make a change pass
CORPUS = HERE / "digest_corpus_large.json"


def main() -> int:
    runs = json.loads(CORPUS.read_text())["runs"]
    t0 = time.perf_counter()
    differ = 0
    for run in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tbmpsk_main(run["argv"])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != run["sha256"]:
            differ += 1
            print(f"DIFFERS {run['name']} (exit {code}): {' '.join(run['argv'])}")
    print(f"{len(runs) - differ} of {len(runs)} CSVs match their recorded digests "
          f"({time.perf_counter() - t0:.1f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
