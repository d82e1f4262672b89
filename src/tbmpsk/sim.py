"""Monte Carlo engine: per-SNR error-rate points, CSV/manifest persistence,
and the rate-versus-minimum-SNR sweep.

Determinism contract: every trial owns an RNG substream seeded by
(master seed, SNR value bit pattern, trial index), and early stopping is a
pure function of the per-trial outcome sequence in trial order.  Batch
size, thread count, and SNR-grid ordering therefore cannot change any
reported number.
"""

from __future__ import annotations

import json
import numbers
import struct
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, is_dataclass
from datetime import datetime, timezone
from functools import partial
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .bounds import db_to_linear, linear_to_db, min_snr_for_rate, tbm_rate
from .channels import awgn, simo_mac
from .decoders import (SINGLE_USER_DECODERS, bp_budget_rows, check_bp_params, check_cp_bytes,
                       multiuser_decode)
from .modulation import encode_case1, encode_case2, encode_case3, transmit_signal
from .ring_code import CASES, TensorShape, case_matrix as _case_matrix

SCENARIOS = ("awgn", "simo-mac")
CSV_COLUMNS = (
    "scenario", "shape", "M", "case", "decoder", "snr_db",
    "trials", "errors", "metric", "stderr", "seed",
)
SWEEP_COLUMNS = (
    "shape", "M", "case", "rate", "target_per",
    "min_snr_db", "bound_snr_db", "trials", "seed",
)
# Most worker processes a run may ask for; a fixed number rather than the
# host's CPU count, so a manifest recorded on one host replays on any other
MAX_THREADS = 64
# Most batches of trials one part of an SNR point holds: one decoder stream,
# so what a point holds at once does not grow with its trials
PART_BATCHES = 16
# the values each scalar kind admits, and its name in a message
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string"), bool: (bool, "true or false"), dict: (dict, "an object")}


def check_fields(doc, fields, name: str = "config", entry: bool = False) -> None:
    """Raise ValueError, naming the field, unless ``doc`` is of the kind
    ``fields``: a dict of field names to kinds, or a dataclass, whose
    annotations are that dict (an object with exactly those fields, each of
    its kind); ``int``, ``float``, ``str``, ``bool`` or ``dict``; or a list
    or tuple of one kind (``tuple[float, float]`` is a pair).  A bool is
    never a number, a number accepts an int, and numpy numbers and arrays
    pass as numbers and lists.  The doc is only read."""
    label = f"{'an' if name[0] in 'aeiou' else 'a'} {name} entry" if entry else name
    fields = get_type_hints(fields) if is_dataclass(fields) else fields
    if isinstance(fields, dict):
        if not isinstance(doc, dict):
            raise ValueError(f"{label} must be an object, got {doc!r}")
        if missing := sorted(fields.keys() - doc.keys()):
            raise ValueError(f"{label} has no {missing[0]!r} field")
        if unknown := sorted(doc.keys() - fields.keys()):
            raise ValueError(f"{label} has unknown field {unknown[0]!r}")
        for key, kind in fields.items():
            check_fields(doc[key], kind, key)
    elif args := get_args(fields):
        fixed = get_origin(fields) is tuple and args[-1] is not Ellipsis
        if not isinstance(doc, (list, tuple, np.ndarray)) or fixed and len(doc) != len(args):
            raise ValueError(f"{label} must be a list{f' of {len(args)}' if fixed else ''}, "
                             f"got {doc!r}")
        for value, kind in zip(doc, args if fixed else args[:1] * len(doc)):
            check_fields(value, kind, name, True)
    elif isinstance(doc, bool) != (fields is bool) or not isinstance(doc, _KINDS[fields][0]):
        raise ValueError(f"{label} must be {_KINDS[fields][1]}, got {doc!r}")


def check_snrs_db(snrs_db) -> None:
    """Reject SNRs without a finite noise variance 1 / 10^(snr/10): NaN,
    -inf, and finite values low enough that 10^(snr/10) underflows to 0 or
    to a subnormal whose reciprocal overflows.  +inf (zero noise) passes."""
    linear = [db_to_linear(s) for s in snrs_db]
    bad = [s for s, x in zip(snrs_db, linear) if not (x > 0 and 1.0 / x < np.inf)]
    if bad:
        raise ValueError(f"SNR must give a finite noise variance, got {bad} dB")


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign; hashable and picklable so worker processes
    can receive it whole.  Its annotations are the fields of its config
    doc, each value checked by :func:`check_fields`."""

    dims: tuple[int, ...]
    modulation_order: int
    snrs_db: tuple[float, ...]
    trials: int
    seed: int
    case: int = 1
    scenario: str = "awgn"
    decoder: str = "bp"
    num_users: int = 1
    num_antennas: int = 1
    stop_errors: int = 100
    max_iters: int = 50
    damping: float = 0.0
    threads: int = 1
    batch_size: int = 64

    def __post_init__(self):
        check_fields(vars(self), SimConfig)
        object.__setattr__(self, "dims", tuple(int(t) for t in self.dims))
        object.__setattr__(self, "snrs_db", tuple(float(s) for s in self.snrs_db))
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case}")
        if not self.snrs_db:
            raise ValueError("need at least one SNR")
        check_snrs_db(self.snrs_db)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.stop_errors < 0:
            raise ValueError(f"stop_errors must be >= 0, got {self.stop_errors}")
        if self.threads < 1 or self.batch_size < 1:
            raise ValueError("threads and batch_size must be >= 1")
        if self.threads > MAX_THREADS:
            raise ValueError(f"threads must be <= {MAX_THREADS}, got {self.threads}")
        if self.decoder not in SINGLE_USER_DECODERS:
            raise ValueError(
                f"unknown decoder {self.decoder!r}; available: "
                f"{sorted(SINGLE_USER_DECODERS)}"
            )
        check_bp_params(self.max_iters, self.damping)
        if self.scenario == "awgn":
            if self.decoder == "bp" and self.case == 2:
                raise ValueError("case 2 has no factor graph; use the ml decoder")
            if self.num_users != 1 or self.num_antennas != 1:
                raise ValueError("awgn has one user and one antenna")
        else:
            if self.decoder != "bp":
                raise ValueError(f"simo-mac decodes with CP+BP, got decoder {self.decoder!r}")
            if self.case != 1:
                raise ValueError("the non-coherent multi-user scenario requires case 1")
            if self.num_users < 1 or self.num_antennas < 1:
                raise ValueError("num_users and num_antennas must be >= 1")
            # Kruskal's condition with generic k-ranks: below it CP need not
            # identify the users' factors; one user's rank-1 factors always are
            users, bound = self.num_users, 2 * self.num_users + len(self.dims)
            kranks = sum(min(t, users) for t in self.dims) + min(self.num_antennas, users)
            if users > 1 and kranks < bound:
                raise ValueError(
                    f"simo-mac fails Kruskal's condition: generic k-ranks sum to {kranks} "
                    f"< 2 * users + modes = {bound} (users {users}, shape "
                    f"{shape_label(self.dims)}, antennas {self.num_antennas}); CP-ALS "
                    f"cannot identify the users")

    @property
    def shape(self) -> TensorShape:
        return TensorShape(self.dims, self.modulation_order)

    @property
    def units_per_trial(self) -> int:
        """Error-countable units: one block for AWGN, one per user for PUPE."""
        return 1 if self.scenario == "awgn" else self.num_users

    @property
    def decoder_label(self) -> str:
        return self.decoder if self.scenario == "awgn" else "cp-bp"


@dataclass(frozen=True)
class PointRecord:
    """One SNR point: raw counts plus the derived rate estimate."""

    snr_db: float
    trials: int
    errors: int
    value: float
    stderr: float


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    points: tuple[PointRecord, ...]


def _snr_key(snr_db: float) -> int:
    """Bit pattern of the SNR value, used as a substream key; works for any
    float, not just members of some fixed grid."""
    return int.from_bytes(struct.pack("<d", snr_db), "little")


def trial_rng(seed: int, snr_db: float, trial: int) -> np.random.Generator:
    """The trial's private generator; the sole source of randomness for its
    info bits, channel draws, and decomposition restarts."""
    return np.random.default_rng([seed, _snr_key(snr_db), trial])


def _encode_batch(info: np.ndarray, shape: TensorShape, case: int) -> np.ndarray:
    g = _case_matrix(shape, case)
    if case == 1:
        return encode_case1(info, g)
    if case == 3:
        return encode_case3(info, g)
    return encode_case2(info, g)


def _draw_trials(config: SimConfig, snr_db: float, start: int, stop: int):
    """Trials [start, stop), drawn now: each trial's RNG, the (b, num_users,
    K) info words and their (b, num_users, T) transmit signals.  Each RNG
    has drawn its trial's info words; its channel draws come next (AWGN
    draws a chunk's noise in one :func:`awgn` call over these RNGs)."""
    shape = config.shape
    m = shape.modulation_order
    k = shape.info_length(config.case)
    rngs = [trial_rng(config.seed, snr_db, t) for t in range(start, stop)]
    info = np.stack([rng.integers(0, m, (config.num_users, k)) for rng in rngs])
    return rngs, info, transmit_signal(_encode_batch(info, shape, config.case), m)


def missed_users(sent: np.ndarray, decoded: list[np.ndarray | None]) -> int:
    """Unmatched transmitted words under multiset matching (user identities
    are not recovered by an unsourced receiver; duplicates count once each)."""
    want = Counter(tuple(int(v) for v in row) for row in np.atleast_2d(sent))
    got = Counter(tuple(int(v) for v in d) for d in decoded if d is not None)
    matched = sum(min(c, got[w]) for w, c in want.items())
    return int(sum(want.values()) - matched)


def _verdict_rule(config: SimConfig, target: float):
    """``rule(finished, errors)``, over a point's finished trials (in any
    order) and their errors: the point's verdict, PER <= ``target``, once
    no outcome of the other trials can change it, else None.

    ``miss`` is the fewest errors over all n units whose ``errors / n``
    (``run_point``'s expression) exceeds the target.  The point fails once
    its errors reach ``miss``, unless a nonzero ``stop_errors`` is below
    that: the budget then ends it as in ``run_point``.  It passes once its
    errors plus every unit of its unfinished trials stay below ``miss`` and
    the budget.  PER is monotone in the outcomes, so a settled verdict is
    the full run's."""
    per_trial = config.units_per_trial
    n = config.trials * per_trial
    miss = bisect_left(range(n + 1), True, key=lambda e: not e / n <= target)
    cap = min(miss, config.stop_errors or miss)

    def rule(finished: int, errors: int) -> bool | None:
        if cap == miss and errors >= miss:
            return False
        if errors + (config.trials - finished) * per_trial < cap:
            return True
        return None

    return rule


def _collect_outcomes(config: SimConfig, snr_db: float, rule=None) -> np.ndarray | bool:
    """Per-trial error counts in trial order, up to the stop index; or,
    given a ``rule`` (:func:`_verdict_rule`), its verdict as soon as it
    settles.

    ``settle`` records trials as they finish, in any order.  With an error
    budget (``stop_errors`` > 0), the finished trials' prefix, in trial
    order, fixes the stop index once its errors reach the budget, and
    trials drawn past it are discarded.  The rule is read on the point's
    totals before any draw and whenever trials finish.  Either ends the
    decoder call and the point.

    AWGN trials run as parts of at most ``PART_BATCHES`` batches, each one
    decoder stream; a ``simo-mac`` part is one trial.  A point holds one
    part's trials and one count per trial drawn, never storage for all of
    ``config.trials``.  A part's trials are drawn in chunks of at most
    ``batch_size`` trials, and under BP at most as many as fit in its byte
    budget (``bp_budget_rows``), the trials left in the part, and the budget
    less the errors of the finished trials, so the trials drawn always reach
    the stop index.  The decoder reads the chunks and reports decided trials
    to ``settle`` under the stream contract stated above
    ``decoders.SINGLE_USER_DECODERS``.  A chunk's received
    signals are one :func:`awgn` call over its trials' own RNGs, which have
    drawn their info words (:func:`_draw_trials`)."""
    shape = config.shape
    rows = config.batch_size
    if config.scenario == "simo-mac":
        check_cp_bytes(shape, config.num_users, config.num_antennas)
    elif config.decoder == "bp":
        rows = min(rows, bp_budget_rows(shape, config.damping))
    noise_var = 1.0 / db_to_linear(snr_db)
    budget = config.stop_errors
    # -1 until the trial finishes, then its errors, in the narrowest type that holds both
    out_type = np.min_scalar_type(-1 - config.units_per_trial)
    out = np.empty(0, dtype=out_type)
    drawn = finished = errors = 0
    cut = None
    settled = None if rule is None else rule(0, 0)

    def settle(trials, counts: np.ndarray) -> bool:
        nonlocal finished, errors, cut, settled
        out[trials] = counts
        finished += len(counts)
        errors += int(counts.sum())
        if budget and errors >= budget:
            # running errors of the finished prefix: the first unfinished trial ends it
            prefix = np.cumsum(out[: (np.minimum.accumulate(out[:drawn]) >= 0).sum()])
            if (i := int(np.searchsorted(prefix, budget))) < prefix.size:
                cut = i + 1
        if rule is not None:
            settled = rule(finished, errors)
        return cut is not None or settled is not None

    while settled is None and cut is None and drawn < config.trials:
        start = drawn
        part = 1 if config.scenario == "simo-mac" else PART_BATCHES * config.batch_size
        stop = min(start + part, config.trials)
        if stop > out.size:  # so what ``out`` holds and copies is O(trials drawn)
            size = min(max(stop, 2 * out.size), config.trials)
            out = np.concatenate([out, np.full(size - out.size, -1, dtype=out_type)])
        if config.scenario == "simo-mac":
            [rng], [info], [signal] = _draw_trials(config, snr_db, start, stop)
            drawn = stop
            tensor, _ = simo_mac(signal, shape, config.num_antennas, noise_var, rng)
            decoded = multiuser_decode(tensor, config.num_users, noise_var, shape, rng,
                                       max_bp_iters=config.max_iters, damping=config.damping)
            settle([start], np.array([missed_users(info, decoded)]))
        else:
            sent = np.empty((stop - start, shape.info_length(config.case)),
                            dtype=np.min_scalar_type(shape.modulation_order - 1))

            def draw(b: int) -> np.ndarray:
                nonlocal drawn
                rngs, info, signal = _draw_trials(config, snr_db, drawn, drawn + b)
                sent[drawn - start : drawn - start + b] = info[:, 0]
                drawn += b
                return awgn(signal[:, 0], noise_var, rngs)

            def received():  # its frame holds no chunk across a yield
                while (b := min(rows, stop - drawn, budget - errors if budget else rows)) > 0:
                    yield draw(b)

            SINGLE_USER_DECODERS[config.decoder](
                received(), noise_var, shape, config.case, config.max_iters, config.damping,
                lambda trials, decided: settle(start + trials,
                                               (decided != sent[trials]).any(axis=1)))
    return out[:cut] if settled is None else settled


def _record(config: SimConfig, snr_db: float, outcomes: np.ndarray) -> PointRecord:
    trials = int(outcomes.size)
    errors = int(outcomes.sum())
    units = trials * config.units_per_trial
    value = errors / units
    stderr = float(np.sqrt(value * (1.0 - value) / units))
    return PointRecord(float(snr_db), trials, errors, value, stderr)


def run_point(config: SimConfig, snr_db: float) -> PointRecord:
    """Estimate the configured scenario's error metric at one SNR."""
    return _record(config, snr_db, _collect_outcomes(config, snr_db))


def meets_target(config: SimConfig, snr_db: float, target: float) -> bool:
    """``run_point(config, snr_db).value <= target``, found with no more
    trials than settle it (:func:`_verdict_rule`)."""
    got = _collect_outcomes(config, snr_db, _verdict_rule(config, target))
    return got if isinstance(got, bool) else _record(config, snr_db, got).value <= target


def _map_units(fn, threads: int, units) -> list:
    """``[fn(u) for u in units]``, in one pool of min(``threads``, units)
    worker processes when that is more than one.  Each unit is a whole SNR
    point or sweep row, a pure function of its arguments, so the results do
    not depend on ``threads``."""
    units = list(units)
    workers = min(threads, len(units))
    if workers < 2:
        return list(map(fn, units))
    # the module attribute, so that a patched pool is the one that opens
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, units))


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first read (PEP 562): the import
    also loads ``multiprocessing``, ``socket`` and ``subprocess``, which a
    run in one process never uses."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def run(config: SimConfig) -> SimResult:
    """Every SNR point of ``config``, in up to ``config.threads`` processes."""
    return SimResult(config, tuple(_map_units(partial(run_point, config), config.threads,
                                              config.snrs_db)))


# --- sweep -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    config: SimConfig
    rate: float
    target_error: float
    min_snr_db: float | None
    bound_snr_db: float


def min_snr_sweep(
    config: SimConfig,
    target_error: float,
    lo_db: float,
    hi_db: float,
    resolution_db: float = 0.25,
) -> float | None:
    """Smallest grid SNR whose measured error rate meets the target.

    Bisects the [lo_db, hi_db] grid at ``resolution_db`` spacing, assuming
    the error rate is non-increasing in SNR.  Returns None when even the
    top of the bracket misses the target.  Grid point i is lo_db + i *
    resolution_db, the top one capped at hi_db; points are made as the
    bisection reads them, so only about log2 of the grid is ever built, and
    the noise variance, monotone in SNR, is checked at the two ends.  Grid
    points that round to the same float SNR run once, each only until its
    verdict is settled (:func:`meets_target`).  A NaN target raises
    ValueError.
    """
    if np.isnan(target_error):
        raise ValueError("target error must not be NaN")
    if not (np.isfinite(lo_db) and np.isfinite(hi_db)):
        raise ValueError(f"bracket ends must be finite, got {lo_db}, {hi_db}")
    if hi_db <= lo_db:
        raise ValueError("need lo_db < hi_db")
    if not (np.isfinite(resolution_db) and resolution_db > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution_db}")
    steps = np.ceil((hi_db - lo_db) / resolution_db)
    if not np.isfinite(steps):
        raise ValueError(
            f"resolution {resolution_db} gives no finite number of steps over [{lo_db}, {hi_db}]"
        )
    top = int(steps)

    def grid(i: int) -> float:
        return lo_db + i * resolution_db if i < top else min(lo_db + top * resolution_db, hi_db)

    check_snrs_db([grid(0), grid(top)])
    verdicts: dict[int, bool] = {}

    def meets(i: int) -> bool:
        key = _snr_key(grid(i))
        if key not in verdicts:
            verdicts[key] = meets_target(config, grid(i), target_error)
        return verdicts[key]

    if not meets(top):
        return None
    if meets(0):
        return float(grid(0))
    lo_i, hi_i = 0, top
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if meets(mid):
            hi_i = mid
        else:
            lo_i = mid
    return float(grid(hi_i))


def sweep_table(
    configs: list[SimConfig],
    target_error: float,
    lo_db: float,
    hi_db: float,
    resolution_db: float = 0.25,
) -> list[SweepRow]:
    """Rate versus measured minimum SNR for each configuration, with the
    normal-approximation benchmark SNR at the same blocklength and target.

    Every row's rate and bound are computed first, so an invalid target
    fails before any trial runs; the rows' sweeps then run in up to the
    largest ``threads`` of the configurations' processes."""
    if not configs:
        raise ValueError("need at least one configuration")
    rates = [tbm_rate(cfg.shape, cfg.case) for cfg in configs]
    bounds = [linear_to_db(min_snr_for_rate(cfg.shape.blocklength, target_error, rate))
              for cfg, rate in zip(configs, rates)]
    found = _map_units(partial(min_snr_sweep, target_error=target_error, lo_db=lo_db,
                               hi_db=hi_db, resolution_db=resolution_db),
                       max(cfg.threads for cfg in configs), configs)
    return [SweepRow(cfg, rate, target_error, f, b)
            for cfg, rate, f, b in zip(configs, rates, found, bounds)]


# --- persistence -------------------------------------------------------------


def _fmt(value) -> str:
    # plain-float repr (numpy scalars repr differently and are not stable text)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def shape_label(dims: tuple[int, ...]) -> str:
    return "x".join(str(t) for t in dims)


def _csv(columns: tuple[str, ...], rows) -> str:
    """Header plus one line per row; float cells use repr so a rerun is
    byte-comparable."""
    lines = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def result_csv(result: SimResult) -> str:
    """CSV text for a simulation run."""
    cfg = result.config
    return _csv(CSV_COLUMNS, (
        (cfg.scenario, shape_label(cfg.shape.dims), cfg.modulation_order,
         cfg.case, cfg.decoder_label, p.snr_db, p.trials, p.errors,
         p.value, p.stderr, cfg.seed)
        for p in result.points
    ))


def sweep_csv(rows: list[SweepRow]) -> str:
    return _csv(SWEEP_COLUMNS, (
        (shape_label(r.config.shape.dims), r.config.modulation_order, r.config.case,
         r.rate, r.target_error, "" if r.min_snr_db is None else r.min_snr_db,
         r.bound_snr_db, r.config.trials, r.config.seed)
        for r in rows
    ))


def write_manifest(output_path: str, command: str, config_doc: dict, extras: dict | None = None):
    """Sidecar JSON describing how an output file was produced.  The output
    itself must reproduce byte-for-byte; the manifest carries the one
    allowed non-reproducible field (its timestamp).  ``extras`` add
    top-level keys but never replace the five written here, so a replay
    can pass the recorded manifest whole to keep its other keys."""
    doc = {
        **(extras or {}),
        "command": command,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "output": output_path,
        "config": config_doc,
    }
    path = output_path + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
