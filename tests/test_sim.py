"""Monte Carlo engine: determinism under batching/threading, early-stop
semantics, metric accounting, and persistence formats."""

import gc
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from oracles import awgn_trials_per_trial

import tbmpsk.decoders as decoders
import tbmpsk.sim as sim
from tbmpsk.bounds import db_to_linear, linear_to_db, min_snr_for_rate, tbm_rate
from tbmpsk.channels import awgn
from tbmpsk.modulation import encode, transmit_signal
from tbmpsk.ring_code import TensorShape
from tbmpsk.sim import (
    SimConfig,
    _snr_key,
    min_snr_sweep,
    missed_users,
    result_csv,
    run,
    run_point,
    sweep_csv,
    sweep_table,
    trial_rng,
    write_manifest,
)

BASE = dict(dims=(4, 2, 2), modulation_order=4, snrs_db=(2.0,), trials=60,
            seed=9, case=1, decoder="bp", stop_errors=0)


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools ``sim`` opens, each run in this
    process in place of a real pool."""
    made = []

    class Pool:
        map = staticmethod(map)

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(sim, "ProcessPoolExecutor", Pool)
    return made


class TestConfig:
    def test_round_trip_through_dict(self):
        cfg = SimConfig(**BASE)
        assert SimConfig(**asdict(cfg)) == cfg

    def test_dims_canonical_in_shape(self):
        cfg = SimConfig(**{**BASE, "dims": (2, 4, 2)})
        assert cfg.shape.dims == (4, 2, 2)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            SimConfig(**{**BASE, "scenario": "fading"})

    def test_rejects_bp_on_case2(self):
        with pytest.raises(ValueError):
            SimConfig(**{**BASE, "case": 2})

    def test_rejects_multiuser_case3(self):
        with pytest.raises(ValueError):
            SimConfig(**{**BASE, "scenario": "simo-mac", "case": 3})

    # (dims, users, antennas, generic k-rank sum, 2 * users + modes)
    @pytest.mark.parametrize("dims, users, antennas, kranks, bound", [
        ((4, 2, 2), 3, 1, 8, 9), ((2, 2), 2, 1, 5, 6)])
    def test_simo_mac_refuses_configs_below_kruskal(self, dims, users, antennas, kranks,
                                                    bound):
        with pytest.raises(ValueError, match=f"k-ranks sum to {kranks} < 2 \\* users "
                                             f"\\+ modes = {bound}"):
            SimConfig(**{**BASE, "dims": dims, "scenario": "simo-mac", "num_users": users,
                         "num_antennas": antennas})

    # criterion 10, criterion 11b and simo-mac-paper, the replay fixture and
    # the digest corpus, a sum at the bound (4 + 4 + 2 + 1 = 11), and one
    # user, whose rank-1 factors are always unique
    @pytest.mark.parametrize("dims, users, antennas", [
        ((6, 5, 4), 3, 5), ((10, 20, 16), 1, 5), ((10, 20, 16), 5, 5), ((4, 2, 2), 2, 2),
        ((4, 3, 2), 2, 4), ((4, 4, 2), 4, 1), ((4, 2, 2), 1, 1)])
    def test_simo_mac_accepts_configs_meeting_kruskal(self, dims, users, antennas):
        cfg = SimConfig(**{**BASE, "dims": dims, "scenario": "simo-mac", "num_users": users,
                           "num_antennas": antennas})
        assert cfg.num_users == users

    @pytest.mark.parametrize("field, value", [("num_users", 3), ("num_users", 0),
                                              ("num_antennas", 7), ("num_antennas", 0)])
    def test_awgn_rejects_users_and_antennas_other_than_one(self, field, value):
        with pytest.raises(ValueError, match="awgn"):
            SimConfig(**{**BASE, field: value})

    def test_rejects_empty_snr_list(self):
        with pytest.raises(ValueError, match="at least one SNR"):
            SimConfig(**{**BASE, "snrs_db": ()})

    def test_threads_capped_at_a_fixed_count(self):
        # only builds configs: no worker process starts
        assert SimConfig(**{**BASE, "threads": sim.MAX_THREADS}).threads == sim.MAX_THREADS
        with pytest.raises(ValueError, match="threads"):
            SimConfig(**{**BASE, "threads": sim.MAX_THREADS + 1})

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("trials", True), ("case", 1.0),
                                              ("max_iters", False), ("dims", (4, 2.0, 2)),
                                              ("modulation_order", np.float64(4))])
    def test_rejects_bools_and_non_integers_as_integers(self, field, value):
        with pytest.raises(ValueError, match="must be an integer"):
            SimConfig(**{**BASE, field: value})

    def test_every_integer_field_is_checked(self):
        # read off a valid config's values, not its annotations, so a field
        # the check's type test skips fails here
        cfg = SimConfig(**BASE)
        names = [f for f, v in asdict(cfg).items() if isinstance(v, int)]
        assert len(names) == 10
        for name in names:
            with pytest.raises(ValueError, match="must be an integer"):
                SimConfig(**{**asdict(cfg), name: 2.5})

    @pytest.mark.parametrize("kind, value, ok", [
        (float, 2, True), (float, np.float32(2), True), (float, True, False),
        (int, np.int64(2), True), (int, False, False), (int, 2.0, False),
        (bool, 1, False), (str, b"bp", False), (dict, [], False),
        (tuple[float, float], [1.0, 0.0], True), (tuple[float, float], [1.0], False),
        (list[int], np.array([4, 2]), True), (list[int], "42", False),
    ])
    def test_check_fields_kinds(self, kind, value, ok):
        if ok:
            sim.check_fields({"x": value}, {"x": kind})
        else:
            with pytest.raises(ValueError, match="x"):
                sim.check_fields({"x": value}, {"x": kind})

    @pytest.mark.parametrize("doc", [[], {}, {"x": 1, "y": 2}])
    def test_check_fields_wants_an_object_with_exactly_the_fields(self, doc):
        with pytest.raises(ValueError, match="config"):
            sim.check_fields(doc, {"x": int})

    def test_accepts_integer_snrs(self):
        cfg = SimConfig(**{**BASE, "snrs_db": (2,)})
        assert cfg == SimConfig(**BASE) and cfg.snrs_db == (2.0,)
        assert type(cfg.snrs_db[0]) is float

    def test_accepts_numpy_integers(self):
        cfg = SimConfig(**{**BASE, "dims": np.array([4, 2, 2]), "trials": np.int32(60),
                           "seed": np.uint64(9)})
        assert cfg == SimConfig(**BASE) and cfg.dims == (4, 2, 2)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SimConfig(**{**BASE, "seed": -1})

    @pytest.mark.parametrize("snr_db", [float("nan"), -np.inf])
    def test_rejects_nan_and_minus_inf_snr(self, snr_db):
        with pytest.raises(ValueError):
            SimConfig(**{**BASE, "snrs_db": (2.0, snr_db)})

    def test_rejects_snr_whose_linear_value_underflows(self):
        with pytest.raises(ValueError):
            SimConfig(**{**BASE, "snrs_db": (2.0, -4000.0)})

    @pytest.mark.parametrize("snr_db", [-3083.0, -3200.0])
    def test_rejects_snr_whose_noise_variance_overflows(self, snr_db):
        # a positive but subnormal linear SNR: 1 / 10^(snr/10) is inf
        with pytest.raises(ValueError, match="finite noise variance"):
            SimConfig(**{**BASE, "snrs_db": (2.0, snr_db)})

    def test_snr_whose_linear_value_overflows_is_zero_noise(self):
        huge, inf = (run(SimConfig(**{**BASE, "snrs_db": (s,), "trials": 8})).points[0]
                     for s in (4000.0, np.inf))
        assert (huge.trials, huge.errors) == (inf.trials, inf.errors) == (8, 0)


class TestSubstreams:
    def test_snr_key_distinguishes_values(self):
        keys = {_snr_key(s) for s in (0.0, 0.25, 0.5, 2.0, -2.0, 15.0)}
        assert len(keys) == 6

    def test_trial_rng_reproducible(self):
        a = trial_rng(9, 2.0, 17).integers(0, 1000, 5)
        b = trial_rng(9, 2.0, 17).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_trial_rng_varies_by_index(self):
        a = trial_rng(9, 2.0, 0).integers(0, 1000, 8)
        b = trial_rng(9, 2.0, 1).integers(0, 1000, 8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("n", [0, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("snr_db", [-0.0, 0.0, np.inf, -300.0, 2.0])
    def test_trial_rng_is_numpys_seeding(self, n, snr_db):
        key = int(np.float64(snr_db).view(np.uint64))
        assert _snr_key(snr_db) == key
        for seed, trial in ((n, 3), (3, n), (n, n)):
            want = np.random.default_rng(np.random.SeedSequence([seed, key, trial]))
            assert np.array_equal(trial_rng(seed, snr_db, trial).integers(0, 2**62, 16),
                                  want.integers(0, 2**62, 16))

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (0, -(2**64))])
    def test_negative_seed_or_trial_rejected(self, seed, trial):
        with pytest.raises(ValueError):
            np.random.SeedSequence([seed, 0, trial])
        with pytest.raises(ValueError):
            trial_rng(seed, 0.0, trial)


class TestProducerBits:
    # every chunk the engine feeds its decoder is bit-identical to drawing
    # the trials one at a time through numpy's own seeding
    @pytest.mark.parametrize("dims, m", [((5,), 2), ((3, 2, 2, 2, 2), 3), ((5, 4, 3), 8),
                                         ((5, 4, 3), 16)])
    @pytest.mark.parametrize("snr_db", [-0.0, np.inf, -300.0, 1.5])
    def test_chunks_equal_the_per_trial_route(self, monkeypatch, dims, m, snr_db):
        chunks = []
        monkeypatch.setitem(decoders.SINGLE_USER_DECODERS, "bp",
                            lambda received, *args: chunks.extend(received))
        noise_var = 1.0 / db_to_linear(snr_db)
        for n in (0, 2**32 - 1, 2**32, 2**64 + 5):
            cfg = SimConfig(dims=dims, modulation_order=m, snrs_db=(snr_db,), trials=10, seed=n,
                            batch_size=7, stop_errors=0)
            chunks.clear()
            sim._collect_outcomes(cfg, snr_db)
            info, received = awgn_trials_per_trial(n, snr_db, 0, 10, cfg.shape, 1, noise_var)
            assert [len(c) for c in chunks] == [7, 3]
            assert np.array_equal(np.concatenate(chunks), received)
            # and trials indexed as high as the seed, 2^32 and past it
            far, _ = awgn_trials_per_trial(n, snr_db, n, n + 10, cfg.shape, 1, noise_var)
            assert np.array_equal(sim._draw_trials(cfg, snr_db, n, n + 10)[1][:, 0], far)
        if snr_db == np.inf:
            want = transmit_signal(encode(info, cfg.shape, 1), m)
            assert np.array_equal(received, want)


class TestTrialChunks:
    @pytest.mark.parametrize("dims", [(4, 2, 2), (10, 20, 16)])
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_signals_are_the_encoders(self, dims, case):
        # every CSV number is encoded by the engine's producer, not by
        # modulation.encode, which the acceptance criteria check
        cfg = SimConfig(dims=dims, modulation_order=4, snrs_db=(0.0,), trials=10, seed=5,
                        case=case, decoder="ml" if case == 2 else "bp")
        chunks = [sim._draw_trials(cfg, 0.0, a, b) for a, b in ((0, 4), (4, 8), (8, 10))]
        assert [len(info) for _, info, _ in chunks] == [4, 4, 2]
        for _, info, signal in chunks:
            want = [transmit_signal(encode(u, cfg.shape, case), 4) for u in info[:, 0]]
            assert signal.shape == (len(info), 1, cfg.shape.blocklength)
            assert np.array_equal(signal[:, 0], want)


class TestDeterminism:
    def test_repeat_run_identical(self):
        cfg = SimConfig(**BASE)
        a = result_csv(run(cfg))
        b = result_csv(run(cfg))
        assert a == b

    def test_batch_size_invariance(self):
        p1 = run_point(SimConfig(**{**BASE, "batch_size": 7}), 2.0)
        p2 = run_point(SimConfig(**{**BASE, "batch_size": 32}), 2.0)
        assert p1 == p2

    def test_thread_invariance(self):
        # two SNRs, so two processes run them as separate units
        cfg = SimConfig(**{**BASE, "snrs_db": (0.0, 2.0), "threads": 1})
        p1 = run(cfg).points
        p2 = run(SimConfig(**{**asdict(cfg), "threads": 2, "batch_size": 16})).points
        assert p1 == p2

    def test_one_pool_of_at_most_one_worker_per_unit(self, pools):
        # a run or sweep_table call opens one pool of min(threads, units)
        # workers, and none for a single unit; every result is unchanged
        cfg = SimConfig(**{**BASE, "snrs_db": (0.0, 2.0, 4.0), "trials": 20})
        rows = [cfg, SimConfig(**{**asdict(cfg), "dims": (2, 2)})]
        sweep = (0.1, 0.0, 4.0, 2.0)
        points = run(cfg).points
        one_row, two_rows = (sweep_csv(sweep_table(c, *sweep)) for c in (rows[:1], rows))
        assert pools == []

        def at(threads, config=cfg, **fields):
            return SimConfig(**{**asdict(config), "threads": threads, **fields})

        assert run(at(4)).points == points
        assert pools == [3]
        assert run(at(4, snrs_db=(2.0,))).points == points[1:2]
        assert sweep_csv(sweep_table([at(4)], *sweep)) == one_row
        assert pools == [3]
        assert sweep_csv(sweep_table([at(2, c) for c in rows], *sweep)) == two_rows
        assert pools == [3, 2]

    def test_sweep_pool_is_sized_by_the_largest_threads(self, pools, monkeypatch):
        monkeypatch.setattr(sim, "meets_target", lambda cfg, snr, target: True)
        configs = [SimConfig(**{**BASE, "threads": t}) for t in (1, 3, 2, 1)]
        assert [r.min_snr_db for r in sweep_table(configs, 0.1, 0.0, 4.0)] == [0.0] * 4
        assert pools == [3]

    def test_snr_grid_order_irrelevant(self):
        cfg_a = SimConfig(**{**BASE, "snrs_db": (0.0, 2.0)})
        cfg_b = SimConfig(**{**BASE, "snrs_db": (2.0, 0.0)})
        pts_a = {p.snr_db: p for p in run(cfg_a).points}
        pts_b = {p.snr_db: p for p in run(cfg_b).points}
        assert pts_a == pts_b


class TestEarlyStop:
    def test_stops_at_exact_error_budget(self):
        full = run_point(SimConfig(**{**BASE, "snrs_db": (-2.0,), "trials": 200}), -2.0)
        assert full.errors > 12  # enough activity at this SNR for the test
        stopped = run_point(
            SimConfig(**{**BASE, "snrs_db": (-2.0,), "trials": 200, "stop_errors": 8}), -2.0
        )
        assert stopped.errors == 8
        assert stopped.trials < full.trials

    def test_truncation_is_prefix_of_full_run(self):
        # per-trial substreams make the stopped run a literal prefix
        cfg_full = SimConfig(**{**BASE, "snrs_db": (-2.0,), "trials": 200})
        cfg_stop = SimConfig(**{**BASE, "snrs_db": (-2.0,), "trials": 200, "stop_errors": 8})
        from tbmpsk.sim import _collect_outcomes

        a = _collect_outcomes(cfg_full, -2.0)
        b = _collect_outcomes(cfg_stop, -2.0)
        assert np.array_equal(a[: b.size], b)

    def test_budget_reached_mid_wave(self, monkeypatch):
        kw = {**BASE, "snrs_db": (-2.0,), "trials": 200, "stop_errors": 8}
        full = sim._collect_outcomes(SimConfig(**{**kw, "stop_errors": 0}), -2.0)
        stop = int(np.flatnonzero(np.cumsum(full) >= 8)[0])
        points = set()
        for bs in (1, 7, 32, 64):
            cfg = SimConfig(**{**kw, "batch_size": bs})
            drawn, draw = [], sim.trial_rng
            monkeypatch.setattr(sim, "trial_rng", lambda *a: drawn.append(a) or draw(*a))
            p = run_point(cfg, -2.0)
            monkeypatch.setattr(sim, "trial_rng", draw)
            # one process draws every trial up to the stop index, in order;
            # trials drawn past it are discarded
            assert p.trials == stop + 1
            assert len(drawn) >= p.trials
            assert [t for _, _, t in drawn] == list(range(len(drawn)))
            points.add(p)
            # and two processes, each running one whole point, agree with it
            two = SimConfig(**{**kw, "snrs_db": (-2.0, 0.0), "batch_size": bs, "threads": 2})
            points.add(run(two).points[0])
        assert len(points) == 1

    @pytest.mark.parametrize("snr", [-2.0, 2.0, 4.0])
    def test_a_budget_of_one_draws_no_trial_past_the_stop_index(self, monkeypatch, snr):
        # every chunk holds at most the one error left, so BP holds one trial
        # and the next is drawn only once the last one has left without error
        drawn, draw = [], sim.trial_rng
        monkeypatch.setattr(sim, "trial_rng", lambda *a: drawn.append(a) or draw(*a))
        cfg = SimConfig(**{**BASE, "snrs_db": (snr,), "trials": 200, "stop_errors": 1})
        p = run_point(cfg, snr)
        assert p.errors == 1 and len(drawn) == p.trials

    @pytest.mark.parametrize("decoder, case", [("bp", 1), ("ml", 3)])
    def test_no_chunk_holds_more_trials_than_the_budget(self, monkeypatch, decoder, case):
        sizes, noise = [], sim.awgn
        monkeypatch.setattr(sim, "awgn", lambda signal, *a: sizes.append(len(signal))
                            or noise(signal, *a))
        cfg = SimConfig(**{**BASE, "snrs_db": (-2.0,), "trials": 200, "stop_errors": 8,
                           "decoder": decoder, "case": case})
        assert run_point(cfg, -2.0).errors == 8
        assert sizes and 1 <= min(sizes) and max(sizes) <= 8

    def test_budget_tail_runs_as_few_bp_iterations_as_no_budget(self, monkeypatch):
        # a chunk capped by the errors left, not by the trials in flight,
        # keeps BP's rows full to the stop index: no more than 1.25x the BP
        # loop iterations of the same trials decoded without a budget
        iters, kernel = [], decoders.check_extrinsics
        monkeypatch.setattr(decoders, "check_extrinsics",
                            lambda *a: iters.append(1) or kernel(*a))
        kw = {**BASE, "snrs_db": (2.0,), "trials": 20_000, "seed": 5}
        p = run_point(SimConfig(**{**kw, "stop_errors": 100}), 2.0)
        budgeted = len(iters)
        iters.clear()
        full = run_point(SimConfig(**{**kw, "trials": p.trials}), 2.0)
        assert p.errors == full.errors == 100 and p.trials > 1_000
        assert budgeted <= 1.25 * len(iters)

    def test_simo_mac_decodes_no_trial_past_the_budget(self, monkeypatch):
        kw = dict(dims=(4, 2, 2), modulation_order=4, snrs_db=(-4.0,), trials=40, seed=3,
                  scenario="simo-mac", num_users=2, num_antennas=2)
        full = sim._collect_outcomes(SimConfig(**kw, stop_errors=0), -4.0)
        stop = int(np.flatnonzero(np.cumsum(full) >= 5)[0])
        assert stop < 39
        calls, decode = [], sim.multiuser_decode
        monkeypatch.setattr(sim, "multiuser_decode",
                            lambda *a, **k: calls.append(a) or decode(*a, **k))
        p = run_point(SimConfig(**kw, stop_errors=5), -4.0)
        assert p.trials == stop + 1 == len(calls)
        assert p.errors == int(full[: stop + 1].sum())

    def test_budget_never_reached_runs_all(self):
        p = run_point(SimConfig(**{**BASE, "snrs_db": (20.0,), "stop_errors": 5}), 20.0)
        assert p.trials == 60
        assert p.errors == 0


class TestMemory:
    def test_peak_does_not_grow_with_trials(self):
        # a part holds at most PART_BATCHES batches, and its trials are drawn
        # only as BP has rows for them
        def peak(trials):
            cfg = SimConfig(dims=(4, 4, 2), modulation_order=4, snrs_db=(2.0,), trials=trials,
                            seed=5, stop_errors=0, batch_size=32)
            tracemalloc.start()
            try:
                run_point(cfg, 2.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the warm-up fills the caches, and also the interpreter's free list
        # of 2-tuples: each ``tuple(genexpr)`` of BP's spectrum parts takes
        # a 10-tuple block and frees a 2-tuple one, so that list grows to its
        # cap of 2,000 blocks (about 110 kB) over a process's first few
        # thousand BP iterations, which a 64-trial warm-up does not reach.  A
        # full collection empties those lists too, so one runs before the
        # warm-up and none until the last peak is read: what earlier tests
        # left in the collector's counters then decides no reading
        gc.collect()
        gc.disable()
        try:
            peak(4096)
            assert peak(4096) <= 1.5 * peak(64)
        finally:
            gc.enable()

    @pytest.mark.parametrize("extra", [{}, dict(scenario="simo-mac", num_users=2,
                                                num_antennas=2)])
    def test_a_huge_trial_count_with_a_small_budget_finishes(self, extra):
        # what a point holds grows with the trials drawn, not with ``trials``
        cfg = SimConfig(**{**BASE, **extra, "snrs_db": (-10.0,), "trials": 10**12,
                           "stop_errors": 1})
        tracemalloc.start()
        try:
            p = run_point(cfg, -10.0)
            assert tracemalloc.get_traced_memory()[1] < 2**22
        finally:
            tracemalloc.stop()
        assert p.errors >= 1 and p.trials < 100


class TestByteBudget:
    # (6,5,4) at M = 16 fits 14 trials' BP arrays, 12 when damped
    KW = dict(dims=(6, 5, 4), modulation_order=16, snrs_db=(0.0,), seed=3, stop_errors=0)

    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_bp_holds_budget_rows(self, monkeypatch, damping):
        rows, kernel = [], decoders.check_extrinsics

        def spy(target_f, w, *args):
            rows.append(w[0].shape[2])
            return kernel(target_f, w, *args)

        monkeypatch.setattr(decoders, "check_extrinsics", spy)
        run(SimConfig(**self.KW, trials=64, batch_size=64, max_iters=2, damping=damping))
        budget = decoders.bp_budget_rows(TensorShape((6, 5, 4), 16), damping)
        assert max(rows) == budget == (12 if damping else 14)

    def test_peak_does_not_grow_with_batch_size(self):
        def peak(batch_size):
            cfg = SimConfig(**self.KW, trials=1024, batch_size=batch_size, max_iters=1)
            tracemalloc.start()
            try:
                run(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        gc.collect()  # and no collection until the last peak, as in TestMemory
        gc.disable()
        try:
            peak(64)  # fills the caches
            assert peak(1024) <= 1.1 * peak(64)
        finally:
            gc.enable()

    @pytest.mark.parametrize("dims, trials", [((10, 20, 16), 8), ((6, 5, 4), 32)],
                             ids=["10x20x16", "6x5x4"])
    @pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
    def test_stream_peak_within_the_counted_bytes(self, dims, trials, m):
        # a used-up chunk is dropped as soon as its last trial is admitted, and
        # neither producer holds a chunk across a read, so the stream holds
        # BP's counted arrays, the kept outputs and one chunk in the making:
        # (10,20,16) reads 0.98-1.10 of the count and (6,5,4) 0.98-1.06
        # (1.04-1.25 and 1.06-1.24 while used-up chunks stayed alive).  A full
        # collection empties the free lists, so that no earlier test moves the peak
        cfg = SimConfig(dims=dims, modulation_order=m, snrs_db=(0.0,), trials=trials, seed=1,
                        stop_errors=0, max_iters=2)
        run(cfg)  # fills the caches
        gc.collect()
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = min(trials, decoders.bp_budget_rows(cfg.shape))
        counted = sum(np.prod(s) * np.dtype(t).itemsize
                      for parts in decoders._bp_arrays(cfg.shape, 0.0, rows).values()
                      for s, t in parts)
        assert peak <= 1.1 * counted

    def test_budget_chunks_match_batch_chunks(self):
        cfg = SimConfig(**self.KW, trials=40, batch_size=32)
        budget = decoders.bp_budget_rows(cfg.shape)
        assert budget < cfg.batch_size
        outs = []
        for rows in (budget, cfg.batch_size):
            chunks = [sim._draw_trials(cfg, 0.0, a, min(a + rows, 40)) for a in range(0, 40, rows)]
            received = [awgn(signal[:, 0], 1.0, rngs) for rngs, _, signal in chunks]
            calls = []
            decoders.SINGLE_USER_DECODERS["bp"](iter(received), 1.0, cfg.shape, 1, 50, 0.0,
                                                lambda t, d: calls.append((t, d)))
            trials, decided = (np.concatenate(x) for x in zip(*calls))
            assert np.array_equal(np.sort(trials), range(40))
            outs.append((np.concatenate([info[:, 0] for _, info, _ in chunks]),
                         decided[np.argsort(trials)]))
        (sent_a, dec_a), (sent_b, dec_b) = outs
        assert np.array_equal(sent_a, sent_b) and np.array_equal(dec_a, dec_b)
        assert (dec_a != sent_a).any(axis=1).sum() > 0  # some errors, so decisions matter


class TestMetrics:
    def test_per_accounting(self):
        p = run_point(SimConfig(**BASE), 2.0)
        assert p.value == p.errors / p.trials
        expect_se = np.sqrt(p.value * (1 - p.value) / p.trials)
        assert abs(p.stderr - expect_se) < 1e-15

    def test_missed_users_multiset(self):
        sent = np.array([[0, 1], [2, 3], [0, 1]])
        assert missed_users(sent, [np.array([0, 1]), np.array([2, 3]), np.array([0, 1])]) == 0
        # a duplicate word must be matched twice to count twice
        assert missed_users(sent, [np.array([0, 1]), np.array([2, 3])]) == 1
        assert missed_users(sent, [np.array([0, 1]), None, np.array([9, 9])]) == 2
        assert missed_users(sent, [None, None, None]) == 3

    def test_pupe_uses_user_units(self):
        cfg = SimConfig(dims=(4, 3, 2), modulation_order=4, snrs_db=(15.0,), trials=10,
                        seed=3, scenario="simo-mac", num_users=2, num_antennas=4,
                        stop_errors=0)
        p = run_point(cfg, 15.0)
        assert p.value == p.errors / (10 * 2)


class TestPersistence:
    def test_csv_header_and_rows(self):
        cfg = SimConfig(**{**BASE, "snrs_db": (0.0, 2.0), "trials": 20})
        text = result_csv(run(cfg))
        lines = text.splitlines()
        assert lines[0] == "scenario,shape,M,case,decoder,snr_db,trials,errors,metric,stderr,seed"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == "awgn" and cells[1] == "4x2x2" and cells[4] == "bp"
        float(cells[8]), float(cells[9])  # metric and stderr parse

    def test_manifest_sidecar(self, tmp_path):
        cfg = SimConfig(**{**BASE, "trials": 5})
        out = tmp_path / "r.csv"
        out.write_text(result_csv(run(cfg)))
        mpath = write_manifest(str(out), "simulate", asdict(cfg))
        doc = json.loads(open(mpath).read())
        assert doc["command"] == "simulate"
        assert SimConfig(**doc["config"]) == cfg
        assert doc["output"] == str(out)


class TestSweep:
    def _cfg(self):
        return SimConfig(**{**BASE, "snrs_db": (-2.0, 6.0), "trials": 150,
                            "stop_errors": 0, "batch_size": 75})

    def test_min_snr_on_grid_and_minimal(self):
        cfg = self._cfg()
        target = 0.05
        got = min_snr_sweep(cfg, target, -2.0, 6.0, resolution_db=1.0)
        assert got is not None
        steps = round((got - (-2.0)) / 1.0)
        assert abs(got - (-2.0 + steps * 1.0)) < 1e-12  # lands on the grid
        assert run_point(cfg, got).value <= target
        if got > -2.0:
            assert run_point(cfg, got - 1.0).value > target

    def test_unreachable_target_is_none(self):
        cfg = SimConfig(**{**BASE, "snrs_db": (-12.0, -9.0), "trials": 80})
        assert min_snr_sweep(cfg, 1e-4, -12.0, -9.0, resolution_db=1.0) is None

    @pytest.mark.parametrize("lo_db, hi_db", [(-2.0, np.inf), (-np.inf, 6.0),
                                               (float("nan"), 6.0)])
    def test_rejects_non_finite_bracket(self, lo_db, hi_db):
        with pytest.raises(ValueError):
            min_snr_sweep(self._cfg(), 0.05, lo_db, hi_db)

    @pytest.mark.parametrize("resolution_db", [0.0, -1.0, float("nan"), np.inf])
    def test_rejects_resolution_not_finite_and_positive(self, resolution_db):
        with pytest.raises(ValueError, match="resolution"):
            min_snr_sweep(self._cfg(), 0.05, -2.0, 6.0, resolution_db=resolution_db)

    def test_grid_is_made_as_bisection_reads_it(self, monkeypatch):
        # 4,001 grid points: bisection reads the two ends and 12 more, and only the ends
        # are checked, so no per-point list is ever built
        cfg, checked, read = self._cfg(), [], []
        monkeypatch.setattr(sim, "check_snrs_db", lambda snrs: checked.append(list(snrs)))
        monkeypatch.setattr(sim, "meets_target",
                            lambda cfg, snr, target: read.append(snr) or -snr <= target)
        got = min_snr_sweep(cfg, -1.2345, 0.0, 4.0, resolution_db=0.001)
        assert checked == [[0.0, 4.0]]
        assert len(read) == 14 and got == 0.001 * 1235
        assert read[0] == 4.0 and read[1] == 0.0

    def test_each_snr_runs_once(self, monkeypatch):
        # at 1e-300 dB most grid points round to the same float SNR: the
        # bisection reads about 1,000 points, but only 54 distinct SNRs
        cfg = SimConfig(dims=(2, 2), modulation_order=4, snrs_db=(-10.0, 4.0), trials=4, seed=1)
        ran, run_one = [], sim.meets_target
        monkeypatch.setattr(sim, "meets_target",
                            lambda c, snr, target: ran.append(snr) or run_one(c, snr, target))
        assert min_snr_sweep(cfg, 0.2, -10.0, 4.0, resolution_db=1e-300) == 1.7818584942470963
        assert len(ran) == len(set(ran)) == 54

    def test_top_grid_point_is_capped_at_the_bracket_end(self, monkeypatch):
        monkeypatch.setattr(sim, "meets_target", lambda cfg, snr, target: -snr <= target)
        assert min_snr_sweep(self._cfg(), -6.5, -2.0, 6.5, resolution_db=2.0) == 6.5

    @pytest.mark.parametrize("resolution_db", [5e-324, 1e-310])
    def test_rejects_resolution_without_finite_step_count(self, resolution_db):
        with pytest.raises(ValueError, match="resolution"):
            min_snr_sweep(self._cfg(), 0.05, 0.0, 4.0, resolution_db=resolution_db)

    def test_rejects_grid_whose_linear_value_underflows(self):
        with pytest.raises(ValueError):
            min_snr_sweep(self._cfg(), 0.05, -4000.0, -3990.0, resolution_db=5.0)

    def test_table_bound_column_matches_bounds_module(self):
        cfg = self._cfg()
        rows = sweep_table([cfg], 0.05, -2.0, 6.0, resolution_db=2.0)
        assert len(rows) == 1
        row = rows[0]
        want = linear_to_db(min_snr_for_rate(cfg.shape.blocklength, 0.05,
                                             tbm_rate(cfg.shape, cfg.case)))
        assert abs(row.bound_snr_db - want) < 1e-12
        assert row.rate == tbm_rate(cfg.shape, cfg.case)

    def test_sweep_csv_format(self):
        cfg = self._cfg()
        rows = sweep_table([cfg], 0.05, -2.0, 6.0, resolution_db=2.0)
        lines = sweep_csv(rows).splitlines()
        assert lines[0] == "shape,M,case,rate,target_per,min_snr_db,bound_snr_db,trials,seed"
        assert len(lines) == 2

    def test_table_computes_every_bound_before_any_trial(self, monkeypatch):
        # the second row's bound fails, so the first row's sweep never starts
        drawn, bound = [], sim.min_snr_for_rate
        monkeypatch.setattr(sim, "trial_rng", lambda *key: drawn.append(key))

        def unreachable_at_length_4(blocklength, target, rate):
            if blocklength == 4:
                raise RuntimeError("unreachable")
            return bound(blocklength, target, rate)

        monkeypatch.setattr(sim, "min_snr_for_rate", unreachable_at_length_4)
        configs = [self._cfg(), SimConfig(**{**asdict(self._cfg()), "dims": (2, 2)})]
        with pytest.raises(RuntimeError, match="unreachable"):
            sweep_table(configs, 0.05, -2.0, 6.0, resolution_db=2.0)
        assert not drawn

    def test_table_rejects_empty_config_list(self):
        with pytest.raises(ValueError, match="at least one configuration"):
            sweep_table([], 0.05, -2.0, 6.0)

    def test_rejects_nan_target(self, monkeypatch):
        # PER > nan and PER <= nan are both false, which would return the bracket top
        monkeypatch.setattr(sim, "meets_target", lambda *args: pytest.fail("ran a point"))
        with pytest.raises(ValueError, match="NaN"):
            min_snr_sweep(self._cfg(), float("nan"), -2.0, 6.0)


# (config fields, SNRs from a high PER to none): AWGN on (4,2,2), 40 trials,
# under BP at M = 2 and 4 and ML on case 3, and simo-mac with 2 users
VERDICT_CASES = {
    "bp-m2": (dict(modulation_order=2), (-4.0, -2.0, 0.0)),
    "bp-m4": (dict(modulation_order=4), (-2.0, 0.0, 2.0, 4.0)),
    "ml-case3": (dict(modulation_order=4, decoder="ml", case=3), (0.0, 2.0)),
    "simo-mac": (dict(modulation_order=4, scenario="simo-mac", num_users=2, num_antennas=2,
                      trials=16, seed=3), (2.0,)),
}


class TestVerdict:
    @staticmethod
    def _targets(value):
        # the measured PER and the float just below it straddle the target at
        # every SNR, and test run_point's own expression
        return (-0.5, 0.05, 0.2, 1.0, value, float(np.nextafter(value, -np.inf)))

    @pytest.mark.parametrize("stop_errors", [0, 5, 9, 100])
    def test_rule_thresholds(self, stop_errors):
        # 40 units at target 0.2: 8 errors meet it (8 / 40 == 0.2) and 9 miss;
        # a budget of 5 ends the point before that, so only the run decides
        # whether it fails, and it passes only while no outcome reaches 5
        cfg = SimConfig(**{**BASE, "trials": 40, "stop_errors": stop_errors})
        rule = sim._verdict_rule(cfg, 0.2)
        cap = 5 if stop_errors == 5 else 9
        assert rule(20, 9) is (None if stop_errors == 5 else False)
        assert rule(20, 8) is None
        assert rule(40 - cap + 1, 0) is True and rule(40 - cap, 0) is None
        assert rule(40, cap - 1) is True
        assert sim._verdict_rule(cfg, float("nan"))(0, 0) is False
        assert sim._verdict_rule(cfg, 1.0)(0, 0) is (True if stop_errors in (0, 100) else None)

    @pytest.mark.parametrize("name, threads, batch_size", [
        ("bp-m2", 1, 1), ("bp-m4", 1, 1), ("ml-case3", 1, 1), ("simo-mac", 1, 1),
        ("bp-m4", 1, 64), ("bp-m4", 2, 4), ("ml-case3", 2, 4),
    ])
    @pytest.mark.parametrize("stop_errors", [0, 5, 100])
    def test_verdict_is_run_points(self, name, threads, batch_size, stop_errors):
        # 40 trials at batch size 1 run as 3 parts of PART_BATCHES trials in one
        # process; a budget of 5 lies below the errors most targets allow.  The
        # values come from run, which at 2 threads runs the SNRs in a pool, and
        # each verdict from meets_target in this process
        fields, snrs = VERDICT_CASES[name]
        cfg = SimConfig(**{**BASE, "trials": 40, **fields, "snrs_db": snrs,
                           "threads": threads, "batch_size": batch_size,
                           "stop_errors": stop_errors})
        for snr, point in zip(snrs, run(cfg).points):
            value = point.value
            for target in self._targets(value):
                assert sim.meets_target(cfg, snr, target) is (value <= target), (snr, target)

    @pytest.mark.parametrize("snr, target, want", [(-2.0, 0.05, False), (20.0, 0.2, True),
                                                   (2.0, -0.5, False), (2.0, 1.0, True)])
    def test_a_settled_point_stops_drawing_and_decoding(self, monkeypatch, snr, target, want):
        cfg = SimConfig(**{**BASE, "snrs_db": (snr,), "batch_size": 8})
        draws, iters, settled_at = [], [], []
        draw, kernel, make_rule = sim.trial_rng, decoders.check_extrinsics, sim._verdict_rule
        monkeypatch.setattr(sim, "trial_rng", lambda *a: draws.append(a) or draw(*a))
        monkeypatch.setattr(decoders, "check_extrinsics",
                            lambda *a: iters.append(1) or kernel(*a))

        def spied_rule(config, target):
            rule = make_rule(config, target)

            def spy(finished, errors):
                verdict = rule(finished, errors)
                if verdict is not None and not settled_at:
                    settled_at.append(len(iters))
                return verdict

            return spy

        monkeypatch.setattr(sim, "_verdict_rule", spied_rule)
        run_point(cfg, snr)
        full_draws, full_iters = len(draws), len(iters)
        draws.clear()
        iters.clear()
        assert sim.meets_target(cfg, snr, target) is want
        assert len(draws) < full_draws and len(iters) < full_iters
        # BP ends in the iteration whose leaving trials settle the verdict
        assert settled_at == [len(iters)]
        if not 0 <= target < 1:  # the verdict is settled before any trial
            assert draws == [] and iters == []
