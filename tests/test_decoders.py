"""Receiver correctness: FFT check updates vs direct convolution, BP round
trips and batch invariance, the ML oracle, CP-ALS, and the multi-user path."""

import gc
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

import tbmpsk.decoders as decoders
from tbmpsk.channels import awgn, simo_mac
from tbmpsk.decoders import (
    SINGLE_USER_DECODERS,
    CpFactors,
    _codebook,
    _bp_arrays,
    _softmax,
    bp_budget_rows,
    bp_decode_batch,
    channel_pmfs,
    check_cp_bytes,
    check_extrinsics,
    cp_als,
    ml_oracle_decode,
    multiuser_decode,
    normalize_factors,
)
from tbmpsk.factor_graph import build_graph
from tbmpsk.modulation import encode, mls_encode, transmit_signal
from tbmpsk.ring_code import TensorShape

from oracles import (check_update_direct, check_update_fft, normalize_factors_per_user,
                     spectrum_parts)


class TestChannelPmfs:
    def test_rows_normalized(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        p = channel_pmfs(y, 0.5, 4)
        assert p.shape == (20, 4)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    def test_tiny_variance_gives_indicator(self):
        y = transmit_signal(np.array([0, 1, 2, 3]), 4)
        p = channel_pmfs(y, 1e-12, 4)
        assert np.array_equal(np.argmax(p, axis=-1), [0, 1, 2, 3])
        assert np.allclose(np.max(p, axis=-1), 1.0)

    def test_huge_variance_near_uniform(self):
        p = channel_pmfs(np.array([0.3 + 0.1j]), 1e6, 4)
        assert np.allclose(p, 0.25, atol=1e-4)

    def test_batched_shape(self):
        y = np.zeros((3, 7), dtype=complex)
        assert channel_pmfs(y, 1.0, 8).shape == (3, 7, 8)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            channel_pmfs(np.array([1.0 + 0j]), -1e-12, 4)

    def test_rejects_nan_variance(self):
        with pytest.raises(ValueError):
            channel_pmfs(np.array([1.0 + 0j]), float("nan"), 4)

    @pytest.mark.parametrize("noise_var", [1e-9, 0.05, 1.0, 40.0])
    def test_matches_scipy_softmax_reference(self, noise_var):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        for m in (2, 3, 4, 8, 16):
            points = transmit_signal(np.arange(m), m)
            want = softmax(-np.abs(y[..., None] - points) ** 2 / noise_var, axis=-1)
            assert np.array_equal(channel_pmfs(y, noise_var, m), want), m

    def test_zero_variance_gives_nearest_indicator(self):
        # infinite SNR; 0j is equidistant from every point and goes to symbol 0
        y = np.array([0.9 + 0.2j, -0.1 + 1.1j, -1.0 + 0j, 0.2 - 0.9j, 0j])
        p = channel_pmfs(y, 0.0, 4)
        assert np.array_equal(p, np.eye(4)[[0, 1, 2, 3, 0]])

    @pytest.mark.parametrize("noise_var", [0.0, 1.0])
    def test_empty_chunk_returns_at_once(self, noise_var):
        # a chunk of no trials takes the general path to an empty pmf array
        p = channel_pmfs(np.empty((0, 7), dtype=complex), noise_var, 8)
        assert p.shape == (0, 7, 8) and p.dtype == float

    @pytest.mark.parametrize("noise_var", [-1.0, float("nan")])
    def test_empty_chunk_still_checks_the_variance(self, noise_var):
        with pytest.raises(ValueError):
            channel_pmfs(np.empty((0, 7), dtype=complex), noise_var, 8)


class TestSoftmax:
    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e4, 1e300])
    def test_bit_identical_to_scipy(self, scale):
        # BP's shapes: posteriors (B, K, M) and extrinsics (d, B, T_1, ..., T_d, M)
        rng = np.random.default_rng(5)
        for shape in [(4, 5, 4), (3, 2, 4, 2, 2, 4), (1, 7, 8)]:
            x = scale * rng.standard_normal(shape)
            assert np.array_equal(_softmax(x), softmax(x, axis=-1))
        # and BP's planar views of them, (M, B, K) read as (B, K, M) and
        # (d, M, B, T_1, ..., T_d) as (d, B, T_1, ..., T_d, M), against
        # scipy on a contiguous copy
        for m in (2, 3, 4, 8, 16):
            for shape, last in [((m, 4, 5), (1, 2, 0)), ((3, m, 2, 4, 2, 2), (0, 2, 3, 4, 5, 1))]:
                x = (scale * rng.standard_normal(shape)).transpose(last)
                want = softmax(np.ascontiguousarray(x), axis=-1)
                assert np.array_equal(_softmax(x), want)
                assert np.array_equal(_softmax(x, out=x), want)


class TestCheckUpdate:
    def test_worked_binary_example(self):
        out = check_update_fft([np.array([0.9, 0.1]), np.array([0.8, 0.2])])
        assert np.allclose(out, [0.74, 0.26], atol=1e-12)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        for m in (2, 4, 8, 16):
            for _ in range(50):
                pmfs = [rng.dirichlet(np.ones(m)) for _ in range(rng.integers(1, 5))]
                target = rng.dirichlet(np.ones(m)) if rng.random() < 0.5 else None
                a = check_update_fft(pmfs, target)
                b = check_update_direct(pmfs, target)
                assert np.allclose(a, b, atol=1e-12)

    def test_every_participant_matches_direct(self):
        # BP's prefix/suffix products: each output leaves out its own participant
        rng = np.random.default_rng(18)
        for m in (2, 4, 8):
            for n in (2, 3, 5):
                pmfs = [rng.dirichlet(np.ones(m)) for _ in range(n)]
                target = rng.dirichlet(np.ones(m))
                w = np.conj(np.fft.fft(np.stack(pmfs), axis=-1))[:, :, None]  # (n, M, B=1)
                out = check_extrinsics(spectrum_parts(np.fft.fft(target)[:, None], m, 0),
                                       spectrum_parts(w, m), np.empty(w.shape))
                for k in range(n):
                    want = check_update_direct(pmfs[:k] + pmfs[k + 1 :], target)
                    assert np.allclose(out[k, :, 0], want, atol=1e-12)

    def test_single_input_negates(self):
        q = np.array([0.1, 0.2, 0.3, 0.4])
        out = check_update_fft([q])
        # pmf of -v: index k gets q[(-k) mod 4]
        assert np.allclose(out, q[(-np.arange(4)) % 4], atol=1e-12)

    def test_target_only_is_identity(self):
        t = np.array([0.7, 0.1, 0.1, 0.1])
        assert np.allclose(check_update_fft([], t), t, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_update_fft([])


def _bp_one(g, pmfs, **kwargs):
    """Single-trial BP: (decisions, posteriors, iterations, converged) of row 0."""
    return [out[0] for out in bp_decode_batch(g, pmfs[None], **kwargs)]


def _mixed_batch(m=4):
    """(4,2,2), case 1 at mixed noise levels, scaled by the squared symbol
    spacing of M-PSK against 4-PSK: at M = 4 trials settle after 4, 5, 11
    and 25 iterations, and one never settles in 50."""
    sh = TensorShape((4, 2, 2), m)
    rng = np.random.default_rng(0)
    scale = (np.sin(np.pi / m) / np.sin(np.pi / 4)) ** 2
    nvs = [v * scale for v in [0.3, 0.5, 1.0, 1.5, 2.0, 3.0] * 2]
    s = transmit_signal(encode(rng.integers(0, m, (len(nvs), sh.info_length(1))), sh, 1), m)
    pmfs = np.stack([channel_pmfs(awgn(row, v, rng), v, m) for row, v in zip(s, nvs)])
    return build_graph(sh, 1), pmfs


def _assert_rows_decode_alone(g, pmfs, **kwargs):
    batch = bp_decode_batch(g, pmfs, **kwargs)
    for i in range(len(pmfs)):
        for got, one in zip(batch, _bp_one(g, pmfs[i], **kwargs)):
            assert np.array_equal(got[i], one)
    return batch


def _spy_rows(monkeypatch):
    """The trials of every BP iteration, as BP runs them."""
    rows, kernel = [], decoders.check_extrinsics

    def spy(target_f, w, *args):
        rows.append(w[0].shape[2])
        return kernel(target_f, w, *args)

    monkeypatch.setattr(decoders, "check_extrinsics", spy)
    return rows


class TestBpDecode:
    def test_clean_round_trip(self):
        sh = TensorShape((4, 2, 2), 4)
        g = build_graph(sh, 1)
        rng = np.random.default_rng(2)
        for _ in range(25):
            u = rng.integers(0, 4, sh.info_length(1))
            s = transmit_signal(encode(u, sh, 1), 4)
            dec, _, _, conv = _bp_one(g, channel_pmfs(s, 1e-6, 4))
            assert np.array_equal(dec, u)
            assert conv

    def test_case3_round_trip(self):
        sh = TensorShape((4, 2, 2), 4)
        g = build_graph(sh, 3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.integers(0, 4, sh.info_length(3))
            s = transmit_signal(encode(u, sh, 3), 4)
            dec, _, _, _ = _bp_one(g, channel_pmfs(s, 1e-6, 4))
            assert np.array_equal(dec, u)

    def test_posteriors_normalized(self):
        sh = TensorShape((4, 2, 2), 4)
        g = build_graph(sh, 1)
        s = transmit_signal(encode(np.array([1, 2, 3, 0, 1]), sh, 1), 4)
        y = awgn(s, 0.5, np.random.default_rng(4))
        _, post, _, _ = _bp_one(g, channel_pmfs(y, 0.5, 4))
        assert np.allclose(post.sum(axis=-1), 1.0, atol=1e-9)

    def test_batch_matches_single(self):
        sh = TensorShape((4, 2, 2), 4)
        g = build_graph(sh, 1)
        rng = np.random.default_rng(5)
        nv = 0.4
        ys = []
        for _ in range(8):
            u = rng.integers(0, 4, 5)
            ys.append(awgn(transmit_signal(encode(u, sh, 1), 4), nv, rng))
        _assert_rows_decode_alone(g, channel_pmfs(np.stack(ys), nv, 4))

    def test_large_degree_no_underflow(self):
        # (10,20,16) variable nodes aggregate up to 320 messages
        sh = TensorShape((10, 20, 16), 4)
        g = build_graph(sh, 1)
        u = np.zeros(sh.info_length(1), dtype=int)
        s = transmit_signal(encode(u, sh, 1), 4)
        y = awgn(s, 0.3, np.random.default_rng(6))
        _, post, _, _ = _bp_one(g, channel_pmfs(y, 0.3, 4), max_iters=10)
        assert np.isfinite(post).all()
        assert np.allclose(post.sum(axis=-1), 1.0, atol=1e-9)

    def test_damping_validation(self):
        sh = TensorShape((2, 2), 4)
        g = build_graph(sh, 1)
        with pytest.raises(ValueError):
            _bp_one(g, np.full((4, 4), 0.25), damping=1.0)

    def test_observation_shape_validation(self):
        sh = TensorShape((2, 2), 4)
        g = build_graph(sh, 1)
        with pytest.raises(ValueError):
            _bp_one(g, np.full((3, 4), 0.25))


class TestActiveSet:
    def test_settled_trials_leave_the_batch(self, monkeypatch):
        g, pmfs = _mixed_batch()
        rows = _spy_rows(monkeypatch)
        _, _, iters, conv = bp_decode_batch(g, pmfs)
        assert 0 < conv.sum() < len(pmfs) and len(set(iters[conv])) > 2
        assert len(rows) == iters.max()
        # iteration k runs on the trials that had not settled after k - 1
        assert rows == [int((iters > k).sum()) for k in range(len(rows))]

    @pytest.mark.parametrize("kwargs", [{}, {"damping": 0.3}, {"max_iters": 2}])
    def test_mixed_batch_rows_match_single(self, kwargs):
        g, pmfs = _mixed_batch()
        _, _, iters, conv = _assert_rows_decode_alone(g, pmfs, **kwargs)
        if kwargs.get("max_iters", 50) < 3:
            assert not conv.any() and (iters == 2).all()  # a streak of 3 needs 4 iterations
        else:
            assert len(set(iters)) > 2  # rows leave while others stay live

    def test_all_settle_on_the_same_iteration(self):
        sh = TensorShape((4, 2, 2), 4)
        rng = np.random.default_rng(1)
        s = transmit_signal(encode(rng.integers(0, 4, (6, 5)), sh, 1), 4)
        g = build_graph(sh, 1)
        _, _, iters, conv = _assert_rows_decode_alone(g, channel_pmfs(s, 1e-6, 4))
        assert conv.all() and len(set(iters)) == 1

    def test_settles_on_the_last_allowed_iteration(self):
        g, pmfs = _mixed_batch()
        _, _, iters, conv = bp_decode_batch(g, pmfs)
        last = int(iters[conv].max())
        _, _, got, got_conv = _assert_rows_decode_alone(g, pmfs, max_iters=last)
        assert (got == np.minimum(iters, last)).all()
        assert np.array_equal(got_conv, conv & (iters <= last))

    def test_batch_of_one(self):
        g, pmfs = _mixed_batch()
        batch = bp_decode_batch(g, pmfs)
        for i in (0, 8, 10):  # settles after 4 and 25 iterations, never settles
            alone = bp_decode_batch(g, pmfs[i : i + 1])
            for got, one in zip(batch, alone):
                assert one.shape[0] == 1 and np.array_equal(got[i], one[0])


# rows of the uneven chunks that follow the first one of a stream
LATER_ROWS = (4, 0, 7)


def _chunk_rows(first, trials):
    """Rows of a stream of ``trials`` whose first chunk has ``first`` rows,
    the later ones cut from repeats of ``LATER_ROWS``."""
    rows, later = [first], itertools.cycle(LATER_ROWS)
    while sum(rows) < trials:
        rows.append(min(next(later), trials - sum(rows)))
    return rows


def _chunks(pmfs, first=1):
    """``pmfs`` as an iterator of chunks, the first of ``first`` rows."""
    rows = _chunk_rows(first, len(pmfs))
    ends = np.cumsum(rows)
    for a, b in zip(ends - rows, ends):
        yield pmfs[a:b]


class TestRefill:
    # M = 2 and 3 take rfft, M = 8 and 16 the full fft and _sum_last's
    # partial sums: each admits trials into rows at nonzero offsets
    @pytest.mark.parametrize("kwargs", [{}, {"damping": 0.3}, {"max_iters": 2},
                                        {"max_iters": 7},
                                        *(pytest.param({"m": m, "damping": damping},
                                                       id=f"m{m}-damping{damping}")
                                          for m in (2, 3, 8, 16) for damping in (0.0, 0.3))])
    @pytest.mark.parametrize("first", [1, 2, 3, 5, 12])
    def test_stream_matches_whole_batch(self, first, kwargs):
        kwargs = dict(kwargs)
        g, pmfs = _mixed_batch(kwargs.pop("m", 4))
        want = bp_decode_batch(g, pmfs, **kwargs)
        for a, b in zip(bp_decode_batch(g, _chunks(pmfs, first), **kwargs), want):
            assert a.shape == b.shape and np.array_equal(a, b), first

    @pytest.mark.parametrize("first", [1, 3, 5])
    def test_freed_rows_take_pending_trials(self, monkeypatch, first):
        g, pmfs = _mixed_batch()
        _, _, iters, _ = bp_decode_batch(g, pmfs)
        rows, reads = _spy_rows(monkeypatch), []

        def chunk_reads():  # (chunk, iterations run before it was read)
            for i, chunk in enumerate(_chunks(pmfs, first)):
                reads.append((i, len(rows)))
                yield chunk

        bp_decode_batch(g, chunk_reads())
        # BP holds as many trials as the first chunk has: every iteration runs
        # min(first, live + not yet admitted) trials, and a chunk is read when
        # its first trial gets a row
        chunk_rows = _chunk_rows(first, len(pmfs))
        firsts = np.cumsum(chunk_rows) - chunk_rows
        want, want_reads, live, waiting = [], [], [], list(iters)
        while live or waiting:
            while len(live) < first and waiting:
                trial = len(iters) - len(waiting)
                want_reads += [(i, len(want)) for i, a in enumerate(firsts) if a == trial]
                live.append(waiting.pop(0))
            want.append(len(live))
            live = [k - 1 for k in live if k > 1]
        assert rows == want
        assert reads == want_reads and reads[-1][1] > 0

    def test_empty_stream(self):
        g, pmfs = _mixed_batch()
        for dec, post, iters, conv in (bp_decode_batch(g, iter([])),
                                       bp_decode_batch(g, pmfs[:0])):
            assert dec.shape == (0, g.num_vars) and post.shape == (0, g.num_vars, 4)
            assert iters.shape == conv.shape == (0,)

    def test_chunk_of_the_wrong_shape_is_rejected(self):
        g, pmfs = _mixed_batch()
        with pytest.raises(ValueError, match="observation pmfs"):
            bp_decode_batch(g, iter([pmfs[:2], pmfs[:2, :, :3]]))


class TestOnLeave:
    @staticmethod
    def _leaves(monkeypatch, g, pmfs, **kwargs):
        """BP's outputs and every ``on_leave`` call as (iterations run before
        it, trials, decisions)."""
        rows, calls = _spy_rows(monkeypatch), []
        out = bp_decode_batch(g, pmfs, on_leave=lambda t, d: calls.append((len(rows), t, d)),
                              **kwargs)
        return out, calls

    @pytest.mark.parametrize("first", [1, 3, 12])
    def test_each_trial_leaves_once_with_its_decision(self, monkeypatch, first):
        g, pmfs = _mixed_batch()
        want = bp_decode_batch(g, pmfs)
        got, calls = self._leaves(monkeypatch, g, _chunks(pmfs, first))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)  # the callback moves no output bit
        trials = np.concatenate([t for _, t, _ in calls])
        assert sorted(trials) == list(range(len(pmfs)))
        for _, t, d in calls:
            assert np.array_equal(d, want[0][t])
        # one call per iteration that some trials leave, in the order they run
        assert [k for k, _, _ in calls] == sorted({k for k, _, _ in calls})

    def test_called_in_the_iteration_a_trial_leaves(self, monkeypatch):
        g, pmfs = _mixed_batch()
        (_, _, iters, _), calls = self._leaves(monkeypatch, g, pmfs)  # all trials from the start
        for k, t, _ in calls:
            assert (iters[t] == k).all()

    @pytest.mark.parametrize("first", [1, 12])
    def test_a_true_return_ends_the_call(self, monkeypatch, first):
        g, pmfs = _mixed_batch()
        want = bp_decode_batch(g, pmfs)
        rows, calls = _spy_rows(monkeypatch), []

        def leave(trials, decisions):
            calls.append((len(rows), trials))
            return len(calls) == 2

        got = bp_decode_batch(g, _chunks(pmfs, first), on_leave=leave)
        # no iteration after the second leave, and the outputs of the trials
        # that left, in input order
        assert len(calls) == 2 and len(rows) == calls[1][0]
        trials = np.sort(np.concatenate([t for _, t in calls]))
        for a, b in zip(got, want):
            assert np.array_equal(a, b[trials])

    def test_empty_chunks_add_no_trial(self, monkeypatch):
        # empty chunks first, in the middle and last: the same outputs and
        # the same on_leave calls, in the same iterations, as without them
        g, pmfs = _mixed_batch()
        plain = [c for c in _chunks(pmfs, 3) if len(c)]
        padded = [pmfs[:0], pmfs[:0], *plain[:2], pmfs[:0], *plain[2:], pmfs[:0]]
        want, want_calls = self._leaves(monkeypatch, g, iter(plain))
        got, calls = self._leaves(monkeypatch, g, iter(padded))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert len(calls) == len(want_calls)
        for (k, t, d), (wk, wt, wd) in zip(calls, want_calls):
            assert k == wk and np.array_equal(t, wt) and np.array_equal(d, wd)

    @pytest.mark.parametrize("name", sorted(SINGLE_USER_DECODERS))
    def test_registry_entries_report_only_through_on_leave(self, name):
        # on_leave is required and is the one output: the entry returns None,
        # its reports cover each trial once, and a true return at the second
        # call ends the reports there, after the full run's first two
        entry = SINGLE_USER_DECODERS[name]
        assert inspect.signature(entry).parameters["on_leave"].default is inspect.Parameter.empty
        sh = TensorShape((4, 2, 2), 4)
        rng = np.random.default_rng(3)
        y = awgn(transmit_signal(encode(rng.integers(0, 4, (12, 5)), sh, 1), 4), 0.8, rng)

        def reports(stop):
            calls = []
            assert entry(iter([y[:4], y[4:8], y[8:]]), 0.8, sh, 1, 50, 0.0,
                         lambda t, d: calls.append((t, d)) or len(calls) == stop) is None
            return calls

        full, stopped = reports(None), reports(2)
        assert sorted(np.concatenate([t for t, _ in full])) == list(range(12))
        assert len(stopped) == 2
        for (t, d), (wt, wd) in zip(stopped, full):
            assert np.array_equal(t, wt) and np.array_equal(d, wd)

    def test_ml_reports_each_chunk(self):
        sh = TensorShape((4, 2, 2), 4)
        rng = np.random.default_rng(4)
        y = transmit_signal(encode(rng.integers(0, 4, (5, 5)), sh, 1), 4)
        calls = []
        assert SINGLE_USER_DECODERS["ml"](iter([y[:3], y[3:]]), 0.1, sh, 1, 50, 0.0,
                                          lambda t, d: calls.append((t, d))) is None
        assert [list(t) for t, _ in calls] == [[0, 1, 2], [3, 4]]
        assert np.array_equal(np.concatenate([d for _, d in calls]), ml_oracle_decode(y, sh, 1))

    def test_ml_ends_on_a_true_return(self):
        sh = TensorShape((4, 2, 2), 4)
        rng = np.random.default_rng(4)
        y = transmit_signal(encode(rng.integers(0, 4, (5, 5)), sh, 1), 4)
        read = []

        def chunks():
            for c in (y[:3], y[3:]):
                read.append(len(c))
                yield c

        calls = []
        SINGLE_USER_DECODERS["ml"](chunks(), 0.1, sh, 1, 50, 0.0,
                                   lambda t, d: calls.append((t, d)) or True)
        assert read == [3]
        [(trials, decided)] = calls
        assert list(trials) == [0, 1, 2]
        assert np.array_equal(decided, ml_oracle_decode(y[:3], sh, 1))


def _noisy_pmfs(sh, trials, seed=0):
    """Channel pmfs of random case-1 words at noise variances from 0.3 to 3."""
    rng = np.random.default_rng(seed)
    nvs = np.linspace(0.3, 3.0, trials)
    s = transmit_signal(encode(rng.integers(0, sh.modulation_order,
                                            (trials, sh.info_length(1))), sh, 1),
                        sh.modulation_order)
    return np.stack([channel_pmfs(awgn(row, v, rng), v, sh.modulation_order)
                     for row, v in zip(s, nvs)])


class TestByteBudget:
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_counted_bytes_match_traced_growth(self, damping):
        # each extra trial grows the peak by the bytes _bp_arrays counts, up
        # to its few per-trial index and output rows (about 1% here); the
        # smallest counted array, the scratch (1.9% at M = 8), left out of
        # the count would push the growth past 2.5% of it.  M = 4 counts the
        # real planes of its spectra.  One full collection before the warm-up
        # and none until the last peak (see test_sim's TestMemory), so the
        # collector's counters that earlier tests left decide no reading
        def peak(g, pmfs, b):
            tracemalloc.start()
            try:
                bp_decode_batch(g, pmfs[:b], max_iters=2, damping=damping)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        gc.collect()
        gc.disable()
        try:
            for m in (4, 8):
                sh = TensorShape((6, 5, 4), m)
                g = build_graph(sh, 1)
                pmfs = _noisy_pmfs(sh, 12)
                bp_decode_batch(g, pmfs[:1], max_iters=1)
                counted = sum(np.prod(s) * np.dtype(t).itemsize
                              for parts in _bp_arrays(sh, damping, 1).values() for s, t in parts)
                growth = (peak(g, pmfs, 12) - peak(g, pmfs, 4)) / 8
                assert bp_budget_rows(sh, damping) >= 12
                assert counted <= growth <= 1.025 * counted, m
        finally:
            gc.enable()

    @pytest.mark.parametrize("damping", [0.0, 0.3])
    @pytest.mark.parametrize("m", [3, 4, 8, 16])
    def test_counted_bytes_bound_stream_growth(self, m, damping):
        # the same 36 trials as chunks of 12 and of 4 rows: the kept outputs
        # are equal, so the peaks differ by 8 rows of working arrays and the
        # transients of admitting trials and iterating.  M = 2 stays out: at
        # capacities 4 and 12 numpy's iterator buffers for ufuncs on strided
        # views still grow with the rows there (up to 8,192 elements an
        # operand), 1.03 of the count per row on both paths.  A full collection
        # empties the interpreter's free lists first (see gc.collect): what
        # earlier code left in them would otherwise serve some of a run's
        # tuples untraced, more of them at 4 rows, whose run iterates more,
        # and move the growth by up to 1% with the tests that ran before
        def peak(g, pmfs, rows):
            gc.collect()
            tracemalloc.start()
            try:
                bp_decode_batch(g, iter([pmfs[a : a + rows] for a in range(0, 36, rows)]),
                                max_iters=2, damping=damping)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sh = TensorShape((6, 5, 4), m)
        g = build_graph(sh, 1)
        pmfs = _noisy_pmfs(sh, 36)
        bp_decode_batch(g, pmfs[:1], max_iters=1)
        counted = sum(np.prod(s) * np.dtype(t).itemsize
                      for parts in _bp_arrays(sh, damping, 1).values() for s, t in parts)
        growth = (peak(g, pmfs, 12) - peak(g, pmfs, 4)) / 8
        assert bp_budget_rows(sh, damping) >= 12
        assert growth <= 1.01 * counted, m

    @pytest.mark.parametrize("kwargs", [{}, {"damping": 0.3, "max_iters": 7}])
    def test_capacity_above_the_budget_changes_no_output(self, kwargs):
        # a first chunk of 1 row holds 1 trial; one past the budget, and the
        # whole array, hold the budget's rows
        sh = TensorShape((6, 5, 4), 16)
        g = build_graph(sh, 1)
        pmfs = _noisy_pmfs(sh, 20)
        budget = bp_budget_rows(sh, kwargs.get("damping", 0.0))
        assert budget < 19
        alone = bp_decode_batch(g, _chunks(pmfs), **kwargs)
        for got in (bp_decode_batch(g, _chunks(pmfs, budget + 1), **kwargs),
                    bp_decode_batch(g, pmfs, **kwargs)):
            for a, b in zip(got, alone):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("first", [1, 2])
    def test_first_chunk_past_the_budget_holds_the_budget(self, monkeypatch, first):
        sh = TensorShape((6, 5, 4), 16)
        pmfs = _noisy_pmfs(sh, 20)
        budget = bp_budget_rows(sh)
        rows = _spy_rows(monkeypatch)
        bp_decode_batch(build_graph(sh, 1), _chunks(pmfs, budget + first), max_iters=2)
        assert rows[0] == max(rows) == budget

    def test_multiuser_decode_holds_budget_rows(self, monkeypatch):
        # the paper's shape fits 3 trials' BP arrays; 4 users all decodable
        rng = np.random.default_rng(3)
        sh = TensorShape((10, 20, 16), 4)
        u = rng.integers(0, 4, (4, sh.info_length(1)))
        nv = 10 ** (-5 / 10)
        tensor, _ = simo_mac(transmit_signal(encode(u, sh, 1), 4), sh, 4, nv, rng)
        rows = _spy_rows(monkeypatch)
        decoded = multiuser_decode(tensor, 4, nv, sh, rng, max_bp_iters=2)
        assert all(d is not None for d in decoded)
        assert max(rows) == bp_budget_rows(sh) == 3


class TestMlOracle:
    def test_clean_exhaustive(self):
        sh = TensorShape((2, 2), 4)
        for u0 in range(4):
            for u1 in range(4):
                u = np.array([u0, u1])
                s = transmit_signal(encode(u, sh, 1), 4)
                assert np.array_equal(ml_oracle_decode(s, sh, 1), u)

    def test_case2_returns_codeword_equivalent(self):
        # case 2 is many-to-one; the oracle must land on the same codeword
        sh = TensorShape((2, 2), 2)
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = rng.integers(0, 2, 4)
            s = transmit_signal(encode(u, sh, 2), 2)
            got = ml_oracle_decode(s, sh, 2)
            assert np.array_equal(encode(got, sh, 2), encode(u, sh, 2))

    def test_enumeration_guard(self):
        with pytest.raises(RuntimeError):
            ml_oracle_decode(np.zeros(3200, dtype=complex), TensorShape((10, 20, 16), 4), 1)

    def test_guard_counts_signal_bytes(self):
        # 4^10 words pass a 2^20-word limit, but their signals take 16 GiB
        sh = TensorShape((2,) * 10, 4)
        with pytest.raises(RuntimeError):
            ml_oracle_decode(np.zeros(sh.blocklength, dtype=complex), sh, 1)

    def test_codebook_peak_close_to_signal_bytes(self):
        # 4^9 words of length 60: 240 MiB of signals; the guard counts only those
        sh = TensorShape((5, 4, 3), 4)
        tracemalloc.start()
        try:
            words, signals = _codebook.__wrapped__(sh, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert signals.shape == (4**9, 60)
        assert peak <= 1.25 * signals.nbytes

    def test_cache_holds_one_codebook(self):
        # a run decodes one (shape, case); the next one's codebook replaces it
        shapes = [TensorShape((4, 4, 2), 4), TensorShape((5, 3, 2), 4)]
        _codebook.cache_clear()
        tracemalloc.start()
        try:
            for sh in shapes:
                ml_oracle_decode(np.ones(sh.blocklength, dtype=complex), sh, 1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(_codebook.__wrapped__(sh, 1)[1].nbytes for sh in shapes)
        assert held < 1.5 * largest

    def test_scoring_does_not_copy_the_codebook(self):
        # 4^7 words of length 32: 8 MiB of signals; a batch-1 call needs only
        # its (1, 4^7) scores
        sh = TensorShape((4, 4, 2), 4)
        _, signals = _codebook(sh, 1)
        y = np.ones((1, sh.blocklength), dtype=complex)
        ml_oracle_decode(y, sh, 1)
        tracemalloc.start()
        try:
            ml_oracle_decode(y, sh, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * signals.nbytes

    def test_scoring_peak_well_below_the_score_matrix(self):
        # a batch of 32 against 4^7 words: a (32, 4^7) complex matrix is 8 MiB
        sh = TensorShape((4, 4, 2), 4)
        words, _ = _codebook(sh, 1)
        rng = np.random.default_rng(19)
        y = rng.standard_normal((32, sh.blocklength, 2)) @ [1, 1j]
        ml_oracle_decode(y, sh, 1)
        tracemalloc.start()
        try:
            ml_oracle_decode(y, sh, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * len(y) * len(words) * np.dtype(complex).itemsize

    @pytest.mark.parametrize("dims, case", [((4, 4, 2), 1), ((4, 2, 2), 2)])
    def test_chunked_scoring_matches_the_whole_matrix(self, dims, case):
        # case 2 is many-to-one: a sent codeword's 16 words tie across 4 chunks
        sh = TensorShape(dims, 4)
        words, conj_signals = _codebook(sh, case)
        rng = np.random.default_rng(20)
        s = transmit_signal(encode(rng.integers(0, 4, (32, words.shape[1])), sh, case), 4)
        y = awgn(s, 1.0, rng)
        y[:4] = s[:4]
        y[4] = 0
        got = ml_oracle_decode(y, sh, case)
        assert np.array_equal(got, words[np.argmax(np.real(y @ conj_signals.T), axis=-1)])

    def test_registry_entry_is_the_oracle_on_batches(self):
        sh = TensorShape((4, 2, 2), 4)
        rng = np.random.default_rng(8)
        y = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
        y[0] = 0  # every word scores 0: the tie goes to the all-zero word
        calls = []
        SINGLE_USER_DECODERS["ml"]([y[:1], y[1:4], y[4:]], 1.0, sh, 1, 50, 0.0,
                                   lambda t, d: calls.append((t, d)))
        assert np.array_equal(np.concatenate([t for t, _ in calls]), range(6))
        got = np.concatenate([d for _, d in calls])
        assert np.array_equal(got, [ml_oracle_decode(row, sh, 1) for row in y])
        assert not got[0].any()


class TestCpAls:
    def _rank2_tensor(self, rng):
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.info_length(1)))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, gains = simo_mac(s, sh, 4, 0.0, rng)
        return sh, u, s, tensor, gains

    def test_exact_fit(self):
        rng = np.random.default_rng(8)
        _, _, _, tensor, _ = self._rank2_tensor(rng)
        cp = cp_als(tensor, 2, rng)
        assert cp.residual < 1e-8

    def test_residual_monotone(self):
        rng = np.random.default_rng(9)
        _, _, _, tensor, _ = self._rank2_tensor(rng)
        cp = cp_als(tensor, 2, rng)
        assert (np.diff(cp.residual_history) <= 1e-9).all()

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(10)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.info_length(1)))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, _ = simo_mac(s, sh, 4, 0.01, rng)
        cp = cp_als(tensor, 2, rng)
        assert cp.residual < 0.1

    def test_gains_match_the_channel_up_to_permutation(self):
        # 3 users, 5 antennas, 40 dB on (5,4,3); distinct users per mode give
        # k-ranks summing to >= 2R + 3, Kruskal's condition for a unique CP
        sh = TensorShape((5, 4, 3), 4)
        rng = np.random.default_rng(21)
        u = rng.integers(0, 4, (3, sh.info_length(1)))
        c = encode(u, sh, 1).reshape((3,) + sh.dims)
        for i in range(sh.num_modes):
            factor_vectors = {tuple(row[(0,) * i + (slice(None),) + (0,) * (2 - i)]) for row in c}
            assert len(factor_vectors) == 3
        tensor, true_gains = simo_mac(transmit_signal(encode(u, sh, 1), 4), sh, 5, 1e-4, rng)
        _, gains, bad = normalize_factors(cp_als(tensor, 3, rng))
        assert not bad.any()
        err = min(
            max(np.linalg.norm(gains[:, r] - h) / np.linalg.norm(h) for r, h in zip(p, true_gains))
            for p in itertools.permutations(range(3))
        )
        assert err < 0.02

    def test_validation(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            cp_als(np.zeros((2, 2)), 1, rng)
        with pytest.raises(ValueError):
            cp_als(np.ones((2, 2)), 0, rng)
        with pytest.raises(ValueError, match="at least 2 modes"):
            cp_als(np.ones(3), 1, rng)


class TestCpBytes:
    @pytest.mark.parametrize("users, antennas", [(3, 200), (60, 2)])
    def test_counted_bytes_bound_the_traced_peak(self, monkeypatch, users, antennas):
        # one trial's channel draw and CP-ALS, led by the antennas' T x N
        # arrays, then by the users' R x R ones
        sh = TensorShape((6, 5, 4), 4)
        rng = np.random.default_rng(1)
        s = transmit_signal(encode(rng.integers(0, 4, (users, sh.info_length(1))), sh, 1), 4)
        tracemalloc.start()
        try:
            cp_als(simo_mac(s, sh, antennas, 0.1, rng)[0], users, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        check_cp_bytes(sh, users, antennas)
        monkeypatch.setattr(decoders, "CP_BYTES", peak - 1)
        with pytest.raises(RuntimeError, match="CP-ALS arrays"):
            check_cp_bytes(sh, users, antennas)

    def test_paper_runs_pass_and_huge_ones_do_not(self):
        sh = TensorShape((10, 20, 16), 4)
        for users in (1, 5):  # criterion 11b's and simo-mac-paper's users, 5 antennas
            check_cp_bytes(sh, users, 5)
        for users, antennas in ((5, 100_000), (100_000, 5)):  # counted, never drawn
            with pytest.raises(RuntimeError, match="CP-ALS arrays"):
                check_cp_bytes(sh, users, antennas)


class TestNormalizeFactors:
    def test_reference_entries_become_one(self):
        rng = np.random.default_rng(12)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.info_length(1)))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, _ = simo_mac(s, sh, 4, 0.0, rng)
        cp = cp_als(tensor, 2, rng)
        modes, _, bad = normalize_factors(cp)
        assert not bad.any()
        for f in modes:
            assert np.allclose(f[0, :], 1.0, atol=1e-6)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(13)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.info_length(1)))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, _ = simo_mac(s, sh, 4, 0.0, rng)
        cp = cp_als(tensor, 2, rng)
        modes, gains, _ = normalize_factors(cp)

        def rebuild(f):
            full = f[0]
            for a in f[1:]:
                full = (full[:, None, :] * a[None, :, :]).reshape(-1, f[0].shape[1])
            return full.sum(axis=1)

        assert np.allclose(rebuild(cp.factors), rebuild(modes + [gains]), atol=1e-8)

    def test_hard_projection_recovers_symbols(self):
        rng = np.random.default_rng(14)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (1, sh.info_length(1)))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, _ = simo_mac(s, sh, 4, 0.0, rng)
        cp = cp_als(tensor, 1, rng)
        modes, _, bad = normalize_factors(cp)
        assert not bad.any()
        hard = [np.mod(np.rint(np.angle(f) * 4 / (2 * np.pi)), 4).astype(np.int64) for f in modes]
        # per-mode hard symbols are the factor vectors of the codeword
        c = encode(u[0], sh, 1).reshape(sh.dims)
        assert np.array_equal(hard[0][:, 0], c[:, 0, 0])
        assert np.array_equal(hard[1][:, 0], (c[0, :, 0] - c[0, 0, 0]) % 4)

    def test_vanishing_reference_flagged(self):
        factors = [
            np.array([[0.0 + 0j], [1.0 + 0j]]),
            np.array([[1.0 + 0j], [1.0 + 0j]]),
            np.array([[1.0 + 0j], [1.0 + 0j]]),
        ]
        cp = CpFactors(factors, 0.0, np.array([0.0]), True)
        _, _, bad = normalize_factors(cp)
        assert bad.all()

    def test_matches_the_per_user_loop(self):
        # whole-array division and product give every decodable user the bits
        # of its own loop, for factors in C and in Fortran order (cp_als
        # returns the latter); vanishing references flag some users
        rng = np.random.default_rng(22)
        flagged = 0
        for d, rank, order in itertools.product(range(1, 5), range(1, 7), "CF"):
            for _ in range(5):
                factors = [np.asarray(rng.standard_normal((t, rank))
                                      + 1j * rng.standard_normal((t, rank)), order=order)
                           for t in rng.integers(1, 6, d + 1)]
                for f in factors[:-1]:
                    f[0, rng.random(rank) < 0.1] *= 1e-7
                cp = CpFactors(factors, 0.0, np.array([0.0]), True)
                modes, gains, bad = normalize_factors(cp)
                want_modes, want_gains, want_bad = normalize_factors_per_user(cp)
                assert np.array_equal(bad, want_bad)
                for got, want in zip(modes + [gains], want_modes + [want_gains]):
                    assert np.array_equal(got[:, ~bad], want[:, ~bad])
                flagged += bad.sum()
        assert 0 < flagged


class TestMultiuserDecode:
    def test_two_user_round_trip(self):
        rng = np.random.default_rng(15)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.info_length(1)))
        s = transmit_signal(encode(u, sh, 1), 4)
        nv = 10 ** (-15 / 10)
        tensor, _ = simo_mac(s, sh, 5, nv, rng)
        decoded = multiuser_decode(tensor, 2, nv, sh, rng)
        sent = {tuple(r) for r in u}
        got = {tuple(d) for d in decoded if d is not None}
        assert sent == got

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        sh = TensorShape((4, 3, 2), 4)
        with pytest.raises(ValueError):
            multiuser_decode(np.zeros((3, 3, 2, 4), dtype=complex), 1, 0.1, sh, rng)
