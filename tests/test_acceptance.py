"""Acceptance suite: twelve go/no-go checks, one line of PASS/FAIL output
each (run with -s to see the lines as they happen).

Monte Carlo checks pin exact error counts measured once with the seeds
below; the engine's determinism contract makes them reproducible.
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from tbmpsk.bounds import (
    awgn_capacity,
    db_to_linear,
    linear_to_db,
    min_snr_for_rate,
    normal_approx_rate,
    tbm_rate,
)
from tbmpsk.cli import main as cli_main
from tbmpsk.factor_graph import build_graph, degree_distribution
from tbmpsk.modulation import encode
from tbmpsk.ring_code import TensorShape, case_matrix
from tbmpsk.sim import SimConfig, run_point, sweep_table

from oracles import (
    build_generator_kronecker,
    check_update_direct,
    check_update_fft,
    mode_row_sum,
    reference_row_residuals,
)

SEED = 101

TWENTY_SHAPES = [
    (2, 2), (3, 2), (4, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 3, 2),
    (4, 3, 2), (4, 4, 2), (5, 4, 3), (4, 4, 4), (6, 5, 4), (2, 2, 2, 2),
    (3, 2, 2, 2), (3, 3, 2, 2), (4, 3, 2, 2), (5, 5, 5), (10, 20, 16),
    (8, 5, 5, 4, 4), (7, 3, 2),
]

G_422_PRINTED = np.array([[int(c) for c in row] for row in [
    "1111000000000000",
    "0000111100000000",
    "0000000011110000",
    "0000000000001111",
    "1100110011001100",
    "0011001100110011",
    "1010101010101010",
    "0101010101010101",
]])
GR_KEEP = [0, 1, 2, 3, 5, 7]
GS_422_PRINTED = np.array([[int(c) for c in row] for row in [
    "000111100000000",
    "000000011110000",
    "000000000001111",
    "011001100110011",
    "101010101010101",
]])

# frozen Monte Carlo error counts, measured once at SEED (10^4 trials each)
FROZEN_AWGN_ERRORS = {
    (4, 2, 2): {0.0: 1987, 2.0: 484, 4.0: 56},
    (4, 4, 2): {0.0: 575, 2.0: 77, 4.0: 4},
}
# (2,2), M=2, 10^4 trials
FROZEN_PAIRED_ERRORS = {"bp": {4.0: 19, 8.0: 0}, "ml": {4.0: 18, 8.0: 0}}
# (10,20,16), M=4, N_r=5, 15 dB, 200 trials
FROZEN_PUPE_ERRORS = {1: 0, 5: 0}
# (10,20,16), M=4, N_r=5, 5 users, -12 dB, 40 trials (200 user slots)
FROZEN_PUPE_LOW_SNR_ERRORS = 5


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} {mark}: {desc}{suffix}")
    assert ok, f"criterion {num:02d}: {desc}{suffix}"


def oracle_codewords(words: np.ndarray, shape: TensorShape, case: int) -> np.ndarray:
    """Index-arithmetic encoder: c_p = sum over modes of the factor entry at
    p's index tuple.  Shares nothing with the generator-matrix route."""
    m = shape.modulation_order
    offsets = np.concatenate([[0], np.cumsum(shape.dims[:-1])])
    full = np.zeros((len(words), shape.info_length(2)), dtype=np.int64)
    pos = 0
    for i, t in enumerate(shape.dims):
        start = 1 if (case == 1 or (case == 3 and i > 0)) else 0
        take = t - start
        full[:, offsets[i] + start : offsets[i] + t] = words[:, pos : pos + take]
        pos += take
    assert pos == words.shape[1]
    tuples = np.stack(np.unravel_index(np.arange(shape.blocklength), shape.dims))
    c = np.zeros((len(words), shape.blocklength), dtype=np.int64)
    for i in range(shape.num_modes):
        c += full[:, offsets[i] + tuples[i]]
    return c % m


def all_words(m: int, k: int) -> np.ndarray:
    return np.indices((m,) * k).reshape(k, -1).T


def test_criterion_01_printed_422_matrices():
    t0 = time.perf_counter()
    sh = TensorShape((4, 2, 2), 4)
    g = case_matrix(sh, 2)
    gr = case_matrix(sh, 3)
    gs = case_matrix(sh, 1)
    w1 = [q + 1 for q in range(gs.cols) if np.count_nonzero(gs.entries[:, q]) == 1]
    elapsed = time.perf_counter() - t0
    ok = (
        np.array_equal(g.entries, G_422_PRINTED)
        and np.array_equal(gr.entries, G_422_PRINTED[GR_KEEP])
        and np.array_equal(gs.entries, GS_422_PRINTED)
        and w1 == [1, 2, 4, 8, 12]
        and elapsed < 1.0
    )
    _report(1, "printed (4,2,2) G, G_r, G_s reproduced bit-exact", ok,
            f"{elapsed:.3f}s")


def test_criterion_02_construction_routes_agree():
    t0 = time.perf_counter()
    ok = True
    for dims in TWENTY_SHAPES:
        sh = TensorShape(dims, 4)
        ok &= case_matrix(sh, 2) == build_generator_kronecker(sh)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(2, "direct and Kronecker-recursion generators agree on 20 shapes",
            ok, f"{elapsed:.2f}s")


def test_criterion_03_pipeline_equivalence():
    ok = True
    for m in (2, 4):
        sh = TensorShape((2, 2), m)
        w2 = all_words(m, sh.info_length(2))
        ok &= np.array_equal(
            np.stack([encode(u, sh, 2) for u in w2]), oracle_codewords(w2, sh, 2)
        )
        w1 = all_words(m, sh.info_length(1))
        ok &= np.array_equal(
            np.stack([encode(u, sh, 1) for u in w1]), oracle_codewords(w1, sh, 1)
        )
    rng = np.random.default_rng(SEED)
    for dims in [(4, 2, 2), (10, 20, 16)]:
        sh = TensorShape(dims, 4)
        for case in (1, 2, 3):
            words = rng.integers(0, 4, (1000, sh.info_length(case)))
            got = np.stack([encode(u, sh, case) for u in words])
            ok &= np.array_equal(got, oracle_codewords(words, sh, case))
    _report(3, "matrix encoder equals index-arithmetic oracle, exhaustive and random",
            ok)


def test_criterion_04_row_sums_and_codeword_counts():
    ok = True
    for dims in TWENTY_SHAPES:
        sh = TensorShape(dims, 4)
        g = case_matrix(sh, 2)
        for i in range(sh.num_modes):
            ok &= bool((mode_row_sum(g, i, sh) == 1).all())
        ok &= not reference_row_residuals(g, sh).any()
    counts_ok = True
    for dims, m in [((2, 2), 2), ((2, 2), 4), ((2, 2), 8), ((2, 2, 2), 2), ((3, 2), 4)]:
        sh = TensorShape(dims, m)
        assert m**sh.info_length(2) <= 4096
        c3 = {tuple(encode(u, sh, 3)) for u in all_words(m, sh.info_length(3))}
        c1 = {tuple(encode(u, sh, 1)) for u in all_words(m, sh.info_length(1))}
        counts_ok &= len(c3) == m**sh.info_length(3) and len(c1) == m**sh.info_length(1)
    ok &= counts_ok
    _report(4, "mode row sums all-ones, elimination rows vanish, codeword counts exact",
            ok)


def test_criterion_05_degree_polynomial():
    ok = True
    for dims in TWENTY_SHAPES[:10]:
        sh = TensorShape(dims, 4)
        hist = np.bincount(build_graph(sh, 1).check_degrees(),
                           minlength=sh.num_modes + 1)
        ok &= hist.tolist() == degree_distribution(sh).tolist()
    g422 = build_graph(TensorShape((4, 2, 2), 4), 1)
    hist = np.bincount(g422.check_degrees())
    ok &= hist.tolist() == [1, 5, 7, 3]
    ok &= int((g422.check_degrees() == 0).sum()) == 1
    _report(5, "constraint degrees match the product polynomial; one isolated node",
            ok)


def test_criterion_06_fft_check_update():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for m in (2, 4, 8, 16):
        for _ in range(250):
            pmfs = [rng.dirichlet(np.ones(m)) for _ in range(rng.integers(1, 6))]
            target = rng.dirichlet(np.ones(m)) if rng.random() < 0.5 else None
            diff = np.abs(
                check_update_fft(pmfs, target) - check_update_direct(pmfs, target)
            ).max()
            worst = max(worst, float(diff))
    _report(6, "FFT check update matches direct convolution on 1000 pmf sets",
            worst < 1e-12, f"worst |diff| {worst:.2e}")


def test_criterion_07_bp_matches_ml_oracle():
    ok = True
    details = []
    for snr in (4.0, 8.0):
        rates = {}
        for dec in ("bp", "ml"):
            cfg = SimConfig(dims=(2, 2), modulation_order=2, snrs_db=(snr,),
                            trials=10_000, seed=SEED, case=1, decoder=dec,
                            stop_errors=0, batch_size=1024)
            p = run_point(cfg, snr)
            ok &= p.errors == FROZEN_PAIRED_ERRORS[dec][snr]
            rates[dec] = p
        se = rates["ml"].stderr
        gap = abs(rates["bp"].value - rates["ml"].value)
        ok &= gap <= 2 * se
        details.append(f"{snr:g}dB gap {gap:.1e} vs 2se {2 * se:.1e}")
    _report(7, "BP block error rate within 2 binomial standard errors of ML",
            ok, "; ".join(details))


def test_criterion_08_rate_fixtures():
    sh = TensorShape((4, 2, 2), 4)
    big = TensorShape((10, 20, 16), 4)
    ok = (
        tbm_rate(sh, 3) == 0.75
        and tbm_rate(sh, 1) == 0.625
        and tbm_rate(big, 1) == (43 / 3200) * 2
    )
    _report(8, "spectral efficiencies 0.75, 0.625 and (43/3200)*2 exact", ok)


def _independent_min_snr_db(n: int, eps: float, rate: float) -> float:
    # self-contained route sharing no code with the bounds module
    log2e = np.log2(np.e)

    def achievable(snr):
        v = snr * (snr + 2) / (snr + 1) ** 2 * log2e**2
        return np.log2(1 + snr) - np.sqrt(v / n) * norm.isf(eps) + np.log2(n) / (2 * n)

    lo, hi = 1e-9, 1e9
    for _ in range(200):
        mid = float(np.sqrt(lo * hi))
        if achievable(mid) >= rate:
            hi = mid
        else:
            lo = mid
    return float(10 * np.log10(hi))


def test_criterion_09_normal_approximation_properties():
    snr = db_to_linear(5.0)
    cap_gap = awgn_capacity(snr) - normal_approx_rate(10**9, 1e-2, snr)
    ok = 0 < cap_gap < 1e-3
    n = 500
    degen = abs(
        normal_approx_rate(n, 0.5, 2.0) - (awgn_capacity(2.0) + np.log2(n) / (2 * n))
    )
    ok &= degen < 1e-12
    for rate in (0.026875, 0.625, 2.0):
        s = min_snr_for_rate(3200, 1e-2, rate)
        ok &= abs(normal_approx_rate(3200, 1e-2, s) - rate) < 1e-5
    cfg = SimConfig(dims=(10, 20, 16), modulation_order=4, snrs_db=(-16.0, -12.0),
                    trials=20, seed=SEED, case=1, decoder="bp", stop_errors=5)
    rows = sweep_table([cfg], 1e-2, -16.0, -12.0, resolution_db=2.0)
    want = _independent_min_snr_db(3200, 1e-2, tbm_rate(cfg.shape, 1))
    bound_gap = abs(rows[0].bound_snr_db - want)
    ok &= bound_gap < 1e-5
    ok &= abs(rows[0].bound_snr_db
              - linear_to_db(min_snr_for_rate(3200, 1e-2, tbm_rate(cfg.shape, 1)))) < 1e-12
    _report(9, "bound limits, round trip, and sweep column consistency", ok,
            f"capacity gap {cap_gap:.1e}, bound gap {bound_gap:.1e} dB")


def test_criterion_10_noiseless_multiuser_recovery():
    t0 = time.perf_counter()
    cfg = SimConfig(dims=(6, 5, 4), modulation_order=4, snrs_db=(float("inf"),),
                    trials=50, seed=SEED, case=1, scenario="simo-mac",
                    num_users=3, num_antennas=5, stop_errors=0)
    p = run_point(cfg, float("inf"))
    elapsed = time.perf_counter() - t0
    ok = p.value == 0.0 and p.trials == 50 and elapsed < 120.0
    _report(10, "noiseless 3-user recovery is exact over 50 trials", ok,
            f"pupe {p.value}, {elapsed:.0f}s")


def test_criterion_11a_per_decreases_with_snr():
    ok = True
    details = []
    for dims in [(4, 2, 2), (4, 4, 2)]:
        values = []
        for snr in (0.0, 2.0, 4.0):
            cfg = SimConfig(dims=dims, modulation_order=4, snrs_db=(snr,),
                            trials=10_000, seed=SEED, case=1, decoder="bp",
                            stop_errors=0, batch_size=512)
            p = run_point(cfg, snr)
            ok &= p.errors == FROZEN_AWGN_ERRORS[dims][snr]
            values.append(p.value)
        ok &= values[0] > values[1] > values[2]
        details.append(f"{dims}: " + " > ".join(f"{v:.4f}" for v in values))
    _report(11, "AWGN PER strictly decreases on the 3-point grid (frozen counts)",
            ok, "; ".join(details))


def test_criterion_11b_pupe_stable_in_user_count():
    values = {}
    ok = True
    for ka in (1, 5):
        cfg = SimConfig(dims=(10, 20, 16), modulation_order=4, snrs_db=(15.0,),
                        trials=200, seed=SEED, case=1, scenario="simo-mac",
                        num_users=ka, num_antennas=5, stop_errors=0)
        p = run_point(cfg, 15.0)
        ok &= p.errors == FROZEN_PUPE_ERRORS[ka]
        values[ka] = p.value
    # one-error resolution floor keeps the ratio meaningful at zero counts
    floor = max(values[1], 1.0 / 200)
    ok &= values[5] <= 10 * floor
    # below the waterfall, so the multi-user path has a non-zero frozen count
    cfg = SimConfig(dims=(10, 20, 16), modulation_order=4, snrs_db=(-12.0,),
                    trials=40, seed=SEED, case=1, scenario="simo-mac",
                    num_users=5, num_antennas=5, stop_errors=0)
    low = run_point(cfg, -12.0)
    ok &= low.errors == FROZEN_PUPE_LOW_SNR_ERRORS > 0
    _report(11, "PUPE degrades less than 10x from 1 to 5 users (frozen counts)",
            ok, f"pupe1 {values[1]}, pupe5 {values[5]}, pupe5 at -12 dB {low.value}")


def test_criterion_12_replay_byte_identical(tmp_path):
    out = tmp_path / "r.csv"
    rc = cli_main(["simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "0,2",
                   "--trials", "60", "--seed", str(SEED), "--stop-errors", "0",
                   "--out", str(out)])
    first = out.read_bytes()
    out2 = tmp_path / "r2.csv"
    rc2 = cli_main(["replay", "--manifest", str(out) + ".manifest.json",
                    "--out", str(out2), "--threads", "2"])
    sweep_out = tmp_path / "s.csv"
    rc3 = cli_main(["sweep", "--shapes", "4,2,2", "--mods", "4", "--target-per",
                    "0.1", "--snr-lo", "0", "--snr-hi", "4", "--resolution", "2",
                    "--trials", "60", "--seed", str(SEED), "--stop-errors", "0",
                    "--out", str(sweep_out)])
    sweep_first = sweep_out.read_bytes()
    sweep_out2 = tmp_path / "s2.csv"
    rc4 = cli_main(["replay", "--manifest", str(sweep_out) + ".manifest.json",
                    "--out", str(sweep_out2), "--threads", "2"])
    ok = (
        rc == rc2 == rc3 == rc4 == 0
        and out2.read_bytes() == first
        and sweep_out2.read_bytes() == sweep_first
    )
    _report(12, "simulate and sweep replays reproduce output byte-identically", ok)
