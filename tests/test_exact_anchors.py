"""Reported error rates tied to values computed without the engine.

On a one-mode shape (T,) every position is one info symbol or the pinned
reference, so each check of BP's graph has a single participant: BP's
posterior of a symbol is its channel pmf, and its decision the nearest PSK
point.  The K info symbols of a trial are then detected independently, and
the exact packet error rate is PER = 1 - (1 - P_s)^K, with P_s the M-PSK
symbol error rate at Es/N0 = SNR from Craig's integral
(:func:`oracles.psk_symbol_error`, by quadrature).

Ten checks, cases 1 and 3 at M = 2, 3, 4, 8 and 16 on (8,), 5,000 trials
each, seed 11, no early stop: each point's error count must have an exact
two-sided binomial tail of at least 1e-3 under the exact PER.  The seeds
and counts are fixed, so each verdict is reproducible; the ten together
take about 3.5 s on a 2-core host.  Case 2 is left out: the engine's BP
refuses it (case 2 has no factor graph), and on one mode it pins nothing,
so it is the code of case 3; on more modes its map from info words to
codewords is many-to-one, and no symbol-wise formula holds.
"""

import math

import pytest
from scipy.stats import binom, norm

from tbmpsk.bounds import db_to_linear
from tbmpsk.sim import SimConfig, run_point

from oracles import psk_symbol_error

DIMS = (8,)
TRIALS = 5000
SEED = 11
TAIL = 1e-3
# an SNR per order where the PER is between 0.08 and 0.5, so a wrong P_s shows
SNR_DB = {2: 2.0, 3: 6.0, 4: 6.0, 8: 12.0, 16: 16.0}


@pytest.mark.parametrize("snr", [0.5, 1.585, 4.0])
def test_craig_integral_matches_the_closed_forms(snr):
    # BPSK: Q(sqrt(2 snr)); QPSK: 2 Q(sqrt(snr)) - Q(sqrt(snr))^2
    q = norm.sf(math.sqrt(snr))
    assert psk_symbol_error(2, snr) == pytest.approx(norm.sf(math.sqrt(2 * snr)), rel=1e-12)
    assert psk_symbol_error(4, snr) == pytest.approx(2 * q - q * q, rel=1e-12)


@pytest.mark.parametrize("case", [1, 3])
@pytest.mark.parametrize("m", sorted(SNR_DB))
def test_one_mode_per_is_the_symbolwise_rate(m, case):
    snr_db = SNR_DB[m]
    cfg = SimConfig(dims=DIMS, modulation_order=m, snrs_db=(snr_db,), trials=TRIALS,
                    seed=SEED, case=case, stop_errors=0)
    point = run_point(cfg, snr_db)
    assert point.trials == TRIALS
    k = cfg.shape.info_length(case)  # T - 1 in case 1, whose entry 0 is the pilot; T in case 3
    per = 1.0 - (1.0 - psk_symbol_error(m, db_to_linear(snr_db))) ** k
    tail = 2 * min(binom.cdf(point.errors, TRIALS, per), binom.sf(point.errors - 1, TRIALS, per))
    assert tail >= TAIL, (point.errors, TRIALS * per)
