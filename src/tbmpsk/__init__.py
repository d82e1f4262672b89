"""Tensor-based modulation over M-PSK: ring linear codes, factor-graph
receivers, and channel simulation."""

__version__ = "0.1.0"

from .ring_code import (
    CASES,
    RingMatrix,
    TensorShape,
    build_generator,
    build_generator_kronecker,
    case_matrix,
    generalized_parity_check,
    reduce_coherent,
    shorten_noncoherent,
    systematic_form,
)
from .modulation import encode, mls_encode, psk_map, transmit_signal
from .factor_graph import FactorGraph, build_graph, degree_distribution
from .decoders import (
    channel_pmfs,
    check_update_fft,
    cp_als,
    ml_oracle_decode,
    multiuser_decode,
    normalize_factors,
)
from .channels import awgn, simo_mac
from .bounds import min_snr_for_rate, normal_approx_rate, tbm_rate
from .sim import SimConfig, run, run_point, sweep_table

__all__ = [
    "__version__",
    "CASES",
    "RingMatrix",
    "TensorShape",
    "build_generator",
    "build_generator_kronecker",
    "case_matrix",
    "generalized_parity_check",
    "reduce_coherent",
    "shorten_noncoherent",
    "systematic_form",
    "encode",
    "mls_encode",
    "psk_map",
    "transmit_signal",
    "FactorGraph",
    "build_graph",
    "degree_distribution",
    "channel_pmfs",
    "check_update_fft",
    "cp_als",
    "ml_oracle_decode",
    "multiuser_decode",
    "normalize_factors",
    "awgn",
    "simo_mac",
    "min_snr_for_rate",
    "normal_approx_rate",
    "tbm_rate",
    "SimConfig",
    "run",
    "run_point",
    "sweep_table",
]
