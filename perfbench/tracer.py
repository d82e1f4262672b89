"""Spans around the calls into tbmpsk's layers, recorded from outside.

``Tracer.installed()`` replaces the module attributes through which one
layer calls another (for example ``tbmpsk.sim.awgn``, which ``sim`` looks up
on every trial, or ``tbmpsk.decoders.bp_decode_batch``) with wrappers that
record a span per call, and restores every original on exit, also when the
body raises.  No file under ``src/`` changes.  Only the traced run imports
this module.

A span is ``[name, parent, unit, point, start, end, info]``: ``parent`` is
the index of the enclosing span (or None), ``unit`` the benchmark unit,
``point`` the index of the enclosing ``sim.run_point`` span, and ``info``
what the call returned that the layer metrics need (BP iterations, CP
residuals, the trial index of an RNG substream, ...).  Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

SPAN_FIELDS = ("name", "parent", "unit", "point", "start", "end", "info")


def _bp_info(args, kwargs, out):
    _, _, iters, converged = out
    return {"batch": int(iters.shape[0]), "iters_max": int(iters.max()),
            "iters_sum": int(iters.sum()), "converged": int(converged.sum())}


def _cp_info(args, kwargs, out):
    return {"sweeps": int(len(out.residual_history)), "residual": float(out.residual)}


def _normalize_info(args, kwargs, out):
    return {"undecodable": int(out[2].sum())}


def _trial_info(args, kwargs, out):
    return {"trial": int(args[2])}


def _point_info(args, kwargs, out):
    return {"threads": int(args[0].threads), "trials": out.trials, "errors": out.errors}


# (module, attribute, span name, info extractor).  The attribute is the name
# the *calling* module looks up, so the span sits on the layer boundary.
WRAPPED = (
    ("sim", "run_point", "sim.run_point", _point_info),
    ("sim", "trial_rng", "sim.trial_rng", _trial_info),
    ("sim", "missed_users", "sim.missed_users", None),
    ("sim", "ProcessPoolExecutor", "sim.pool", None),
    ("sim", "_case_matrix", "ring_code.case_matrix", None),
    ("sim", "encode_case1", "modulation.encode", None),
    ("sim", "encode_case2", "modulation.encode", None),
    ("sim", "encode_case3", "modulation.encode", None),
    ("sim", "transmit_signal", "modulation.transmit_signal", None),
    ("sim", "awgn", "channels.awgn", None),
    ("sim", "simo_mac", "channels.simo_mac", None),
    ("sim", "multiuser_decode", "decoders.multiuser_decode", None),
    ("sim", "min_snr_for_rate", "bounds.min_snr_for_rate", None),
    ("cli", "sweep_table", "sim.sweep_table", None),
    ("decoders", "bp_decode_batch", "decoders.bp_decode_batch", _bp_info),
    ("decoders", "channel_pmfs", "decoders.channel_pmfs", None),
    ("decoders", "cp_als", "decoders.cp_als", _cp_info),
    ("decoders", "normalize_factors", "decoders.normalize_factors", _normalize_info),
    ("decoders", "mls_encode", "modulation.mls_encode", None),
    ("decoders", "build_graph", "factor_graph.build_graph", None),
)
# entries of the decoder registry that ``sim`` dispatches on
REGISTRY_SPAN = "decoders.single_user"


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, tbmpsk):
        self.tbmpsk = tbmpsk
        self.spans: list[list] = []
        self.unit = None
        self._stack: list[int] = []
        self._point = None
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn, info=None):
        def wrapper(*args, **kwargs):
            return self._record(name, fn, info, args, kwargs)

        return wrapper

    def _record(self, name, fn, info, args, kwargs):
        sid = len(self.spans)
        span = [name, self._stack[-1] if self._stack else None, self.unit, self._point,
                time.perf_counter() - self._t0, None, None]
        self.spans.append(span)
        self._stack.append(sid)
        outer_point = self._point
        if name == "sim.run_point":
            self._point = sid
        try:
            out = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter() - self._t0
            self._stack.pop()
            self._point = outer_point
        if info is not None:
            span[6] = info(args, kwargs, out)
        return out

    def call(self, name, fn, *args):
        """Call ``fn`` from the benchmark's own code inside a span."""
        return self._record(name, fn, None, args, {})

    @contextmanager
    def installed(self):
        """Wrap every boundary in WRAPPED; restore all originals on exit."""
        saved = []
        registry = self.tbmpsk.decoders.SINGLE_USER_DECODERS
        try:
            for mod_name, attr, span, info in WRAPPED:
                module = getattr(self.tbmpsk, mod_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original, info))
            for key, original in list(registry.items()):
                saved.append((registry, key, original))
                registry[key] = self._wrap(REGISTRY_SPAN, original)
            yield self
        finally:
            for target, key, original in reversed(saved):
                if target is registry:
                    registry[key] = original
                else:
                    setattr(target, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "clock": "perf_counter seconds",
                       "spans": self.spans}, fh)
            fh.write("\n")


# --- layer metrics ------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.  Spans
    come from one thread and nest, so children never overlap."""
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[5] - s[4]
    return out


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(spans: list[list], units: set) -> dict:
    """Per-layer metrics over the spans of the given units (see NOTES.md)."""
    picked = [(s, t) for s, t in zip(spans, self_times(spans)) if s[2] in units]

    def by(name):
        return [(s, t) for s, t in picked if s[0] == name]

    def total(name):
        return sum(s[5] - s[4] for s, _ in by(name))

    bp = [s[6] for s, _ in by("decoders.bp_decode_batch")]
    bp_iters = sum(i["iters_max"] for i in bp)
    bp_trials = sum(i["batch"] for i in bp)
    cp = [s[6] for s, _ in by("decoders.cp_als")]
    multiuser_ms = [(s[5] - s[4]) * 1e3 for s, _ in by("decoders.multiuser_decode")]
    return {
        "sim.engine_self_s": sum(t for _, t in by("sim.run_point")),
        "sim.trial_rng_calls": len(by("sim.trial_rng")),
        "sim.trial_rng_s": total("sim.trial_rng"),
        "sim.missed_users_s": total("sim.missed_users"),
        "sim.pool_points": len(by("sim.pool")),
        "ring_code.case_matrix_s": total("ring_code.case_matrix"),
        "modulation.encode_calls": len(by("modulation.encode")),
        "modulation.encode_s": total("modulation.encode"),
        "modulation.transmit_signal_s": total("modulation.transmit_signal"),
        "modulation.mls_encode_s": total("modulation.mls_encode"),
        "channels.awgn_calls": len(by("channels.awgn")),
        "channels.awgn_s": total("channels.awgn"),
        "channels.simo_mac_s": total("channels.simo_mac"),
        "decoders.channel_pmfs_s": total("decoders.channel_pmfs"),
        "decoders.bp_calls": len(bp),
        "decoders.bp_batch_mean": bp_trials / len(bp) if bp else 0.0,
        "decoders.bp_s": total("decoders.bp_decode_batch"),
        "decoders.bp_iters": bp_iters,
        "decoders.bp_ms_per_iter": total("decoders.bp_decode_batch") * 1e3 / bp_iters
        if bp_iters else 0.0,
        "decoders.bp_trial_iters_mean": sum(i["iters_sum"] for i in bp) / bp_trials
        if bp_trials else 0.0,
        "decoders.bp_converged_frac": sum(i["converged"] for i in bp) / bp_trials
        if bp_trials else 0.0,
        "decoders.cp_als_calls": len(cp),
        "decoders.cp_als_s": total("decoders.cp_als"),
        "decoders.cp_best_sweeps_mean": sum(i["sweeps"] for i in cp) / len(cp) if cp else 0.0,
        "decoders.cp_residual_p50": statistics.median(i["residual"] for i in cp) if cp else 0.0,
        "decoders.normalize_s": total("decoders.normalize_factors"),
        "decoders.undecodable_users": sum(s[6]["undecodable"]
                                          for s, _ in by("decoders.normalize_factors")),
        "decoders.multiuser_ms_p50": statistics.median(multiuser_ms) if multiuser_ms else 0.0,
        "decoders.multiuser_ms_p90": _p90(multiuser_ms),
        "bounds.min_snr_for_rate_s": total("bounds.min_snr_for_rate"),
        "cli.self_s": sum(t for _, t in by("cli.main")),
    }
