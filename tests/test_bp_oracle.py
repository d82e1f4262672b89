"""The tensor-layout BP decoder against an edge-list reference.

``edge_bp_decode_batch`` is flooding BP over the generic Tanner graph:
messages live on an edge list, each check gathers its edges into padded
slots, and each variable sums its edges after a sort by variable.  It
shares no layout logic with ``decoders.bp_decode_batch`` but performs the
same arithmetic in the same order, so the two must agree bit for bit on
every output, also for trials that never converge.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import softmax

from tbmpsk.channels import awgn
from tbmpsk.decoders import _clean, bp_decode_batch, channel_pmfs
from tbmpsk.factor_graph import FactorGraph, build_graph
from tbmpsk.modulation import encode, transmit_signal
from tbmpsk.ring_code import TensorShape


@dataclass(frozen=True, eq=False)
class BpWorkspace:
    """Static gather/scatter tables for one graph.

    ``check_slots[p, j]`` is the edge id in slot j of check p (-1 pad);
    ``var_order`` sorts edges by variable so segment reductions work, with
    ``var_starts`` marking each variable's first sorted position.
    """

    check_slots: np.ndarray
    slot_valid: np.ndarray
    var_order: np.ndarray
    var_starts: np.ndarray
    edge_var_sorted: np.ndarray


def edge_workspace(graph: FactorGraph) -> BpWorkspace:
    deg = graph.check_degrees()
    dmax = int(deg.max()) if graph.num_edges else 1
    slots = -np.ones((graph.num_checks, dmax), dtype=np.int64)
    fill = np.zeros(graph.num_checks, dtype=np.int64)
    for e, c in enumerate(graph.edge_check):
        slots[c, fill[c]] = e
        fill[c] += 1
    order = np.argsort(graph.edge_var, kind="stable")
    sorted_vars = graph.edge_var[order]
    starts = np.searchsorted(sorted_vars, np.arange(graph.num_vars))
    return BpWorkspace(
        check_slots=slots,
        slot_valid=slots >= 0,
        var_order=order,
        var_starts=starts,
        edge_var_sorted=sorted_vars,
    )


def edge_bp_decode_batch(graph, observation_pmfs, max_iters=50, damping=0.0):
    """Edge-list flooding BP; same contract as ``bp_decode_batch``."""
    ws = edge_workspace(graph)
    obs = np.asarray(observation_pmfs, dtype=float)
    nb, _, m = obs.shape
    ne, nv = graph.num_edges, graph.num_vars

    obs_f = np.fft.fft(_clean(obs), axis=-1)  # (B, T, M)
    v2c = np.full((nb, ne, m), 1.0 / m)
    slots = ws.check_slots
    valid = ws.slot_valid
    safe_slots = np.where(valid, slots, 0)

    decisions = np.zeros((nb, nv), dtype=np.int64)
    prev = np.full((nb, nv), -1, dtype=np.int64)
    streak = np.zeros(nb, dtype=np.int64)
    done = np.zeros(nb, dtype=bool)
    iters_used = np.full(nb, max_iters, dtype=np.int64)
    final = np.zeros((nb, nv), dtype=np.int64)
    final_post = np.full((nb, nv, m), 1.0 / m)
    dmax = slots.shape[1]

    for it in range(max_iters):
        # check side, DFT domain: conjugate = negate, product = convolve
        w = np.conj(np.fft.fft(v2c, axis=-1))
        wg = w[:, safe_slots, :]
        wg[:, ~valid, :] = 1.0
        prefix = np.empty((nb, graph.num_checks, dmax + 1, m), dtype=complex)
        prefix[:, :, 0, :] = obs_f
        for j in range(dmax):
            prefix[:, :, j + 1, :] = prefix[:, :, j, :] * wg[:, :, j, :]
        suffix = np.empty_like(prefix)
        suffix[:, :, dmax, :] = 1.0
        for j in range(dmax - 1, -1, -1):
            suffix[:, :, j, :] = suffix[:, :, j + 1, :] * wg[:, :, j, :]
        msg_f = prefix[:, :, :-1, :] * suffix[:, :, 1:, :]
        c2v_slots = np.fft.ifft(msg_f, axis=-1).real
        c2v = np.empty((nb, ne, m))
        c2v[:, slots[valid], :] = c2v_slots[:, valid, :]
        c2v = _clean(c2v)

        # variable side, log domain
        logs = np.log(c2v)
        logs_sorted = logs[:, ws.var_order, :]
        sums = np.add.reduceat(logs_sorted, ws.var_starts, axis=1)  # (B, V, M)
        posteriors = softmax(sums, axis=-1)
        extrinsic = sums[:, ws.edge_var_sorted, :] - logs_sorted
        fresh_sorted = softmax(extrinsic, axis=-1)
        fresh = np.empty_like(fresh_sorted)
        fresh[:, ws.var_order, :] = fresh_sorted
        v2c = fresh if damping == 0.0 else _clean((1.0 - damping) * fresh + damping * v2c)

        decisions = np.argmax(posteriors, axis=-1)  # ties: smallest symbol
        streak = np.where((decisions == prev).all(axis=1), streak + 1, 0)
        prev = decisions
        newly = (~done) & (streak >= 3)
        if newly.any():
            final[newly] = decisions[newly]
            final_post[newly] = posteriors[newly]
            iters_used[newly] = it + 1
            done |= newly
        if done.all():
            break

    final[~done] = decisions[~done]
    final_post[~done] = posteriors[~done]
    return final, final_post, iters_used, done


# (dims, M, noise variance): noisy enough that some trials never converge
ORACLE_CONFIGS = [
    ((5,), 8, 1.0), ((3,), 8, 1.0), ((2, 2), 8, 1.0), ((4, 2, 2), 8, 1.0),
    ((4, 4, 2), 8, 1.0), ((3, 2, 2, 2, 2), 8, 1.0), ((5, 4, 3), 8, 1.0),
    ((6, 5, 4), 8, 1.0), ((10, 20, 16), 4, 10 ** 1.4),
]


def test_tensor_bp_bit_identical_to_edge_oracle():
    rng = np.random.default_rng(17)
    unconverged = 0
    for dims, m, nv in ORACLE_CONFIGS:
        sh = TensorShape(dims, m)
        batch, iters = (2, 10) if sh.blocklength > 1000 else (8, 50)
        for case in (1, 3):
            g = build_graph(sh, case)
            u = rng.integers(0, m, (batch, sh.info_length(case)))
            pmfs = channel_pmfs(awgn(transmit_signal(encode(u, sh, case), m), nv, rng), nv, m)
            for damping in (0.0, 0.3):
                got = bp_decode_batch(g, pmfs, iters, damping)
                want = edge_bp_decode_batch(g, pmfs, iters, damping)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (dims, case, damping)
                unconverged += int((~got[3]).sum())
    assert unconverged > 0
