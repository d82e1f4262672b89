"""Command line front end.

Every file-producing command writes a JSON manifest next to its output;
``replay`` re-runs a manifest and must reproduce the output byte-for-byte
(the manifest's own timestamp is the only thing allowed to differ), and
writes a manifest that keeps the recorded one's other keys.

Exit codes: 0 success, 2 configuration/validation error (among them an empty
SNR, shape or order list or an empty entry in one, more than
``sim.MAX_THREADS`` workers, a non-finite received sample, an unknown
decoder, a ``simo-mac`` config below Kruskal's condition (generic k-ranks
summing to less than 2 * users + modes, for two users or more), a replayed
manifest that is not a JSON object, ``replay --threads`` on a manifest that
runs no trials, and a config doc, written or replayed, without exactly its
command's fields (``REPLAYERS``) each of its kind, a bool never a number
(:func:`sim.check_fields`)), 3 runtime guard (enumeration limit, simo-mac byte
limit, unreachable bound target) or an input or output file that cannot be opened.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import db_to_linear, linear_to_db, min_snr_for_rate, normal_approx_rate
from .decoders import SINGLE_USER_DECODERS, check_bp_params
from .factor_graph import build_graph, export_edges
from .modulation import encode, transmit_signal
from .ring_code import CASES, TensorShape, case_matrix, systematic_form
from . import sim as simmod
from .sim import SimConfig, result_csv, run, sweep_csv, sweep_table, write_manifest


def _entries(text: str, sep: str = ",") -> list[str]:
    """The entries of a ``sep``-separated list, stripped of the spaces around
    them.  An empty entry ('0,,2', '4,') is refused, naming the text; a list
    of only empty entries (',', '') has no entries."""
    entries = [v.strip() for v in text.split(sep)]
    if not any(entries):
        return []
    if not all(entries):
        raise ValueError(f"empty entry in list {text!r}")
    return entries


def parse_shape(text: str) -> tuple[int, ...]:
    """Accept '4,2,2' or '4x2x2', with spaces around an entry; an empty entry
    ('4,,2', '4x2x') is refused like any other that is not an integer."""
    try:
        if dims := tuple(int(v) for v in _entries(text, "x" if "x" in text else ",")):
            return dims
    except ValueError:
        pass
    raise ValueError(f"cannot parse shape {text!r}")


def _shape(args) -> TensorShape:
    dims = parse_shape(args.shape)
    shape = TensorShape(dims, args.mod)
    if shape.dims != dims:
        print(
            f"note: shape {simmod.shape_label(dims)} canonicalized to "
            f"{simmod.shape_label(shape.dims)}",
            file=sys.stderr,
        )
    return shape


def _emit(out_path: str | None, text: str, command: str, config_doc: dict, extras: dict | None = None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        write_manifest(out_path, command, config_doc, extras)
    else:
        sys.stdout.write(text)


def _produce(args, doc: dict, **extras) -> int:
    """Emit the subcommand's output through the producer that replay uses."""
    producer, fields = REPLAYERS[args.command]
    simmod.check_fields(doc, fields)
    _emit(args.out, producer(doc), args.command, doc, extras)
    return 0


def _code_doc(args) -> dict:
    shape = _shape(args)
    return {"dims": list(shape.dims), "modulation_order": shape.modulation_order, "case": args.case}


def _read_complex_lines(path: str) -> np.ndarray:
    """One 're im' pair per line."""
    values = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected 're im', got {line.strip()!r}")
            values.append(complex(float(parts[0]), float(parts[1])))
    return np.array(values, dtype=complex)


def _parse_list(text: str, kind=int) -> list:
    """The values of a list whose entries are separated by commas or by
    whitespace, newlines included (:func:`_entries`)."""
    return [kind(v) for entry in _entries(text) for v in entry.split()]


# --- per-command text producers (shared by the commands and replay) ----------
# Each reads a config doc that has passed its command's check_fields


def _doc_shape(doc: dict) -> TensorShape:
    return TensorShape(tuple(doc["dims"]), doc["modulation_order"])


def matrix_text(doc: dict) -> str:
    shape = _doc_shape(doc)
    if not doc["systematic"]:
        return case_matrix(shape, doc["case"]).to_text()
    if doc["case"] != 1:
        raise ValueError("--systematic applies to case 1 only")
    return systematic_form(shape)[0].to_text()


def encode_text(doc: dict) -> str:
    shape = _doc_shape(doc)
    codeword = encode(np.array(doc["info"]), shape, doc["case"])
    samples = transmit_signal(codeword, shape.modulation_order)
    return "".join(f"{float(z.real)!r} {float(z.imag)!r}\n" for z in samples)


def decode_text(doc: dict) -> str:
    shape = _doc_shape(doc)
    if (decoder := doc["decoder"]) not in SINGLE_USER_DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}; available: {sorted(SINGLE_USER_DECODERS)}")
    y = np.array([complex(re, im) for re, im in doc["received"]])
    if y.size != shape.blocklength:
        raise ValueError(f"expected {shape.blocklength} samples, got {y.size}")
    if not np.isfinite(y).all():
        raise ValueError("received samples must be finite")
    check_bp_params(doc["max_iters"], doc["damping"])
    if not 0 <= (noise_var := doc["noise_var"]) < np.inf:
        raise ValueError(f"noise variance must be finite and non-negative, got {noise_var}")
    decided = []
    SINGLE_USER_DECODERS[decoder]([y[None]], noise_var, shape, doc["case"], doc["max_iters"],
                                  doc["damping"], lambda _, words: decided.extend(words))
    return " ".join(str(int(v)) for v in decided[0]) + "\n"


def graph_text(doc: dict) -> str:
    return export_edges(build_graph(_doc_shape(doc), doc["case"]))


def simulate_text(doc: dict) -> str:
    return result_csv(run(SimConfig(**doc)))


def sweep_text(doc: dict) -> str:
    return sweep_csv(sweep_table([SimConfig(**c) for c in doc["configs"]], doc["target_error"],
                                 doc["lo_db"], doc["hi_db"], doc["resolution_db"]))


# the fields of a code point: a shape, an order M and a reference-symbol case
CODE_FIELDS = {"dims": list[int], "modulation_order": int, "case": int}

# command -> (producer, its config doc's fields, name -> kind)
REPLAYERS = {
    "matrix": (matrix_text, {**CODE_FIELDS, "systematic": bool}),
    "encode": (encode_text, {**CODE_FIELDS, "info": list[int]}),
    "decode": (decode_text, {**CODE_FIELDS, "decoder": str, "noise_var": float,
                             "max_iters": int, "damping": float,
                             "received": list[tuple[float, float]]}),
    "export-graph": (graph_text, CODE_FIELDS),
    "simulate": (simulate_text, SimConfig),
    "sweep": (sweep_text, {"configs": list[SimConfig], "target_error": float,
                           "lo_db": float, "hi_db": float, "resolution_db": float}),
}


# --- command handlers ---------------------------------------------------------


def cmd_matrix(args) -> int:
    doc = {**_code_doc(args), "systematic": bool(args.systematic)}
    return _produce(args, doc, shape_given=args.shape)


def cmd_encode(args) -> int:
    doc = _code_doc(args)
    if (args.info is None) == (args.infile is None):
        raise ValueError("provide exactly one of --info or --in")
    if args.info is not None:
        doc["info"] = _parse_list(args.info)
    else:
        with open(args.infile) as fh:
            doc["info"] = _parse_list(fh.read())
    return _produce(args, doc, shape_given=args.shape)


def cmd_decode(args) -> int:
    doc = _code_doc(args)
    received = [[z.real, z.imag] for z in _read_complex_lines(args.infile)]
    doc.update(decoder=args.decoder, noise_var=args.noise_var, max_iters=args.max_iters,
               damping=args.damping, received=received)
    return _produce(args, doc, shape_given=args.shape)


def cmd_export_graph(args) -> int:
    return _produce(args, _code_doc(args), shape_given=args.shape)


def cmd_bound(args) -> int:
    if (args.snr_db is None) == (args.rate is None):
        raise ValueError("provide exactly one of --snr-db or --rate")
    if args.snr_db is not None:
        rate = normal_approx_rate(args.blocklength, args.target_error, db_to_linear(args.snr_db))
        print(repr(rate))
    else:
        snr = min_snr_for_rate(args.blocklength, args.target_error, args.rate)
        print(repr(linear_to_db(snr)))
    return 0


def _sim_config(args, shape: TensorShape, snrs_db, **scenario) -> SimConfig:
    """The one SimConfig builder: run flags shared by simulate and sweep."""
    return SimConfig(
        dims=shape.dims, modulation_order=shape.modulation_order, snrs_db=snrs_db,
        trials=args.trials, seed=args.seed, case=args.case, decoder=args.decoder,
        stop_errors=args.stop_errors, max_iters=args.max_iters, damping=args.damping,
        threads=args.threads, batch_size=args.batch_size, **scenario,
    )


def cmd_simulate(args) -> int:
    config = _sim_config(args, _shape(args), _parse_list(args.snr_db, float),
                         scenario=args.scenario, num_users=args.users,
                         num_antennas=args.antennas)
    return _produce(args, asdict(config), shape_given=args.shape)


def cmd_sweep(args) -> int:
    shapes = [parse_shape(s) for s in _entries(args.shapes, ";")]
    mods = _parse_list(args.mods)
    configs = [
        _sim_config(args, TensorShape(dims, m), (args.snr_lo, args.snr_hi))
        for dims in shapes
        for m in mods
    ]
    doc = {
        "configs": [asdict(c) for c in configs],
        "target_error": args.target_per,
        "lo_db": args.snr_lo,
        "hi_db": args.snr_hi,
        "resolution_db": args.resolution,
    }
    return _produce(args, doc, shapes_given=args.shapes)


def cmd_replay(args) -> int:
    with open(args.manifest) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("manifest is not a JSON object")
    command = doc.get("command")
    if not (isinstance(command, str) and command in REPLAYERS):
        raise ValueError(f"manifest command {command!r} is not replayable")
    producer, fields = REPLAYERS[command]
    simmod.check_fields(config_doc := doc.get("config"), fields)
    if args.threads is not None:
        if command not in ("simulate", "sweep"):
            raise ValueError(f"--threads applies to simulate and sweep manifests, not {command}")
        for c in config_doc["configs"] if command == "sweep" else [config_doc]:
            c["threads"] = args.threads
    out_path = args.out or doc.get("output")
    if not (out_path and isinstance(out_path, str)):
        raise ValueError(f"manifest records no output path (output: {out_path!r}); pass --out")
    _emit(out_path, producer(config_doc), command, config_doc, doc)
    return 0


# --- parser -------------------------------------------------------------------


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", required=True, help="tensor dims, e.g. 4,2,2 or 4x2x2")
    p.add_argument("--mod", type=int, required=True, help="PSK modulation order M")
    p.add_argument("--case", type=int, default=1, choices=CASES,
                   help="reference-symbol case (default 1, non-coherent)")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    """Monte Carlo flags shared by simulate and sweep."""
    p.add_argument("--decoder", choices=sorted(SINGLE_USER_DECODERS), default="bp")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="master seed (mandatory: results are part of the record)")
    p.add_argument("--stop-errors", type=int, default=100,
                   help="stop a point once this many errors accumulate (0 disables)")
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--threads", type=int, default=1,
                   help="most worker processes (default 1): simulate runs its SNR points, "
                        "sweep its rows, in parallel; a lone point or row runs in one "
                        "process (results unchanged)")
    p.add_argument("--batch-size", type=int, default=64,
                   help="most trials drawn at once and held by BP (default 64), fewer "
                        "where their working arrays would pass decoders.BP_BYTES or "
                        "than the --stop-errors budget has errors left (results unchanged)")
    p.add_argument("--out", help="CSV path (stdout if omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbmpsk",
        description="Tensor-based modulation over M-PSK: codes, receivers, simulation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="write a generator matrix as text")
    _add_shape_args(p)
    p.add_argument("--systematic", action="store_true",
                   help="write the [I | P] column permutation (case 1)")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("encode", help="map info symbols to complex samples")
    _add_shape_args(p)
    p.add_argument("--info", help="info symbols, e.g. 0,1,2,3,0")
    p.add_argument("--in", dest="infile", help="file of whitespace-separated info symbols")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode complex samples back to info symbols")
    _add_shape_args(p)
    p.add_argument("--in", dest="infile", required=True, help="file of 're im' lines")
    p.add_argument("--noise-var", type=float, default=1e-6,
                   help="channel noise variance assumed by the decoder")
    p.add_argument("--decoder", choices=sorted(SINGLE_USER_DECODERS), default="bp")
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("export-graph", help="write the factor graph's edge list")
    _add_shape_args(p)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("bound", help="normal-approximation rate or minimum SNR")
    p.add_argument("--blocklength", type=int, required=True)
    p.add_argument("--target-error", type=float, required=True)
    p.add_argument("--snr-db", type=float, help="report the achievable rate at this SNR")
    p.add_argument("--rate", type=float, help="report the minimum SNR (dB) for this rate")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo error-rate points")
    _add_shape_args(p)
    p.add_argument("--scenario", choices=simmod.SCENARIOS, default="awgn")
    p.add_argument("--snr-db", required=True, help="SNR points in dB, e.g. 0,2,4")
    p.add_argument("--users", type=int, default=1, help="active users (simo-mac)")
    p.add_argument("--antennas", type=int, default=1, help="receive antennas (simo-mac)")
    _add_run_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="rate vs measured minimum SNR table")
    p.add_argument("--shapes", required=True, help="semicolon-separated shapes, e.g. 4,2,2;4,4,2")
    p.add_argument("--mods", required=True, help="modulation orders, e.g. 2,4")
    p.add_argument("--case", type=int, default=1, choices=CASES)
    p.add_argument("--target-per", type=float, required=True)
    p.add_argument("--snr-lo", type=float, required=True, help="bracket low end, dB")
    p.add_argument("--snr-hi", type=float, required=True, help="bracket high end, dB")
    p.add_argument("--resolution", type=float, default=0.25, help="grid spacing, dB")
    _add_run_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="re-run a manifest; output must reproduce exactly")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="override the recorded output path")
    p.add_argument("--threads", type=int, help="override worker count (results unchanged)")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
