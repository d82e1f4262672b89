"""Command line behavior: formats, round trips, exit codes, replay."""

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import tbmpsk.decoders as decoders
import tbmpsk.sim as sim
from tbmpsk.cli import REPLAYERS, main, parse_shape
from tbmpsk.ring_code import TensorShape, case_matrix


# outputs and manifests written by an earlier build of the package
REPLAY_FIXTURES = Path(__file__).parent / "replay_fixtures"


# integer fields of a replayed simulate config set to a bool or a non-integer, by test id
NON_INTEGER_FIELDS = {
    "seed-1.5": ("seed", 1.5), "trials-2.5": ("trials", 2.5),
    "batch_size-2.5": ("batch_size", 2.5), "stop_errors-2.5": ("stop_errors", 2.5),
    "max_iters-2.5": ("max_iters", 2.5), "threads-1.5": ("threads", 1.5),
    "trials-true": ("trials", True), "dims-2,2.5": ("dims", [2, 2.5]),
    "modulation_order-4.5": ("modulation_order", 4.5),
}


# a replayed config field set to a value of the wrong kind, by test id:
# (fixture, field, new value or a function of the recorded one, the message)
MISTYPED_FIELDS = {
    "case-true": ("matrix-case1.txt", "case", True, "case must be an integer, got True"),
    "case-1.0": ("matrix-case1.txt", "case", 1.0, "case must be an integer, got 1.0"),
    "systematic-no": ("matrix-systematic.txt", "systematic", "no",
                      "systematic must be true or false, got 'no'"),
    "info-all-true": ("encode-case1.txt", "info", lambda info: [True] * len(info),
                      "an info entry must be an integer, got True"),
    "info-strings": ("encode-case1.txt", "info", lambda info: [str(v) for v in info],
                     "an info entry must be an integer, got '3'"),
    "decode-case-true": ("decode-bp-case1.txt", "case", True, "case must be an integer"),
    "received-strings": ("decode-bp-case1.txt", "received", lambda r: [["1", "0"], *r[1:]],
                         "a received entry must be a number, got '1'"),
    "received-null": ("decode-bp-case1.txt", "received", lambda r: [[None, 0.0], *r[1:]],
                      "a received entry must be a number, got None"),
    "received-number": ("decode-bp-case1.txt", "received", lambda r: [1.0, *r[1:]],
                        "a received entry must be a list of 2, got 1.0"),
    "decode-decoder-list": ("decode-bp-case1.txt", "decoder", ["bp"],
                            "decoder must be a string, got ['bp']"),
    "snrs_db-strings": ("simulate-awgn-bp.csv", "snrs_db", ["0", "2"],
                        "a snrs_db entry must be a number, got '0'"),
    "snrs_db-bool": ("simulate-awgn-bp.csv", "snrs_db", [True, 2.0],
                     "a snrs_db entry must be a number, got True"),
    "snrs_db-string": ("simulate-awgn-bp.csv", "snrs_db", "02",
                       "snrs_db must be a list, got '02'"),
    "decoder-list": ("simulate-awgn-bp.csv", "decoder", ["bp"],
                     "decoder must be a string, got ['bp']"),
    "damping-string": ("simulate-awgn-bp.csv", "damping", "0",
                       "damping must be a number, got '0'"),
    "scenario-1": ("simulate-awgn-bp.csv", "scenario", 1, "scenario must be a string, got 1"),
    "sweep-snrs_db-strings": ("sweep.csv", "configs",
                              lambda cs: [{**cs[0], "snrs_db": ["0", "1"]}, *cs[1:]],
                              "a snrs_db entry must be a number, got '0'"),
    "matrix-extra-key": ("matrix-case1.txt", "bogus", 1, "config has unknown field 'bogus'"),
    "export-graph-extra-key": ("export-graph.txt", "bogus", 1,
                               "config has unknown field 'bogus'"),
}


def _set_field(doc, field, value):
    config = doc["config"]
    config[field] = value(config[field]) if callable(value) else value


# a sweep's target and bracket, for runs that stop before any point
SWEEP_BRACKET = ("--target-per", "0.2", "--snr-lo", "0", "--snr-hi", "4")
# a small run's trials and seed
RUN = ("--trials", "4", "--seed", "1")


def run_cli(*argv):
    return main(list(argv))


class TestParsing:
    def test_shape_formats(self):
        assert parse_shape("4,2,2") == (4, 2, 2)
        assert parse_shape("4x2x2") == (4, 2, 2)

    def test_shape_entries_may_have_spaces(self):
        assert parse_shape(" 4, 2 ,2") == parse_shape("4 x 2x 2 ") == (4, 2, 2)

    def test_bad_shape_exits_2(self, capsys):
        assert run_cli("matrix", "--shape", "4,a", "--mod", "4") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["4,,2", "4,2,2,", "x4x2", "4x2x", "4, ,2", ""])
    def test_empty_shape_entry_exits_2(self, text, capsys):
        # an empty entry is refused, not dropped to run a smaller code
        assert run_cli("simulate", "--shape", text, "--mod", "2", "--snr-db", "0",
                       "--trials", "1", "--seed", "1") == 2
        assert f"cannot parse shape {text!r}" in capsys.readouterr().err

    def test_empty_shape_entry_in_a_sweep_row_exits_2(self, capsys):
        assert run_cli("sweep", "--shapes", "2,2;4,,2", "--mods", "2", "--trials", "1",
                       "--seed", "1", *SWEEP_BRACKET) == 2
        assert "cannot parse shape '4,,2'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, text", [
        (("simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "0,,2", *RUN), "0,,2"),
        (("simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "0,2, ", *RUN), "0,2, "),
        (("encode", "--shape", "2,2", "--mod", "4", "--info", "3,,1"), "3,,1"),
        (("encode", "--shape", "2,2", "--mod", "4", "--info", ",3,1"), ",3,1"),
        (("sweep", "--shapes", "4,2,2;;", "--mods", "4", *SWEEP_BRACKET, *RUN), "4,2,2;;"),
        (("sweep", "--shapes", ";4,2,2", "--mods", "4", *SWEEP_BRACKET, *RUN), ";4,2,2"),
        (("sweep", "--shapes", "4,2,2", "--mods", "4,,", *SWEEP_BRACKET, *RUN), "4,,"),
    ])
    def test_empty_list_entry_exits_2(self, argv, text, tmp_path, capsys):
        # a stray separator is refused, not dropped to run a shorter list
        assert run_cli(*argv, "--out", str(tmp_path / "o.txt")) == 2
        assert f"empty entry in list {text!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content", ["3,,1\n", "3\n1,\n", "3, ,1"])
    def test_empty_entry_in_an_info_file_exits_2(self, content, tmp_path, capsys):
        info = tmp_path / "info.txt"
        info.write_text(content)
        assert run_cli("encode", "--shape", "2,2", "--mod", "4", "--in", str(info)) == 2
        assert f"empty entry in list {content!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["3 1\n", "3\n1\n", "3,\n1\n", " 3 , 1 "])
    def test_info_file_entries_split_on_commas_and_whitespace(self, content, tmp_path, capsys):
        info = tmp_path / "info.txt"
        info.write_text(content)
        assert run_cli("encode", "--shape", "2,2", "--mod", "4", "--in", str(info)) == 0
        from_file = capsys.readouterr().out
        assert run_cli("encode", "--shape", "2,2", "--mod", "4", "--info", " 3, 1 ") == 0
        assert from_file == capsys.readouterr().out

    def test_canonicalization_note(self, capsys):
        assert run_cli("matrix", "--shape", "10,20,16", "--mod", "4") == 0
        assert "canonicalized to 20x16x10" in capsys.readouterr().err


class TestMatrix:
    def test_stdout_matches_library(self, capsys):
        assert run_cli("matrix", "--shape", "4,2,2", "--mod", "4", "--case", "1") == 0
        out = capsys.readouterr().out
        sh = TensorShape((4, 2, 2), 4)
        assert out == case_matrix(sh, 1).to_text()
        assert out.splitlines()[0] == "5 15 4"

    def test_systematic_needs_case1(self, capsys):
        rc = run_cli("matrix", "--shape", "4,2,2", "--mod", "4", "--case", "3",
                     "--systematic")
        assert rc == 2

    def test_file_output_with_manifest(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run_cli("matrix", "--shape", "2,2", "--mod", "2", "--out", str(out)) == 0
        assert out.exists()
        doc = json.loads((tmp_path / "g.txt.manifest.json").read_text())
        assert doc["command"] == "matrix"
        assert doc["shape_given"] == "2,2"

    def test_manifest_keeps_shape_as_typed(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run_cli("matrix", "--shape", "2x4", "--mod", "2", "--out", str(out)) == 0
        doc = json.loads((tmp_path / "g.txt.manifest.json").read_text())
        assert doc["shape_given"] == "2x4"
        assert doc["config"]["dims"] == [4, 2]


class TestEncodeDecode:
    def test_all_zero_word_maps_to_ones(self, capsys):
        assert run_cli("encode", "--shape", "4,2,2", "--mod", "4",
                       "--info", "0,0,0,0,0") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        for line in lines:
            re, im = (float(v) for v in line.split())
            assert (re, im) == (1.0, 0.0)

    def test_round_trip_via_files(self, tmp_path, capsys):
        enc = tmp_path / "s.txt"
        assert run_cli("encode", "--shape", "4,2,2", "--mod", "4",
                       "--info", "3,1,0,2,1", "--out", str(enc)) == 0
        assert run_cli("decode", "--shape", "4,2,2", "--mod", "4",
                       "--in", str(enc)) == 0
        assert capsys.readouterr().out.strip() == "3 1 0 2 1"

    def test_ml_decoder_round_trip(self, tmp_path, capsys):
        enc = tmp_path / "s.txt"
        run_cli("encode", "--shape", "2,2", "--mod", "4", "--info", "2,3",
                "--out", str(enc))
        assert run_cli("decode", "--shape", "2,2", "--mod", "4", "--in", str(enc),
                       "--decoder", "ml") == 0
        assert capsys.readouterr().out.strip() == "2 3"

    def test_ml_guard_exits_3(self, tmp_path, capsys):
        enc = tmp_path / "s.txt"
        run_cli("encode", "--shape", "10,20,16", "--mod", "4",
                "--info", ",".join(["0"] * 43), "--out", str(enc))
        capsys.readouterr()
        rc = run_cli("decode", "--shape", "10,20,16", "--mod", "4", "--in", str(enc),
                     "--decoder", "ml")
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_nan_noise_variance_exits_2(self, tmp_path, capsys):
        enc = tmp_path / "s.txt"
        run_cli("encode", "--shape", "4,2,2", "--mod", "4", "--info", "3,1,0,2,1",
                "--out", str(enc))
        assert run_cli("decode", "--shape", "4,2,2", "--mod", "4", "--in", str(enc),
                       "--noise-var", "nan", "--decoder", "bp") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("decoder", ["bp", "ml"])
    def test_infinite_noise_variance_exits_2(self, decoder, tmp_path, capsys):
        # an infinite variance makes every channel pmf uniform, so BP would
        # print the all-zero word whatever was received
        enc = tmp_path / "s.txt"
        run_cli("encode", "--shape", "4,2,2", "--mod", "4", "--info", "3,1,0,2,1",
                "--out", str(enc))
        assert run_cli("decode", "--shape", "4,2,2", "--mod", "4", "--in", str(enc),
                       "--noise-var", "inf", "--decoder", decoder) == 2
        captured = capsys.readouterr()
        assert "error: noise variance" in captured.err and captured.out == ""

    @pytest.mark.parametrize("sample", ["nan", "inf"])
    @pytest.mark.parametrize("decoder", ["bp", "ml"])
    def test_non_finite_sample_exits_2(self, decoder, sample, tmp_path, capsys):
        # such a sample once decoded to the all-zero word
        enc = tmp_path / "s.txt"
        run_cli("encode", "--shape", "2,2", "--mod", "4", "--info", "2,3", "--out", str(enc))
        enc.write_text(f"{sample} 0\n" + enc.read_text().split("\n", 1)[1])
        out = tmp_path / "d.txt"
        assert run_cli("decode", "--shape", "2,2", "--mod", "4", "--in", str(enc),
                       "--decoder", decoder, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: received samples")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [("--max-iters", "0"), ("--damping", "7")])
    @pytest.mark.parametrize("decoder", ["bp", "ml"])
    def test_bad_bp_settings_exit_2_under_every_decoder(self, decoder, bad, tmp_path, capsys):
        enc = tmp_path / "s.txt"
        run_cli("encode", "--shape", "4,2,2", "--mod", "4", "--info", "3,1,0,2,1",
                "--out", str(enc))
        assert run_cli("decode", "--shape", "4,2,2", "--mod", "4", "--in", str(enc),
                       "--decoder", decoder, *bad) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, code, message", [
        (lambda lines: ["", *lines[:2], "  ", *lines[2:], ""], 0, ""),
        (lambda lines: [*lines[:2], lines[2] + " 0", *lines[3:]], 2, "s.txt:3: expected 're im'"),
        (None, 2, "expected 16 samples, got 0"),
    ], ids=["blank-lines-skipped", "three-fields", "dev-null"])
    def test_decode_input_file(self, edit, code, message, tmp_path, capsys):
        enc = tmp_path / "s.txt"
        run_cli("encode", "--shape", "4,2,2", "--mod", "4", "--info", "3,1,0,2,1",
                "--out", str(enc))
        if edit is None:
            enc = Path(os.devnull)
        else:
            enc.write_text("\n".join(edit(enc.read_text().splitlines())))
        capsys.readouterr()
        assert run_cli("decode", "--shape", "4,2,2", "--mod", "4", "--in", str(enc)) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("error: ") and message in captured.err
        else:
            assert captured.out == "3 1 0 2 1\n"

    def test_wrong_info_length_exits_2(self):
        assert run_cli("encode", "--shape", "4,2,2", "--mod", "4", "--info", "1,2") == 2


class TestGraphAndBound:
    def test_export_graph_lines(self, capsys):
        assert run_cli("export-graph", "--shape", "4,2,2", "--mod", "4") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 28
        assert all(line.startswith("u ") for line in lines)

    def test_bound_rate_value(self, capsys):
        assert run_cli("bound", "--blocklength", "3200", "--target-error", "0.01",
                       "--snr-db", "0") == 0
        val = float(capsys.readouterr().out.strip())
        assert abs(val - 0.9504380819331502) < 1e-9

    def test_bound_min_snr(self, capsys):
        assert run_cli("bound", "--blocklength", "3200", "--target-error", "0.01",
                       "--rate", "0.625") == 0
        float(capsys.readouterr().out.strip())

    def test_bound_min_snr_at_the_floor(self, capsys):
        # a rate reached at the bisection's lowest SNR, 1e-9, prints that floor
        assert run_cli("bound", "--blocklength", "16", "--target-error", "0.1",
                       "--rate", "0.01") == 0
        assert capsys.readouterr().out == "-90.0\n"

    def test_bound_unreachable_exits_3(self, capsys):
        assert run_cli("bound", "--blocklength", "3200", "--target-error", "0.01",
                       "--rate", "40") == 3

    def test_bound_requires_one_mode(self):
        assert run_cli("bound", "--blocklength", "100", "--target-error", "0.01") == 2

    @pytest.mark.parametrize("snr_db", ["inf", "nan", "4000"])
    def test_bound_non_finite_snr_exits_2(self, snr_db, capsys):
        assert run_cli("bound", "--blocklength", "100", "--target-error", "0.01",
                       "--snr-db", snr_db) == 2
        assert "error:" in capsys.readouterr().err

    def test_bound_nan_rate_exits_2(self, capsys):
        assert run_cli("bound", "--blocklength", "100", "--target-error", "0.01",
                       "--rate", "nan") == 2
        assert "error:" in capsys.readouterr().err


class TestSimulateReplay:
    def test_csv_and_manifest_then_replay(self, tmp_path):
        out = tmp_path / "r.csv"
        args = ["simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "2",
                "--trials", "40", "--seed", "7", "--stop-errors", "0",
                "--out", str(out)]
        assert run_cli(*args) == 0
        first = out.read_bytes()
        manifest = tmp_path / "r.csv.manifest.json"
        assert manifest.exists()

        out2 = tmp_path / "replayed.csv"
        assert run_cli("replay", "--manifest", str(manifest), "--out", str(out2),
                       "--threads", "2") == 0
        assert out2.read_bytes() == first

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "2",
                    "--trials", "10")
        assert exc.value.code == 2

    def test_simulate_stdout(self, capsys):
        assert run_cli("simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "8",
                       "--trials", "10", "--seed", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scenario,shape,M,")
        assert len(lines) == 2

    def test_sweep_writes_table(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--shapes", "4,2,2", "--mods", "4", "--target-per", "0.1",
                     "--snr-lo", "-2", "--snr-hi", "6", "--resolution", "2",
                     "--trials", "60", "--seed", "3", "--stop-errors", "0",
                     "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("shape,M,case,rate")
        assert len(lines) == 2
        assert (tmp_path / "sweep.csv.manifest.json").exists()

    def test_replay_sweep_reproduces(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--shapes", "2,2", "--mods", "4", "--target-per", "0.2",
                "--snr-lo", "0", "--snr-hi", "4", "--resolution", "2",
                "--trials", "40", "--seed", "3", "--stop-errors", "0",
                "--out", str(out))
        first = out.read_bytes()
        out2 = tmp_path / "again.csv"
        assert run_cli("replay", "--manifest", str(out) + ".manifest.json",
                       "--out", str(out2)) == 0
        assert out2.read_bytes() == first

    @pytest.mark.parametrize("run_args", [
        ("simulate", "--shape", "2,2", "--mod", "4", "--snr-db", ","),
        ("sweep", "--shapes", ";", "--mods", "4", *SWEEP_BRACKET),
        ("sweep", "--shapes", "2,2", "--mods", ",", *SWEEP_BRACKET),
    ])
    def test_empty_run_list_exits_2(self, run_args, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli(*run_args, "--trials", "4", "--seed", "1", "--out", str(out)) == 2
        assert "error: need at least one" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fixture, emptied", [("simulate-awgn-bp", "snrs_db"),
                                                  ("sweep", "configs")])
    def test_replay_of_empty_run_list_exits_2(self, fixture, emptied, tmp_path):
        doc = json.loads((REPLAY_FIXTURES / f"{fixture}.csv.manifest.json").read_text())
        doc["config"][emptied] = []
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        assert run_cli("replay", "--manifest", str(manifest), "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("fixture, edit, argv", [
        ("simulate-awgn-bp.csv", lambda doc: doc.pop("config"), ()),
        ("matrix-case1.txt", lambda doc: doc["config"].pop("modulation_order"), ()),
        ("simulate-awgn-bp.csv", lambda doc: doc["config"].update(bogus=1), ()),
        ("matrix-case1.txt", lambda doc: doc["config"].update(dims=None), ()),
        ("sweep.csv", lambda doc: doc["config"].update(configs=None), ()),
        ("decode-bp-case1.txt", lambda doc: doc["config"].update(decoder="foo"), ()),
        ("decode-bp-case1.txt", lambda doc: doc["config"].update(received=None), ()),
        ("encode-case1.txt", lambda doc: doc["config"].update(info=None), ()),
        ("export-graph.txt", lambda doc: doc["config"].update(modulation_order=None), ()),
        ("matrix-case1.txt", lambda doc: doc.update(config=[doc["config"]]), ()),
        ("matrix-case1.txt", "list", ()),
        ("decode-bp-case1.txt", lambda doc: doc["config"].update(noise_var=None), ()),
        ("decode-bp-case1.txt", lambda doc: doc["config"].update(max_iters=None), ()),
        ("sweep.csv", lambda doc: doc["config"].update(target_error=None), ()),
        ("sweep.csv", lambda doc: doc["config"]["configs"].append(1), ("--threads", "1")),
        *[("simulate-awgn-bp.csv", lambda doc, kv=kv: doc["config"].update([kv]), ())
          for kv in NON_INTEGER_FIELDS.values()],
        ("decode-bp-case1.txt", lambda doc: doc["config"].update(
            received=[[float("nan"), 0.0]] + doc["config"]["received"][1:]), ()),
        *[(fixture, lambda doc, f=field, v=value: _set_field(doc, f, v), ())
          for fixture, field, value, _ in MISTYPED_FIELDS.values()],
        ("matrix-case1.txt", lambda doc: doc.update(command=["matrix"]), ()),
        # argv None: no --out, so replay reads the manifest's output
        *[("matrix-case1.txt", lambda doc, v=v: doc.update(output=v), None)
          for v in (True, 5, ["a"])],
        ("simulate-simo-mac.csv",
         lambda doc: doc["config"].update(num_users=3, num_antennas=1), ()),
        ("simulate-awgn-bp.csv", lambda doc: doc["config"].update(case=4), ()),
        ("simulate-awgn-bp.csv", lambda doc: doc["config"].update(decoder="foo"), ()),
        ("sweep.csv", lambda doc: doc["config"]["configs"][0].update(decoder="foo"), ()),
        # --threads on a manifest that runs no trials is a setting it would ignore
        *[(fixture, lambda doc: None, ("--threads", n))
          for fixture in ("matrix-case1.txt", "encode-case1.txt", "decode-bp-case1.txt",
                          "export-graph.txt") for n in ("0", "1", "1000")],
    ], ids=["no-config", "no-modulation-order", "unknown-sim-field", "null-dims",
            "null-configs", "unknown-decoder", "null-received", "null-info",
            "null-modulation-order", "list-config", "list-manifest", "null-noise-var",
            "null-max-iters", "null-target-error", "int-config-with-threads",
            *NON_INTEGER_FIELDS, "nan-received", *MISTYPED_FIELDS, "list-command",
            "output-true", "output-5", "output-list", "kruskal", "simulate-case-4",
            "simulate-unknown-decoder", "sweep-unknown-decoder",
            *[f"threads-{n}-on-{c}" for c in ("matrix", "encode", "decode", "export-graph")
              for n in ("0", "1", "1000")]])
    def test_replay_of_malformed_manifest_exits_2(self, fixture, edit, argv, tmp_path, capfd):
        doc = json.loads((REPLAY_FIXTURES / f"{fixture}.manifest.json").read_text())
        if edit == "list":  # the manifest becomes a JSON list
            doc = [doc]
        else:
            edit(doc)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "r"
        out_args = () if argv is None else ("--out", str(out), *argv)
        assert run_cli("replay", "--manifest", str(manifest), *out_args) == 2
        captured = capfd.readouterr()  # fd-level: output True would write to descriptor 1
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists() and list(tmp_path.iterdir()) == [manifest]

    @pytest.mark.parametrize("fixture, field, value, message", MISTYPED_FIELDS.values(),
                             ids=list(MISTYPED_FIELDS))
    def test_replay_of_mistyped_field_names_it(self, fixture, field, value, message,
                                               tmp_path, capsys):
        doc = json.loads((REPLAY_FIXTURES / f"{fixture}.manifest.json").read_text())
        _set_field(doc, field, value)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert run_cli("replay", "--manifest", str(manifest), "--out", str(tmp_path / "r")) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("run_args", [
        ("simulate", "--shape", "2,2", "--mod", "4", "--snr-db", "2"),
        ("sweep", "--shapes", "2,2", "--mods", "4", *SWEEP_BRACKET),
    ])
    def test_threads_above_cap_exit_2(self, run_args, tmp_path, capsys):
        # one SNR or one row would run in this process: no worker starts
        out = tmp_path / "r.csv"
        assert run_cli(*run_args, "--trials", "4", "--seed", "1",
                       "--threads", str(sim.MAX_THREADS + 1), "--out", str(out)) == 2
        assert "error: threads" in capsys.readouterr().err
        assert not out.exists()

    def test_simo_mac_below_kruskal_exits_2(self, tmp_path, capsys):
        # 3 users, 1 antenna on (4,2,2): k-ranks 3 + 2 + 2 + 1 = 8 < 2 * 3 + 3
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--scenario", "simo-mac", "--shape", "4,2,2", "--mod", "4",
                       "--users", "3", "--antennas", "1", "--snr-db", "30", "--trials", "20",
                       "--seed", "1", "--out", str(out)) == 2
        assert "Kruskal's condition: generic k-ranks sum to 8 < 2 * users + modes = 9" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_replay_threads_above_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--shape", "2,2", "--mod", "4", "--snr-db", "2",
                       "--trials", "4", "--seed", "1", "--out", str(out)) == 0
        again = tmp_path / "again.csv"
        assert run_cli("replay", "--manifest", f"{out}.manifest.json", "--out", str(again),
                       "--threads", str(sim.MAX_THREADS + 1)) == 2
        assert "error: threads" in capsys.readouterr().err
        assert not again.exists()

    def test_simo_mac_byte_guard_exits_3_before_any_draw(self, monkeypatch, tmp_path, capsys):
        drawn = []
        monkeypatch.setattr(decoders, "CP_BYTES", 1000)
        monkeypatch.setattr(sim, "trial_rng", lambda *key: drawn.append(key))
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--scenario", "simo-mac", "--shape", "4,2,2", "--mod", "4",
                       "--users", "2", "--antennas", "2", "--snr-db", "10", "--trials", "4",
                       "--seed", "1", "--out", str(out)) == 3
        assert "CP-ALS arrays" in capsys.readouterr().err
        assert not drawn and not out.exists()

    @pytest.mark.parametrize("run_args, code, message", [
        (("--shape", "20,16,10", "--decoder", "ml"), 3, "ML enumeration"),
        (("--shape", "4,2,2", "--scenario", "simo-mac", "--users", "2", "--antennas", "2"),
         3, "CP-ALS arrays"),
        (("--shape", "4,2,2"), 2, "raised in process"),
    ], ids=["ml-guard", "cp-byte-guard", "value-error"])
    def test_error_in_a_worker_keeps_its_exit_code(self, monkeypatch, run_args, code,
                                                   message, tmp_path, capsys):
        # two SNRs at --threads 2 run in a pool of 2, so the parent runs no
        # point; forked workers inherit the patched limit and producer
        made, pool = [], sim.ProcessPoolExecutor
        monkeypatch.setattr(sim, "ProcessPoolExecutor",
                            lambda max_workers: made.append(max_workers) or pool(max_workers))
        monkeypatch.setattr(decoders, "CP_BYTES", 1000)

        def fail(*args):
            raise ValueError(f"raised in process {os.getpid()}")

        if code == 2:
            monkeypatch.setattr(sim, "_collect_outcomes", fail)
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--mod", "4", "--snr-db", "0,2", "--trials", "4",
                       "--seed", "1", "--threads", "2", *run_args, "--out", str(out)) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert f"process {os.getpid()}\n" not in err
        assert made == [2] and not out.exists()

    def test_sweep_invalid_target_exits_2_before_any_trial(self, monkeypatch, capsys):
        # every row's bound is computed before the pool starts
        made, drawn = [], []
        monkeypatch.setattr(sim, "ProcessPoolExecutor", lambda **kw: made.append(kw))
        monkeypatch.setattr(sim, "trial_rng", lambda *key: drawn.append(key))
        assert run_cli("sweep", "--shapes", "4,2,2;2,2", "--mods", "4", "--target-per", "1.5",
                       "--snr-lo", "0", "--snr-hi", "4", "--trials", "4", "--seed", "1",
                       "--threads", "2") == 2
        assert "error: target error" in capsys.readouterr().err
        assert not made and not drawn

    @pytest.mark.parametrize("run_args", [
        ("--decoder", "bp"),
        ("--decoder", "ml"),
        ("--scenario", "simo-mac", "--antennas", "2"),
    ])
    def test_infinite_snr_decodes_every_trial(self, run_args, capsys):
        assert run_cli("simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "inf",
                       "--trials", "4", "--seed", "1", *run_args) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[5:8] == ["inf", "4", "0"]

    @pytest.mark.parametrize("run_args", [
        ("--scenario", "simo-mac", "--decoder", "ml", "--antennas", "2"),
        ("--decoder", "ml", "--max-iters", "0"),
        ("--decoder", "ml", "--damping", "7"),
        ("--users", "3", "--antennas", "7"),
        ("--users", "0"),
        ("--antennas", "2"),
    ])
    def test_settings_the_run_would_ignore_exit_2(self, run_args, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run_cli("simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "10",
                       "--trials", "4", "--seed", "1", *run_args, "--out", str(out)) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("--trials", "0"), "trials must be >= 1, got 0"),
        (("--stop-errors", "-1"), "stop_errors must be >= 0, got -1"),
        (("--threads", "0"), "threads and batch_size must be >= 1"),
        (("--batch-size", "0"), "threads and batch_size must be >= 1"),
        (("--scenario", "simo-mac", "--users", "0"), "num_users and num_antennas must be >= 1"),
        (("sweep", "--shapes", "2,2", "--mods", "4", "--target-per", "0.2", "--snr-lo", "2",
          "--snr-hi", "1", *RUN), "need lo_db < hi_db"),
        (("encode", "--shape", "4,2,2", "--mod", "4"), "provide exactly one of --info or --in"),
    ], ids=["trials-0", "stop-errors-minus-1", "threads-0", "batch-size-0", "simo-mac-users-0",
            "sweep-bracket-reversed", "encode-without-input"])
    def test_out_of_range_setting_exits_2_naming_it(self, argv, message, tmp_path, capsys):
        # flags alone are a simulate run's: the last value of a flag wins over RUN's
        if argv[0].startswith("--"):
            argv = ("simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "10", *RUN, *argv)
        out = tmp_path / "o.txt"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("run_args", [
        ("--snr-db", "nan"),
        ("--snr-db", "nan", "--scenario", "simo-mac", "--antennas", "2"),
        ("--snr-db=-inf",),
        ("--snr-db=-inf", "--scenario", "simo-mac", "--antennas", "2"),
        ("--snr-db=-4000",),
        ("--snr-db=-4000", "--scenario", "simo-mac", "--antennas", "2"),
        # 10^(-320) is positive, but its noise variance 1 / 10^(-320) overflows
        ("--snr-db=-3200",),
        ("--snr-db=-3200", "--scenario", "simo-mac", "--users", "2", "--antennas", "2"),
    ])
    def test_nan_or_minus_inf_snr_exits_2(self, run_args, capsys):
        assert run_cli("simulate", "--shape", "4,2,2", "--mod", "4", "--trials", "4",
                       "--seed", "1", *run_args) == 2
        assert "error: SNR" in capsys.readouterr().err

    @pytest.mark.parametrize("run_args", [
        ("--decoder", "bp"),
        ("--scenario", "simo-mac", "--antennas", "2"),
    ])
    def test_snr_past_the_float_range_is_zero_noise(self, run_args, capsys):
        assert run_cli("simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "4000",
                       "--trials", "4", "--seed", "1", *run_args) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[5:8] == ["4000.0", "4", "0"]

    def test_sweep_past_the_float_range_runs(self, capsys):
        assert run_cli("sweep", "--shapes", "2,2", "--mods", "4", "--target-per", "0.2",
                       "--snr-lo", "3990", "--snr-hi", "4000", "--trials", "4",
                       "--seed", "3") == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[5] == "3990.0"

    def test_sweep_resolution_without_finite_step_count_exits_2(self, capsys):
        # 4 / 5e-324 overflows to inf steps
        assert run_cli("sweep", "--shapes", "2,2", "--mods", "4", "--target-per", "0.2",
                       "--snr-lo", "0", "--snr-hi", "4", "--trials", "4", "--seed", "1",
                       "--resolution", "5e-324") == 2
        assert "error: resolution" in capsys.readouterr().err

    @pytest.mark.parametrize("bracket", [("--snr-lo", "0", "--snr-hi", "inf"),
                                         ("--snr-lo=-inf", "--snr-hi", "4"),
                                         ("--snr-lo", "nan", "--snr-hi", "4")])
    def test_sweep_non_finite_bracket_exits_2(self, bracket, capsys):
        assert run_cli("sweep", "--shapes", "2,2", "--mods", "4", "--target-per", "0.2",
                       *bracket, "--trials", "4", "--seed", "3") == 2
        assert "error:" in capsys.readouterr().err


SCIPY_BLOCKED = textwrap.dedent("""
    import sys

    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"scipy is blocked: {name}")
            return None

    sys.meta_path.insert(0, BlockScipy())
    from tbmpsk.cli import main

    received = sys.argv[1]
    runs = [
        ["simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "2", "--trials", "8",
         "--seed", "1"],
        ["simulate", "--scenario", "simo-mac", "--shape", "4,2,2", "--mod", "4",
         "--users", "1", "--antennas", "2", "--snr-db", "10", "--trials", "2", "--seed", "1"],
        ["sweep", "--shapes", "2,2", "--mods", "4", "--target-per", "0.2", "--snr-lo", "0",
         "--snr-hi", "4", "--resolution", "2", "--trials", "8", "--seed", "3"],
        ["bound", "--blocklength", "100", "--target-error", "0.01", "--rate", "0.5"],
        ["bound", "--blocklength", "100", "--target-error", "0.01", "--snr-db", "0"],
        ["decode", "--shape", "4,2,2", "--mod", "4", "--in", received, "--decoder", "ml"],
    ]
    codes = [main(argv) for argv in runs]
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print("RESULT", codes, loaded)
""")


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports tbmpsk from ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_commands_run_without_scipy(tmp_path):
    received = tmp_path / "s.txt"
    assert run_cli("encode", "--shape", "4,2,2", "--mod", "4", "--info", "3,1,0,2,1",
                   "--out", str(received)) == 0
    proc = run_fresh(SCIPY_BLOCKED, str(received))
    result = proc.stdout.splitlines()[-1]
    assert result == "RESULT [0, 0, 0, 0, 0, 0] []", proc.stdout + proc.stderr
    assert "3 1 0 2 1" in proc.stdout


# the modules a run in one process does not need: the process pool's, and the
# normal approximation's, which only sweep and bound evaluate
IMPORT_FOOTPRINT = textwrap.dedent("""
    import sys
    from tbmpsk.cli import main

    lazy = ("concurrent.futures", "multiprocessing", "statistics")
    runs = [
        ["simulate", "--shape", "4,2,2", "--mod", "4", "--snr-db", "0,2", "--trials", "8",
         "--seed", "1", "--threads", "1"],
        ["sweep", "--shapes", "2,2", "--mods", "4", "--target-per", "0.2", "--snr-lo", "0",
         "--snr-hi", "4", "--resolution", "2", "--trials", "8", "--seed", "3",
         "--threads", "1"],
    ]
    for argv in runs:
        code = main(argv)
        print("RESULT", argv[0], code, [m for m in lazy if m in sys.modules])
""")


def test_one_process_runs_import_no_process_pool():
    # a fresh interpreter: this one may have loaded these modules already
    results = [line for line in run_fresh(IMPORT_FOOTPRINT).stdout.splitlines()
               if line.startswith("RESULT ")]
    assert results == ["RESULT simulate 0 []", "RESULT sweep 0 ['statistics']"]


@pytest.mark.parametrize("argv", [
    ("matrix", "--shape", "4,2,2", "--mod", "4", "--systematic"),
    ("encode", "--shape", "4,2,2", "--mod", "4", "--info", "3,1,0,2,1"),
    ("decode", "--shape", "2,2", "--mod", "4", "--decoder", "ml"),
    ("export-graph", "--shape", "4,2,2", "--mod", "4", "--case", "3"),
    ("simulate", "--shape", "2,2", "--mod", "4", "--snr-db", "2", "--trials", "4", "--seed", "1"),
    ("sweep", "--shapes", "2,2", "--mods", "4", *SWEEP_BRACKET, "--resolution", "2",
     "--trials", "4", "--seed", "1"),
], ids=lambda argv: argv[0])
def test_written_config_holds_exactly_its_command_fields(argv, tmp_path):
    # a flag that reaches a config doc but not its command's table fails here
    received = tmp_path / "s.txt"
    assert run_cli("encode", "--shape", "2,2", "--mod", "4", "--info", "2,3",
                   "--out", str(received)) == 0
    out = tmp_path / "out"
    extra = ("--in", str(received)) if argv[0] == "decode" else ()
    assert run_cli(*argv, *extra, "--out", str(out)) == 0
    config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
    fields = REPLAYERS[argv[0]][1]
    assert sorted(config) == sorted(get_type_hints(fields) if is_dataclass(fields) else fields)
    sim.check_fields(config, fields)  # a sweep's configs too, each against SimConfig's fields


@pytest.mark.parametrize(
    "manifest", sorted(REPLAY_FIXTURES.glob("*.manifest.json")), ids=lambda p: p.name[:-14]
)
def test_replays_stored_manifest_byte_for_byte(manifest, tmp_path):
    out = tmp_path / "replayed"
    assert run_cli("replay", "--manifest", str(manifest), "--out", str(out)) == 0
    assert out.read_bytes() == manifest.with_name(manifest.name[:-14]).read_bytes()
    # the new manifest keeps every recorded key, shape_given or shapes_given too
    recorded = json.loads(manifest.read_text())
    replayed = json.loads(Path(f"{out}.manifest.json").read_text())
    for key in ("version", "created", "output"):
        del recorded[key], replayed[key]
    assert replayed == recorded
