import collections
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import naive_complexity, naive_right_special
from digitseq import __version__, catalog, pda
from digitseq.cli import main
from digitseq.dfao import Dfao
from digitseq.machinefile import machine_to_dict
from digitseq.morphic import MorphicSpec
from digitseq.pda import Dpao

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def machines(tmp_path):
    d = tmp_path / "machines"
    catalog.export_all(d)
    return d


def run_cli(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestDigits:
    def test_xi2_golden(self, runner, machines):
        r = run_cli(runner, ["digits", "--machine",
                             str(machines / "xi2.json"), "--count", "40"])
        assert r.exit_code == 0
        assert r.output.strip() == \
            "1110111001101000011111101110100000010110"

    def test_count_takes_a_power(self, runner, machines):
        for source in (["--stream", "xi3"],
                       ["--machine", str(machines / "xi2.json")]):
            power = run_cli(runner, ["digits", *source, "--count", "2^4"])
            plain = run_cli(runner, ["digits", *source, "--count", "16"])
            assert power.exit_code == plain.exit_code == 0
            assert power.stdout_bytes == plain.stdout_bytes
            assert len(plain.output) == 17

    def test_surd_stream(self, runner):
        r = run_cli(runner, ["digits", "--stream", "surd:2", "--base", "10",
                             "--count", "39"])
        assert r.output.strip() == \
            "414213562373095048801688724209698078569"

    def test_bad_file_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        r = run_cli(runner, ["digits", "--machine", str(bad)])
        assert r.exit_code == 2

    @pytest.mark.parametrize("spec, message", [
        ("rational:22/7", "need 0 <= p < q"),
        ("rational:1/0", "denominator must be positive"),
        ("surd:4", "4 is a perfect square"),
        ("surd:-3", "surd radicand must be at least 2"),
    ])
    def test_bad_number_stream_exits_2(self, runner, spec, message):
        r = run_cli(runner, ["digits", "--stream", spec, "--base", "10"])
        assert r.exit_code == 2
        assert r.output.startswith(
            f"error: cannot open stream {spec!r}: {message}")

    @pytest.mark.parametrize("spec, message", [
        ("rational:1/7", "rational streams need --base"),
        ("surd:2", "surd streams need --base"),
        ("file:empty.txt", "stream file 'empty.txt' is empty"),
    ])
    def test_stream_that_cannot_open_exits_2(self, runner, tmp_path,
                                             monkeypatch, spec, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        r = run_cli(runner, ["digits", "--stream", spec])
        assert r.exit_code == 2
        assert r.output == f"error: cannot open stream {spec!r}: {message}\n"

    def test_machine_and_stream_conflict(self, runner, machines):
        r = run_cli(runner, ["digits", "--machine",
                             str(machines / "xi2.json"), "--stream", "xi3"])
        assert r.exit_code == 2

    def test_output_file(self, runner, machines, tmp_path):
        out = tmp_path / "digits.txt"
        r = run_cli(runner, ["digits", "--machine",
                             str(machines / "thue-morse.json"),
                             "--count", "8", "--output", str(out)])
        assert r.exit_code == 0
        assert out.read_text() == "01101001\n"


class TestAnalyze:
    def test_dio_profile_text(self, runner, machines):
        r = run_cli(runner, ["analyze", "--machine",
                             str(machines / "thue-morse.json"),
                             "--dio", "2^4..2^6"])
        assert r.exit_code == 0
        assert "length 16" in r.output and "length 64" in r.output

    def test_json_format(self, runner, machines):
        r = run_cli(runner, ["analyze", "--machine",
                             str(machines / "xi1.json"),
                             "--complexity", "1..4",
                             "--prefix-length", "2^10",
                             "--format", "json"])
        doc = json.loads(r.output)
        assert doc["complexity"][0] == {"n": 1, "p": 3}

    def test_insufficient_prefix_exits_3(self, runner, tmp_path):
        stream = tmp_path / "short.txt"
        stream.write_text("0101", encoding="utf-8")
        r = run_cli(runner, ["analyze", "--stream", f"file:{stream}",
                             "--dio", "2^4..2^6"])
        assert r.exit_code == 3

    def test_prefix_shorter_than_the_blocks_exits_3(self, runner, machines):
        r = run_cli(runner, ["analyze", "--machine",
                             str(machines / "xi2.json"), "--complexity",
                             "1..64", "--prefix-length", "32"])
        assert r.exit_code == 3
        assert r.output == ("error: --prefix-length 32 is too short for the "
                            "requested block lengths\n")

    def test_growth_and_dilation(self, runner, machines):
        r = run_cli(runner, ["analyze", "--machine",
                             str(machines / "squares.json"),
                             "--dilation", "10^3", "--growth"])
        assert r.exit_code == 0
        assert "stays above 1: False" in r.output
        assert "exponential growth: False" in r.output

    @pytest.mark.parametrize("option, lengths", [
        ("--dio", "1^2..1^3"),        # power base 1 never reaches the end
        ("--complexity", "5..1"),     # descending range
        ("--right-special", "0..3"),  # block length 0
        ("--dio", "2^4..2^x"),        # not a number
    ])
    def test_bad_lengths_exit_2(self, runner, machines, option, lengths):
        r = run_cli(runner, ["analyze", "--machine",
                             str(machines / "thue-morse.json"), option, lengths,
                             "--prefix-length", "2^10"])
        assert r.exit_code == 2
        assert r.output.startswith("error: ")

    @pytest.mark.parametrize("token", ["3^30000000", "7^3000000"])
    def test_huge_power_exits_2_before_computing(self, runner, token):
        start = time.perf_counter()
        r = run_cli(runner, ["analyze", "--stream", "xi3", "--complexity",
                             "1..2", "--prefix-length", token])
        assert time.perf_counter() - start < 1
        assert r.exit_code == 2
        assert r.output == \
            f"error: number too large: '{token}' is 2^64 or more\n"

    def test_full_byte_alphabet_stream(self, runner, tmp_path):
        # 256 distinct tokens use every byte value: the window index's
        # sentinel lies above them
        rng = random.Random(5)
        tokens = [f"s{i}" for i in range(256)]
        tokens += [rng.choice(tokens) for _ in range(300)]
        stream = tmp_path / "bytes.txt"
        stream.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        args = ["analyze", "--stream", f"file:{stream}",
                "--prefix-length", str(len(tokens))]
        r = run_cli(runner, args + ["--complexity", "1..3",
                                    "--right-special", "1..3"])
        assert r.exit_code == 0
        for n in (1, 2, 3):
            p = naive_complexity(tuple(tokens), n)
            rs = naive_right_special(tuple(tokens), n)
            assert f"p({n}) = {p}\n" in r.output
            assert f"rs({n}) = {rs}\n" in r.output

    def test_right_special_table(self, runner, machines):
        r = run_cli(runner, ["analyze", "--machine",
                             str(machines / "thue-morse.json"),
                             "--right-special", "1..4",
                             "--prefix-length", "2^12"])
        assert r.exit_code == 0
        assert "rs(1) = 2" in r.output


class TestCertifyVerify:
    def test_full_cycle_xi2(self, runner, machines, tmp_path):
        cert = tmp_path / "cert.json"
        r = run_cli(runner, ["certify", "--machine",
                             str(machines / "xi2.json"),
                             "--depth", "8", "--output", str(cert)])
        assert r.exit_code == 0
        doc = json.loads(cert.read_text())
        assert (doc["n"], doc["nPrime"]) == (1, 5)
        assert doc["dioLowerBound"] == "5/4"
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / "xi2.json")])
        assert v.exit_code == 0
        assert "valid" in v.output

    def test_tampered_certificate_fails(self, runner, machines, tmp_path):
        cert = tmp_path / "cert.json"
        run_cli(runner, ["certify", "--machine", str(machines / "xi2.json"),
                         "--depth", "6", "--output", str(cert)])
        doc = json.loads(cert.read_text())
        doc["witnesses"][-1]["ext"] += 1
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / "xi2.json")])
        assert v.exit_code == 2

    def test_wrong_machine_binding_fails(self, runner, machines, tmp_path):
        cert = tmp_path / "cert.json"
        run_cli(runner, ["certify", "--machine", str(machines / "xi2.json"),
                         "--depth", "4", "--output", str(cert)])
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / "thue-morse.json")])
        assert v.exit_code == 2

    def test_pair_stream_certificate(self, runner, tmp_path):
        cert = tmp_path / "xi3.json"
        r = run_cli(runner, ["certify", "--pair", "10,20", "--k", "2",
                             "--stream", "xi3", "--depth", "8",
                             "--output", str(cert)])
        assert r.exit_code == 0
        assert json.loads(cert.read_text())["dioLowerBound"] == "20/19"
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--stream", "xi3"])
        assert v.exit_code == 0

    def test_pair_with_machine_exits_2(self, runner, machines, tmp_path):
        # a --pair certificate is built from the stream alone, so a
        # machine beside it would be dropped without a word
        cert = tmp_path / "pair.json"
        r = run_cli(runner, ["certify", "--machine",
                             str(machines / "xi2.json"), "--pair", "10,20",
                             "--stream", "xi3", "--output", str(cert)])
        assert r.exit_code == 2
        assert r.output == \
            "error: --pair certificates take --stream, not --machine\n"
        assert not cert.exists()

    @pytest.mark.parametrize("args, message", [
        (["--machine", "xi1.json", "--stream", "xi3"],
         "exactly one of --machine or --stream is required"),
        ([], "exactly one of --machine or --stream is required"),
        (["--pair", "10,20"],
         "exactly one of --machine or --stream is required"),
        (["--stream", "xi3"], "--stream certificates need --pair"),
        (["--machine", "xi2.json", "--pair", "1,5"],
         "--pair certificates take --stream, not --machine"),
    ], ids=["machine-and-stream", "no-source", "pair-without-stream",
            "stream-without-pair", "pair-with-machine"])
    def test_certify_opens_one_source(self, runner, machines, args, message):
        args = [str(machines / a) if a.endswith(".json") else a for a in args]
        r = run_cli(runner, ["certify", *args, "--depth", "2"])
        assert r.exit_code == 2
        assert r.output == f"error: {message}\n"

    @pytest.mark.parametrize("source, edit, want", [
        ("xi3", lambda d: d.update(method="nonsense"), "has no fields"),
        ("three-squares", lambda d: d.update(method="protected"),
         "takes method exact, not protected"),
        ("three-squares", lambda d: d.pop("method"),
         "takes method exact, not none"),
    ], ids=["sequence-pair-nonsense", "dfao-protected", "dfao-no-method"])
    def test_method_other_than_certify_writes_exits_2(
            self, runner, machines, tmp_path, source, edit, want):
        cert = tmp_path / "cert.json"
        src = (["--stream", "xi3"] if source == "xi3"
               else ["--machine", str(machines / f"{source}.json")])
        pair = ["--pair", "10,20"] if source == "xi3" else []
        run_cli(runner, ["certify", *pair, *src, "--depth", "8",
                         "--output", str(cert)])
        cert.write_text(json.dumps(edited(json.loads(cert.read_text()),
                                          edit)), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert), *src])
        assert v.exit_code == 2
        assert v.output.startswith("error: cannot load certificate: ")
        assert want in v.output

    def test_kind_other_than_the_machines_exits_2(self, runner, machines,
                                                  tmp_path):
        cert = tmp_path / "cert.json"
        machine = str(machines / "three-squares.json")
        run_cli(runner, ["certify", "--machine", machine, "--depth", "16",
                         "--output", str(cert)])
        doc = json.loads(cert.read_text())
        del doc["method"]
        doc["kind"] = "sequence-pair"
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", machine])
        assert v.exit_code == 2
        assert ("failure: kind sequence-pair is not dfao-pigeonhole, the "
                "kind its machine certifies") in v.output.splitlines()

    def test_pair_certificate_without_witnesses_exits_2(self, runner,
                                                        tmp_path):
        cert = tmp_path / "xi3.json"
        run_cli(runner, ["certify", "--pair", "10,20", "--k", "2",
                         "--stream", "xi3", "--depth", "4",
                         "--output", str(cert)])
        doc = json.loads(cert.read_text())
        doc.update(witnesses=[], verifiedDepth=-1)
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--stream", "xi3"])
        assert v.exit_code == 2
        assert v.output == ("error: cannot load certificate: a certificate "
                            "needs its level-0 witness\n")

    def test_negative_extra_depth_exits_2(self, runner, tmp_path):
        cert = tmp_path / "xi3.json"
        run_cli(runner, ["certify", "--pair", "10,20", "--k", "2",
                         "--stream", "xi3", "--depth", "4",
                         "--output", str(cert)])
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--stream", "xi3", "--extra-depth", "-3"])
        assert v.exit_code == 2
        assert v.output == "error: extra depth must be nonnegative\n"

    def test_pair_certificate_without_k_exits_2(self, runner, tmp_path):
        cert = tmp_path / "xi3.json"
        run_cli(runner, ["certify", "--pair", "10,20", "--k", "2",
                         "--stream", "xi3", "--depth", "10",
                         "--output", str(cert)])
        doc = json.loads(cert.read_text())
        del doc["k"]
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--stream", "xi3"])
        assert v.exit_code == 2
        assert "cannot load certificate" in v.output

    @pytest.mark.parametrize("bounds", [
        {"dioLowerBound": "100/1", "ratioGrowthBound": "1/1000"},
        {"dioLowerBound": "100/1"},
        {"ratioGrowthBound": "1/1000"},
    ])
    def test_morphic_declared_bounds_are_recomputed(self, runner, machines,
                                                    tmp_path, bounds):
        cert = tmp_path / "xi1.json"
        run_cli(runner, ["certify", "--machine", str(machines / "xi1.json"),
                         "--depth", "6", "--output", str(cert)])
        doc = json.loads(cert.read_text())
        written = dict(doc)
        doc.update(bounds)
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / "xi1.json")])
        assert v.exit_code == 2
        # the file is held to its first field that differs
        key = min(bounds)
        assert v.output == (
            f"error: cannot load certificate: '{key}' is "
            f"{json.dumps(bounds[key])} in the file, but certify writes "
            f"{json.dumps(written[key])}\n")

    def test_pair_growth_bound_must_be_k(self, runner, machines, tmp_path):
        cert = tmp_path / "cert.json"
        run_cli(runner, ["certify", "--machine", str(machines / "xi2.json"),
                         "--depth", "6", "--output", str(cert)])
        doc = json.loads(cert.read_text())
        doc["ratioGrowthBound"] = "3/1"
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / "xi2.json")])
        assert v.exit_code == 2
        assert v.output == ("error: cannot load certificate: "
                            "'ratioGrowthBound' is \"3/1\" in the file, but "
                            "certify writes \"2/1\"\n")

    @pytest.mark.parametrize("name, extra", [
        ("xi1", []),
        # today's sizing would ask for a 2^100 * 6-symbol prefix
        ("xi2", ["--extra-depth", "1"]),
    ])
    def test_false_verified_depth_exits_2(self, runner, machines, tmp_path,
                                          name, extra):
        cert = tmp_path / f"{name}.json"
        run_cli(runner, ["certify", "--machine", str(machines / f"{name}.json"),
                         "--depth", "6", "--output", str(cert)])
        doc = json.loads(cert.read_text())
        doc["verifiedDepth"] = 99
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / f"{name}.json"),
                             *extra])
        assert v.exit_code == 2
        assert v.output == ("error: cannot load certificate: 'verifiedDepth' "
                            "is 99 in the file, but certify writes 6\n")

    @pytest.mark.parametrize("edit, lines", [
        # the positions are derived from the level-0 witness
        ({"seedLetter": "zz", "seedPositions": [2, 3]},
         ["error: cannot load certificate: 'seedPositions' is [2, 3] in the "
          "file, but certify writes [1, 5]"]),
        ({"seedLetter": "c"},
         ["certificate INVALID: 7 witnesses re-checked",
          "failure: declared seed 'c' at 1, 5 is not the re-derived seed "
          "'a' at 1, 5"]),
    ], ids=["zz-at-2-3", "wrong-letter"])
    def test_false_morphic_seed_exits_2(self, runner, machines, tmp_path,
                                        edit, lines):
        cert = tmp_path / "xi1.json"
        run_cli(runner, ["certify", "--machine", str(machines / "xi1.json"),
                         "--depth", "6", "--output", str(cert)])
        doc = json.loads(cert.read_text())
        doc.update(edit)
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / "xi1.json")])
        assert v.exit_code == 2
        assert v.output.splitlines()[:len(lines)] == lines

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(seedPositions=[2, 9]),
         "'seedPositions' is [2, 9] in the file, but certify writes [1, 5]"),
        (lambda d: [d.pop(key) for key in ("seedLetter", "seedPositions")],
         "missing field 'seedLetter'"),
    ], ids=["positions-2-9", "no-seed"])
    def test_seed_the_witnesses_do_not_give_exits_2_at_load(
            self, runner, machines, tmp_path, edit, message):
        # the seed fields are checked at load, with or without the machine
        path = machines / "xi1.json"
        cert, stream = tmp_path / "xi1.json", tmp_path / "xi1.txt"
        run_cli(runner, ["certify", "--machine", str(path), "--depth", "6",
                         "--output", str(cert)])
        digits = run_cli(runner, ["digits", "--machine", str(path),
                                  "--count", "4096"])
        stream.write_text(digits.output, encoding="utf-8")
        doc = json.loads(cert.read_text())
        edit(doc)
        cert.write_text(json.dumps(doc), encoding="utf-8")
        for source in (["--stream", f"file:{stream}"],
                       ["--machine", str(path)]):
            v = run_cli(runner, ["verify", "--certificate", str(cert),
                                 *source])
            assert v.exit_code == 2
            assert v.output == f"error: cannot load certificate: {message}\n"

    @pytest.mark.parametrize("scan_len, seed", [
        ("4096", ("q0", [1, 4])), ("3", ("q1", [2, 3]))])
    def test_seed_found_with_any_scan_length_verifies(
            self, runner, machines, tmp_path, scan_len, seed):
        # q0 q1 q1 q0 ...: a window of 3 symbols holds only q1 twice
        path = machines / "thue-morse-morphic.json"
        cert = tmp_path / "tm.json"
        run_cli(runner, ["certify", "--machine", str(path), "--depth", "6",
                         "--scan-len", scan_len, "--output", str(cert)])
        doc = json.loads(cert.read_text())
        assert (doc["seedLetter"], doc["seedPositions"]) == seed
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(path)])
        assert v.exit_code == 0
        assert v.output.startswith("certificate valid")

    def test_unchecked_seed_is_noted(self, runner, machines, tmp_path):
        path = machines / "xi1.json"
        cert, stream = tmp_path / "xi1.json", tmp_path / "xi1.txt"
        run_cli(runner, ["certify", "--machine", str(path), "--depth", "4",
                         "--output", str(cert)])
        digits = run_cli(runner, ["digits", "--machine", str(path),
                                  "--count", "3000"])
        stream.write_text(digits.output, encoding="utf-8")
        note = "note: seed not checked: no morphic machine given"
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--stream", f"file:{stream}"])
        assert v.exit_code == 0
        assert v.output.splitlines()[:2] == [
            "certificate valid: 5 witnesses re-checked", note]
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(path)])
        assert v.exit_code == 0
        assert note not in v.output

    def test_morphic_family_is_rebuilt_given_the_machine(self, runner,
                                                          machines, tmp_path):
        # nine copies of the level-0 witness all hold and the bounds are
        # theirs; only the seed's rebuilt family tells them apart
        path = machines / "xi1.json"
        cert, stream = tmp_path / "xi1.json", tmp_path / "xi1.txt"
        run_cli(runner, ["certify", "--machine", str(path), "--depth", "8",
                         "--output", str(cert)])
        doc = json.loads(cert.read_text())
        assert doc["witnesses"][0] == {"u": 0, "v": 4, "ext": 5}
        doc["witnesses"] = [doc["witnesses"][0]] * 9
        doc["dioLowerBound"], doc["ratioGrowthBound"] = "5/4", "1/1"
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(path)])
        assert v.exit_code == 2
        assert v.output.splitlines()[:2] == [
            "certificate INVALID: 9 witnesses re-checked",
            "failure: stored witnesses do not match the re-derived seed"]
        digits = run_cli(runner, ["digits", "--machine", str(path),
                                  "--count", "64"])
        stream.write_text(digits.output, encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--stream", f"file:{stream}"])
        assert v.exit_code == 0
        assert v.output.splitlines()[:2] == [
            "certificate valid: 9 witnesses re-checked",
            "note: seed not checked: no morphic machine given"]

    @pytest.mark.parametrize("positions", [
        [0, 3], [3, 2], [2, 2], [1], [1, 2, 3], ["1", 2], [1.0, 2], [True, 2],
        "1,2"])
    def test_malformed_seed_positions_exit_2(self, runner, machines, tmp_path,
                                             positions):
        cert = tmp_path / "xi1.json"
        run_cli(runner, ["certify", "--machine", str(machines / "xi1.json"),
                         "--depth", "4", "--output", str(cert)])
        doc = json.loads(cert.read_text())
        doc["seedPositions"] = positions
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / "xi1.json")])
        assert v.exit_code == 2
        assert v.output == ("error: cannot load certificate: 'seedPositions' "
                            f"is {json.dumps(positions)} in the file, but "
                            "certify writes [1, 5]\n")

    @pytest.mark.parametrize("name, edit, message", [
        ("xi2", {"dioLowerBound": text},
         f"'dioLowerBound' is {json.dumps(text)} in the file, but certify "
         'writes "5/4"')
        for text in ("+10/8", "10/8", " 5/4", "5_0/4_0", "+5/+4", "5/4 ")
    ] + [
        ("xi2", {"ratioGrowthBound": "2"},
         '\'ratioGrowthBound\' is "2" in the file, but certify writes "2/1"'),
        ("xi2", {"seedLetter": "a"},
         "a pda-pair certificate has no fields ['seedLetter']"),
        ("three-squares", {"seedLetter": "a"},
         "a dfao-pigeonhole certificate has no fields ['seedLetter']"),
        ("xi1", {"method": "exact"},
         "a morphic-witness certificate has no fields ['method']"),
    ])
    def test_text_certify_never_writes_exits_2(self, runner, machines,
                                               tmp_path, name, edit, message):
        machine, cert = str(machines / f"{name}.json"), tmp_path / "c.json"
        run_cli(runner, ["certify", "--machine", machine, "--depth", "4",
                         "--output", str(cert)])
        verify = ["verify", "--certificate", str(cert), "--machine", machine]
        assert run_cli(runner, verify).exit_code == 0
        doc = json.loads(cert.read_text())
        doc.update(edit)
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, verify)
        assert v.exit_code == 2
        assert v.output == f"error: cannot load certificate: {message}\n"

    def test_refuted_pair_exits_1(self, runner, machines):
        r = run_cli(runner, ["certify", "--pair", "1,3", "--k", "2",
                             "--stream", "xi3", "--depth", "4"])
        assert r.exit_code == 1

    @pytest.mark.parametrize("args, message", [
        (["xi2.json", "--budget", "3"],
         "no equivalent pair within n <= 3; raising the "
         "budget may still find one"),
        (["xi1.json", "--scan-len", "1"],
         "no maximal-growth letter occurs twice within 1 positions"),
    ])
    def test_search_that_finds_nothing_exits_1(self, runner, machines, args,
                                               message):
        r = run_cli(runner, ["certify", "--machine", str(machines / args[0]),
                             *args[1:], "--depth", "2"])
        assert r.exit_code == 1
        assert r.output == f"error: {message}\n"

    def test_polynomial_morphic_exits_2(self, runner, machines):
        r = run_cli(runner, ["certify", "--machine",
                             str(machines / "squares.json")])
        assert r.exit_code == 2

    def test_dfao_certificate(self, runner, machines, tmp_path):
        cert = tmp_path / "tm.json"
        r = run_cli(runner, ["certify", "--machine",
                             str(machines / "thue-morse.json"),
                             "--depth", "10", "--output", str(cert)])
        assert r.exit_code == 0
        doc = json.loads(cert.read_text())
        assert doc["kind"] == "dfao-pigeonhole"
        assert doc["nPrime"] <= 3


class TestConvert:
    def test_morphic_to_dfao_file_identity(self, runner, machines, tmp_path):
        out = tmp_path / "tm.json"
        r = run_cli(runner, ["convert", "--machine",
                             str(machines / "thue-morse-morphic.json"),
                             "--output", str(out)])
        assert r.exit_code == 0
        assert out.read_text() == (machines / "thue-morse.json").read_text()

    def test_double_conversion_is_identity(self, runner, machines, tmp_path):
        mid = tmp_path / "mid.json"
        back = tmp_path / "back.json"
        run_cli(runner, ["convert", "--machine",
                         str(machines / "thue-morse.json"),
                         "--output", str(mid)])
        run_cli(runner, ["convert", "--machine", str(mid),
                         "--output", str(back)])
        assert back.read_text() == (machines / "thue-morse.json").read_text()

    def test_non_uniform_exits_2(self, runner, machines, tmp_path):
        r = run_cli(runner, ["convert", "--machine",
                             str(machines / "xi1.json"),
                             "--output", str(tmp_path / "x.json")])
        assert r.exit_code == 2

    @pytest.mark.parametrize("name, message", [
        ("xi2", "only dfao and morphic machines convert"),
        ("squares", "only uniform morphisms convert to an automaton"),
    ])
    def test_unconvertible_machine_exits_2(self, runner, machines, tmp_path,
                                           name, message):
        out = tmp_path / "x.json"
        r = run_cli(runner, ["convert", "--machine",
                             str(machines / f"{name}.json"),
                             "--output", str(out)])
        assert r.exit_code == 2
        assert r.output == f"error: {message}\n"
        assert not out.exists()


class TestOtherCommands:
    def test_dilation(self, runner, machines):
        r = run_cli(runner, ["analyze", "--machine",
                             str(machines / "thue-morse-morphic.json"),
                             "--dilation", "2^8"])
        assert r.exit_code == 0
        assert "\n  minimum 2/1 (~2, approximate) at n=1; stays above 1: " \
            "True\n" in r.output

    def test_growth(self, runner, machines):
        r = run_cli(runner, ["analyze", "--machine",
                             str(machines / "xi1.json"), "--growth"])
        assert r.exit_code == 0
        assert "\n  maximal-growth letters: a, b\n" in r.output

    def test_polynomial_growth_radius_is_exactly_one(self, runner, tmp_path):
        # a, then the 3-cycle d -> b -> c -> d: a whole-matrix eigensolve
        # gives 1.0000000000000002
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({
            "kind": "morphic", "internal": ["a", "b", "c", "d"],
            "start": "a", "rules": {"a": "ad", "b": "c", "c": "d", "d": "b"},
            "external": ["0", "1"],
            "coding": {"a": "0", "b": "1", "c": "0", "d": "1"},
        }), encoding="utf-8")
        r = run_cli(runner, ["analyze", "--machine", str(path), "--growth",
                             "--format", "json"])
        assert r.exit_code == 0
        assert '\n    "radiusEstimate": 1.0\n' in r.output

    @pytest.mark.parametrize("command", ["dilation", "growth"])
    def test_reports_are_analyze_options_only(self, runner, machines,
                                              command):
        r = runner.invoke(main, [command, "--machine",
                                 str(machines / "xi1.json")])
        assert r.exit_code == 2
        assert f"No such command '{command}'" in r.output

    def test_equiv(self, runner, machines):
        r = run_cli(runner, ["equiv", "--machine",
                             str(machines / "xi2.json"), "--pair", "1,5",
                             "--depth", "8"])
        assert "indistinguishable" in r.output
        r = run_cli(runner, ["equiv", "--machine",
                             str(machines / "xi2.json"), "--pair", "1,2",
                             "--depth", "4"])
        assert "distinguished" in r.output

    @pytest.mark.parametrize("name, pair, depth, code, output", [
        ("thue-morse", "1,2", "4", 0,
         "indistinguishable for all inputs of length <= 4\n"
         "note: exhausting the depth proves nothing by itself\n"),
        ("three-squares", "1,3", "6", 0, "distinguished by input '1'\n"),
        ("xi1", "1,2", "4", 2, "error: equiv needs a dpao or dfao machine\n"),
    ])
    def test_equiv_on_each_model(self, runner, machines, name, pair, depth,
                                 code, output):
        r = run_cli(runner, ["equiv", "--machine",
                             str(machines / f"{name}.json"), "--pair", pair,
                             "--depth", depth])
        assert r.exit_code == code
        assert r.output == output

    @pytest.mark.parametrize("pair", ["1", "a,5", "-1,5"])
    def test_equiv_bad_pair_exits_2(self, runner, machines, pair):
        r = run_cli(runner, ["equiv", "--machine",
                             str(machines / "xi2.json"), "--pair", pair])
        assert r.exit_code == 2
        assert r.output.startswith("error: ")

    def test_imitate(self, runner):
        r = run_cli(runner, ["imitate", "--stream", "rational:1/3",
                             "--base", "2", "--states", "2", "--len", "64"])
        assert "imitation index: 64 (censored" in r.output
        r = run_cli(runner, ["imitate", "--stream", "surd:2", "--base", "2",
                             "--states", "6", "--len", "64"])
        assert r.exit_code == 4

    def test_imitate_writes_the_best_machine(self, runner, tmp_path):
        best = tmp_path / "best.json"
        r = run_cli(runner, ["imitate", "--stream", "surd:2", "--base", "2",
                             "--states", "2", "--len", "16",
                             "--output", str(best)])
        assert r.exit_code == 0
        assert r.output == ("imitation index: 5\n"
                            f"best machine written to {best}\n")
        r = run_cli(runner, ["digits", "--machine", str(best),
                             "--count", "5"])
        assert r.output == "10110\n"

    def test_catalog_export(self, runner, tmp_path):
        d = tmp_path / "D"
        r = run_cli(runner, ["catalog", "export", "--dir", str(d)])
        assert r.exit_code == 0
        assert r.output == "".join(f"wrote {d / name}.json\n"
                                   for name in catalog.names())

    def test_catalog_list(self, runner):
        r = run_cli(runner, ["catalog", "list"])
        for name in ("xi1", "xi2", "squares", "three-squares"):
            assert name in r.output


class TestBadCounts:
    @pytest.mark.parametrize("args, message", [
        (["analyze", "--machine", "xi1.json", "--dilation", "0"],
         "profile length must be positive"),
        (["analyze", "--machine", "xi1.json", "--growth", "--dilation", "0"],
         "profile length must be positive"),
        (["imitate", "--stream", "surd:2", "--base", "2", "--states", "0"],
         "need at least one state"),
        (["imitate", "--stream", "surd:2", "--base", "2", "--states", "1",
          "--len", "-3"], "prefix length must be nonnegative"),
        (["digits", "--machine", "xi1.json", "--count", "-5"],
         "--count must be nonnegative"),
        (["digits", "--stream", "xi3", "--count", "-1"],
         "--count must be nonnegative"),
        (["imitate", "--stream", "rational:1/0", "--base", "10", "--states",
          "1"], "cannot open stream 'rational:1/0': need p >= 0, q >= 1"),
        (["certify", "--machine", "xi1.json", "--depth", "-1"],
         "depth must be nonnegative"),
        (["imitate", "--stream", "xi3", "--base", "0", "--states", "1",
          "--len", "8"], "--base must be at least 2, got 0\n"),
        (["imitate", "--stream", "xi3", "--k", "1", "--states", "1",
          "--len", "8"], "--k must be at least 2, got 1\n"),
        (["imitate", "--stream", "xi3", "--k", "-1", "--states", "1",
          "--len", "8"], "--k must be at least 2, got -1\n"),
        (["equiv", "--machine", "xi2.json", "--pair", "1,5", "--depth", "-1"],
         "depth must be nonnegative, got -1\n"),
        (["certify", "--machine", "xi2.json", "--budget", "-5"],
         "search budget must be nonnegative, got -5\n"),
        # click refuses an option that certify does not have
        (["certify", "--machine", "xi2.json", "--height-cap", "64"],
         "No such option"),
        (["certify", "--machine", "xi1.json", "--scan-len", "-1"],
         "scan length must be nonnegative, got -1\n"),
        # counts of 2^64 or more are refused as they are parsed; a depth
        # past the index range of numpy and bytes fails when it is used
        (["digits", "--stream", "rational:1/7", "--base", "10", "--count",
          str(10 ** 30)], f"number too large: '{10 ** 30}' is 2^64 or more\n"),
        (["analyze", "--stream", "rational:1/7", "--base", "10", "--dio",
          "10^30"], "number too large: '10^30' is 2^64 or more\n"),
        (["certify", "--pair", "1,7", "--stream", "rational:1/7", "--base",
          "10", "--depth", "100"],
         "cannot fit 'int' into an index-sized integer\n"),
        (["analyze", "--stream", "xi3", "--complexity", "1..4",
          "--prefix-length", "-5"],
         "not a nonnegative integer or a power b^e: '-5'\n"),
        (["analyze", "--stream", "xi3", "--dio", "-2^4"],
         "not a nonnegative integer or a power b^e: '-2^4'\n"),
        (["certify", "--pair", "10,20", "--stream", "xi3", "--depth", "-1"],
         "depth must be nonnegative\n"),
        (["analyze", "--machine", "xi2.json", "--growth"],
         "--dilation/--growth need a morphic or tag machine\n"),
        (["analyze", "--stream", "xi3", "--dilation", "8"],
         "--dilation/--growth need a morphic or tag machine\n"),
    ])
    def test_exit_2_with_message(self, runner, machines, args, message):
        args = [str(machines / a) if a.endswith(".json") else a for a in args]
        r = run_cli(runner, args)
        assert r.exit_code == 2
        # ours lead the output; click's usage errors follow its usage lines
        assert r.output.startswith(f"error: {message}") or (
            r.output.startswith("Usage: ") and f"\nError: {message}" in r.output)

    def test_zero_count_prints_an_empty_line(self, runner, machines):
        r = run_cli(runner, ["digits", "--machine",
                             str(machines / "xi2.json"), "--count", "0"])
        assert r.exit_code == 0
        assert r.output == "\n"


# (q1, X) has no move, and n = 2 (digits "10") reaches it
HOLE_MACHINE = {
    "kind": "dpao", "k": 2, "states": ["p", "q1"], "initial": "p",
    "stack": ["X"],
    "transitions": [
        {"state": "p", "top": "#", "input": "0", "to": "p", "push": ""},
        {"state": "p", "top": "#", "input": "1", "to": "q1", "push": "X"},
    ],
    "output": {"p": {"#": "0", "X": "0"}, "q1": {"#": "1", "X": "0"}},
}
HOLE_ERROR = ("error: incompleteness: reached ('q1', 'X') with digit 0 but "
              "no transition is defined\n")


def edited(doc: dict, edit) -> dict:
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


class TestErrorTable:
    @pytest.mark.parametrize("args", [
        ["digits"],
        ["analyze", "--dio", "2^4"],
        ["certify"],
        ["equiv", "--pair", "0,1"],
    ])
    def test_reachable_hole_exits_2(self, runner, tmp_path, args):
        path = tmp_path / "hole.json"
        path.write_text(json.dumps(HOLE_MACHINE), encoding="utf-8")
        r = run_cli(runner, [args[0], "--machine", str(path), *args[1:]])
        assert r.exit_code == 2
        assert r.output == HOLE_ERROR

    def test_short_pair_stream_exits_3(self, runner, tmp_path):
        stream = tmp_path / "two.txt"
        stream.write_text("01", encoding="utf-8")
        r = run_cli(runner, ["certify", "--pair", "1,2",
                             "--stream", f"file:{stream}"])
        assert r.exit_code == 3
        assert r.output.startswith("error: source ")
        assert "produced 2 of" in r.output

    def test_short_source_exits_3_in_verify_as_in_certify(self, runner,
                                                          tmp_path):
        cert, stream = tmp_path / "xi3.json", tmp_path / "xi3-short.txt"
        run_cli(runner, ["certify", "--pair", "10,20", "--stream", "xi3",
                         "--depth", "8", "--output", str(cert)])
        digits = run_cli(runner, ["digits", "--stream", "xi3",
                                  "--count", "100"])
        stream.write_text(digits.output, encoding="utf-8")
        message = (f"error: source 'file:{stream}' produced 100 of 5376 "
                   f"requested symbols\n")
        r = run_cli(runner, ["certify", "--pair", "10,20", "--stream",
                             f"file:{stream}", "--depth", "8"])
        assert (r.exit_code, r.output) == (3, message)
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--stream", f"file:{stream}"])
        assert (v.exit_code, v.output) == (3, message)

    @pytest.mark.parametrize("name, edit, report", [
        ("thue-morse", lambda d: d["delta"]["q0"].pop("1"),
         "error[missing-transition]: state 'q0' does not define all "
         "digits 0..1"),
        ("xi2", lambda d: d["transitions"].append(d["transitions"][0]),
         "error[determinism-conflict]: duplicate transition at "
         "('q-1', '#', '0')"),
        ("xi2", lambda d: d["states"].append("q1"),
         "error[duplicate-state]: state names must be distinct"),
        ("xi2", lambda d: d["stack"].append("X"),
         "error[duplicate-symbol]: stack symbols must be distinct"),
    ])
    def test_errors_found_while_parsing_print_the_report(
            self, runner, tmp_path, name, edit, report):
        path = tmp_path / "bad.json"
        doc = edited(machine_to_dict(catalog.get(name)), edit)
        path.write_text(json.dumps(doc), encoding="utf-8")
        r = run_cli(runner, ["digits", "--machine", str(path)])
        assert r.exit_code == 2
        assert r.output == f"error: machine {path} invalid:\n{report}\n"

    @pytest.mark.parametrize("name, edit", [
        ("thue-morse", lambda d: d.update(states=5)),
        ("xi2", lambda d: d.update(transitions=[5])),
        ("thue-morse", lambda d: d["output"].update(q1=1)),
        ("xi1", lambda d: d["coding"].update(a=0)),
        ("thue-morse", lambda d: d.update(k=float("inf"))),
    ])
    def test_malformed_machine_file_exits_2(self, runner, tmp_path, name,
                                            edit):
        path = tmp_path / "bad.json"
        doc = edited(machine_to_dict(catalog.get(name)), edit)
        path.write_text(json.dumps(doc), encoding="utf-8")
        r = run_cli(runner, ["digits", "--machine", str(path)])
        assert r.exit_code == 2
        assert r.output.startswith(f"error: cannot load machine {path}: ")
        assert len(r.output.splitlines()) == 1

    @pytest.mark.parametrize("name, edit, field", [
        ("thue-morse", lambda d: d.pop("initial"), "initial"),
        ("xi1", lambda d: d.pop("coding"), "coding"),
        ("xi2", lambda d: d["transitions"][0].pop("push"), "push"),
    ])
    def test_missing_machine_field_is_named(self, runner, tmp_path, name,
                                            edit, field):
        path = tmp_path / "bad.json"
        doc = edited(machine_to_dict(catalog.get(name)), edit)
        path.write_text(json.dumps(doc), encoding="utf-8")
        r = run_cli(runner, ["digits", "--machine", str(path)])
        assert r.exit_code == 2
        assert r.output == (f"error: cannot load machine {path}: missing "
                            f"field '{field}'\n")

    @pytest.mark.parametrize("field, value", [
        ("witnesses", 5), ("verifiedDepth", None), ("dioLowerBound", 3),
        ("dioLowerBound", "1/0"),
    ])
    def test_malformed_certificate_exits_2(self, runner, machines, tmp_path,
                                           field, value):
        cert = tmp_path / "cert.json"
        run_cli(runner, ["certify", "--machine", str(machines / "xi2.json"),
                         "--depth", "4", "--output", str(cert)])
        doc = json.loads(cert.read_text())
        doc[field] = value
        cert.write_text(json.dumps(doc), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / "xi2.json")])
        assert v.exit_code == 2
        assert v.output.startswith("error: cannot load certificate: ")

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(verifiedDepth="6"),
        lambda d: d["witnesses"][0].update(u=0.9),
        lambda d: d.update(n="2"),
        lambda d: d["witnesses"][0].update(extra=1),
        lambda d: d.update(method=7),
    ], ids=["depth-string", "u-float", "n-string", "witness-extra-key",
            "method-integer"])
    def test_mistyped_certificate_exits_2(self, runner, machines, tmp_path,
                                          edit):
        # int() reads "6", 0.9 and "2" as integers, and the rebuilt
        # family does not look at witness keys or the method's type: the
        # document is not the one certify writes for what it denotes
        cert = tmp_path / "cert.json"
        machine = str(machines / "three-squares.json")
        run_cli(runner, ["certify", "--machine", machine, "--depth", "6",
                         "--output", str(cert)])
        cert.write_text(json.dumps(edited(json.loads(cert.read_text()),
                                          edit)), encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", machine])
        assert v.exit_code == 2
        assert v.output.startswith("error: cannot load certificate: ")
        assert len(v.output.splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ["digits", "--stream", "xi3", "--count", "5", "--output", "MISSING"],
        ["certify", "--pair", "10,20", "--stream", "xi3", "--depth", "2",
         "--output", "MISSING"],
        ["convert", "--machine", "MACHINES/thue-morse.json",
         "--output", "MISSING"],
        ["imitate", "--stream", "rational:1/3", "--base", "2", "--states",
         "1", "--len", "8", "--output", "MISSING"],
        ["catalog", "export", "--dir", "MACHINES/xi1.json"],
        ["digits", "--machine", "MACHINES"],
        ["analyze", "--stream", "xi3", "--dio", "2^4", "--output", "MISSING"],
    ], ids=["digits-output", "certify-output", "convert-output",
            "imitate-output", "catalog-export-dir", "machine-directory",
            "analyze-output"])
    def test_file_errors_exit_2(self, runner, machines, tmp_path, args):
        missing = str(tmp_path / "no" / "such" / "dir" / "x")
        args = [a.replace("MISSING", missing).replace("MACHINES",
                                                      str(machines))
                for a in args]
        r = run_cli(runner, args)
        assert r.exit_code == 2
        # one error line: imitate stops before it prints its index
        assert len(r.output.splitlines()) == 1
        assert r.output.startswith("error: ")
        if "--output" in args:
            assert r.output == ("error: [Errno 2] No such file or "
                                f"directory: '{missing}'\n")
        assert not Path(missing).parent.exists()

    def test_output_directory_is_checked_before_the_search(
            self, runner, machines, tmp_path, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("the pair search ran")

        monkeypatch.setattr(pda, "find_equivalent_pair", search)
        missing = tmp_path / "no" / "x"
        r = run_cli(runner, ["certify", "--machine",
                             str(machines / "xi2.json"), "--depth", "18",
                             "--output", str(missing)])
        assert r.exit_code == 2
        assert r.output == ("error: [Errno 2] No such file or directory: "
                            f"'{missing}'\n")

    def test_machine_directory_keeps_the_load_message(self, runner,
                                                      machines):
        r = run_cli(runner, ["digits", "--machine", str(machines)])
        assert r.output.startswith(f"error: cannot load machine {machines}: ")
        r = run_cli(runner, ["digits", "--machine", str(machines / "no.json")])
        assert r.output == \
            f"error: machine file not found: {machines / 'no.json'}\n"

    def test_deeply_nested_machine_exits_2(self, runner, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        r = run_cli(runner, ["digits", "--machine", str(path)])
        assert r.exit_code == 2
        assert r.output.startswith(f"error: cannot load machine {path}: ")
        assert len(r.output.splitlines()) == 1

    def test_deeply_nested_certificate_exits_2(self, runner, machines,
                                               tmp_path):
        cert = tmp_path / "deep.json"
        cert.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", str(machines / "xi1.json")])
        assert v.exit_code == 2
        assert v.output.startswith("error: cannot load certificate: ")
        assert len(v.output.splitlines()) == 1


@pytest.fixture()
def validate_calls(monkeypatch):
    """Counts of `validate` calls per model class."""
    calls = collections.Counter()
    for cls in (Dfao, MorphicSpec, Dpao):
        def counted(self, original=cls.validate):
            calls[type(self).__name__] += 1
            return original(self)
        monkeypatch.setattr(cls, "validate", counted)
    return calls


class TestValidateOnce:
    @pytest.mark.parametrize("args, expected", [
        (["certify", "--machine", "xi2.json", "--depth", "6"], {"Dpao": 1}),
        (["certify", "--machine", "xi1.json", "--depth", "6"],
         {"MorphicSpec": 1}),
        # the automaton, and its stack-free recast for the pair search
        (["certify", "--machine", "three-squares.json", "--depth", "6"],
         {"Dfao": 1, "Dpao": 1}),
        (["analyze", "--machine", "xi1.json", "--growth"],
         {"MorphicSpec": 1}),
    ])
    def test_each_machine_validates_once(self, runner, machines,
                                         validate_calls, args, expected):
        args = [str(machines / a) if a.endswith(".json") else a for a in args]
        validate_calls.clear()
        assert run_cli(runner, args).exit_code == 0
        assert validate_calls == expected

    def test_verify_validates_once(self, runner, machines, tmp_path,
                                   validate_calls):
        cert = tmp_path / "cert.json"
        xi2 = str(machines / "xi2.json")
        run_cli(runner, ["certify", "--machine", xi2, "--depth", "6",
                         "--output", str(cert)])
        validate_calls.clear()
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--machine", xi2])
        assert v.exit_code == 0
        assert validate_calls == {"Dpao": 1}


class TestDeterminism:
    def test_byte_identical_runs_in_separate_processes(self, machines):
        env = {**os.environ, "PYTHONPATH": SRC}
        cmd = [sys.executable, "-m", "digitseq", "analyze", "--machine",
               str(machines / "xi1.json"), "--dio", "2^3..2^6",
               "--complexity", "1..8", "--prefix-length", "2^10",
               "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, env=env, check=True)
        second = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty

    def test_certificates_are_byte_identical(self, machines, tmp_path):
        env = {**os.environ, "PYTHONPATH": SRC}
        outs = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.json"
            subprocess.run(
                [sys.executable, "-m", "digitseq", "certify", "--machine",
                 str(machines / "xi2.json"), "--depth", "6",
                 "--output", str(path)],
                capture_output=True, env=env, check=True)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestVersion:
    def test_version_needs_no_install_metadata(self, tmp_path):
        # the package sources alone, with no distribution metadata beside them
        shutil.copytree(Path(SRC) / "digitseq", tmp_path / "digitseq",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        r = subprocess.run([sys.executable, "-m", "digitseq", "--version"],
                           capture_output=True, text=True, env=env,
                           cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout == f"python -m digitseq, version {__version__}\n"
