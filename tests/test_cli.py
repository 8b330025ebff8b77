import collections
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import naive_complexity, naive_right_special
from digitseq import (__version__, catalog, certify, cli, console, morphic,
                      numbers, pda, tag)
from digitseq.cli import main
from digitseq.dfao import Dfao
from digitseq.machinefile import machine_to_dict
from digitseq.morphic import MorphicSpec
from digitseq.pda import Dpao
from digitseq.words import (Alphabet, SequencePrefix, SequenceSource,
                            digit_alphabet)

SRC = str(Path(__file__).resolve().parent.parent / "src")
# xi3 takes nothing after it, and every other stream kind needs its colon
UNKNOWN_STREAMS = tuple((spec, f"unknown stream spec {spec!r}") for spec in
                        ("xi3:junk", "xi3:", "rational", "surd", "file"))


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
        *UNKNOWN_STREAMS,
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
        *UNKNOWN_STREAMS,
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

    @pytest.mark.parametrize("source", [
        *([f"--machine=MACHINES/{name}.json"] for name in catalog.names()),
        ["--stream", "rational:3/7", "--base", "10"],
        ["--stream", "rational:1/113", "--base", "16"],
        ["--stream", "surd:2", "--base", "2"],
        ["--stream", "surd:7", "--base", "16"],
        ["--stream", "xi3"],
    ])
    def test_output_file_holds_the_stdout_bytes(self, runner, machines,
                                                tmp_path, source):
        args = ["digits", *(a.replace("MACHINES", str(machines))
                            for a in source), "--count", "1000"]
        out = tmp_path / "digits.txt"
        printed = run_cli(runner, args)
        written = run_cli(runner, [*args, "--output", str(out)])
        assert printed.exit_code == written.exit_code == 0
        assert written.stdout_bytes == b""
        assert out.read_bytes() == printed.stdout_bytes
        assert len(printed.stdout_bytes.splitlines()) in (1, 1000)

    def test_symbols_that_spell_an_ansi_escape_are_printed(self, runner,
                                                           tmp_path):
        # digits writes the symbols' bytes as they are, so nothing strips
        # the ANSI codes they spell on a stream that is not a terminal
        path = tmp_path / "ansi.json"
        path.write_text(json.dumps({
            "kind": "morphic", "internal": ["a", "b", "c"], "start": "a",
            "rules": {"a": "abc", "b": "b", "c": "c"},
            "external": ["\x1b", "[", "m"],
            "coding": {"a": "\x1b", "b": "[", "c": "m"},
        }), encoding="utf-8")
        out = tmp_path / "digits.txt"
        args = ["digits", "--machine", str(path), "--count", "6"]
        printed = run_cli(runner, args)
        run_cli(runner, [*args, "--output", str(out)])
        assert printed.stdout_bytes == out.read_bytes() == b"\x1b[m[m[\n"


class TestRender:
    """`_render_prefix` against the text it encodes; the symbols of each
    prefix are drawn at random."""

    NUMPY_ROUTE = list(dict.fromkeys([
        *(digit_alphabet(k) for k in range(2, 11)),
        numbers.parse_stream_spec("xi3").alphabet,
        *(catalog.get(name).source("x").alphabet for name in catalog.names()),
        Alphabet(("a",)), Alphabet(("~", "\x7f"))]))
    TEXT_ROUTE = [digit_alphabet(k) for k in range(11, 17)] + [
        Alphabet(("1", "0")), Alphabet(("a", "c")), Alphabet(("α", "β")),
        Alphabet(("ab", "c")), Alphabet(("0", "10", "11")),
        Alphabet(("\x7f", "\x80"))]

    @staticmethod
    def prefix(alphabet, count):
        data = np.random.default_rng(count).integers(
            alphabet.size, size=count, dtype=np.uint8).tobytes()
        return SequencePrefix("x", alphabet, data)

    @pytest.mark.parametrize("count", [0, 1, 2 ** 16 + 1])
    @pytest.mark.parametrize("alphabet", NUMPY_ROUTE + TEXT_ROUTE,
                             ids=lambda a: repr("|".join(a.symbols)))
    def test_bytes_are_the_encoded_text(self, alphabet, count):
        p = self.prefix(alphabet, count)
        sep = "" if alphabet.single_char else "\n"
        assert cli._render_prefix(p) == (p.text(sep) + "\n").encode("utf-8")

    @pytest.mark.parametrize("alphabet", NUMPY_ROUTE,
                             ids=lambda a: repr("|".join(a.symbols)))
    def test_consecutive_ascii_symbols_skip_the_text(self, alphabet,
                                                     monkeypatch):
        p = self.prefix(alphabet, 100)
        expected = (p.text() + "\n").encode("utf-8")
        monkeypatch.setattr(SequencePrefix, "text", None)
        assert cli._render_prefix(p) == expected


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

    def test_one_prefix_serves_both_profiles(self, runner, machines,
                                             monkeypatch):
        asked = []
        resolve = cli._resolve_source

        def recording(*args):
            machine, source = resolve(*args)
            generate = source.generate
            source.generate = lambda n: asked.append(n) or generate(n)
            return machine, source

        monkeypatch.setattr(cli, "_resolve_source", recording)
        machine = ["analyze", "--machine", str(machines / "xi1.json")]
        dio = ["--dio", "2^4..2^12"]
        complexity = ["--complexity", "1..8", "--prefix-length", "2^15"]
        both = run_cli(runner, machine + dio + complexity)
        assert both.exit_code == 0
        assert asked == [2 ** 15]
        # the same text as the two profiles asked for one at a time
        alone = [run_cli(runner, machine + args).output.splitlines()
                 for args in (dio, complexity)]
        assert both.output.splitlines() == alone[0] + alone[1][1:]

    def test_stream_short_of_both_profiles_names_the_longer(self, runner,
                                                            tmp_path):
        stream = tmp_path / "short.txt"
        stream.write_text("01" * 50, encoding="utf-8")
        r = run_cli(runner, ["analyze", "--stream", f"file:{stream}",
                             "--dio", "2^4..2^8", "--complexity", "1..8",
                             "--prefix-length", "2^10"])
        assert r.exit_code == 3
        assert r.output.endswith("produced 100 of 1024 requested symbols\n")

    def test_prefix_shorter_than_the_blocks_exits_3(self, runner, machines):
        r = run_cli(runner, ["analyze", "--machine",
                             str(machines / "xi2.json"), "--complexity",
                             "1..64", "--prefix-length", "32"])
        assert r.exit_code == 3
        assert r.output == ("error: --prefix-length 32 is too short for the "
                            "requested block lengths\n")

    @pytest.mark.parametrize("option", ["--complexity", "--right-special"])
    def test_a_range_too_long_to_build_exits_3(self, runner, machines,
                                                option):
        """The top of an arithmetic range is checked against the prefix
        before any length is made, so a range of 10^18 lengths fails as
        one of 70000 does."""
        for top in ("70000", "1000000000000000000"):
            r = run_cli(runner, ["analyze", "--machine",
                                 str(machines / "thue-morse.json"), option,
                                 f"1..{top}"])
            assert (r.exit_code, r.output) == (
                3, "error: --prefix-length 65536 is too short for the "
                   "requested block lengths\n")

    def test_prefix_exactly_as_long_as_the_blocks_need(self, runner):
        # p(n) reads n symbols and rs(n) reads n + 1: four symbols give
        # p(1..4) and rs(1..3), and three do not
        tokens = run_cli(runner, ["digits", "--stream", "xi3", "--count",
                                  "4"]).output.strip().encode()
        for option, lengths, oracle in (
                ("--complexity", range(1, 5), naive_complexity),
                ("--right-special", range(1, 4), naive_right_special)):
            args = ["analyze", "--stream", "xi3", option,
                    f"1..{lengths[-1]}", "--prefix-length"]
            r = run_cli(runner, args + ["4"])
            assert r.exit_code == 0
            name = "p" if option == "--complexity" else "rs"
            assert [f"  {name}({n}) = {oracle(tokens, n)}" for n in lengths] \
                == r.output.splitlines()[2:]
            r = run_cli(runner, args + ["3"])
            assert (r.exit_code, r.output) == (
                3, "error: --prefix-length 3 is too short for the requested "
                   "block lengths\n")

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

    @pytest.mark.parametrize("token, value", [
        ("3^40", 3 ** 40), ("18446744073709551615", 2 ** 64 - 1)])
    def test_largest_numbers_still_parse(self, token, value):
        assert console._parse_number(token) == value

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
        bound, other = (hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (machines / "xi2.json",
                                     machines / "thue-morse.json"))
        assert (v.exit_code, v.output) == (
            2, f"error: certificate is bound to machine {bound}, file hashes "
               f"to {other}\n")

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

    def test_extra_depth_past_the_index_range_exits_2_at_once(
            self, runner, tmp_path):
        # the level-l witness of the xi3 (10, 20) family ends at 21 * 2^l,
        # past 2^63 from level 59 on: refused there, before any prefix
        cert = tmp_path / "xi3.json"
        run_cli(runner, ["certify", "--pair", "10,20", "--stream", "xi3",
                         "--depth", "8", "--output", str(cert)])
        for extra, depth in (("1000000000", 1000000008), ("60", 68),
                             ("55", 63), ("51", 59)):
            start = time.perf_counter()
            v = run_cli(runner, ["verify", "--certificate", str(cert),
                                 "--stream", "xi3", "--extra-depth", extra])
            assert time.perf_counter() - start < 1
            assert (v.exit_code, v.output) == (
                2, f"error: pair identities to depth {depth} need 2^63 or "
                   f"more symbols from level 59 on\n")

    def test_prefix_out_of_memory_is_an_invalid_report(
            self, runner, tmp_path, monkeypatch):
        # a source whose prefix cannot be materialized: the report on
        # stdout, exit 2, and no error line
        cert = tmp_path / "xi3.json"
        run_cli(runner, ["certify", "--pair", "10,20", "--stream", "xi3",
                         "--depth", "4", "--output", str(cert)])

        def generate(n):
            raise MemoryError(f"cannot hold {n} symbols")

        monkeypatch.setattr(cli, "_open_stream", lambda *args: SequenceSource(
            "xi3", digit_alphabet(3), generate))
        v = run_cli(runner, ["verify", "--certificate", str(cert),
                             "--stream", "xi3"])
        assert (v.exit_code, v.stderr) == (2, "")
        assert v.stdout == ("certificate INVALID: 0 witnesses re-checked\n"
                            "pair identities extended to depth 4\n"
                            "failure: prefix generation failed: cannot hold "
                            "336 symbols\n")

    def test_extra_depth_on_a_morphic_certificate_is_noted(
            self, runner, machines, tmp_path):
        """A morphic certificate has no family to extend: the witnesses
        are checked at their own depth, and a note says so after the
        verdict."""
        cert, xi1 = tmp_path / "xi1c.json", str(machines / "xi1.json")
        run_cli(runner, ["certify", "--machine", xi1, "--depth", "4",
                         "--output", str(cert)])
        note = ("note: extra depth extends pair families only; these "
                "witnesses were checked at their own depth")
        for extra, noted in (("0", False), ("3", True)):
            v = run_cli(runner, ["verify", "--certificate", str(cert),
                                 "--machine", xi1, "--extra-depth", extra])
            lines = v.output.splitlines()
            assert v.exit_code == 0
            assert lines[0] == "certificate valid: 5 witnesses re-checked"
            assert lines[1:].count(note) == noted

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

    @pytest.mark.parametrize("machine", ["xi2.json", "thue-morse.json"])
    def test_negative_depth_exits_2_before_the_search(
            self, runner, machines, monkeypatch, machine):
        calls, search = [], pda.find_equivalent_pair

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(pda, "find_equivalent_pair", counted)
        # a budget the search would refuse: the depth is reported first
        r = run_cli(runner, ["certify", "--machine", str(machines / machine),
                             "--depth", "-1", "--budget", "-1"])
        assert (r.exit_code, r.output) == (
            2, "error: depth must be nonnegative\n")
        assert calls == []

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

    def test_more_than_256_internal_letters(self, runner, tmp_path):
        # a -> a r0 and the ring r_i -> r_i r_(i+1) of 300 letters:
        # generating needs one byte per letter, the growth report does not
        ring = [f"r{i}" for i in range(300)]
        rules = {"a": ["a", "r0"]}
        rules.update((r, [r, ring[(i + 1) % 300]])
                     for i, r in enumerate(ring))
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({
            "kind": "morphic", "internal": ["a", *ring], "start": "a",
            "rules": rules, "external": ["0", "1"],
            "coding": {x: str(i % 2) for i, x in enumerate(["a", *ring])},
        }), encoding="utf-8")
        r = run_cli(runner, ["digits", "--machine", str(path), "--count",
                             "16"])
        assert r.exit_code == 2
        assert r.output == \
            "error: alphabets larger than 256 symbols are unsupported\n"
        r = run_cli(runner, ["analyze", "--machine", str(path), "--growth"])
        assert r.exit_code == 0
        assert "\n  spectral radius estimate 2.000000000" in r.output

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

    @pytest.mark.parametrize("pair, message", [
        ("1", "--pair takes two integers n,n', got '1'"),
        ("a,5", "--pair takes two integers n,n', got 'a,5'"),
        ("1,2,3", "--pair takes two integers n,n', got '1,2,3'"),
        ("-1,5", "input integer must be nonnegative"),
    ], ids=["1", "a,5", "1,2,3", "-1,5"])
    def test_equiv_bad_pair_exits_2(self, runner, machines, pair, message):
        r = run_cli(runner, ["equiv", "--machine",
                             str(machines / "xi2.json"), "--pair", pair])
        assert (r.exit_code, r.output) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("pair", ["1", "1,2,3", "1,x"])
    def test_certify_bad_pair_exits_2(self, runner, pair):
        r = run_cli(runner, ["certify", "--stream", "xi3", "--pair", pair])
        assert (r.exit_code, r.output) == (
            2, f"error: --pair takes two integers n,n', got '{pair}'\n")

    @pytest.mark.parametrize("command", ["digits", "analyze", "certify",
                                         "verify"])
    def test_source_options_are_described_on_every_page(self, runner,
                                                        command):
        page = " ".join(run_cli(runner, [command, "--help"]).output.split())
        for described in (
                "--machine TEXT Machine JSON file (dfao, morphic, tag, dpao).",
                "--stream TEXT Number stream: rational:p/q, surd:d, xi3, "
                "file:<path>.",
                "--base INTEGER Digit base for rational/surd streams."):
            assert described in page

    def test_imitate(self, runner):
        r = run_cli(runner, ["imitate", "--stream", "rational:1/3",
                             "--base", "2", "--states", "2", "--len", "64"])
        assert "imitation index: 64 (censored" in r.output
        r = run_cli(runner, ["imitate", "--stream", "surd:2", "--base", "2",
                             "--states", "6", "--len", "64"])
        assert r.output == "imitation index: 26\n"

    def test_imitate_cap_refusal(self, runner, monkeypatch):
        monkeypatch.setattr(numbers, "ENUMERATION_CAP", 100)
        r = run_cli(runner, ["imitate", "--stream", "surd:2", "--base", "2",
                             "--states", "8", "--len", "64"])
        assert r.exit_code == 4
        assert len(r.output.splitlines()) == 1
        assert r.output.startswith("error: machine search tried ")
        assert r.output.endswith(
            " transition choices, cap is 100; lower --states or --len\n")

    def test_imitate_many_states(self, runner):
        started = time.perf_counter()
        r = run_cli(runner, ["imitate", "--stream", "xi3", "--states",
                             "20000", "--len", "8"])
        assert time.perf_counter() - started < 1
        assert r.output == \
            "imitation index: 8 (censored: no disagreement found)\n"

    def test_imitate_recovers_a_250_state_machine(self, runner, tmp_path):
        # every state has its own output, so a wrong state fails where it
        # is chosen; the search holds about 1500 open choices at once
        rng = random.Random(6)
        names = tuple(f"s{i}" for i in range(250))
        machine = Dfao(k=6, states=names, initial="s0",
                       delta={q: tuple(rng.choice(names) for _ in range(6))
                              for q in names},
                       output={q: q for q in names})
        text = machine.source("m").prefix(30_000).text("\n") + "\n"
        stream, best = tmp_path / "stream.txt", tmp_path / "best.json"
        stream.write_text(text)
        r = run_cli(runner, ["imitate", "--stream", f"file:{stream}",
                             "--k", "6", "--states", "250", "--len", "30000",
                             "--output", str(best)])
        assert r.output == (
            "imitation index: 30000 (censored: no disagreement found)\n"
            f"best machine written to {best}\n")
        r = run_cli(runner, ["digits", "--machine", str(best),
                             "--count", "30000"])
        assert r.output == text

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
        assert r.exit_code == 0
        assert r.output == ("three-squares (dfao)\n"
                            "thue-morse (dfao)\n"
                            "thue-morse-morphic (morphic)\n"
                            "xi1 (morphic)\n"
                            "squares (morphic)\n"
                            "xi2 (dpao)\n")


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
         "not a nonnegative integer or a power b^e: '-5'\n"),
        (["digits", "--stream", "xi3", "--count", "-1"],
         "not a nonnegative integer or a power b^e: '-1'\n"),
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
        # the parser refuses an option that certify does not have
        (["certify", "--machine", "xi2.json", "--height-cap", "64"],
         "No such option"),
        (["certify", "--machine", "xi1.json", "--scan-len", "-1"],
         "scan length must be nonnegative, got -1\n"),
        # counts of 2^64 or more are refused as they are parsed, and a
        # pair family that needs 2^63 or more symbols before it is built
        (["digits", "--stream", "rational:1/7", "--base", "10", "--count",
          str(10 ** 30)], f"number too large: '{10 ** 30}' is 2^64 or more\n"),
        (["analyze", "--stream", "rational:1/7", "--base", "10", "--dio",
          "10^30"], "number too large: '10^30' is 2^64 or more\n"),
        (["certify", "--pair", "1,7", "--stream", "rational:1/7", "--base",
          "10", "--depth", "100"],
         "pair identities to depth 100 need 2^63 or more symbols from "
         "level 60 on\n"),
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
        # powers whose bit-length bound passes, but whose value does not
        (["digits", "--stream", "rational:1/7", "--base", "10", "--count",
          "10^20"], "number too large: '10^20' is 2^64 or more\n"),
        (["digits", "--stream", "rational:1/7", "--base", "10", "--count",
          "3^41"], "number too large: '3^41' is 2^64 or more\n"),
        (["analyze", "--machine", "thue-morse.json", "--dio", "10^19..10^20"],
         "number too large: '10^20' is 2^64 or more\n"),
        (["analyze", "--machine", "xi1.json", "--dilation", "10^20"],
         "number too large: '10^20' is 2^64 or more\n"),
        (["analyze", "--machine", "thue-morse.json", "--dio", "1^2..1^3"],
         "power base must be at least 2: '1^2..1^3'\n"),
        (["analyze", "--machine", "thue-morse.json", "--complexity", "5..1"],
         "lengths must be positive and ascending: '5..1'\n"),
        # the scan's own limit, checked on the top of the range before the
        # range is listed or anything is generated
        (["analyze", "--machine", "thue-morse.json", "--dio", "1..10^18"],
         "--dio lengths must be below 2^31, got 1000000000000000000\n"),
        (["analyze", "--machine", "thue-morse.json", "--dio", "2^4..2^40"],
         "--dio lengths must be below 2^31, got 1099511627776\n"),
        (["analyze", "--machine", "thue-morse.json", "--dio", "2^31"],
         "--dio lengths must be below 2^31, got 2147483648\n"),
    ])
    def test_exit_2_with_message(self, runner, machines, args, message):
        args = [str(machines / a) if a.endswith(".json") else a for a in args]
        r = run_cli(runner, args)
        assert r.exit_code == 2
        # one line: "error: " and the message
        assert r.output.startswith(f"error: {message}")
        assert r.output.count("\n") == 1

    @pytest.mark.parametrize("parse, text", [
        (console._parse_number, "-5"), (console._parse_number, "10^20"),
        (console._parse_lengths, "5..1"),
        (console._parse_lengths, "1^2..1^3"), (console._parse_pair, "1,2,3"),
    ])
    def test_parsers_raise_and_leave_the_exit_to_run(self, parse, text):
        with pytest.raises(ValueError):
            parse(text)

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


# each command that writes --output, and what its output is: a path
# in a missing directory, a directory, a missing directory with a
# trailing separator, and an existing file with one
_WRITERS = {
    "digits": ["digits", "--stream", "xi3", "--count", "5"],
    "certify": ["certify", "--pair", "10,20", "--stream", "xi3",
                "--depth", "2"],
    "convert": ["convert", "--machine", "MACHINES/thue-morse.json"],
    "imitate": ["imitate", "--stream", "rational:1/3", "--base", "2",
                "--states", "1", "--len", "8"],
    "analyze": ["analyze", "--stream", "xi3", "--dio", "2^4"],
}
_OUTPUTS = {"": "MISSING", "-dir": "MACHINES", "-nodir": "NODIR/",
            "-file-slash": "FILE/"}


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
         "error[missing-transition]: state 'q0' defines 1 of 2 digit "
         "transitions"),
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

    @pytest.mark.parametrize("external", [
        [f"s{i}" for i in range(257)], ["s0", "s1", ""]],
        ids=["257-letters", "empty-letter"])
    @pytest.mark.parametrize("args", [
        ["digits"], ["analyze", "--growth"], ["certify"],
        ["convert", "--output", "out.json"], ["equiv", "--pair", "1,2"]],
        ids=lambda args: args[0])
    def test_external_alphabet_is_checked_at_load(self, runner, tmp_path,
                                                  external, args):
        # the coding uses only s0 and s1: the alphabet itself is refused
        path, out = tmp_path / "wide.json", tmp_path / "out.json"
        path.write_text(json.dumps({
            "kind": "morphic", "internal": ["a", "b"], "start": "a",
            "rules": {"a": "ab", "b": "ba"}, "external": external,
            "coding": {"a": "s0", "b": "s1"}}), encoding="utf-8")
        args = [str(out) if a == "out.json" else a for a in args]
        r = run_cli(runner, [args[0], "--machine", str(path), *args[1:]])
        assert r.exit_code == 2
        assert r.output == (
            f"error: machine {path} invalid:\nerror[invalid-alphabet]: "
            f"external letters must be non-empty, and at most 256 of them\n")
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"kind": "dfao", "k": 2, "states": [f"s{i}" for i in range(257)],
         "initial": "s0",
         "delta": {f"s{i}": {"0": "s0", "1": "s0"} for i in range(257)},
         "output": {f"s{i}": f"o{i}" for i in range(257)}},
        {"kind": "dfao", "k": 2, "states": ["s0", "s1"], "initial": "s0",
         "delta": {"s0": {"0": "s0", "1": "s1"},
                   "s1": {"0": "s1", "1": "s0"}},
         "output": {"s0": "a", "s1": ""}},
        {"kind": "dpao", "k": 2, "states": [f"s{i}" for i in range(257)],
         "initial": "s0", "stack": [],
         "transitions": [{"state": f"s{i}", "top": "#", "input": d,
                          "to": "s0", "push": ""}
                         for i in range(257) for d in "01"],
         "output": {f"s{i}": {"#": f"o{i}"} for i in range(257)}},
        {"kind": "dpao", "k": 2, "states": ["p"], "initial": "p",
         "stack": ["X"],
         "transitions": [{"state": "p", "top": a, "input": d, "to": "p",
                          "push": "X"} for a in "X#" for d in "01"],
         "output": {"p": {"X": "1", "#": ""}}},
    ], ids=["dfao-257-outputs", "dfao-empty-output", "dpao-257-outputs",
            "dpao-empty-output"])
    @pytest.mark.parametrize("args", [
        ["digits"], ["certify"], ["convert", "--output", "out.json"],
        ["equiv", "--pair", "1,2"]], ids=lambda args: args[0])
    def test_output_alphabet_is_checked_at_load(self, runner, tmp_path, doc,
                                                args):
        path, out = tmp_path / "wide.json", tmp_path / "out.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args = [str(out) if a == "out.json" else a for a in args]
        r = run_cli(runner, [args[0], "--machine", str(path), *args[1:]])
        assert r.exit_code == 2
        assert r.output == (
            f"error: machine {path} invalid:\nerror[invalid-alphabet]: "
            f"output symbols must be non-empty, and at most 256 of them\n")
        assert not out.exists()

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
        *(pytest.param([*args, "--output", output],
                       id=f"{command}-output{suffix}")
          for command, args in _WRITERS.items()
          for suffix, output in _OUTPUTS.items()),
        pytest.param(["catalog", "export", "--dir", "MACHINES/xi1.json"],
                     id="catalog-export-dir"),
        pytest.param(["digits", "--machine", "MACHINES"],
                     id="machine-directory"),
    ])
    def test_file_errors_exit_2(self, runner, machines, tmp_path, args):
        # an --output in a missing directory, one that is a directory, or
        # one that ends in a separator: refused, and nothing is written
        missing = str(tmp_path / "no" / "such" / "dir" / "x")
        nodir, existing = tmp_path / "nodir", tmp_path / "existing.txt"
        existing.write_bytes(b"kept\n")
        places = {"MISSING": missing, "NODIR/": f"{nodir}{os.sep}",
                  "FILE/": f"{existing}{os.sep}"}
        args = [places.get(a, a).replace("MACHINES", str(machines))
                for a in args]
        r = run_cli(runner, args)
        assert r.exit_code == 2
        # one error line: imitate stops before it prints its index
        assert len(r.output.splitlines()) == 1
        assert r.output.startswith("error: ")
        if "--output" in args:
            output = args[args.index("--output") + 1]
            reason = ("[Errno 2] No such file or directory"
                      if output == missing else "[Errno 21] Is a directory")
            assert r.output == f"error: {reason}: '{output}'\n"
        assert sorted(tmp_path.iterdir()) == [existing, machines]
        assert existing.read_bytes() == b"kept\n"

    def test_output_directory_is_checked_before_the_search(
            self, runner, machines, tmp_path, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("the pair search ran")

        monkeypatch.setattr(pda, "find_equivalent_pair", search)
        missing = tmp_path / "no" / "x"
        for output, reason in ((missing, "[Errno 2] No such file or directory"),
                               (tmp_path, "[Errno 21] Is a directory")):
            r = run_cli(runner, ["certify", "--machine",
                                 str(machines / "xi2.json"), "--depth", "18",
                                 "--output", str(output)])
            assert r.exit_code == 2
            assert r.output == f"error: {reason}: '{output}'\n"

    def test_machine_directory_keeps_the_load_message(self, runner,
                                                      machines):
        r = run_cli(runner, ["digits", "--machine", str(machines)])
        assert r.output.startswith(f"error: cannot load machine {machines}: ")
        r = run_cli(runner, ["digits", "--machine", str(machines / "no.json")])
        assert r.output == \
            f"error: machine file not found: {machines / 'no.json'}\n"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_machine_file_newlines_read_as_in_text_mode(self, runner,
                                                       tmp_path, newline):
        path = tmp_path / "bad.json"
        path.write_bytes(newline.join(
            ['{"kind": "dfao",', ' "k": 2,', ' "states": [', '}', '']
        ).encode("utf-8"))
        r = run_cli(runner, ["digits", "--machine", str(path)])
        assert r.exit_code == 2
        assert r.output == (f"error: cannot load machine {path}: Expecting "
                            "value: line 4 column 1 (char 39)\n")

    def test_machine_file_is_read_once(self, runner, machines, monkeypatch):
        # the source id is the digest of the bytes that were parsed
        path = machines / "xi2.json"
        opened = []
        open_path = Path.open

        def counted(self, *args, **kwargs):
            opened.append(self)
            return open_path(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counted)
        r = run_cli(runner, ["analyze", "--machine", str(path), "--dio", "4"])
        assert opened == [path]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert r.output.startswith(f"source: {digest}\n")

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
        # the automaton alone: its pair is read off its own state table
        (["certify", "--machine", "three-squares.json", "--depth", "6"],
         {"Dfao": 1}),
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


class TestEnginesThroughModules:
    """Commands call each engine through its module, so a wrapper set on
    the module attribute, as a profiler sets one, sees every call; a table
    that held the function itself would bypass it."""

    ENGINES = ((certify, "certify_dfao"), (certify, "certify_morphic"),
               (certify, "certify_pda"), (pda, "find_equivalent_pair"),
               (morphic, "growth_report"), (tag, "dilation_profile"))

    @pytest.mark.parametrize("args, expected", [
        (["certify", "--machine", "thue-morse.json"], {"certify_dfao": 1}),
        (["certify", "--machine", "xi1.json"],
         {"certify_morphic": 1, "growth_report": 1}),
        (["certify", "--machine", "xi2.json"],
         {"certify_pda": 1, "find_equivalent_pair": 1}),
        (["analyze", "--machine", "xi1.json", "--growth", "--dilation", "64"],
         {"growth_report": 1, "dilation_profile": 1}),
    ])
    def test_each_engine_is_seen_once(self, runner, machines, monkeypatch,
                                      args, expected):
        calls = collections.Counter()
        for module, name in self.ENGINES:
            def counted(*a, _engine=getattr(module, name), _name=name, **kw):
                calls[_name] += 1
                return _engine(*a, **kw)
            monkeypatch.setattr(module, name, counted)
        args = [str(machines / a) if a.endswith(".json") else a for a in args]
        assert run_cli(runner, args).exit_code == 0
        assert calls == expected

    @pytest.mark.parametrize("extra", [
        [], ["--depth", "0"], ["--budget", "5", "--depth", "3"],
    ], ids=["default", "depth-0", "budget-cuts-the-level"])
    def test_a_pushdown_certify_compiles_one_core(self, runner, machines,
                                                  monkeypatch, extra):
        """The source the command opens, the pair search and the
        certificate prefix share the machine's one step core, also where
        the prefix ends inside the search's last level or the budget cuts
        the level of the pair."""
        compiled = []
        init = pda._Core.__init__

        def counted(core, m):
            compiled.append(m)
            init(core, m)

        monkeypatch.setattr(pda._Core, "__init__", counted)
        args = ["certify", "--machine", str(machines / "xi2.json"), *extra]
        assert run_cli(runner, args).exit_code == 0
        assert len(compiled) == 1


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


class TestBudgetMemory:
    def test_large_budget_certifies_in_one_gib_of_address_space(
            self, machines):
        """The pair search grows its arrays by level, so a budget of 10^9
        inputs costs nothing until a level is reached. The child process
        caps its own address space before it imports the package."""
        code = ("import resource, runpy, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
                "sys.argv = ['digitseq', *sys.argv[1:]]\n"
                "runpy.run_module('digitseq', run_name='__main__', "
                "alter_sys=True)\n")
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
        r = subprocess.run(
            [sys.executable, "-c", code, "certify", "--machine",
             str(machines / "xi2.json"), "--budget", "1000000000"],
            capture_output=True, text=True, env=env, timeout=300)
        assert r.returncode == 0, r.stderr[-400:]
        assert "equivalent pair: n=1, n'=5 (method exact)" in r.stderr

    def test_certify_past_the_index_range_exits_2_at_once(self, machines):
        """A family whose top witness would end at 2^63 symbols or more is
        refused at the first level that does, before any prefix is built,
        and the message names that level. The commands run in
        a child that caps its own address space, each timed after the
        package is loaded."""
        cases = [
            ("thue-morse", "70", "pair identities to depth 70 need 2^63 or "
             "more symbols from level 62 on"),
            ("three-squares", "70", "pair identities to depth 70 need 2^63 "
             "or more symbols from level 61 on"),
            ("thue-morse", "1000000000", "pair identities to depth "
             "1000000000 need 2^63 or more symbols from level 62 on"),
            ("xi2", "70", "pair identities to depth 70 need 2^63 or more "
             "symbols from level 61 on"),
            ("xi1", "70", "morphic witnesses to depth 70 need 2^63 or more "
             "symbols from level 61 on"),
            ("thue-morse-morphic", "1000000000", "morphic witnesses to depth "
             "1000000000 need 2^63 or more symbols from level 61 on"),
        ]
        commands = [["certify", "--machine", str(machines / f"{name}.json"),
                     "--depth", depth] for name, depth, _ in cases]
        code = ("import io, json, resource, sys, time\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
                "from digitseq import cli\n"
                "out = []\n"
                f"for args in {commands!r}:\n"
                "    sys.stderr = io.StringIO()\n"
                "    start = time.perf_counter()\n"
                "    try:\n"
                "        cli.main.main(args=args, prog_name='digitseq')\n"
                "    except SystemExit as stop:\n"
                "        out.append([stop.code, sys.stderr.getvalue(),\n"
                "                    time.perf_counter() - start])\n"
                "sys.stderr = sys.__stderr__\n"
                "print(json.dumps(out))\n")
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=300)
        assert r.returncode == 0, r.stderr[-400:]
        for (exit_code, err, seconds), (_, _, message) in zip(
                json.loads(r.stdout), cases, strict=True):
            assert (exit_code, err) == (2, f"error: {message}\n")
            assert seconds < 1


class TestCommandLine:
    """The option table and its parser, read through the entry point."""

    @pytest.mark.parametrize("args, code, first_line", [
        ([], 2, "error: Missing command."),
        (["catalog"], 2, "error: Missing command."),
        (["bogus"], 2, "error: No such command 'bogus'."),
        (["catalog", "bogus"], 2, "error: No such command 'bogus'."),
        (["digits", "--bogus"], 2, "error: No such option '--bogus'."),
        (["--bogus"], 2, "error: No such option '--bogus'."),
        (["digits", "--version"], 2, "error: No such option '--version'."),
        (["digits", "--stream", "xi3", "--count"], 2,
         "error: Option '--count' requires an argument."),
        (["analyze", "--stream", "xi3", "--growth=yes"], 2,
         "error: Option '--growth' does not take a value."),
        (["verify", "--stream", "xi3"], 2,
         "error: Missing option '--certificate'."),
        (["certify", "--stream", "xi3", "--pair", "1,2", "--depth", "x"], 2,
         "error: Invalid value for '--depth': 'x' is not a valid integer."),
        (["analyze", "--stream", "xi3", "--format", "xml"], 2,
         "error: Invalid value for '--format': 'xml' is not one of "
         "'text', 'json'."),
        (["digits", "--stream", "xi3", "extra"], 2,
         "error: Got unexpected extra argument (extra)"),
        (["catalog", "list", "a", "b"], 2,
         "error: Got unexpected extra arguments (a b)"),
        (["digits", "--stream", "xi3", "--", "--count"], 2,
         "error: Got unexpected extra argument (--count)"),
        (["--help"], 0, "Usage: digitseq [OPTIONS] COMMAND [ARGS]..."),
        (["catalog", "--help"], 0,
         "Usage: digitseq catalog [OPTIONS] COMMAND [ARGS]..."),
        (["certify", "--depth", "x", "--help"], 0,
         "Usage: digitseq certify [OPTIONS]"),
        (["--version", "bogus"], 0, f"digitseq, version {__version__}"),
    ])
    def test_usage(self, runner, args, code, first_line):
        r = run_cli(runner, args)
        assert r.exit_code == code
        assert r.output.splitlines()[0] == first_line
        if code:
            assert len(r.output.splitlines()) == 1

    def test_help_lists_every_command_and_option(self, runner):
        page = run_cli(runner, ["--help"]).output
        for command in ("analyze", "catalog", "certify", "convert",
                        "digits", "equiv", "imitate", "verify"):
            assert f"\n  {command} " in page
        assert run_cli(runner, ["equiv", "--help"]).output == (
            "Usage: digitseq equiv [OPTIONS]\n"
            "\n"
            "  Bounded output comparison of the configurations after n and "
            "n'.\n"
            "\n"
            "Options:\n"
            "  --machine TEXT   [required]\n"
            "  --pair TEXT      n,n' [required]\n"
            "  --depth INTEGER  [default: 12]\n"
            "  --help           Show this message and exit.\n")

    def test_last_value_wins_in_either_form(self, runner):
        plain = run_cli(runner, ["digits", "--stream", "xi3", "--count", "7"])
        mixed = run_cli(runner, ["digits", "--stream=xi3", "--count=5",
                                 "--count", "7"])
        assert mixed.exit_code == plain.exit_code == 0
        assert mixed.stdout_bytes == plain.stdout_bytes == b"1101201\n"

    def test_exception_from_outside_the_package_exits_1(self, runner,
                                                         monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("layer broke")

        monkeypatch.setattr(cli.words_mod, "dio_profile", broken)
        r = run_cli(runner, ["analyze", "--stream", "xi3", "--dio", "2^4"])
        assert r.exit_code == 1
        assert r.output == "error: internal error: RuntimeError: layer broke\n"

    def test_escape_codes_reach_the_error_line(self, runner, tmp_path):
        path = tmp_path / "\x1b[31mred.json"
        r = run_cli(runner, ["digits", "--machine", str(path)])
        assert r.exit_code == 2
        assert r.output == f"error: machine file not found: {path}\n"

    def test_commands_run_without_click(self, machines, tmp_path):
        code = ("import runpy, sys\n"
                "sys.modules['click'] = None\n"
                "runpy.run_module('digitseq', run_name='__main__', "
                "alter_sys=True)\n")
        env = {**os.environ, "PYTHONPATH": SRC}

        def run(*args):
            return subprocess.run([sys.executable, "-c", code, *args],
                                  capture_output=True, text=True, env=env,
                                  cwd=tmp_path, timeout=120)

        r = run("digits", "--machine", str(machines / "thue-morse.json"),
                "--count", "8")
        assert (r.returncode, r.stdout) == (0, "01101001\n"), r.stderr
        xi1 = str(machines / "xi1.json")
        r = run("certify", "--machine", xi1, "--depth", "6",
                "--output", "cert.json")
        assert r.returncode == 0, r.stderr
        r = run("verify", "--certificate", "cert.json", "--machine", xi1)
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("certificate valid:")
        r = run("--help")
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith(
            "Usage: python -m digitseq [OPTIONS] COMMAND [ARGS]...\n")
        r = run("--version")
        assert (r.returncode, r.stdout) == (
            0, f"python -m digitseq, version {__version__}\n")

    def test_commands_without_an_engine_run_without_numpy(self, machines,
                                                          tmp_path):
        """`--help`, `--version`, `catalog` and `convert` print the same
        bytes and write the same files in a process where numpy cannot
        be imported."""
        blocked = ("import runpy, sys\n"
                   "sys.modules['numpy'] = None\n"
                   "runpy.run_module('digitseq', run_name='__main__', "
                   "alter_sys=True)\n")
        env = {**os.environ, "PYTHONPATH": SRC}
        tm = str(machines / "thue-morse.json")
        commands = (["catalog", "export", "--dir", "m"], ["catalog", "list"],
                    ["convert", "--machine", tm, "--output", "tm.json"],
                    ["--help"], ["digits", "--help"], ["--version"])
        runs = {}
        for side, head in (("plain", ["-m", "digitseq"]),
                           ("blocked", ["-c", blocked])):
            (tmp_path / side).mkdir()
            runs[side] = [subprocess.run(
                [sys.executable, *head, *args], capture_output=True,
                env=env, cwd=tmp_path / side, timeout=120)
                for args in commands]
            written = (tmp_path / side).rglob("*.json")
            runs[side].append({path.relative_to(tmp_path / side):
                               path.read_bytes() for path in written})
        for plain, blocked in zip(runs["plain"][:-1], runs["blocked"][:-1]):
            assert blocked.returncode == plain.returncode == 0, blocked.stderr
            assert (blocked.stdout, blocked.stderr) == (plain.stdout,
                                                        plain.stderr)
        assert runs["blocked"][-1] == runs["plain"][-1]
        assert len(runs["plain"][-1]) == len(catalog.names()) + 1

    def test_usage_errors_exit_before_an_engine_loads(self, runner,
                                                      machines, monkeypatch):
        """A malformed value of every converted option and of an integer
        option, an unknown choice, a missing required option and a
        directory as --output exit 2, with the stderr of a normal run, in
        a process where neither numpy nor `digitseq.cli` can be imported."""
        commands = [
            ["digits", "--stream", "xi3", "--count", "x"],
            ["analyze", "--stream", "xi3", "--dio", "8..1"],
            ["analyze", "--stream", "xi3", "--dio", "2^31"],
            ["analyze", "--stream", "xi3", "--complexity", "0..4"],
            ["analyze", "--stream", "xi3", "--right-special", "1^2..1^3"],
            ["analyze", "--machine", "xi1.json", "--dilation", "-1"],
            ["analyze", "--stream", "xi3", "--complexity", "1..4",
             "--prefix-length", "10^20"],
            ["certify", "--stream", "xi3", "--pair", "1"],
            ["equiv", "--machine", "xi2.json", "--pair", "1,5,7"],
            ["certify", "--stream", "xi3", "--depth", "x"],
            ["analyze", "--stream", "xi3", "--format", "xml"],
            ["equiv", "--machine", "xi2.json"],
            ["digits", "--stream", "xi3", "--count", "3", "--output", "."],
        ]
        code = ("import contextlib, io, json, sys\n"
                "sys.modules['numpy'] = sys.modules['digitseq.cli'] = None\n"
                "from digitseq import console\n"
                "runs = []\n"
                f"for args in {commands!r}:\n"
                "    err = io.StringIO()\n"
                "    with contextlib.redirect_stderr(err):\n"
                "        try:\n"
                "            console.main(args, 'digitseq')\n"
                "        except SystemExit as stop:\n"
                "            runs.append([stop.code, err.getvalue()])\n"
                "print(json.dumps(runs))\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, cwd=machines, timeout=120,
                           env={**os.environ, "PYTHONPATH": SRC})
        assert r.returncode == 0, r.stderr
        monkeypatch.chdir(machines)
        for args, (blocked_code, blocked_err) in zip(commands,
                                                     json.loads(r.stdout)):
            normal = run_cli(runner, args)
            assert (blocked_code, blocked_err) == (2, normal.stderr), args
            assert normal.exit_code == 2
            assert blocked_err.startswith("error: ")
            assert blocked_err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["catalog", "list"],
        ["digits", "--machine", "thue-morse.json", "--count", "2^16"],
    ])
    def test_closed_pipe_ends_quietly_with_141(self, machines, args):
        # the read end is closed before the command starts, so its first
        # write to stdout fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "digitseq", *args], stdout=write_end,
                stderr=subprocess.PIPE, cwd=machines, timeout=120,
                env={**os.environ, "PYTHONPATH": SRC})
        finally:
            os.close(write_end)
        assert (r.returncode, r.stderr) == (141, b"")

    def test_interrupt_exits_1(self, runner, monkeypatch):
        def interrupted(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "digits", interrupted)
        r = run_cli(runner, ["digits", "--stream", "xi3", "--count", "5"])
        assert (r.exit_code, r.output) == (1, "error: interrupted\n")


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
