import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (backward_scan_best, brute_force_best,
                      doubling_index_oracle, naive_complexity,
                      naive_right_special, per_period_best, periodic_source,
                      str_prefix, str_source)
from digitseq import catalog, words
from digitseq.cli import main
from digitseq.errors import InsufficientDataError
from digitseq.numbers import xi3_source
from digitseq.words import (Alphabet, RepetitionWitness, SequencePrefix,
                            SequenceSource, best_repetition_at, dio_profile,
                            encode_base_k, factor_complexity_profile,
                            right_special_count, verify_repetition)


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            Alphabet(("a", "a"))

    def test_rejects_empty_symbol(self):
        with pytest.raises(ValueError, match="non-empty"):
            Alphabet(("a", ""))

    def test_order_is_fixed(self):
        a = Alphabet(("b", "a"))
        assert a.index("b") == 0 and a.index("a") == 1


def read_flipping_source() -> None:
    """Two reads of a source whose second answer does not extend its
    first."""
    answers = iter((b"\x01", b"\x00\x00"))
    source = SequenceSource("flip", Alphabet(("0", "1")),
                            lambda n: next(answers))
    source.prefix(1)
    source.prefix(2)


class TestRejectedArguments:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: Alphabet(()), ValueError, "at least one symbol"),
        (lambda: Alphabet(tuple(map(str, range(257)))), ValueError,
         "larger than 256"),
        (lambda: Alphabet(("a",)).index("b"), ValueError, "not in alphabet"),
        (lambda: RepetitionWitness(-1, 1, 1), ValueError,
         "u must be nonnegative"),
        (lambda: encode_base_k(-1, 2), ValueError, "negative integer"),
        (lambda: factor_complexity_profile(str_prefix("ab"), 0), ValueError,
         "block length must be positive"),
        (lambda: right_special_count(str_prefix("ab"), 0), ValueError,
         "block length must be positive"),
        (read_flipping_source, AssertionError,
         "'flip' is not deterministic"),
    ])
    def test_raises(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestBaseK:
    def test_zero_encodes_to_empty(self):
        assert len(encode_base_k(0, 2)) == 0

    def test_nine_binary(self):
        assert encode_base_k(9, 2) == (1, 0, 0, 1)

    def test_five_ternary(self):
        assert encode_base_k(5, 3) == (1, 2)

    def test_invalid_base(self):
        with pytest.raises(ValueError, match="base"):
            encode_base_k(3, 1)

    @given(st.integers(0, 10 ** 5), st.sampled_from([2, 3, 10]))
    def test_round_trip(self, n, k):
        digits = encode_base_k(n, k)
        assert int("".join(map(str, digits)) or "0", k) == n


class TestVerifyRepetition:
    def test_square(self):
        assert verify_repetition(str_prefix("abab"),
                                 RepetitionWitness(u=0, v=2, ext=4))

    def test_not_a_period(self):
        assert not verify_repetition(str_prefix("abab"),
                                     RepetitionWitness(u=0, v=1, ext=2))

    def test_out_of_range_is_an_error_not_false(self):
        with pytest.raises(InsufficientDataError):
            verify_repetition(str_prefix("ab"),
                              RepetitionWitness(u=1, v=2, ext=4))

    def test_witness_invariants(self):
        with pytest.raises(ValueError):
            RepetitionWitness(u=0, v=0, ext=1)
        with pytest.raises(ValueError):
            RepetitionWitness(u=0, v=3, ext=2)
        w = RepetitionWitness(u=2, v=3, ext=7)
        assert w.ratio == Fraction(9, 5)
        assert w.alpha == Fraction(7, 3)


class TestBestRepetition:
    def test_constant_word(self):
        [w] = best_repetition_at(str_prefix("aaaa"), [4])
        assert (w.u, w.v, w.ext) == (0, 1, 4)
        assert w.ratio == 4

    def test_alternating(self):
        [w] = best_repetition_at(str_prefix("abab"), [4])
        assert (w.u, w.v, w.ext) == (0, 2, 4)

    def test_no_repetition(self):
        assert best_repetition_at(str_prefix("abca"), [4])[0] is None

    def test_default_cap_is_half_length(self):
        # the uncapped best needs v = 5 > 8/2, so the default misses it
        p = str_prefix("01101011")
        [uncapped] = best_repetition_at(p, [8], v_max=8)
        assert (uncapped.v, uncapped.ratio) == (5, Fraction(8, 5))
        [default] = best_repetition_at(p, [8])
        assert (default.u, default.v, default.ext) == (6, 1, 2)
        assert default.ratio == Fraction(8, 7)

    def test_every_result_verifies(self):
        rng = random.Random(7)
        for _ in range(200):
            text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 30)))
            p = str_prefix(text, symbols="ab")
            [w] = best_repetition_at(p, [len(text)])
            if w is not None:
                assert verify_repetition(p, w)
                assert w.u + w.ext == len(text)

    def test_matches_brute_force_small(self):
        # equivalence at the default cap and at the uncapped setting
        for length in range(1, 11):
            for bits in range(2 ** length):
                text = bin(bits)[2:].zfill(length).replace("0", "a") \
                    .replace("1", "b")
                p = str_prefix(text, symbols="ab")
                for cap in (length // 2, length):
                    [got] = best_repetition_at(p, [length], v_max=cap)
                    want = brute_force_best(text, length, v_max=cap)
                    if want is None:
                        assert got is None, (text, cap)
                    else:
                        assert got is not None, (text, cap)
                        assert (got.ratio, got.v, got.u) == want, (text, cap)


def _caps(ell: int, rng: random.Random):
    """The default cap, the uncapped search, cap 1 and a random cap."""
    return (None, ell, 1, rng.randint(1, ell))


class TestBackwardScan:
    """best_repetition_at against the per-period loop it replaced and the
    triple-loop search, on words built to end scans in unusual places."""

    @staticmethod
    def check(p, ell, caps, brute=False):
        text = p.data.decode("latin-1")
        for cap in caps:
            [got] = best_repetition_at(p, [ell], v_max=cap)
            assert got == per_period_best(p, ell, v_max=cap), (ell, cap)
            if brute:
                # brute_force_best reads None as uncapped
                want = brute_force_best(
                    text, ell, v_max=ell // 2 if cap is None else cap)
                assert (None if got is None else (got.ratio, got.v, got.u)) \
                    == want, (text, ell, cap)

    def test_constant_words(self):
        rng = random.Random(1)
        for ell in (1, 2, 3, 17, 64, 1000, 2 ** 12):
            p = SequencePrefix("c", Alphabet(("a",)), bytes(ell))
            self.check(p, ell, _caps(ell, rng), brute=ell <= 64)
            if ell > 1:
                assert best_repetition_at(p, [ell])[0] == \
                    RepetitionWitness(u=0, v=1, ext=ell)

    def test_periodic_run_ending_at_ell(self):
        # a random head, then a run of period v that ends exactly at ell,
        # then symbols that break the period
        rng = random.Random(2)
        for _ in range(300):
            letters = "abc"[:rng.randint(2, 3)]
            head = "".join(rng.choice(letters)
                           for _ in range(rng.randint(0, 40)))
            block = "".join(rng.choice(letters)
                            for _ in range(rng.randint(1, 9)))
            run = (block * 50)[:rng.randint(len(block), 200)]
            tail = "".join(rng.choice(letters) for _ in range(5))
            text = head + run + tail
            ell = len(head) + len(run)
            p = str_prefix(text, symbols=letters)
            self.check(p, ell, _caps(ell, rng), brute=ell <= 40)

    def test_periodic_word_with_one_far_defect(self):
        rng = random.Random(3)
        for _ in range(200):
            block = "".join(rng.choice("ab")
                            for _ in range(rng.randint(1, 12)))
            ell = rng.randint(2, 600)
            text = list((block * (ell // len(block) + 2))[:ell])
            at = rng.randrange(min(ell, 1 + ell // 8))  # far from ell
            text[at] = "c"
            p = str_prefix("".join(text), symbols="abc")
            self.check(p, ell, _caps(ell, rng), brute=ell <= 40)

    def test_random_words_against_brute_force(self):
        rng = random.Random(4)
        for _ in range(500):
            letters = "abcd"[:rng.randint(1, 4)]
            text = "".join(rng.choice(letters)
                           for _ in range(rng.randint(1, 40)))
            p = str_prefix(text, symbols=letters)
            ell = rng.randint(1, len(text))
            self.check(p, ell, _caps(ell, rng), brute=True)

    def test_thue_morse_and_xi3_prefixes(self):
        rng = random.Random(5)
        for pre in (catalog.get("thue-morse").source("t").prefix(2 ** 12),
                    xi3_source().prefix(2 ** 12)):
            lengths = [2 ** j for j in range(1, 13)]
            lengths += [rng.randint(1, 2 ** 12) for _ in range(10)]
            for ell in lengths:
                self.check(pre, ell, _caps(ell, rng), brute=ell <= 40)

    @pytest.mark.parametrize("word", ["constant", "thue-morse", "one-defect"])
    def test_memory_stays_bounded(self, word):
        # a block holds at most 2^16 comparisons; a constant word must stop
        # after its period instead of building an ell x ell/2 matrix, and
        # in a^m b a^m every period v <= m agrees back to position m + v
        ell = 2 ** 16
        if word == "constant":
            p = SequencePrefix("c", Alphabet(("a",)), bytes(ell))
        elif word == "thue-morse":
            p = catalog.get("thue-morse").source("t").prefix(ell)
        else:
            m = 2 ** 14
            ell = 2 * m + 1
            p = SequencePrefix("ab", Alphabet(("a", "b")),
                               bytes(m) + b"\x01" + bytes(m))
        tracemalloc.start()
        try:
            best_repetition_at(p, [ell])
            best_repetition_at(p, [ell], v_max=ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def _seeded_word(rng: random.Random, letters: int, kind: str, n: int):
    """A constant word, a periodic word with a few defects, or a random
    word, of n symbols over `letters` letters."""
    if kind == "constant":
        return bytes([rng.randrange(letters)]) * n
    if kind == "random":
        return bytes(rng.randrange(letters) for _ in range(n))
    block = bytes(rng.randrange(letters) for _ in range(rng.randint(1, 12)))
    word = bytearray((block * (n // len(block) + 1))[:n])
    for _ in range(rng.randint(1, 3)):
        word[rng.randrange(n)] = rng.randrange(letters)
    return bytes(word)


def _length_set(rng: random.Random, n: int) -> list[int]:
    """Target lengths for an n-symbol prefix: some below every key's
    symbol count (4 to 64), odd ones, which no count divides, and n."""
    picks = {rng.randint(1, min(n, 3)), rng.randint(1, min(n, 63)), n}
    picks |= {min(rng.randint(1, n) | 1, n) for _ in range(4)}
    return sorted(picks)


def _word_prefix(letters: int, data: bytes) -> SequencePrefix:
    return SequencePrefix(
        "w", Alphabet(tuple(f"s{i}" for i in range(letters))), data)


class TestOneScan:
    """best_repetition_at over many target lengths at once against the
    per-length scan it replaced, the per-period loop and the triple loop:
    the whole witness at every length, under every cap."""

    @staticmethod
    def check(p, lengths, caps, oracles=(backward_scan_best,
                                         per_period_best)):
        text = p.data.decode("latin-1")
        for cap in caps:
            got = best_repetition_at(p, lengths, v_max=cap)
            assert len(got) == len(lengths)
            for ell, w in zip(lengths, got):
                for oracle in oracles:
                    assert w == oracle(p, ell, v_max=cap), (ell, cap, oracle)
                if ell <= 40:
                    # brute_force_best reads None as uncapped
                    want = brute_force_best(
                        text, ell, v_max=ell // 2 if cap is None else cap)
                    assert w == (None if want is None else RepetitionWitness(
                        u=want[2], v=want[1], ext=ell - want[2])), \
                        (text, ell, cap)

    @pytest.mark.parametrize("letters", [1, 2, 3, 4, 10, 17, 256])
    @pytest.mark.parametrize("kind", ["constant", "periodic", "random"])
    def test_seeded_words(self, letters, kind):
        rng = random.Random(1000 * letters + len(kind))
        for _ in range(6):
            n = rng.randint(1, 300)
            p = _word_prefix(letters, _seeded_word(rng, letters, kind, n))
            lengths = _length_set(rng, n)
            top = lengths[-1]
            self.check(p, lengths, (None, top, 1, rng.randint(1, top)))

    def test_catalogue_prefixes(self):
        rng = random.Random(6)
        for pre in (catalog.get("thue-morse").source("t").prefix(2 ** 12),
                    catalog.get("three-squares").source("s").prefix(2 ** 12),
                    xi3_source().prefix(2 ** 12)):
            lengths = sorted({2 ** j for j in range(13)}
                             | {rng.randint(1, 2 ** 12) for _ in range(10)})
            self.check(pre, lengths, (None, 2 ** 12, 1, rng.randint(1, 99)),
                       oracles=(backward_scan_best,))

    def test_long_walks_and_full_blocks(self):
        # constant words walk every row back to v; in a^m b a^m every
        # period v <= m agrees back to m + v; on a random word every period
        # runs, so chunks of periods fill whole blocks
        m = 2 ** 14
        ab = Alphabet(("a", "b"))
        rng = random.Random(7)
        cases = [
            (SequencePrefix("c", Alphabet(("a",)), bytes(2 ** 16)),
             [2 ** j for j in range(17)] + [2 ** 16 - 1]),
            (SequencePrefix("c", ab, bytes(2 ** 16)), [3, 1000, 2 ** 16]),
            (SequencePrefix("ab", ab, bytes(m) + b"\x01" + bytes(m)),
             [m, m + 1, m + 2, 2 * m + 1]),
            (SequencePrefix("r", ab, bytes(rng.randrange(2)
                                           for _ in range(2 ** 17))),
             [2 ** 17 - 1, 2 ** 17]),
        ]
        for p, lengths in cases:
            lengths = sorted(set(lengths))
            self.check(p, lengths, (None, lengths[-1]),
                       oracles=(backward_scan_best,))

    def test_lengths_must_increase(self):
        p = str_prefix("aaaa")
        assert best_repetition_at(p, []) == []
        for lengths in ([4, 2], [2, 2]):
            with pytest.raises(ValueError, match="increasing"):
                best_repetition_at(p, lengths)
        with pytest.raises(ValueError, match="positive"):
            best_repetition_at(p, [0, 2])
        with pytest.raises(InsufficientDataError):
            best_repetition_at(p, [2, 5])

    @pytest.mark.parametrize("name", ["thue-morse", "three-squares"])
    def test_memory_per_symbol(self, name):
        # the packed keys take 8 bytes a symbol and their build 8 more;
        # every other array is a block of at most 2^16 comparisons
        lengths = [2 ** j for j in range(4, 19)]
        p = catalog.get(name).source(name).prefix(lengths[-1])
        tracemalloc.start()
        try:
            best_repetition_at(p, lengths)
            best_repetition_at(p, lengths, v_max=lengths[-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * lengths[-1]


class TestDioProfile:
    def test_periodic_doubles(self):
        src = periodic_source("01")
        prof = dio_profile(src, [4, 8, 16])
        assert [r for _, r in prof] == [Fraction(2), Fraction(4), Fraction(8)]

    def test_constant(self):
        src = periodic_source("2", symbols="2")
        assert dio_profile(src, [10]) == [(10, Fraction(10))]

    def test_no_repetition_reports_one(self):
        src = str_source("abcd")
        assert dio_profile(src, [4]) == [(4, Fraction(1))]

    def test_lengths_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            dio_profile(str_source("aaaa"), [4, 2])

    @pytest.mark.parametrize("lengths, match", [
        ([5, 3, 10 ** 9], "increasing"),
        ([0, 10 ** 9], "positive"),
    ])
    def test_lengths_are_checked_before_generating(self, lengths, match):
        # a source that records each request and makes nothing, so a
        # request for 10^9 symbols costs nothing either
        asked = []
        src = SequenceSource("recording", Alphabet(("0", "1")),
                             lambda n: asked.append(n) or b"")
        with pytest.raises(ValueError, match=match):
            dio_profile(src, lengths)
        assert asked == []


class TestFactorComplexity:
    def test_period_two(self):
        assert factor_complexity_profile(str_prefix("01010101"), 2)[1] == 2

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            factor_complexity_profile(str_prefix("ab"), 3)

    @given(st.text(alphabet="ab", min_size=2, max_size=40),
           st.integers(1, 6))
    def test_matches_naive(self, text, n):
        if n > len(text):
            return
        assert factor_complexity_profile(str_prefix(text, symbols="ab"),
                                         n)[n - 1] == naive_complexity(text, n)

    @given(st.text(alphabet="abc", min_size=3, max_size=60))
    @settings(max_examples=60)
    def test_profile_matches_single(self, text):
        p = str_prefix(text, symbols="abc")
        n_max = min(8, len(text))
        profile = factor_complexity_profile(p, n_max)
        assert profile == [naive_complexity(text, n)
                           for n in range(1, n_max + 1)]

    @given(st.text(alphabet="ab", min_size=4, max_size=60),
           st.integers(1, 5))
    def test_monotone_in_prefix_and_submultiplicative(self, text, n):
        if n + 1 > len(text):
            return
        shorter = factor_complexity_profile(
            str_prefix(text[:-1], symbols="ab"), n)[n - 1]
        full, longer = factor_complexity_profile(
            str_prefix(text, symbols="ab"), n + 1)[n - 1:]
        assert shorter <= full
        assert longer <= 2 * full


class TestRightSpecial:
    def test_period_two_has_none(self):
        assert right_special_count(str_prefix("01010101"), 2)[1] == 0

    def test_both_letters_special(self):
        assert right_special_count(str_prefix("0011000111"), 1) == [2]

    def test_needs_one_extra_symbol(self):
        with pytest.raises(InsufficientDataError):
            right_special_count(str_prefix("abc"), 3)

    @given(st.text(alphabet="ab", min_size=4, max_size=80),
           st.integers(1, 6))
    def test_binary_difference_identity(self, text, n):
        # p(n+1) - p(n) counts right-special blocks, up to the one block
        # that may occur only at the very end without a follower
        if n + 1 >= len(text):
            return
        p = str_prefix(text, symbols="ab")
        p_n, p_next = factor_complexity_profile(p, n + 1)[n - 1:]
        diff = p_next - p_n
        rs = right_special_count(p, n)[n - 1]
        tail = text[len(text) - n:]
        tail_has_follower = tail in text[:-1] or len(tail) < n
        if tail_has_follower:
            assert diff == rs
        else:
            assert diff == rs - 1


def _skewed_word(rng: random.Random, letters: int) -> bytes:
    """A periodic run or a word of a few frequent letters and rare others,
    so that blocks recur and common prefixes outgrow one packed chunk."""
    length = rng.randint(2, 160)
    if rng.random() < 0.4:
        block = bytes(rng.randrange(letters)
                      for _ in range(rng.randint(1, 9)))
        return (block * length)[:length]
    frequent = rng.randint(1, min(letters, 3))
    return bytes(rng.randrange(letters) if rng.random() < 0.2
                 else rng.randrange(frequent) for _ in range(length))


def _counting_builds(monkeypatch) -> list[int]:
    """Record the width of every window index built from now on."""
    built = []
    build = words._build_index

    def counted(data, letters, width):
        built.append(width)
        return build(data, letters, width)

    monkeypatch.setattr(words, "_build_index", counted)
    return built


class TestWindowIndex:
    """Both factor counts read one integer window index, kept on the
    prefix; the oracles are the set and dict scans it replaced."""

    @pytest.mark.parametrize("letters", [2, 3, 10, 200, 255, 256])
    def test_random_words_over_alphabets(self, letters):
        alphabet = Alphabet(tuple(f"s{i}" for i in range(letters)))
        rng = random.Random(letters)
        for _ in range(60):
            data = _skewed_word(rng, letters)
            p = SequencePrefix("r", alphabet, data)
            assert factor_complexity_profile(p, len(data)) == [
                naive_complexity(data, n)
                for n in range(1, len(data) + 1)], data
            assert right_special_count(p, len(data) - 1) == [
                naive_right_special(data, n)
                for n in range(1, len(data))], data

    def test_index_runs_on_numpy_1(self, monkeypatch):
        # numpy >= 1.24 is supported; bitwise_count only came in 2.0
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for letters in (2, 10, 256):
            alphabet = Alphabet(tuple(f"s{i}" for i in range(letters)))
            rng = random.Random(100 + letters)
            for _ in range(20):
                data = _skewed_word(rng, letters)
                p = SequencePrefix("r", alphabet, data)
                assert right_special_count(p, len(data) - 1) == [
                    naive_right_special(data, n)
                    for n in range(1, len(data))], data

    def test_call_orders_on_one_prefix(self, monkeypatch):
        text = ("abcab" * 40)[:170] + "cabba" + ("ab" * 30)
        data = str_prefix(text).data
        p_want = [naive_complexity(data, n) for n in range(1, 41)]
        rs_want = [naive_right_special(data, n) for n in range(1, 41)]
        built = _counting_builds(monkeypatch)
        # p, then a narrower rs: the index of p serves both
        p = str_prefix(text)
        assert factor_complexity_profile(p, 40) == p_want
        assert right_special_count(p, 20) == rs_want[:20]
        assert built == [40]
        # rs, then a wider p: the wider index replaces the narrower one
        p = str_prefix(text)
        assert right_special_count(p, 20) == rs_want[:20]
        assert factor_complexity_profile(p, 40) == p_want
        assert right_special_count(p, 30) == rs_want[:30]
        assert built == [40, 21, 40]
        # rs wider than p: p reads the index that rs built
        p = str_prefix(text)
        assert right_special_count(p, 40) == rs_want
        assert factor_complexity_profile(p, 12) == p_want[:12]
        assert factor_complexity_profile(p, 41)[:40] == p_want
        assert built == [40, 21, 40, 41]

    def test_analyze_builds_the_index_once(self, monkeypatch, tmp_path):
        catalog.export_all(tmp_path)
        built = _counting_builds(monkeypatch)
        # in the second case rs needs 65 symbols of context, so rs builds
        # the index and p reuses it
        for p_max, rs_max, width in ((64, 8, 64), (8, 64, 65)):
            built.clear()
            r = CliRunner().invoke(main, [
                "analyze", "--machine", str(tmp_path / "xi2.json"),
                "--complexity", f"1..{p_max}",
                "--right-special", f"1..{rs_max}"], catch_exceptions=False)
            assert r.exit_code == 0
            assert f"p({p_max}) = " in r.output
            assert f"rs({rs_max}) = " in r.output
            # the text keeps its order: the p table before the rs table
            assert r.output.index("p(1) = ") < r.output.index("rs(1) = ")
            assert built == [width]

    def test_random_words_every_block_length(self):
        rng = random.Random(2024)
        for _ in range(300):
            letters = "abcd"[:rng.randint(1, 4)]
            text = "".join(rng.choice(letters)
                           for _ in range(rng.randint(2, 40)))
            p = str_prefix(text, symbols=letters)
            assert factor_complexity_profile(p, len(text)) == [
                naive_complexity(p.data, n) for n in range(1, len(text) + 1)]
            assert right_special_count(p, len(text) - 1) == [
                naive_right_special(p.data, n)
                for n in range(1, len(text))], text

    def test_one_call_serves_every_shorter_range(self):
        # periodic words whose last blocks recur earlier, so the windows
        # dropped for large n sort inside a group of kept ones, with and
        # without a closing letter that occurs nowhere else
        rng = random.Random(11)
        for _ in range(150):
            letters = "abc"[:rng.randint(1, 3)]
            block = "".join(rng.choice(letters)
                            for _ in range(rng.randint(1, 6)))
            text = (block * 60)[:rng.randint(2, 150)] + rng.choice(("", "d"))
            p = str_prefix(text, symbols="abcd")
            full = right_special_count(p, len(text) - 1)
            assert full == [naive_right_special(p.data, n)
                            for n in range(1, len(text))], text
            m = rng.randint(1, len(text) - 1)
            assert right_special_count(p, m) == full[:m]

    def test_full_byte_alphabet_right_special(self):
        # the index's sentinel is the value 256, so byte 255 is an
        # ordinary letter for both counts
        alphabet = Alphabet(tuple(f"s{i}" for i in range(256)))
        rng = random.Random(7)
        for _ in range(40):
            data = bytes(rng.choice((0, 254, 255, rng.randrange(256)))
                         for _ in range(rng.randint(2, 200)))
            p = SequencePrefix("bytes", alphabet, data)
            assert right_special_count(p, len(data) - 1) == [
                naive_right_special(data, n)
                for n in range(1, len(data))], data
            assert factor_complexity_profile(p, len(data)) == [
                naive_complexity(data, n)
                for n in range(1, len(data) + 1)], data

    def test_last_block_occurs_once(self):
        # the blocks ending at the last position have no follower and
        # occur nowhere else: they count in p(n), never in rs(n)
        p = str_prefix("aaab")
        assert factor_complexity_profile(p, 4) == [2, 2, 2, 1]
        assert right_special_count(p, 3) == [1, 1, 0]
        for text in ("abababc", "abcabcabd", "abaab"):
            p = str_prefix(text)
            assert factor_complexity_profile(p, len(text)) == [
                naive_complexity(text, n) for n in range(1, len(text) + 1)]
            assert right_special_count(p, len(text) - 1) == [
                naive_right_special(p.data, n) for n in range(1, len(text))]


    def test_index_memory_is_one_window_matrix(self, xi2):
        # the sorted neighbours are compared a slice at a time: 2^16 x 256
        # windows peak at one 16 MiB matrix, not a sorted second copy
        pre = xi2.source("t").prefix(2 ** 16)
        tracemalloc.start()
        try:
            factor_complexity_profile(pre, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20


def _index_word(rng: random.Random, letters: int) -> bytes:
    """A periodic word with a few defects, a skewed word or a uniformly
    random one, of 1 to 600 letters."""
    length = rng.choice((rng.randint(1, 12), rng.randint(1, 600)))
    kind = rng.randrange(3)
    if kind == 0:
        block = [rng.randrange(letters) for _ in range(rng.randint(1, 9))]
        word = (block * length)[:length]
        for _ in range(rng.randint(0, 3)):
            word[rng.randrange(length)] = rng.randrange(letters)
        return bytes(word)
    if kind == 1:
        frequent = rng.randint(1, min(letters, 3))
        return bytes(rng.randrange(letters) if rng.random() < 0.05
                     else rng.randrange(frequent) for _ in range(length))
    return bytes(rng.randrange(letters) for _ in range(length))


def _counts(data: bytes, letters: int, index) -> tuple[list, list]:
    """p and rs up to the index's width, read from the given index."""
    alphabet = Alphabet(tuple(f"s{i}" for i in range(letters)))
    p = SequencePrefix("r", alphabet, data)
    object.__setattr__(p, "_windows", index)
    total, width = len(data), index.width
    rs_max = min(width - 1, total - 1)
    return (factor_complexity_profile(p, min(width, total)),
            right_special_count(p, rs_max) if rs_max >= 1 else [])


def _assert_same_index(data: bytes, letters: int, width: int, index):
    """The index agrees with the doubling oracle on p, rs and the lcp
    multiset, and its order is sorted on the first `width` symbols."""
    want = doubling_index_oracle(data, letters, width)
    assert sorted(index.lcp.tolist()) == sorted(want.lcp.tolist())
    assert _counts(data, letters, index) == _counts(data, letters, want)
    order = index.order.tolist()
    assert sorted(order) == list(range(len(data)))
    pad = [letters] * width
    windows = [list(data[i:i + width]) + pad[:max(0, i + width - len(data))]
               for i in order]
    assert all(a <= b for a, b in zip(windows, windows[1:]))


class TestRankDigitRounds:
    """The window index sorts m rank digits a round with one tagged value
    sort and lifts only the pairs that differ in the last round; the
    oracle is the stable two-pass doubling it replaced."""

    @pytest.mark.parametrize("letters", [1, 2, 3, 4, 8, 10, 16, 256])
    def test_matches_the_doubling_oracle(self, letters):
        # bits 1, 2, 2, 3, 4, 4, 5 and 9 a symbol: at 600 letters the first
        # keys hold 32, 16, 16, 16, 8, 8, 8 and 4 symbols, and up to twice
        # as many on shorter words
        rng = random.Random(2400 + letters)
        for _ in range(60):
            data = _index_word(rng, letters)
            width = rng.choice((1, len(data) + 1, rng.randint(1, len(data))))
            index = words._build_index(data, letters, width)
            assert index.width == width
            _assert_same_index(data, letters, width, index)

    def test_untagged_rank_matches_the_tagged(self):
        rng = np.random.default_rng(24)
        for size in (1, 2, 7, 300):
            code = rng.integers(0, 9, size, dtype=np.uint64)
            order, ranks, step = words._rank(code.copy(), 9)
            loose, loose_ranks, loose_step = words._rank(code.copy(), None)
            # the tagged sort is stable; the argsort may order ties either way
            assert order.tolist() == np.argsort(code, kind="stable").tolist()
            assert sorted(loose.tolist()) == list(range(size))
            assert code[loose].tolist() == code[order].tolist()
            assert loose_ranks.tolist() == ranks.tolist()
            assert loose_step.tolist() == step.tolist()
            assert ranks[-1] == ranks[:-1].max() + 1
            assert ranks[:-1].tolist() == np.unique(
                code, return_inverse=True)[1].ravel().tolist()

    def test_untagged_rounds_give_the_same_index(self, monkeypatch):
        # past about 2^21 distinct windows two digits and a position tag
        # no longer fit in 64 bits; every round here takes that branch
        rank = words._rank
        monkeypatch.setattr(words, "_rank",
                            lambda code, posbits: rank(code, None))
        rng = random.Random(21)
        for letters in (2, 3, 16, 256):
            for _ in range(8):
                data = _index_word(rng, letters)
                width = rng.randint(1, len(data) + 1)
                _assert_same_index(data, letters, width,
                                   words._build_index(data, letters, width))

    @pytest.mark.parametrize("name, width, bytes_per_symbol", [
        # the stable two-pass doubling peaked at 41.0 and 49.0 bytes a
        # symbol on these; the bound is 10% above
        ("random-binary", 65, 41.0 * 1.1),
        ("three-squares", 257, 49.0 * 1.1),
    ])
    def test_build_memory_per_symbol(self, three_squares, name, width,
                                     bytes_per_symbol):
        total = 2 ** 18
        if name == "random-binary":
            data = np.random.default_rng(18).integers(
                0, 2, total, dtype=np.uint8).tobytes()
        else:
            data = three_squares.source("t").prefix(total).data
        assert max(data) == 1
        tracemalloc.start()
        try:
            words._build_index(data, 2, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_symbol * total


def _assert_route_exact(data: bytes, letters: int, width: int) -> None:
    """The index the prefix builds for itself gives the p and rs of a
    plain index of the whole prefix, and its starts are distinct prefix
    positions whose windows ascend."""
    alphabet = Alphabet(tuple(f"s{i}" for i in range(letters)))
    p = SequencePrefix("r", alphabet, data)
    got = (factor_complexity_profile(p, width),
           right_special_count(p, width - 1) if width > 1 else [])
    assert got == _counts(data, letters, words._build_index(
        data, letters, width)), (data, width)
    starts = p._windows.order.tolist()
    assert len(set(starts)) == len(starts)
    if letters < 256:
        padded = data + bytes([letters]) * width
        windows = [padded[i:i + width] for i in starts]
        assert windows == sorted(windows)


class TestDistinctBlocks:
    """The prefix's index holds one copy of the windows of each repeated
    aligned block; the oracle is one plain index of the whole prefix."""

    def test_catalogue_prefixes(self, tm_dfao, three_squares, xi1, squares,
                                xi2):
        sources = [m.source("t") for m in (tm_dfao, three_squares, xi1,
                                           squares, xi2)] + [xi3_source()]
        for source in sources:
            for width in (1, 2, 33, 64, 65, 129, 257):
                block = max(words._MIN_BLOCK,
                            1 << (2 * width - 1).bit_length())
                # the last full extended block ends exactly at the end,
                # one symbol before it and one past it, and a length with
                # no extension past its last block
                for total in (16 * block + width - 1, 16 * block + width - 2,
                              16 * block + width, 16 * block):
                    data = source.prefix(total).data
                    _assert_route_exact(data, source.alphabet.size, width)

    @pytest.mark.parametrize("letters", [1, 2, 3, 10, 256])
    def test_small_blocks_on_short_words(self, monkeypatch, letters):
        # with no least block size, B is the smallest power of two at
        # least 2 width, and words of up to 600 letters hold many blocks
        monkeypatch.setattr(words, "_MIN_BLOCK", 1)
        rng = random.Random(2700 + letters)
        for _ in range(80):
            data = _index_word(rng, letters)
            for width in {1, len(data), rng.randint(1, len(data)),
                          rng.randint(1, min(len(data), 9))}:
                _assert_route_exact(data, letters, width)

    def test_every_width_of_a_periodic_word_with_defects(self, monkeypatch):
        monkeypatch.setattr(words, "_MIN_BLOCK", 1)
        rng = random.Random(27)
        for _ in range(3):
            word = [0, 1, 2, 0] * 40
            for _ in range(rng.randint(1, 3)):
                word[rng.randrange(len(word))] = rng.randrange(3)
            data = bytes(word)
            for width in range(1, len(data) + 1):
                _assert_route_exact(data, 3, width)

    def test_random_prefixes(self):
        rng = np.random.default_rng(270)
        for letters, total in ((2, 3000), (10, 1 << 12), (2, 1 << 12)):
            data = rng.integers(0, letters, total, dtype=np.uint8).tobytes()
            for width in (1, 3, 64, 129, total // 2, total):
                _assert_route_exact(data, letters, width)

    @pytest.mark.parametrize("name, total, width, route", [
        # extended blocks of 81%, 97% and 99% of the prefix: sorting the
        # whole prefix is faster; 47% on xi2: the blocks are. Either way
        # the counts are those of a plain index of the whole prefix
        ("squares", 18074, 64, "prefix"), ("squares", 39993, 78, "prefix"),
        ("squares", 48743, 116, "prefix"), ("xi2", 18043, 52, "blocks"),
        ("random", 18000, 64, "prefix"), ("random", 4096, 9, "prefix"),
    ])
    def test_block_route_only_below_half(self, squares, xi2, monkeypatch,
                                          name, total, width, route):
        texts = []
        build = words._build_index
        monkeypatch.setattr(words, "_build_index", lambda data, *args: (
            texts.append(len(data)) or build(data, *args)))
        if name == "random":
            data = np.random.default_rng(total + width).integers(
                0, 3, total, dtype=np.uint8).tobytes()
            letters = 3
        else:
            source = (squares if name == "squares" else xi2).source("t")
            data, letters = source.prefix(total).data, source.alphabet.size
        _assert_route_exact(data, letters, width)
        assert (texts[0] < total) == (route == "blocks")

    def test_repeats_shrink_the_index(self, three_squares, monkeypatch):
        # 2^16 symbols at width 129 are 127 blocks of 512: three-squares
        # repeats all but a few, a random binary word none, and its index
        # is built on the prefix itself
        texts = []
        build = words._build_index
        monkeypatch.setattr(words, "_build_index", lambda data, *args: (
            texts.append(data) or build(data, *args)))
        total = 2 ** 16
        pre = three_squares.source("t").prefix(total)
        assert len(words._window_index(pre, 129).order) < total // 8
        assert len(texts[0]) < total // 8
        data = np.random.default_rng(16).integers(
            0, 2, total, dtype=np.uint8).tobytes()
        pre = SequencePrefix("r", pre.alphabet, data)
        assert len(words._window_index(pre, 129).order) == total
        assert texts[1] is data


class TestDifferenceIdentityOnCatalogWords:
    def test_binary_catalog_words(self, tm_dfao, xi2):
        # on long binary prefixes the complexity increments are exactly
        # the right-special counts, up to n = 64
        for pre in (tm_dfao.source("test").prefix(2 ** 14),
                    xi2.source("test").prefix(2 ** 14)):
            profile = factor_complexity_profile(pre, 65)
            rs = right_special_count(pre, 64)
            for n in range(1, 65):
                assert profile[n] - profile[n - 1] == rs[n - 1], n


class TestSequenceMachinery:
    def test_positions_are_one_based(self):
        p = str_prefix("abc")
        assert p.text()[0] == "a" and p.text()[2] == "c" and len(p) == 3

    def test_source_rereads_consistently(self):
        src = periodic_source("0110")
        first = src.prefix(6).text()
        longer = src.prefix(12).text()
        assert longer.startswith(first)
        assert src.prefix(6).text() == first

    def test_finite_source_refuses_overread(self):
        src = str_source("abc")
        with pytest.raises(InsufficientDataError):
            src.prefix(4)
