import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import imitation_oracle, str_source, xi3_oracle, xi3_value
from digitseq import numbers
from digitseq.errors import EnumerationCapError
from digitseq.numbers import (expansion_stream, imitation_index,
                              parse_stream_spec, rational_source,
                              surd_source, xi3_source)

SQRT2_DECIMAL = "414213562373095048801688724209698078569"


class TestRationalDigits:
    def test_one_third(self):
        assert rational_source(1, 3, 10).prefix(5).text() == "33333"

    def test_one_seventh(self):
        assert rational_source(1, 7, 10).prefix(6).text() == "142857"

    def test_zero(self):
        assert rational_source(0, 1, 2).prefix(4).text() == "0000"

    def test_domain(self):
        # checked when the source is made, before any digit
        with pytest.raises(ValueError):
            rational_source(3, 2, 10)
        with pytest.raises(ValueError):
            rational_source(1, 3, 1)

    def test_matches_fraction_arithmetic(self):
        rng = random.Random(11)
        for _ in range(50):
            q = rng.randint(2, 500)
            p = rng.randint(0, q - 1)
            b = rng.choice((2, 3, 10))
            digits = rational_source(p, q, b).prefix(25).text()
            value = Fraction(p, q)
            for i, c in enumerate(digits, start=1):
                assert int(c) == (value * b ** i).__floor__() % b


class TestSurdDigits:
    def test_sqrt2_decimal(self):
        assert surd_source(2, 10).prefix(39).text() == SQRT2_DECIMAL
        # the integer part 1 leads the expansion stream
        stream = parse_stream_spec("surd:2", 10, expansion=True)
        assert stream.prefix(40).text() == "1" + SQRT2_DECIMAL

    def test_sqrt2_binary(self):
        assert surd_source(2, 2).prefix(12).text() == "011010100000"
        stream = parse_stream_spec("surd:2", 2, expansion=True)
        assert stream.prefix(13).text() == "1" + "011010100000"

    def test_perfect_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            surd_source(4, 10)

    def test_truncation_stability(self):
        rng = random.Random(3)
        for _ in range(40):
            d = rng.randint(2, 10 ** 6)
            if math.isqrt(d) ** 2 == d:
                continue
            b = rng.choice((2, 10))
            i = rng.randint(1, 60)
            # two sources, so the longer read is generated afresh
            short = surd_source(d, b).prefix(i).text()
            long = surd_source(d, b).prefix(i + 10).text()
            assert long.startswith(short)

    def test_isqrt_bracketing(self):
        rng = random.Random(9)
        for _ in range(40):
            d = rng.randint(2, 10 ** 6)
            i = rng.randint(1, 50)
            scaled = d * 10 ** (2 * i)
            r = math.isqrt(scaled)
            assert r * r <= scaled < (r + 1) * (r + 1)


class TestXi3:
    def test_first_ten(self):
        assert xi3_source().prefix(10).text() == "1101201100"

    def test_pattern_value(self):
        assert xi3_value(5) == 2  # binary 101
        assert xi3_value(6) == 0  # binary 110, two ones
        assert xi3_value(51) == 2  # binary 110011 = ones^2 zeros^2 ones^2

    def test_positions_start_at_one(self):
        assert xi3_source().prefix(1).text() == str(xi3_value(1))

    def test_matches_regex_oracle(self):
        text = xi3_source().prefix(4000).text()
        assert all(int(text[n - 1]) == xi3_oracle(n) for n in range(1, 4001))


class TestAgreement:
    def test_machine_vs_oracle_stream(self, xi2):
        from conftest import balance_oracle
        machine = xi2.source("m").prefix(10 ** 4).data
        assert machine == bytes(int(balance_oracle(i))
                                for i in range(10 ** 4))

    def test_constant_vs_sqrt2_expansion(self):
        stream = expansion_stream("surd:2", 1, surd_source(2, 2))
        # the expansion runs 1 0 1 1 0 ...: a constant 1 agrees with it
        # for one digit only
        assert stream.prefix(5).text() == "10110"


class TestImitation:
    def test_sqrt2_one_state(self):
        stream = parse_stream_spec("surd:2", 2, expansion=True)
        agree, censored, best = imitation_index(stream, 2, 1, 100)
        assert agree == 1 and not censored
        assert best.state_count() == 1

    def test_one_third_two_states_censored(self):
        stream = parse_stream_spec("rational:1/3", 2, expansion=True)
        agree, censored, best = imitation_index(stream, 2, 2, 64)
        assert (agree, censored) == (64, True)
        assert best.source("test").prefix(64).text() == \
            rational_source(1, 3, 2).prefix(64).text()

    def test_more_states_never_hurt(self):
        stream = parse_stream_spec("surd:2", 2, expansion=True)
        one = imitation_index(stream, 2, 1, 64)[0]
        two = imitation_index(stream, 2, 2, 64)[0]
        assert two >= one

    def test_cap_refusal(self, monkeypatch):
        monkeypatch.setattr(numbers, "ENUMERATION_CAP", 100)
        stream = parse_stream_spec("surd:2", 2, expansion=True)
        with pytest.raises(EnumerationCapError) as info:
            imitation_index(stream, 2, 8, 64)
        assert info.value.tried > info.value.cap == 100

    # (stream, base, k, largest state count the enumeration ran)
    GRID = [("surd:2", 2, 2, 4), ("surd:2", 3, 3, 3), ("surd:3", 3, 3, 3),
            ("rational:7/3", 10, 10, 1), ("rational:1/3", 2, 2, 4),
            ("rational:5/7", 10, 2, 3), ("xi3", 2, 2, 4), ("xi3", 2, 3, 3),
            ("surd:7", 4, 4, 2)]

    @pytest.mark.parametrize("spec, base, k, top", GRID,
                             ids=[f"{g[0]}-b{g[1]}-k{g[2]}" for g in GRID])
    def test_matches_the_enumeration(self, spec, base, k, top):
        stream = parse_stream_spec(spec, base, expansion=True)
        for max_states in range(1, top + 1):
            for max_len in (0, 1, 2, 16, 64, 200):
                result = imitation_index(stream, k, max_states, max_len)
                assert result[:2] == imitation_oracle(stream, k, max_states,
                                                      max_len)
                check_best_machine(stream, k, max_states, max_len, result)

    @given(st.sampled_from([(2, "ab"), (2, "abc"), (3, "ab"), (3, "abc")]),
           st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_enumeration_on_short_words(self, k_letters,
                                                    max_states, data):
        k, letters = k_letters
        if k == 3:
            max_states = min(max_states, 2)
        text = data.draw(st.text(alphabet=letters, max_size=24))
        stream = str_source(text, letters)
        result = imitation_index(stream, k, max_states, len(text))
        assert result[:2] == imitation_oracle(stream, k, max_states,
                                              len(text))
        check_best_machine(stream, k, max_states, len(text), result)

    def test_beyond_the_enumeration(self):
        stream = parse_stream_spec("surd:2", 2, expansion=True)
        for max_states, index in ((5, 13), (6, 26), (7, 32), (8, 37)):
            result = imitation_index(stream, 2, max_states, 64)
            assert result[:2] == (index, False)
            check_best_machine(stream, 2, max_states, 64, result)


def symbols(prefix):
    return [prefix.alphabet.symbols[i] for i in prefix.data]


def check_best_machine(stream, k, max_states, max_len, result):
    """The machine imitation_index returns has at most max_states states,
    reproduces the first I symbols and, unless censored, differs at
    symbol I; a transition no position 1..I reads goes to the first
    state."""
    agree, censored, best = result
    assert best.k == k and best.state_count() <= max_states
    goal = symbols(stream.prefix(max_len))
    made = symbols(best.source("best").prefix(max_len))
    assert made[:agree] == goal[:agree]
    assert censored == (agree == max_len)
    if not censored:
        assert made[agree] != goal[agree]
    states = [best.initial]
    read = set()
    for n in range(1, min(agree + 1, max_len)):
        q, d = states[n // k], n % k
        read.add((q, d))
        states.append(best.delta[q][d])
    for q in best.states:
        for d in range(k):
            assert (q, d) in read or best.delta[q][d] == best.initial


class TestStreamSpecs:
    def test_rational_spec(self):
        src = parse_stream_spec("rational:1/7", 10)
        assert src.prefix(6).text() == "142857"

    def test_surd_spec_is_fractional_only(self):
        src = parse_stream_spec("surd:2", 10)
        assert src.prefix(5).text() == "41421"

    def test_expansion_includes_integer_digits(self):
        src = parse_stream_spec("surd:2", 10, expansion=True)
        assert src.prefix(6).text() == "141421"

    def test_expansion_of_improper_rational(self):
        src = expansion_stream("rational:7/3", 2, rational_source(1, 3, 10))
        assert src.prefix(6).text() == "233333"

    def test_expansion_of_value_below_one_has_no_integer_digits(self):
        # the integer part 0 contributes nothing, like the empty
        # numeration of zero
        src = expansion_stream("rational:1/3", 0, rational_source(1, 3, 2))
        assert src.prefix(6).text() == "010101"

    def test_expansion_holds_its_digits_once(self):
        # the fraction's digits come from its generator and are cached by
        # the expansion stream alone; 2^16 digits, because the one integer
        # square root behind 2^20 decimal digits takes about half a minute
        count = 2 ** 16
        stream = parse_stream_spec("surd:2", 10, expansion=True)
        tracemalloc.start()
        try:
            prefix = stream.prefix(count)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(prefix) == count
        assert held < 1.5 * count

    @pytest.mark.parametrize("spec, base, digits", [
        ("rational:7/3", 10, "233333"),
        ("rational:3/3", 2, "1000"),
        ("rational:8/4", 2, "10000"),
        ("rational:22/7", 10, "3142857"),
    ])
    def test_expansion_spec_of_rational_at_least_one(self, spec, base,
                                                     digits):
        src = parse_stream_spec(spec, base, expansion=True)
        assert src.source_id == f"expansion:{spec}:base{base}"
        assert src.prefix(len(digits)).text() == digits

    @pytest.mark.parametrize("spec", [
        "rational:-1/3", "rational:1/0", "rational:0/0", "rational:-1/0",
    ])
    def test_expansion_needs_nonnegative_p_and_positive_q(self, spec):
        # checked before the integer part is split off, so q = 0 never
        # divides
        with pytest.raises(ValueError, match="need p >= 0, q >= 1"):
            parse_stream_spec(spec, 10, expansion=True)

    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_spec_is_the_source_built_by_hand(self, base):
        hand = {
            ("rational:3/7", False): rational_source(3, 7, base),
            ("rational:3/7", True): expansion_stream(
                "rational:3/7", 0, rational_source(3, 7, base)),
            ("rational:22/7", True): expansion_stream(
                "rational:22/7", 3, rational_source(1, 7, base)),
            ("surd:2", False): surd_source(2, base),
            ("surd:2", True): expansion_stream("surd:2", 1,
                                               surd_source(2, base)),
            ("surd:10", False): surd_source(10, base),
            ("surd:10", True): expansion_stream("surd:10", 3,
                                                surd_source(10, base)),
        }
        for (spec, expansion), want in hand.items():
            got = parse_stream_spec(spec, base, expansion=expansion)
            assert got.source_id == want.source_id, spec
            assert got.prefix(256).data == want.prefix(256).data, spec

    def test_file_spec(self, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text("0110\n", encoding="utf-8")
        src = parse_stream_spec(f"file:{path}")
        assert src.prefix(4).text() == "0110"

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_stream_spec("tau:9", 10)
