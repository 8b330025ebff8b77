"""Power-table doubling, divide-and-conquer digits and the vectorised
dilation profile against the loops they replaced.

The morphic counts sit on the level edges |sigma^j(start)| and one off
them, where a doubling round ends or is cut short; the surd counts sit
on the edges of the 64-bit digit chunks and on powers of two.
"""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from conftest import (dilation_loop, fixed_point_loop, random_morphic,
                      surd_digit_loop)
from digitseq import catalog, tag
from digitseq.morphic import MorphicSpec, fixed_point_prefix
from digitseq.numbers import parse_stream_spec, surd_source
from digitseq.tag import dilation_profile
from digitseq.words import encode_base_k


def spec(rules: dict[str, str]) -> MorphicSpec:
    letters = tuple(rules)
    return MorphicSpec(internal=letters,
                       rules={a: tuple(img) for a, img in rules.items()},
                       start=letters[0], external=letters,
                       coding={a: a for a in letters})


LINEAR = spec({"a": "ab", "b": "b"})
QUADRATIC = spec({"a": "ab", "b": "bc", "c": "c"})
ONE_LETTER = spec({"a": "aaa"})
# c and d trade places each round, so the one-symbol letters' tables
# alternate between the two symbols
CYCLE = spec({"a": "abc", "b": "b", "c": "d", "d": "c"})
# c's table is de at every power: a letter of bounded length >= 2
# between runs of the one-symbol letters d and e
BOUNDED = spec({"a": "ab", "b": "bc", "c": "de", "d": "d", "e": "e"})


CATALOGUE = [name for name in catalog.names()
             if isinstance(catalog.get(name), MorphicSpec)]
NAMED = {name: catalog.get(name) for name in CATALOGUE}
NAMED.update(linear=LINEAR, quadratic=QUADRATIC, one_letter=ONE_LETTER,
             cycle=CYCLE, bounded=BOUNDED)


def random_specs() -> list[MorphicSpec]:
    rng = random.Random(8800)
    return [random_morphic(rng, require_reachable=i % 2 == 0)
            for i in range(120)]


def level_lengths(s: MorphicSpec, cap: int) -> list[int]:
    """|sigma^j(start)| for j = 1..12 and j = 16, 32, ... up to 1024,
    while at most cap, from letter count vectors."""
    counts = {a: int(a == s.start) for a in s.internal}
    out = []
    for j in range(1, 1025):
        nxt = dict.fromkeys(s.internal, 0)
        for a, c in counts.items():
            for b in s.rules[a]:
                nxt[b] += c
        counts = nxt
        if sum(counts.values()) > cap:
            break
        if j <= 12 or j & (j - 1) == 0:
            out.append(sum(counts.values()))
    return out


def edge_counts(s: MorphicSpec, cap: int) -> list[int]:
    counts = {0, 1, cap}
    for length in level_lengths(s, cap):
        counts |= {length - 1, length, length + 1}
    return sorted(c for c in counts if c <= cap)


@pytest.mark.parametrize("name", NAMED)
def test_named_specs_match_the_letter_loop(name):
    s = NAMED[name]
    top = 2 ** 20
    want = fixed_point_loop(s, top)
    for count in edge_counts(s, top):
        assert fixed_point_prefix(s, count).data == want[:count], count


def test_random_specs_match_the_letter_loop():
    specs = random_specs()
    assert len(specs) >= 100
    top = 2 ** 14
    for s in specs:
        want = fixed_point_loop(s, top)
        for count in edge_counts(s, top):
            assert fixed_point_prefix(s, count).data == want[:count], \
                (s.rules, count)


def bench_style_morphic(rng: random.Random, uniform: bool) -> MorphicSpec:
    """Up to 4 letters, every one reachable: images of 1 to 3 letters
    with a -> a W, or, uniform, images of 2 letters with a -> ab and
    b -> xa."""
    while True:
        letters = "abcd"[:rng.randint(2 if uniform else 1, 4)]
        rules = {a: "".join(rng.choice(letters) for _ in range(
            2 if uniform else rng.randint(1, 3))) for a in letters}
        if uniform:
            rules.update(a="ab", b=rng.choice(letters[1:]) + "a")
        else:
            rules["a"] = "a" + "".join(
                rng.choice(letters) for _ in range(rng.randint(1, 2)))
        s = spec(rules)
        if not s.validate().warnings:
            return s


def test_bench_style_specs_match_the_letter_loop():
    rng = random.Random(3300)
    for i in range(8):
        s = bench_style_morphic(rng, uniform=i % 2 == 1)
        want = fixed_point_loop(s, 2 ** 20)
        for count in (2 ** 17, 2 ** 20):
            assert fixed_point_prefix(s, count).data == want[:count], \
                (s.rules, count)


@pytest.mark.parametrize("name", ["thue-morse-morphic", "xi1", "squares",
                                  "cycle", "bounded", "one_letter"])
def test_last_letter_needed_is_cut_inside_its_image(name):
    # the start table's letters past the first few have long images, so
    # a count halfway into the image of its 2nd, 3rd or 5th letter cuts
    # that letter's whole-table copy, or its run, in the middle
    s = NAMED[name]
    want = fixed_point_loop(s, 2 ** 19)
    for length in level_lengths(s, 2 ** 17)[-3:]:
        for count in (length + length // 2, 2 * length + length // 3,
                      4 * length + 1 + length // 2):
            count = min(count, 2 ** 19)
            assert fixed_point_prefix(s, count).data == want[:count], count


def test_one_symbol_letters_with_pattern_metacharacter_indices():
    # the run search matches letters by their byte value: give the
    # one-symbol letters the values of NUL, "-", "\\", "]" and "^"
    names = [f"x{i}" for i in range(100)]
    ones = [names[i] for i in (0, 45, 92, 93, 94)]
    rules = {x: (x,) for x in names}
    rules["x50"] = ("x50", "x51", *ones)
    rules["x51"] = ("x51", ones[0], "x51", *ones[::-1])
    s = MorphicSpec(internal=tuple(names), rules=rules, start="x50",
                    external=("0", "1"),
                    coding={x: str(i % 2) for i, x in enumerate(names)})
    want = fixed_point_loop(s, 2 ** 18)
    for count in edge_counts(s, 2 ** 18):
        assert fixed_point_prefix(s, count).data == want[:count], count


def test_fixed_point_prefix_codes_the_expansion():
    # the internal letters and the coded source read one expansion
    for s in NAMED.values():
        want = fixed_point_loop(s, 5000)
        assert fixed_point_prefix(s, 5000).data == want
        assert s.source("s").prefix(5000).text() == "".join(
            s.coding[s.internal[i]] for i in want)


def test_linear_spec_takes_logarithmically_many_rounds():
    # one round per new letter would take 2^20 numpy rounds here
    start = time.perf_counter()
    data = fixed_point_prefix(LINEAR, 2 ** 20).data
    assert time.perf_counter() - start < 2.0
    assert data == b"\0" + b"\1" * (2 ** 20 - 1)


@pytest.mark.parametrize("name", CATALOGUE + ["linear"])
def test_expansion_memory_stays_bounded(name):
    s = NAMED[name]
    tracemalloc.start()
    try:
        fixed_point_prefix(s, 2 ** 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def fan(ring: int, unreachable: int, width: int) -> MorphicSpec:
    """a -> a c0, c_i -> c_(i+1) down a chain of 8 letters into a ring of
    letters b_i -> b_i^(width - 1) b_(i+1), plus doubling letters the
    start never reaches: the ring's tables fill up long before the start
    letter's does."""
    chain = [chr(0x1000 + i) for i in range(8)]
    b = [chr(0x100 + i) for i in range(ring + unreachable)]
    rules = {"a": "a" + chain[0]}
    rules.update(zip(chain, chain[1:] + [b[0]]))
    rules.update((b[i], b[i] * (width - 1) + b[(i + 1) % ring])
                 for i in range(ring))
    rules.update((c, c * 2) for c in b[ring:])
    return spec(rules)


@pytest.mark.parametrize("ring, unreachable, width",
                         [(40, 10, 3), (200, 6, 3), (40, 10, 32)])
def test_many_letter_expansion_is_bounded_in_memory_and_time(
        ring, unreachable, width):
    # one table of 2^20 symbols for each of the 48 or 208 letters would
    # peak near 2 * 48 * 2^20 or 2 * 208 * 2^20 bytes; with width 32 the
    # tables go from 1024 symbols, squared as bytes, to 2^20
    s = fan(ring, unreachable, width)
    count = 2 ** 20
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = fixed_point_prefix(s, count).data
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == fixed_point_loop(s, count)
    assert peak <= 16 * 2 ** 20
    # a few rounds, each O(count) plus O(letters^2) Python: tens of ms
    assert seconds < 1.0


SURDS = (2, 3, 5, 7, 10, 11, 99)
BASES = (2, 3, 7, 10, 16, 36)


def leaf_width(b: int) -> int:
    """Digits per chunk: the most base-b digits below 2^63."""
    return max(w for w in range(1, 64) if b ** w < 2 ** 63)


@pytest.mark.parametrize("b", BASES)
@pytest.mark.parametrize("d", SURDS)
def test_surd_digits_match_the_divmod_loop(d, b):
    w = leaf_width(b)
    counts = {0, 1, w - 1, w, w + 1, 2 * w - 1, 2 * w, 2 * w + 1}
    for k in range(1, 13):
        counts |= {2 ** k - 1, 2 ** k, 2 ** k + 1}
    want = surd_digit_loop(d, b, max(counts))[1]
    for count in sorted(counts):
        # digits at higher precision keep the earlier ones
        assert surd_source(d, b).prefix(count).data == want[:count], count


@pytest.mark.parametrize("d, b, count", [
    (7, 2, 2 ** 14 - 1), (7, 3, 2 ** 14 + 1), (7, 7, 2 ** 14 - 1),
    (7, 10, 2 ** 14 + 1), (7, 16, 2 ** 14 - 1), (7, 36, 2 ** 14 + 1),
    (3, 2, 2 ** 16 - 1), (2, 10, 2 ** 16 + 1),
])
def test_long_surd_expansions_match_the_divmod_loop(d, b, count):
    whole, digits = surd_digit_loop(d, b, count)
    assert surd_source(d, b).prefix(count).data == digits
    # the expansion stream puts the integer part's digits in front
    head = bytes(encode_base_k(whole, b))
    stream = parse_stream_spec(f"surd:{d}", b, expansion=True)
    assert stream.prefix(len(head) + count).data == head + digits


def test_dilation_profile_matches_the_fraction_loop():
    limits = [1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 4096]
    for s in [*NAMED.values(), *random_specs()[:40]]:
        for n_limit in limits:
            prof = dilation_profile(s, n_limit)
            assert (prof.samples, prof.min_ratio, prof.argmin) == \
                dilation_loop(s, n_limit), (s.rules, n_limit)


def test_dilation_blocks_carry_the_sum_and_the_first_minimum(monkeypatch):
    # blocks of 7 put block edges among the samples and the near-ties
    monkeypatch.setattr(tag, "_BLOCK", 7)
    for s in NAMED.values():
        for n_limit in (1, 6, 7, 8, 63, 64, 65, 1000):
            prof = dilation_profile(s, n_limit)
            assert (prof.samples, prof.min_ratio, prof.argmin) == \
                dilation_loop(s, n_limit), (s.rules, n_limit)
    # Thue-Morse: every ratio is 2, so the first block keeps the tie
    assert dilation_profile(catalog.get("thue-morse-morphic"), 100).argmin == 1


def test_dilation_argmin_is_the_first_least_ratio():
    # squares: W(n) = n + 1 + 2 floor(sqrt(n - 1)), a ratio that sinks
    # toward 1 through long runs of near-ties
    prof = dilation_profile(catalog.get("squares"), 2 ** 16 + 3)
    assert (prof.samples, prof.min_ratio, prof.argmin) == \
        dilation_loop(catalog.get("squares"), 2 ** 16 + 3)
    # Thue-Morse: every ratio is 2, so the first n wins the tie
    assert dilation_profile(catalog.get("thue-morse-morphic"), 5000).argmin == 1
