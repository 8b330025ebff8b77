import random
from fractions import Fraction

from conftest import morphic_growth_oracle, random_morphic
from digitseq.morphic import MorphicSpec, exponential_growth
from digitseq.tag import dilation_profile


class TestProfile:
    def test_thue_morse_ratio_is_constant_two(self, tm_morphic):
        prof = dilation_profile(tm_morphic, 2 ** 10)
        assert all(r == 2 for _, r in prof.samples)
        assert prof.min_ratio == 2
        assert prof.exceeds_one

    def test_squares_minimum_is_exact(self, squares):
        # W(n) = n + 1 + 2*floor(sqrt(n-1)); minimum over n <= 10^4 is at
        # n = 10^4 itself
        prof = dilation_profile(squares, 10 ** 4)
        assert prof.min_ratio == Fraction(10199, 10000)
        assert prof.argmin == 10 ** 4
        assert not prof.exceeds_one

    def test_squares_ratio_drifts_toward_one(self, squares):
        # the profile keeps sinking at larger depth, crossing 1.01
        prof = dilation_profile(squares, 2 ** 16)
        assert prof.min_ratio == Fraction(66047, 65536)
        assert prof.min_ratio < Fraction(101, 100)

    def test_xi1_minimum_stays_away_from_one(self, xi1):
        prof = dilation_profile(xi1, 10 ** 4)
        assert prof.min_ratio == 2
        assert prof.exceeds_one

    def test_uniform_machines_have_ratio_k(self):
        rng = random.Random(5)
        letters = ("a", "b", "c")
        for k in (2, 3):
            rules = {
                a: tuple(rng.choice(letters) for _ in range(k))
                for a in letters
            }
            rules["a"] = ("a",) + rules["a"][1:]
            spec = MorphicSpec(internal=letters, rules=rules, start="a",
                               external=letters,
                               coding={a: a for a in letters})
            prof = dilation_profile(spec, 512)
            assert all(r == k for _, r in prof.samples)

    def test_products_past_int64_are_compared_exactly(self):
        # a -> a b^65534, b -> b^32768: the fixed point is a b b b ..., so
        # W(n) = 65535 + 32768 (n - 1), and the last blocks' W * n passes
        # 2^63, where the shortlist is compared as Python integers
        spec = MorphicSpec(internal=("a", "b"),
                           rules={"a": ("a",) + ("b",) * 65534,
                                  "b": ("b",) * 32768},
                           start="a", external=("a", "b"),
                           coding={"a": "a", "b": "b"})
        n_limit = 2 ** 24 + 2 ** 16
        assert (32767 + 32768 * n_limit) * n_limit >= 2 ** 63
        prof = dilation_profile(spec, n_limit)
        assert prof.min_ratio == Fraction(32767 + 32768 * n_limit, n_limit)
        assert prof.argmin == n_limit
        assert all(r == Fraction(32767 + 32768 * n, n)
                   for n, r in prof.samples)


class TestExceedsOne:
    def test_catalog(self, xi1, squares, tm_morphic):
        assert dilation_profile(xi1, 64).exceeds_one
        assert not dilation_profile(squares, 64).exceeds_one
        assert dilation_profile(tm_morphic, 64).exceeds_one

    def test_agrees_with_growth_on_random_corpus(self):
        rng = random.Random(31)
        for _ in range(100):
            spec = random_morphic(rng)
            assert dilation_profile(spec, 64).exceeds_one == \
                morphic_growth_oracle(spec)

    def test_true_direction_keeps_ratio_away_from_one(self):
        # exponential specs: sampled minimum stays above a definite gap
        rng = random.Random(77)
        found = 0
        while found < 25:
            spec = random_morphic(rng)
            if not exponential_growth(spec):
                continue
            found += 1
            prof = dilation_profile(spec, 2048)
            assert prof.min_ratio > 1
