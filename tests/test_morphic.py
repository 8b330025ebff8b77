import random

import pytest

from conftest import (expand_word, growth_report_oracle,
                      incidence_radius_oracle, morphic_growth_oracle,
                      random_morphic)
from digitseq import catalog, dfao, pda, words
from digitseq.errors import ValidationError
from digitseq.morphic import (MorphicSpec, exponential_growth,
                              fixed_point_prefix, from_dfao, growth_report,
                              incidence, repetition_seed,
                              spectral_radius_estimate, to_dfao)


def make_spec(rules: dict[str, str], start: str = "a") -> MorphicSpec:
    letters = tuple(sorted(rules))
    return MorphicSpec(
        internal=letters,
        rules={a: tuple(img) for a, img in rules.items()},
        start=start,
        external=letters,
        coding={a: a for a in letters},
    )


def invalid_kinds(rules: dict[str, str]) -> set[str]:
    """The error kinds of the report make_spec(rules) raises."""
    with pytest.raises(ValidationError) as exc:
        make_spec(rules)
    return exc.value.report.error_kinds()


FIB = make_spec({"a": "ab", "b": "a"})
# a -> a d -> a d b: a fixed letter, then a 3-cycle, whose incidence matrix
# is defective at 1; a whole-matrix eigensolve gives 1.0000000000000002
CYCLE = make_spec({"a": "ad", "b": "c", "c": "d", "d": "b"})
# two components of radius 2, {a, d} above {b, c}: 2 is a defective
# eigenvalue, which a whole-matrix eigensolve finds as 2.000000016
TWO_OF_RADIUS_TWO = make_spec({"a": "abd", "b": "c", "c": "bbc", "d": "cda"})


def wide_morphic(rng: random.Random, d: int) -> MorphicSpec:
    """A spec of d letters declared out of name order, with dense random
    images of length 1-3 or, half the time, sparse ones: a self-loop or
    not, one later letter in a hidden rank and a rare back edge, so that
    chains of polynomial components occur."""
    names = [f"x{i:02d}" for i in range(d)]
    rng.shuffle(names)
    rank = rng.sample(names, d)
    sparse = rng.random() < 0.5
    rules = {}
    for i, a in enumerate(rank):
        if not sparse:
            rules[a] = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
            continue
        later = rank[i + 1:] or [a]
        img = [a] if rng.random() < 0.5 else []
        img.append(rng.choice(later))
        if rng.random() < 0.05:
            img.append(rng.choice(rank[:i + 1]))
        rules[a] = tuple(img)
    start = rank[0]
    rules[start] = (start, rng.choice(rank[1:]))
    return MorphicSpec(internal=tuple(names), rules=rules, start=start,
                       external=("0",), coding={a: "0" for a in names})


def one_component_morphic(rng: random.Random, d: int, length: int
                          ) -> MorphicSpec:
    """A spec of d letters declared out of name order that all reach one
    another: each image leads with the next letter of a hidden cycle
    through every letter, then has length - 1 random letters."""
    names = [f"x{i:03d}" for i in range(d)]
    rng.shuffle(names)
    rank = rng.sample(names, d)
    rules = {a: (rank[(i + 1) % d],)
             + tuple(rng.choice(names) for _ in range(length - 1))
             for i, a in enumerate(rank)}
    start = rank[0]
    rules[start] = (start,) + rules[start]
    return MorphicSpec(internal=tuple(names), rules=rules, start=start,
                       external=("0",), coding={a: "0" for a in names})


class TestValidation:
    def test_catalog_specs_are_valid(self, xi1, squares, tm_morphic):
        for spec in (xi1, squares, tm_morphic):
            assert spec.validate().ok

    def test_not_prolongable(self):
        assert "not-prolongable" in invalid_kinds({"a": "a"})

    def test_erasing_rejected_not_normalized(self):
        assert "unsupported-erasing" in invalid_kinds({"a": "ab", "b": ""})

    def test_start_must_lead_its_image(self):
        assert "not-prolongable" in invalid_kinds({"a": "ba", "b": "ab"})

    @pytest.mark.parametrize("changes", [
        dict(internal=("a", "b", "a")),
        dict(external=("0", "1", "0")),
    ])
    def test_repeated_letters(self, changes):
        fields = dict(internal=("a", "b"), rules={"a": ("a", "b"),
                                                  "b": ("a",)},
                      start="a", external=("0", "1"),
                      coding={"a": "0", "b": "1"})
        with pytest.raises(ValidationError) as exc:
            MorphicSpec(**{**fields, **changes})
        assert exc.value.report.error_kinds() == {"duplicate-letter"}

    def test_unreachable_letter_warns(self):
        report = make_spec({"a": "aa", "b": "ab"}).validate()
        assert report.ok
        assert "unreachable-letter" in report.warning_kinds()


class TestFixedPoint:
    def test_xi1_fifteen(self, xi1):
        ext = xi1.source("xi1").prefix(15)
        assert ext.text() == "021201220210122"

    def test_thue_morse_eight(self, tm_morphic):
        ext = tm_morphic.source("tm").prefix(8)
        assert ext.text() == "01101001"

    def test_squares_ten(self, squares):
        # ones sit at positions m^2 + 1; the printed number starts one
        # position later, so the word begins 0 1 0 0 1 ...
        ext = squares.source("squares").prefix(10)
        assert ext.text() == "0100100001"
        ones = {p for p in range(1, 11) if ext.text()[p - 1] == "1"}
        assert ones == {m * m + 1 for m in (1, 2, 3)}

    def test_internal_is_a_fixed_point(self, xi1, squares, tm_morphic):
        # applying the morphism to a prefix reproduces that prefix
        for spec in (xi1, squares, tm_morphic):
            internal = fixed_point_prefix(spec, 10 ** 4)
            image = []
            for b in internal.data:
                image.extend(spec.rules[spec.internal[b]])
                if len(image) >= 10 ** 4:
                    break
            got = "".join(image[:10 ** 4])
            assert got == internal.text()

    def test_two_expansion_strategies_agree(self, xi1):
        # streaming vs. whole-word re-substitution
        ext = xi1.source("xi1").prefix(200)
        word = "a"
        while len(word) < 200:
            word = "".join("".join(xi1.rules[c]) for c in word)
        coded = "".join(xi1.coding[c] for c in word[:200])
        assert coded == ext.text()


class TestIncidence:
    def test_xi1_matrix(self, xi1):
        assert incidence(xi1) == [[1, 1, 0], [1, 1, 0], [1, 1, 1]]

    def test_identity_morphism_on_one_letter(self):
        spec = make_spec({"a": "aa"})
        assert incidence(spec) == [[2]]

    def test_thue_morse_matrix(self, tm_morphic):
        assert incidence(tm_morphic) == [[1, 1], [1, 1]]

    def test_column_sums_are_image_lengths(self, xi1, squares):
        for spec in (xi1, squares):
            m = incidence(spec)
            for j, a in enumerate(spec.internal):
                assert sum(row[j] for row in m) == len(spec.rules[a])


class TestGrowth:
    def test_xi1_exponential(self, xi1):
        assert exponential_growth(xi1) is True
        assert abs(spectral_radius_estimate(xi1) - 2.0) < 1e-9

    def test_squares_polynomial(self, squares):
        assert exponential_growth(squares) is False
        assert abs(spectral_radius_estimate(squares) - 1.0) < 1e-9

    def test_doubling_letter(self):
        assert exponential_growth(make_spec({"a": "aa"})) is True

    def test_fibonacci_radius(self):
        assert abs(spectral_radius_estimate(FIB) - 1.6180339887) < 1e-8

    def test_xi1_report(self, xi1):
        report = growth_report(xi1)
        assert report.maximal == ("a", "b")
        c = report.per_letter["c"]
        assert (c.theta, c.poly_degree, c.exponential) == (1.0, 0, False)
        assert report.global_exponential

    def test_squares_report(self, squares):
        report = growth_report(squares)
        assert "a" in report.maximal
        a = report.per_letter["a"]
        assert a.theta == 1.0 and a.poly_degree == 2
        assert not report.global_exponential

    def test_uniform_machine_letters(self, tm_morphic):
        report = growth_report(tm_morphic)
        for g in report.per_letter.values():
            assert (abs(g.theta - 2.0) < 1e-9, g.poly_degree) == (True, 0)

    def test_report_matches_direct_iteration(self, squares, xi1):
        # |sigma^n(letter)| versus the (theta, degree) classification
        for spec, letter, expect in (
            (squares, "a", lambda n: n * n + 1),
            (squares, "b", lambda n: 2 * n + 1),
            (xi1, "c", lambda n: 1),
        ):
            for n in (5, 10, 20, 25):
                assert len(expand_word(spec, (letter,), n)) == expect(n)

    def test_start_letter_always_maximal(self):
        rng = random.Random(2024)
        for _ in range(60):
            spec = random_morphic(rng)
            assert spec.start in growth_report(spec).maximal

    def test_report_equals_tarjan_oracle(self):
        rng = random.Random(4242)
        specs = [m for m in map(catalog.get, catalog.names())
                 if isinstance(m, MorphicSpec)]
        specs += [random_morphic(rng) for _ in range(600)]
        specs += [random_morphic(rng, require_reachable=False)
                  for _ in range(600)]
        specs += [wide_morphic(rng, rng.randint(5, 20)) for _ in range(300)]
        # 256 letters in one component: every reach set is the alphabet
        specs += [one_component_morphic(rng, 256, length)
                  for length in (1, 2, 6) for _ in range(2)]
        for spec in specs:
            want = growth_report_oracle(spec)
            assert growth_report(spec) == want, spec
            assert exponential_growth(spec) == want.global_exponential

    def test_three_routes_agree_on_random_corpus(self):
        rng = random.Random(99)
        for _ in range(120):
            spec = random_morphic(rng)
            exact = exponential_growth(spec)
            assert exact == (incidence_radius_oracle(spec) > 1 + 1e-6)
            assert exact == morphic_growth_oracle(spec)

    def test_radius_is_the_largest_letter_theta(self):
        rng = random.Random(1616)
        specs = [m for m in map(catalog.get, catalog.names())
                 if isinstance(m, MorphicSpec)]
        specs += [random_morphic(rng) for _ in range(600)]
        for spec in specs:
            report = growth_report(spec)
            radius = spectral_radius_estimate(spec)
            assert radius == report.radius == max(
                g.theta for g in report.per_letter.values())
            # a radius that two chained components share is a defective
            # eigenvalue, which a dense eigensolve of the whole matrix
            # finds only to about the square root of the float epsilon
            shared = any(g.theta == radius > 1 and g.poly_degree > 0
                         for g in report.per_letter.values())
            tolerance = 1e-7 if shared else 1e-9
            assert abs(radius - incidence_radius_oracle(spec)) <= tolerance

    def test_radius_is_exact_where_the_eigensolve_is_not(self):
        assert spectral_radius_estimate(TWO_OF_RADIUS_TWO) == 2.0
        assert abs(incidence_radius_oracle(TWO_OF_RADIUS_TWO) - 2.0) > 1e-9

    def test_polynomial_growth_has_radius_exactly_one(self, squares):
        rng = random.Random(1617)
        specs = [squares, CYCLE] + [random_morphic(rng) for _ in range(300)]
        for spec in specs:
            if not exponential_growth(spec):
                assert spectral_radius_estimate(spec) == 1.0, spec


class TestRepetitionSeed:
    def test_xi1_seed(self, xi1):
        seed = repetition_seed(xi1)
        assert (seed.letter, seed.p1, seed.p2) == ("a", 1, 5)
        assert seed.u == () and seed.v == ("c", "b", "c")

    def test_thue_morse_seed(self, tm_morphic):
        seed = repetition_seed(tm_morphic)
        assert (seed.letter, seed.p1, seed.p2) == ("q0", 1, 4)
        assert seed.v == ("q1", "q1")

    def test_polynomial_spec_is_rejected(self, squares):
        with pytest.raises(ValueError, match="exponential"):
            repetition_seed(squares)

    def test_negative_lengths_raise(self, xi1):
        # fixed_point_prefix(xi1, -1) used to return two letters
        with pytest.raises(ValueError, match="prefix length must be "
                           "nonnegative, got -1"):
            fixed_point_prefix(xi1, -1)
        with pytest.raises(ValueError, match="scan length must be "
                           "nonnegative, got -1"):
            repetition_seed(xi1, -1)
        assert fixed_point_prefix(xi1, 0).data == b""

    def test_seed_images_stay_prefixes(self, xi1, tm_morphic):
        # sigma^n(U) sigma^n(bV) sigma^n(b) is a prefix for each n <= 8
        for spec in (xi1, tm_morphic):
            seed = repetition_seed(spec)
            for n in range(9):
                u_len = len(expand_word(spec, seed.u, n))
                bv_len = len(expand_word(spec, (seed.letter,) + seed.v, n))
                b_len = len(expand_word(spec, (seed.letter,), n))
                total = u_len + bv_len + b_len
                internal = fixed_point_prefix(spec, total)
                head = internal.data
                assert head[u_len + bv_len:total] == head[u_len:u_len + b_len]


class TestConversion:
    def test_thue_morse_to_automaton(self, tm_morphic, tm_dfao):
        assert to_dfao(tm_morphic) == tm_dfao

    def test_automaton_to_spec(self, tm_dfao, tm_morphic):
        assert from_dfao(tm_dfao) == tm_morphic

    def test_round_trips(self, tm_morphic, tm_dfao):
        assert from_dfao(to_dfao(tm_morphic)) == tm_morphic
        assert to_dfao(from_dfao(tm_dfao)) == tm_dfao

    def test_non_uniform_rejected(self, xi1):
        with pytest.raises(ValueError, match="uniform"):
            to_dfao(xi1)

    def test_initial_zero_loop_required(self):
        m = dfao.Dfao(k=2, states=("q0", "q1"), initial="q0",
                      delta={"q0": ("q1", "q0"), "q1": ("q0", "q1")},
                      output={"q0": "0", "q1": "1"})
        with pytest.raises(ValueError, match="unsupported"):
            from_dfao(m)

    def test_outputs_agree(self, tm_morphic):
        machine = to_dfao(tm_morphic)
        auto = machine.source("test").prefix(3000).text()
        word = tm_morphic.source("tm").prefix(3000)
        assert auto == word.text()

    def test_three_models_agree_on_random_uniform_specs(self):
        # a k-uniform spec, its automaton and that automaton recast as a
        # stack-free pushdown transducer must emit byte-identical prefixes
        rng = random.Random(2718)
        for _ in range(30):
            k = rng.choice((2, 3))
            letters = "abcd"[:rng.randint(1, 4)]
            rules = {a: tuple(rng.choice(letters) for _ in range(k))
                     for a in letters}
            rules["a"] = ("a",) + rules["a"][1:]
            coding = {a: rng.choice("012") for a in letters}
            spec = MorphicSpec(internal=tuple(letters), rules=rules, start="a",
                               external=tuple(sorted(set(coding.values()))),
                               coding=coding)
            automaton = to_dfao(spec)
            prefixes = [m.source("uniform").prefix(2 ** 12)
                        for m in (spec, automaton, pda.from_dfao(automaton))]
            assert prefixes[0] == prefixes[1] == prefixes[2], spec


class TestDioCapProperty:
    def test_purely_morphic_cap(self, tm_morphic, xi1):
        # aperiodic purely morphic word: exponent stays below
        # (longest image) + 1, checked on sampled profile lengths
        for spec, cap in ((tm_morphic, 3), (xi1, 4)):
            src = spec.source("t")
            for _, ratio in words.dio_profile(src, [64, 256, 1024]):
                assert ratio <= cap
