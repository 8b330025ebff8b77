import pytest

from conftest import legendre_oracle, parity_oracle, run, run_word
from digitseq import words
from digitseq.dfao import Dfao
from digitseq.errors import ValidationError


def invalid_kinds(**fields) -> set[str]:
    """The error kinds of the report a Dfao built from fields raises."""
    with pytest.raises(ValidationError) as exc:
        Dfao(**fields)
    return exc.value.report.error_kinds()


class TestValidation:
    def test_catalog_machines_are_valid(self, tm_dfao, three_squares):
        assert tm_dfao.validate().ok
        assert three_squares.validate().ok

    def test_missing_transition(self):
        kinds = invalid_kinds(k=2, states=("q0",), initial="q0",
                              delta={"q0": ("q0",)}, output={"q0": "a"})
        assert "missing-transition" in kinds

    def test_invalid_base(self):
        kinds = invalid_kinds(k=1, states=("q0",), initial="q0",
                              delta={"q0": ("q0",)}, output={"q0": "a"})
        assert "invalid-base" in kinds

    def test_unknown_target(self):
        kinds = invalid_kinds(k=2, states=("q0",), initial="q0",
                              delta={"q0": ("q0", "q9")}, output={"q0": "a"})
        assert "unknown-state" in kinds

    @pytest.mark.parametrize("changes, kind", [
        (dict(states=("q0", "q0")), "duplicate-state"),
        (dict(initial="q9"), "unknown-state"),
    ])
    def test_rejected_fields(self, changes, kind):
        fields = dict(k=2, states=("q0",), initial="q0",
                      delta={"q0": ("q0", "q0")}, output={"q0": "a"})
        assert invalid_kinds(**{**fields, **changes}) == {kind}

    def test_unreachable_state_is_a_warning(self):
        m = Dfao(k=2, states=("q0", "q1"), initial="q0",
                 delta={"q0": ("q0", "q0"), "q1": ("q0", "q0")},
                 output={"q0": "a", "q1": "b"})
        report = m.validate()
        assert report.ok
        assert "unreachable-state" in report.warning_kinds()


class TestRun:
    def test_thue_morse_small(self, tm_dfao):
        assert run(tm_dfao, 3) == "0"
        assert run(tm_dfao, 4) == "1"

    def test_zero_reads_empty_input(self, tm_dfao):
        assert run(tm_dfao, 0) == tm_dfao.output[tm_dfao.initial]

    def test_three_squares_seven(self, three_squares):
        assert run(three_squares, 7) == "0"

    def test_parity_oracle_range(self, tm_dfao):
        text = tm_dfao.source("test").prefix(2000).text()
        assert all(text[n] == parity_oracle(n) for n in range(2000))

    def test_legendre_oracle_range(self, three_squares):
        text = three_squares.source("test").prefix(2000).text()
        assert all(text[n] == legendre_oracle(n) for n in range(2000))


class TestPrefix:
    def test_thue_morse_eight(self, tm_dfao):
        assert tm_dfao.source("test").prefix(8).text() == "01101001"

    def test_three_squares_eight(self, three_squares):
        assert three_squares.source("test").prefix(8).text() == "11111110"

    def test_single_state_machine(self):
        m = Dfao(k=2, states=("q",), initial="q", delta={"q": ("q", "q")},
                 output={"q": "c"})
        assert m.source("test").prefix(5).text() == "ccccc"

    def test_prefix_agrees_with_run(self, three_squares):
        text = three_squares.source("test").prefix(300).text()
        assert all(text[n] == run(three_squares, n) for n in range(300))


class TestLeadingZeros:
    def test_catalog_machines_ignore_leading_zeros(self, tm_dfao,
                                                   three_squares):
        from digitseq.words import encode_base_k
        for m in (tm_dfao, three_squares):
            for n in (0, 1, 5, 7, 23, 100):
                digits = encode_base_k(n, 2)
                for j in (1, 2, 3):
                    assert run_word(m, (0,) * j + digits) == \
                        run_word(m, digits)


class TestComplexityBound:
    def test_automatic_bound_small(self, tm_dfao, three_squares):
        # p(n) <= k * M^2 * n, spot-checked at modest prefix scale here
        for m in (tm_dfao, three_squares):
            pre = m.source("test").prefix(2 ** 12)
            bound = m.k * m.state_count() ** 2
            profile = words.factor_complexity_profile(pre, 32)
            assert all(profile[n - 1] <= bound * n for n in range(1, 33))


class TestSource:
    def test_source_is_deterministic(self, tm_dfao):
        src = tm_dfao.source("tm")
        a = src.prefix(64).text()
        b = src.prefix(128).text()
        assert b.startswith(a)

    def test_source_requires_valid_machine(self):
        # no invalid machine exists to ask for a source: the constructor
        # raises
        kinds = invalid_kinds(k=2, states=("q0",), initial="q0",
                              delta={"q0": ("q0",)}, output={"q0": "a"})
        assert "missing-transition" in kinds
