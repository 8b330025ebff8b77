import random

import pytest

from conftest import (StackConfig, balance_oracle, config_of, config_table,
                      initial_config, output_at, random_deep_dpao,
                      random_dpao, simulate_pop_states, step_input)
from digitseq.errors import ValidationError
from digitseq.pda import (BOTTOM, Dpao, _Core, bounded_distinguish,
                          find_equivalent_pair, from_dfao, pop_table)

XI2_GOLDEN = "1110111001101000011111101110100000010110"


def core_config(m: Dpao, n: int) -> StackConfig:
    """The step core's configuration after n, read back as a tuple."""
    core = _Core(m)
    state, node = core.config_of(core.id_of(n))
    stack = []
    while node:
        stack.append(m.stack_symbols[core.sym[node]])
        node = core.parent[node]
    return StackConfig(m.states[state], tuple(reversed(stack)))


def tiny(transitions, states=("p", "q"), symbols=("X",), outputs=None):
    out = outputs or {
        (q, a): "0" for q in states for a in symbols + (BOTTOM,)
    }
    return Dpao(k=2, states=states, initial=states[0],
                stack_symbols=symbols, transitions=transitions, output=out)


def invalid_kinds(transitions) -> set[str]:
    """The error kinds of the report a one-state `tiny` machine raises."""
    with pytest.raises(ValidationError) as exc:
        tiny(transitions, states=("p",))
    return exc.value.report.error_kinds()


class TestValidation:
    def test_xi2_valid_with_dead_row_warning(self, xi2):
        report = xi2.validate()
        assert report.ok
        # the (q0, X) row is absent in the printed table; it is unreachable
        assert "dead-row" in report.warning_kinds()

    def test_epsilon_and_digit_conflict(self):
        t = {
            ("p", "X", None): ("p", ()),
            ("p", "X", 0): ("p", ()),
            ("p", BOTTOM, 0): ("p", ()),
            ("p", BOTTOM, 1): ("p", ()),
        }
        assert "determinism-conflict" in invalid_kinds(t)

    def test_increasing_epsilon(self):
        t = {
            ("p", "X", None): ("p", ("X", "X")),
            ("p", BOTTOM, 0): ("p", ()),
            ("p", BOTTOM, 1): ("p", ()),
        }
        assert "increasing-epsilon" in invalid_kinds(t)

    def test_epsilon_on_bottom(self):
        t = {
            ("p", BOTTOM, None): ("p", ()),
        }
        assert "epsilon-on-bottom" in invalid_kinds(t)

    def test_partial_digit_row_is_incomplete(self):
        t = {
            ("p", BOTTOM, 0): ("p", ()),
            ("p", BOTTOM, 1): ("p", ()),
            ("p", "X", 0): ("p", ()),
        }
        assert "incompleteness" in invalid_kinds(t)

    def test_unknown_symbols(self):
        t = {
            ("p", BOTTOM, 0): ("p", ("Z",)),
            ("p", BOTTOM, 1): ("p", ()),
        }
        assert "unknown-symbol" in invalid_kinds(t)

    @pytest.mark.parametrize("states, symbols, kind", [
        (("p", "q", "q"), ("X",), "duplicate-state"),
        (("p", "q"), ("X", "X"), "duplicate-symbol"),
    ])
    def test_repeated_names(self, states, symbols, kind):
        t = {(q, a, d): ("p", ()) for q in ("p", "q")
             for a in ("X", BOTTOM) for d in (0, 1)}
        with pytest.raises(ValidationError) as exc:
            tiny(t, states=states, symbols=symbols)
        assert exc.value.report.error_kinds() == {kind}

    REJECTED = [
        (1, ("X",), {}, {}, "p", "invalid-base"),
        (2, ("X", BOTTOM), {}, {}, "p", "unknown-symbol"),
        (2, ("X",), {("p", "Z", 0): ("p", ())}, {}, "p", "unknown-symbol"),
        (2, ("X",), {("p", "X", 2): ("p", ())}, {}, "p", "invalid-digit"),
        (2, ("X",), {}, {("p", "Z"): "0"}, "p", "unknown-symbol"),
        (2, ("X",), {}, {("r", BOTTOM): "0"}, "p", "unknown-symbol"),
        (2, ("X",), {}, {}, "r", "unknown-state"),
    ]

    # the ids leave out `initial`, which only the unknown-state case sets
    @pytest.mark.parametrize(
        "k, symbols, rows, outputs, initial, kind", REJECTED,
        ids=[f"{k}-symbols{i}-rows{i}-outputs{i}-{kind}"
             for i, (k, *_, kind) in enumerate(REJECTED)])
    def test_rejected_fields(self, k, symbols, rows, outputs, initial, kind):
        """A one-state machine, complete in base k, with rows and outputs
        added to its own and the initial state given."""
        t = {("p", a, d): ("p", ()) for a in ("X", BOTTOM) for d in range(k)}
        with pytest.raises(ValidationError) as exc:
            Dpao(k=k, states=("p",), initial=initial, stack_symbols=symbols,
                 transitions={**t, **rows},
                 output={("p", "X"): "0", ("p", BOTTOM): "0", **outputs})
        assert exc.value.report.error_kinds() == {kind}


class TestStep:
    def test_xi2_printed_transitions(self, xi2):
        c = step_input(xi2, StackConfig("q0", ()), 1)
        assert c == StackConfig("q1", ())
        c = step_input(xi2, StackConfig("q1", ()), 1)
        assert c == StackConfig("q1", ("X",))
        c = step_input(xi2, StackConfig("q1", ("X",)), 0)
        assert c == StackConfig("q1", ())

    def test_epsilon_closure_runs_to_quiescence(self):
        # reading 1 pushes two X, then epsilons pop both immediately
        t = {
            ("p", BOTTOM, 0): ("p", ()),
            ("p", BOTTOM, 1): ("q", ("X", "X")),
            ("q", "X", None): ("q", ()),
            ("q", BOTTOM, 0): ("q", ()),
            ("q", BOTTOM, 1): ("q", ()),
        }
        m = tiny(t)
        c = step_input(m, initial_config(m), 1)
        assert c == StackConfig("q", ())
        assert core_config(m, 1) == c

    def test_reached_configurations_are_epsilon_quiescent(self):
        t = {
            ("p", BOTTOM, 0): ("p", ("X", "X")),
            ("p", BOTTOM, 1): ("q", ()),
            ("p", "X", 0): ("p", ("X",)),
            ("p", "X", 1): ("q", ("X", "X")),
            ("q", "X", None): ("p", ()),
            ("q", BOTTOM, 0): ("p", ()),
            ("q", BOTTOM, 1): ("q", ()),
        }
        m = tiny(t)
        assert m.validate().ok
        for n in range(128):
            c = config_of(m, n)
            assert (c.state, c.top, None) not in m.transitions
            assert core_config(m, n) == c

    def test_stack_top_is_rightmost(self):
        t = {
            ("p", BOTTOM, 0): ("p", ("X", "Y")),
            ("p", BOTTOM, 1): ("p", ()),
            ("p", "Y", 0): ("p", ()),
            ("p", "Y", 1): ("p", ("Y",)),
            ("p", "X", 0): ("p", ()),
            ("p", "X", 1): ("p", ()),
        }
        m = tiny(t, states=("p",), symbols=("X", "Y"))
        c = step_input(m, initial_config(m), 0)
        assert c.stack == ("X", "Y") and c.top == "Y"
        c = step_input(m, c, 0)  # pops Y, exposing X
        assert c.stack == ("X",) and c.top == "X"
        # the core reads "1" first, which leaves the bare bottom
        assert core_config(m, 2) == StackConfig("p", ("X", "Y"))  # "10"
        assert core_config(m, 4) == c  # "100"


class TestConfig:
    def test_xi2_traces(self, xi2):
        for config in (config_of, core_config):
            assert config(xi2, 9) == StackConfig("q0", ())
            assert config(xi2, 5) == StackConfig("q1", ())
            assert config(xi2, 0) == StackConfig("q0", ())

    def test_config_table_matches_direct_walk(self, xi2):
        table = config_table(xi2, 200)
        assert all(table[n] == config_of(xi2, n) == core_config(xi2, n)
                   for n in range(200))

    def test_walk_to_a_far_input(self, xi2):
        """`id_of` walks the successor table down the 100 binary (or 63
        ternary) digits of 10^30, stepping rows as it reaches them."""
        rng = random.Random(31)
        machines = [xi2] + [random_deep_dpao(rng, k) for k in (2, 3) * 12]
        for m in machines:
            assert core_config(m, 10 ** 30) == config_of(m, 10 ** 30)

    def test_height_is_a_pure_function(self, xi2):
        heights = [config_of(xi2, n).height for n in range(64)]
        find_equivalent_pair(xi2, n_max=50)
        assert heights == [config_of(xi2, n).height for n in range(64)]


class TestOutputs:
    def test_golden_forty(self, xi2):
        assert xi2.source("test").prefix(40).text() == XI2_GOLDEN

    def test_single_outputs(self, xi2):
        assert output_at(xi2, 0) == "1"
        assert output_at(xi2, 3) == "0"
        assert xi2.source("test").prefix(4).text()[::3] == "10"

    def test_balance_oracle_range(self, xi2):
        text = xi2.source("test").prefix(5000).text()
        assert all(text[n] == balance_oracle(n) for n in range(5000))


class TestPopTable:
    def test_xi2_pop_sets(self, xi2):
        pops = pop_table(xi2)
        assert pops[("q1", "X")] == frozenset({"q1"})
        assert pops[("q-1", "X")] == frozenset({"q-1"})
        assert pops[("q0", "X")] == frozenset()

    def test_push_only_symbol_is_permanent(self):
        t = {
            ("p", BOTTOM, 0): ("p", ("X",)),
            ("p", BOTTOM, 1): ("p", ("X",)),
            ("p", "X", 0): ("p", ("X", "X")),
            ("p", "X", 1): ("p", ("X", "X")),
        }
        m = tiny(t, states=("p",))
        assert pop_table(m)[("p", "X")] == frozenset()

    def test_fixpoint_contains_all_simulated_pops(self):
        rng = random.Random(4242)
        for _ in range(60):
            m = random_dpao(rng)
            pops = pop_table(m)
            for q in m.states:
                for z in m.stack_symbols:
                    observed = simulate_pop_states(m, q, z, 10)
                    assert observed <= pops[(q, z)], (m, q, z)

    def test_protected_pairs_never_pop_in_simulation(self):
        rng = random.Random(777)
        for _ in range(60):
            m = random_dpao(rng)
            pops = pop_table(m)
            for (q, z), states in pops.items():
                if not states:
                    assert simulate_pop_states(m, q, z, 10) == set()


class TestEquivalentPair:
    def test_xi2_first_pair(self, xi2):
        assert find_equivalent_pair(xi2) == (1, 5, "exact")

    def test_stack_free_recast_uses_pigeonhole(self, tm_dfao):
        m = from_dfao(tm_dfao)
        n, n_prime, method = find_equivalent_pair(m)
        assert method == "exact"
        assert n_prime <= len(m.states) + 1
        assert (n, n_prime) == (1, 2)

    def test_push_only_machine_uses_protected_method(self):
        # state tracks the last digit, one X pushed per digit, nothing ever
        # pops, outputs uniform: configurations never repeat exactly, but
        # the (state, top) signature with an empty pop set does
        t = {}
        for q in ("p0", "p1"):
            for d in (0, 1):
                t[(q, BOTTOM, d)] = (f"p{d}", ("X",))
                t[(q, "X", d)] = (f"p{d}", ("X", "X"))
        outputs = {
            (q, a): "1" for q in ("p0", "p1") for a in ("X", BOTTOM)
        }
        m = Dpao(k=2, states=("p0", "p1"), initial="p0",
                 stack_symbols=("X",), transitions=t, output=outputs)
        n, n_prime, method = find_equivalent_pair(m)
        assert method == "protected"
        assert (n, n_prime) == (2, 4)
        assert not bounded_distinguish(m, n, n_prime, 8).distinguished

    def test_budget_exhaustion_returns_none(self):
        # height grows with every digit and pops release the bottom, so
        # neither detector can fire within a tiny budget
        t = {
            ("p", BOTTOM, 0): ("q", ("X",)),
            ("p", BOTTOM, 1): ("q", ("X",)),
            ("p", "X", 0): ("q", ("X", "X")),
            ("p", "X", 1): ("q", ("X", "X")),
            ("q", BOTTOM, 0): ("p", ("X",)),
            ("q", BOTTOM, 1): ("p", ()),
            ("q", "X", 0): ("p", ("X", "X")),
            ("q", "X", 1): ("p", ()),
        }
        m = tiny(t)
        assert find_equivalent_pair(m, n_max=3) is None

    def test_returned_pairs_are_output_equal_to_depth(self, xi2):
        n, n_prime, _ = find_equivalent_pair(xi2)
        result = bounded_distinguish(xi2, n, n_prime, 12)
        assert not result.distinguished

    def test_found_pairs_are_sound_on_random_machines(self):
        # never a false pair: everything returned survives a bounded
        # distinguishing search
        rng = random.Random(8888)
        found = 0
        for _ in range(120):
            m = random_dpao(rng)
            got = find_equivalent_pair(m, n_max=300)
            if got is None:
                continue
            found += 1
            n, n_prime, _method = got
            assert not bounded_distinguish(m, n, n_prime, 8).distinguished
        assert found >= 60  # the corpus is not degenerate

    def test_identical_configurations_pair_at_any_height(self, tall):
        # n = 1 and n = 2 both reach (p, X^70)
        assert find_equivalent_pair(tall) == (1, 2, "exact")
        assert find_equivalent_pair(tall, n_max=2) == (1, 2, "exact")

    def test_negative_budget_raises(self, xi2):
        with pytest.raises(ValueError, match="^search budget must be "
                           "nonnegative, got -1$"):
            find_equivalent_pair(xi2, n_max=-1)


class TestBoundedDistinguish:
    def test_equal_configs_never_distinguish(self, xi2):
        r = bounded_distinguish(xi2, 1, 5, 12)
        assert not r.distinguished

    def test_distinguishes_one_and_two(self, xi2):
        r = bounded_distinguish(xi2, 1, 2, 3)
        assert r.distinguished and r.witness == (1,)

    def test_reflexive(self, xi2):
        r = bounded_distinguish(xi2, 7, 7, 4)
        assert not r.distinguished

    def test_negative_depth_raises(self, xi2):
        # depth -1 used to report "indistinguishable for all inputs of
        # length <= -1"
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            bounded_distinguish(xi2, 1, 5, -1)
        assert not bounded_distinguish(xi2, 1, 2, 0).distinguished


class TestSize:
    def test_recast_outputs_match(self, tm_dfao):
        m = from_dfao(tm_dfao)
        assert m.source("test").prefix(500).text() == \
            tm_dfao.source("test").prefix(500).text()


class TestRuntimeHole:
    def test_reachable_hole_raises_cleanly(self):
        t = {
            ("p", BOTTOM, 0): ("p", ("X",)),
            ("p", BOTTOM, 1): ("p", ()),
        }
        m = tiny(t, states=("p",))
        # "100" pushes X, then needs the missing row
        with pytest.raises(ValidationError, match="no transition"):
            m.source("test").prefix(5)
        with pytest.raises(ValidationError, match="no transition"):
            config_of(m, 4)
        assert m.source("test").prefix(4).text() == "0000"
