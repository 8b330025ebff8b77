"""The hash-consed `Dpao` step core against the one-input-at-a-time
oracles.

`find_equivalent_pair` and `bounded_distinguish` each run on the step
core, and `certify_dfao` agrees with the pair search on the recast; the
oracles in conftest step tuples one input and one digit at a time. Both
must give the same result, or raise the same incompleteness message at
the same input.
"""

from __future__ import annotations

import random
import tracemalloc
from itertools import product

import pytest

from conftest import (config_of, config_table, distinguish_loop, dpao_prefix,
                      output_of_config, pair_search_loop,
                      pigeonhole_pair, random_deep_dpao, random_dfao,
                      random_dpao, step_input, with_dead_rows)
from digitseq import catalog, pda
from digitseq.certify import (_state_pair, certificate_from_pair,
                              certificate_to_json, certify_dfao, certify_pda)
from digitseq.dfao import Dfao
from digitseq.errors import BudgetExceededError, ValidationError
from digitseq.pda import (BOTTOM, Dpao, _Core, bounded_distinguish,
                          find_equivalent_pair, from_dfao)

BUDGETS = [300, 1000, 64, 40, 3, 0]
# the oracle's height cap, above every stack height these budgets reach
UNCAPPED = 10 ** 9


def outcome(call):
    """The result, or the message of the incompleteness error raised."""
    try:
        return call()
    except ValidationError as exc:
        assert exc.report.error_kinds() == {"incompleteness"}
        return str(exc)


def corpus(seed: int) -> list[Dpao]:
    rng = random.Random(seed)
    machines = [random_dpao(rng) for _ in range(120)]
    machines += [random_deep_dpao(rng, rng.choice((2, 3))) for _ in range(60)]
    return machines


def catalogue_dpaos() -> list[Dpao]:
    machines = [catalog.get(name) for name in catalog.names()]
    return ([m for m in machines if isinstance(m, Dpao)]
            + [from_dfao(m) for m in machines if isinstance(m, Dfao)])


class TestPairSearch:
    def test_catalogue(self):
        for m in catalogue_dpaos():
            for n_max in BUDGETS:
                assert find_equivalent_pair(m, n_max) == \
                    pair_search_loop(m, n_max, UNCAPPED)

    def test_random_machines(self):
        found = 0
        for m in corpus(9100):
            for n_max in BUDGETS:
                got = find_equivalent_pair(m, n_max)
                assert got == pair_search_loop(m, n_max, UNCAPPED), m
                found += got is not None
        assert found > 0

    def test_budget_too_small_finds_nothing(self, xi2):
        assert pair_search_loop(xi2, 4, UNCAPPED) is None
        assert find_equivalent_pair(xi2, 4) is None
        assert find_equivalent_pair(xi2, 5) == (1, 5, "exact")

    def test_large_budget_allocates_only_what_the_scan_reads(self, xi2):
        """The pair at n' = 5 is found in the third level; nothing is
        sized by the budget of 10^7 inputs."""
        tracemalloc.start()
        try:
            assert find_equivalent_pair(xi2, n_max=10 ** 7) == \
                (1, 5, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("size", [256, 300])
    def test_ids_wider_than_a_byte(self, size):
        """Input n < |Q| reaches state n, so the scan reads one-byte ids
        and then two-byte ones. The class key of an id, base + id with
        base = |Q| on the recast, does not fit the id's own type."""
        states = tuple(f"s{i}" for i in range(size))
        m = Dfao(k=2, states=states, initial="s0",
                 delta={q: tuple(states[j] if j < size else "s0"
                                 for j in (2 * i, 2 * i + 1))
                        for i, q in enumerate(states)},
                 output={q: str(i % 2) for i, q in enumerate(states)})
        pair = pigeonhole_pair(m)
        assert pair == (size, size + 1)
        assert find_equivalent_pair(from_dfao(m), size + 1) == \
            pair + ("exact",)
        cert = certify_dfao(m)
        assert cert.pair == pair

    def test_random_dead_rows(self):
        rng = random.Random(9200)
        raised = 0
        for m in corpus(9300)[::2]:
            m = with_dead_rows(m, rng)
            assert m.validate().ok
            for n_max in BUDGETS:
                want = outcome(lambda: pair_search_loop(m, n_max, UNCAPPED))
                assert outcome(lambda: find_equivalent_pair(m, n_max)) == want
                raised += isinstance(want, str)
        assert raised > 0


def rows_machine(states, rows, output) -> Dpao:
    """A binary machine over stack symbol X from rows (state, top, digit,
    to, pushed word) and output {state: {top: symbol}}."""
    return Dpao(k=2, states=states, initial=states[0], stack_symbols=("X",),
                transitions={(q, a, d): (to, tuple(push))
                             for q, a, d, to, push in rows},
                output={(q, a): sym for q, tops in output.items()
                        for a, sym in tops.items()})


class TestPairLabel:
    """A hit is labelled by the earliest input of its class: "exact" when
    that input has the hit's configuration id, "protected" when it shares
    only the sealed (state, top)."""

    def test_identical_sealed_configurations_are_exact(self):
        # n = 1 and n = 2 both reach (q0, XX), a protected configuration
        m = rows_machine(("q0",), [
            ("q0", "X", 0, "q0", "X"), ("q0", "X", 1, "q0", "XX"),
            ("q0", BOTTOM, 0, "q0", ""), ("q0", BOTTOM, 1, "q0", "XX")],
            {"q0": {BOTTOM: "0", "X": "1"}})
        assert find_equivalent_pair(m) == (1, 2, "exact")
        assert pair_search_loop(m, 10_000, UNCAPPED) == (1, 2, "exact")

    def test_a_shared_sealed_top_is_protected(self):
        # n = 1 reaches (q1, XX) and n = 2 (q1, XXX)
        m = rows_machine(("q0", "q1"), [
            ("q0", "X", 0, "q1", "X"), ("q0", "X", 1, "q1", ""),
            ("q0", BOTTOM, 0, "q1", "X"), ("q0", BOTTOM, 1, "q1", "XX"),
            ("q1", "X", 0, "q1", "XX"), ("q1", "X", 1, "q1", "X"),
            ("q1", BOTTOM, 0, "q1", "X"), ("q1", BOTTOM, 1, "q0", "")],
            {"q0": {BOTTOM: "1", "X": "0"}, "q1": {BOTTOM: "0", "X": "1"}})
        assert find_equivalent_pair(m) == (1, 2, "protected")
        assert pair_search_loop(m, 10_000, UNCAPPED) == (1, 2, "protected")


def hole_machine(pair_first: bool) -> Dpao:
    """A stack-free machine whose row (w, '#') is dead. n = 1, 2, 3 reach
    t, x, w, and n = 6 (binary 110) reads 0 in w. With pair_first, n = 4
    reaches t again: an exact pair with n = 1, in the level [4, 8) that
    holds the hole. Otherwise n = 4, 5 reach u, v and nothing repeats
    before the hole."""
    states = ("s", "t", "w", "x", "u", "v")
    delta = {"s": ("s", "t"), "t": ("x", "w"),
             "x": ("t", "t") if pair_first else ("u", "v"),
             "u": ("u", "u"), "v": ("v", "v")}
    t = {(q, BOTTOM, d): (to, ()) for q, row in delta.items()
         for d, to in enumerate(row)}
    return Dpao(k=2, states=states, initial="s", stack_symbols=(),
                transitions=t, output={(q, BOTTOM): "0" for q in states})


class TestHoleOrder:
    def test_pair_before_the_hole_of_its_level_is_returned(self):
        m = hole_machine(pair_first=True)
        assert "dead-row" in m.validate().warning_kinds()
        assert m.source("t").prefix(6).text() == "000000"
        with pytest.raises(ValidationError):
            m.source("t").prefix(7)
        assert pair_search_loop(m) == (1, 4, "exact")
        assert find_equivalent_pair(m) == (1, 4, "exact")

    def test_hole_before_any_pair_raises_the_oracle_message(self):
        m = hole_machine(pair_first=False)
        expected = ("incompleteness: reached ('w', '#') with digit 0 but no "
                    "transition is defined")
        assert outcome(lambda: pair_search_loop(m)) == expected
        assert outcome(lambda: find_equivalent_pair(m)) == expected
        assert find_equivalent_pair(m, n_max=5) is None

    def test_fill_stops_at_the_input_that_reaches_the_hole(self):
        """The level [4, 8) is yielded filled up to n = 6, the first
        input that reads a digit with no move, and then the hole raises."""
        his = []
        with pytest.raises(ValidationError):
            for hi, _ in _Core(hole_machine(pair_first=False)).fill(64):
                his.append(hi)
        assert his == [1, 2, 4, 6]

    def test_a_hole_at_every_position_of_a_level(self):
        """Every count up to 130 gives the oracle's bytes or message, on
        machines whose first hole sits at the start, middle or end of a
        level. A machine with `hole_seeds[k][n]` removes rows from
        `random_deep_dpao` in base k, and input n is the first that reads
        a digit with no move."""
        hole_seeds = {
            2: {1: 2, 2: 0, 4: 56, 6: 36, 8: 8, 14: 576, 16: 300, 20: 30,
                32: 1116, 46: 54, 64: 174, 66: 2088, 96: 2946, 126: 2588,
                128: 1856},
            3: {1: 1, 3: 3, 9: 17, 24: 9, 27: 73, 51: 81, 78: 299, 81: 283,
                123: 383},
        }
        # the dead-row machine of CI: n = 2 reads 0 in (p, X)
        dead_row = Dpao(k=2, states=("p",), initial="p", stack_symbols=("X",),
                        transitions={("p", BOTTOM, 0): ("p", ()),
                                     ("p", BOTTOM, 1): ("p", ("X",))},
                        output={("p", BOTTOM): "0", ("p", "X"): "1"})
        machines = [(6, hole_machine(pair_first=False)), (2, dead_row)]
        for k, seeds in hole_seeds.items():
            for n, seed in seeds.items():
                rng = random.Random(seed)
                m = with_dead_rows(random_deep_dpao(rng, k), rng)
                machines.append((n, m))
        for first, m in machines:
            raised = []
            for count in range(131):
                want = outcome(lambda: dpao_prefix(m, count))
                assert outcome(lambda: m.source("t").prefix(count).data) == \
                    want
                if isinstance(want, str):
                    raised.append(count - 1)
            assert raised[0] == first


class TestDistinguish:
    @pytest.mark.parametrize("depth", range(9))
    def test_random_machines(self, depth):
        rng = random.Random(9400 + depth)
        for m in corpus(9500)[::3]:
            for _ in range(3):
                n, n_prime = rng.randrange(40), rng.randrange(40)
                assert bounded_distinguish(m, n, n_prime, depth) == \
                    distinguish_loop(m, n, n_prime, depth)

    def test_catalogue(self):
        for m in catalogue_dpaos():
            for depth in range(9):
                for n, n_prime in ((1, 5), (1, 2), (3, 7), (7, 7), (0, 9)):
                    assert bounded_distinguish(m, n, n_prime, depth) == \
                        distinguish_loop(m, n, n_prime, depth)

    def test_pairs_seen_at_an_earlier_depth_are_dropped(self, tm_dfao,
                                                       monkeypatch):
        # the recast automaton has finitely many configuration pairs, so
        # the frontier empties long before depth 1000
        calls = []
        ids = _Core._ids

        def counted(core, *args):
            calls.append(len(args[0]))
            return ids(core, *args)

        monkeypatch.setattr(_Core, "_ids", counted)
        m = from_dfao(tm_dfao)
        assert bounded_distinguish(m, 1, 2, 1000) == \
            distinguish_loop(m, 1, 2, 1000)
        assert len(calls) < 10

    def test_steps_each_configuration_once(self, xi2, monkeypatch):
        """The walks to n and n' and every depth of the search read one
        successor table, so each configuration they read a digit in is
        stepped once, k rows, however many pairs hold it; k more when id
        0, the initial configuration before the walks, is reached again.
        xi2's pair (1, 5) holds two pairs at each of 64 depths."""
        rows = []
        ids = _Core._ids

        def counted(core, states, nodes):
            rows.append(len(states))
            return ids(core, states, nodes)

        monkeypatch.setattr(_Core, "_ids", counted)
        rng = random.Random(9650)
        cases = [(xi2, 1, 5, 64)] + [
            (m, rng.randrange(1, 40), rng.randrange(1, 40), rng.randrange(9))
            for m in corpus(9660)[::3]]
        for m, n, n_prime, depth in cases:
            rows.clear()
            assert bounded_distinguish(m, n, n_prime, depth) == \
                distinguish_loop(m, n, n_prime, depth)
            read = len(read_configs(m, n, n_prime, depth))
            assert m.k * read <= sum(rows) <= m.k * (read + 1)

    def test_random_dead_rows(self):
        rng = random.Random(9600)
        raised = 0
        for m in corpus(9700)[::4]:
            m = with_dead_rows(m, rng)
            for depth in (0, 1, 3, 6):
                n, n_prime = rng.randrange(20), rng.randrange(20)
                want = outcome(lambda: distinguish_loop(m, n, n_prime, depth))
                assert outcome(lambda: bounded_distinguish(
                    m, n, n_prime, depth)) == want
                raised += isinstance(want, str)
        assert raised > 0


def read_configs(m: Dpao, n: int, n_prime: int, depth: int) -> set:
    """The configurations the search reads a digit in: those the walks to
    n and n' pass through, and those of the pairs `distinguish_loop`
    steps."""
    configs = set()
    for x in (n, n_prime):
        while x:
            x //= m.k
            configs.add(config_of(m, x))
    start = (config_of(m, n), config_of(m, n_prime))
    frontier, seen = [start], {start}
    for _ in range(depth):
        stepped = []
        for c1, c2 in frontier:
            if output_of_config(m, c1) != output_of_config(m, c2):
                return configs
            configs.update((c1, c2))
            stepped += [(step_input(m, c1, d), step_input(m, c2, d))
                        for d in range(m.k)]
        frontier = [p for p in dict.fromkeys(stepped) if p not in seen]
        seen.update(frontier)
    return configs


def node_height(core: _Core, node: int) -> int:
    """The symbols on a node's stack: its parent links down to node 0."""
    height = 0
    while node:
        node, height = int(core.parent[node]), height + 1
    return height


class TestHashConsing:
    def test_equal_nodes_are_equal_stacks(self):
        for m in corpus(9800)[::6]:
            core = _Core(m)
            for _, ids in core.fill(2 ** 10):
                pass
            state, node = core.config_of(ids)
            configs = config_table(m, 2 ** 10)
            first_by_node: dict[int, tuple] = {}
            first_by_stack: dict[tuple, int] = {}
            for n, c in enumerate(configs):
                assert m.states[state[n]] == c.state
                assert first_by_node.setdefault(int(node[n]), c.stack) == \
                    c.stack
                assert first_by_stack.setdefault(c.stack, int(node[n])) == \
                    node[n]
                assert node_height(core, int(node[n])) == c.height

    def test_xi2_keeps_one_node_per_distinct_stack(self, xi2):
        core = _Core(xi2)
        for _, ids in core.fill(2 ** 12):
            pass
        _, node = core.config_of(ids)
        stacks = {c.stack for c in config_table(xi2, 2 ** 12)}
        # a pushed node per symbol would make thousands
        assert core.nodes == len(set(node.tolist())) == len(stacks)
        assert len(stacks) == 12


class TestSharedCore:
    def test_certify_compiles_one_core(self, monkeypatch):
        """Every `certify_pda` compiles one step core, which its pair
        search and its prefix read, at depth 0 and when the budget cuts
        the pair's level too; a certificate is the pair's family checked
        on a fresh source."""
        compiled, found = [], []
        init, search = _Core.__init__, pda.find_equivalent_pair

        def counted(core, m):
            compiled.append(m)
            init(core, m)

        def recorded(*args, **kwargs):
            found.append(search(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(_Core, "__init__", counted)
        monkeypatch.setattr(pda, "find_equivalent_pair", recorded)
        certified = 0
        for m in [catalog.get("xi2")] + corpus(9950):
            for depth, n_max in product((0, 1, 4), (3, 10, 30, 100, 10_000)):
                compiled.clear()
                found.clear()
                try:
                    cert = certify_pda(m, n_max=n_max, depth=depth,
                                       machine_ref="ref")
                except (ValidationError, BudgetExceededError):
                    cert = None
                assert len(compiled) == 1
                if cert is None:
                    continue
                (n, n_prime, method), = found
                want = certificate_from_pair(m.source("ref"), n, n_prime,
                                             m.k, depth, kind="pda-pair",
                                             method=method)
                assert certificate_to_json(cert) == certificate_to_json(want)
                certified += 1
        assert certified > 400


class TestCertifyDfao:
    def test_state_table_pair_is_the_pair_search_on_the_recast(self):
        """The first repeated state of the table is the pair that the
        pushdown pair search finds on the stack-free recast, which is
        always exact."""
        rng = random.Random(4100)
        for _ in range(240):
            m = random_dfao(rng, rng.choice((2, 3, 4)), rng.randint(1, 12))
            assert find_equivalent_pair(from_dfao(m), m.state_count() + 1) \
                == _state_pair(m) + ("exact",)

    def test_same_certificate_as_the_pigeonhole_loop(self):
        rng = random.Random(9900)
        machines = [catalog.get(name) for name in catalog.names()]
        machines = [m for m in machines if isinstance(m, Dfao)]
        machines += [random_dfao(rng, rng.choice((2, 3))) for _ in range(50)]
        for m in machines:
            n, n_prime = pigeonhole_pair(m)
            source = m.source("ref")
            old = certificate_from_pair(source, n, n_prime, m.k, 6,
                                        kind="dfao-pigeonhole",
                                        method="exact")
            assert certificate_to_json(certify_dfao(m, 6, "ref")) == \
                certificate_to_json(old)
