"""The level-by-level generation cores against the one-step loops.

Each core fills a table indexed by n one base-k level at a time; the
oracles in conftest step once per n. Counts sit on the level edges,
where a level of the core starts or is cut short, and at steps of 2^17
inside the long levels. An automaton's prefix, of any length, is one
row gather of the output blocks of a power of its table, k^m symbols a
row, m >= 1: counts also sit on those row edges from 16 symbols on, and
on the table's size bound, for machines whose digit 0 moves the initial
state, whose first row is then not a row of the table, and for a table
past that bound, which is its own power.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from conftest import (config_ids, config_table, dfao_prefix, dpao_prefix,
                      fill_ids, long_division, random_dfao, random_deep_dpao,
                      random_dpao, state_table, with_dead_rows, xi3_prefix,
                      xi3_value)
from digitseq import catalog
from digitseq.dfao import Dfao
from digitseq.errors import ValidationError
from digitseq.numbers import rational_source, xi3_source
from digitseq.pda import BOTTOM, Dpao, _Core
from digitseq.words import _POWER_CELLS, _power_depth, _table_fill


def edge_counts(k: int, top: int) -> list[int]:
    counts = {0, 1, k - 1, k, k + 1}
    for level in range(2, top + 1):
        counts |= {k ** level - 1, k ** level, k ** level + 1}
    return sorted(counts)


def block_edges(k: int, top: int, step: int) -> list[int]:
    """The counts around n = 1 and each later start below top, which is
    k times the last or `step` past it, whichever is less: the level
    edges, and cuts at every `step` inside a level."""
    counts, lo = set(), 1
    while lo < top:
        counts |= {lo - 1, lo, lo + 1}
        lo = min(lo * k, lo + step)
    return sorted(counts)


def outcome(make, count: int):
    """The prefix bytes, or the message of the ValidationError raised."""
    try:
        return make(count)
    except ValidationError as exc:
        assert exc.report.error_kinds() == {"incompleteness"}
        return str(exc)


@pytest.mark.parametrize("k, top", [(2, 10), (3, 6), (5, 4)])
def test_random_dfaos_match_the_state_loop(k, top):
    rng = random.Random(7000 + k)
    for _ in range(40):
        m = random_dfao(rng, k)
        for count in edge_counts(k, top):
            assert m.source("t").prefix(count).data == dfao_prefix(m, count)


@pytest.mark.parametrize("size", [256, 257, 300])
@pytest.mark.parametrize("k, top", [(2, 14), (7, 5), (10, 4)])
def test_dfaos_at_the_state_type_and_base_edges(size, k, top):
    """Up to 256 states fill in uint8, more in uint16; the last state is
    the initial one, so the widest index is stored from n = 0 on."""
    rng = random.Random(7100 + size + k)
    m = random_dfao(rng, k, size, initial=-1)
    states = _table_fill(np.zeros((size, k), dtype=int), size - 1, 1)
    assert states.dtype == (np.uint8 if size <= 256 else np.uint16)
    for count in edge_counts(k, top):
        assert m.source("t").prefix(count).data == dfao_prefix(m, count)


@pytest.mark.parametrize("size", [256, 300])
@pytest.mark.parametrize("k, levels", [(2, 19), (3, 12), (10, 5)])
def test_dfaos_at_the_block_edges(k, levels, size):
    """In uint8 and uint16 states, the states and the symbols equal the
    loop's on every level edge below 655,361 and at every 2^17 inside a
    level: at k = 2 inside the levels 2^18 and 2^19, and at k = 3 at
    439,291 and 570,363, on either side of the level edge 3^12."""
    rng = random.Random(7200 + size + k)
    m = random_dfao(rng, k, size, initial=-1)
    top = 655_361
    index = {q: i for i, q in enumerate(m.states)}
    states = [index[q] for q in state_table(m, top)]
    symbols = dfao_prefix(m, top)
    table, initial = m.table()
    source = m.source("t")
    edges = block_edges(k, top, 2 ** 17)
    for count in sorted(set(edge_counts(k, levels) + edges)):
        filled = _table_fill(table, initial, count)
        assert filled.dtype == (np.uint8 if size <= 256 else np.uint16)
        assert filled.tolist() == states[:count]
        assert source.prefix(count).data == symbols[:count]


def power_edges(size: int, k: int, anchors) -> list[int]:
    """Counts 8,191 to 8,193, and around the row edges j * k^m of the
    power table taken at each anchor count: the first rows, the last
    whole one and the one the anchor cuts."""
    counts = {8191, 8192, 8193}
    for anchor in anchors:
        width = k ** _power_depth(size, k, anchor)
        for j in (1, 2, anchor // width - 1, anchor // width):
            counts |= {j * width - 1, j * width, j * width + 1}
    return sorted(c for c in counts if c >= 0)


def moving_zero(rng: random.Random, k: int, size: int) -> Dfao:
    """A random machine whose digit 0 leads the initial state elsewhere,
    so n = 0 and the leading zeros of a row's digits part ways."""
    m = random_dfao(rng, k, size, initial=-1)
    delta = dict(m.delta)
    delta[m.initial] = (m.states[0],) + delta[m.initial][1:]
    return Dfao(k=k, states=m.states, initial=m.initial, delta=delta,
                output=m.output)


@pytest.mark.parametrize("size", [3, 40, 300])
@pytest.mark.parametrize("k", [2, 3, 10, 16])
def test_power_rows_match_the_state_loop(k, size):
    """Up to 300,001 symbols, in uint8 and uint16 states, on the row edges
    of the power the fill takes at each anchor, from 16 symbols on."""
    rng = random.Random(7400 + 17 * k + size)
    m = moving_zero(rng, k, size)
    anchors = (16, 100, 1024, 4096, 8192, 24_576, 2 ** 16 + 1, 300_001)
    counts = power_edges(size, k, anchors)
    symbols = dfao_prefix(m, max(counts))
    source = m.source("t")
    for count in counts:
        assert source.prefix(count).data == symbols[:count], count


def test_every_count_takes_a_power_of_the_table():
    """The table is its own first power and costs no entries, so m >= 1
    at 0, 1 and 2 symbols, and for tables of more than _POWER_CELLS
    entries, in base 1024 and in base 2."""
    for count in (0, 1, 2):
        assert _power_depth(3, 2, count) == 1
    for size, k in ((100, 1024), (2 ** 15 + 1, 2)):
        assert size * k > _POWER_CELLS
        assert _power_depth(size, k, 2 ** 20) == 1


def test_a_table_past_the_size_bound_is_its_own_power():
    """100 states in base 1024, S * k = 102,400 entries: 2^20 symbols are
    the table's output rows gathered by 1,024 roots, and peak near 2 MiB,
    the rows and their bytes; filling every state first peaked at 3."""
    rng = random.Random(7600)
    m = moving_zero(rng, 1024, 100)
    source = m.source("t")
    assert traced_peak(lambda: source.prefix(2 ** 20)) < 2.5 * 2 ** 20
    symbols = dfao_prefix(m, 2 ** 17 + 1)
    for count in (0, 1, 10, 1025, 2 ** 17 + 1):
        assert source.prefix(count).data == symbols[:count], count


@pytest.mark.parametrize("size, k, m, top", [(256, 2, 8, 2 ** 20),
                                             (512, 2, 7, 2 ** 19)])
def test_power_tables_at_their_size_bound(size, k, m, top):
    """A table of size * k^m = 2^16 entries, the most the fill takes, in
    uint8 and in uint16 states, from the first count that takes it."""
    assert size * k ** m == _POWER_CELLS
    assert _power_depth(size, k, top - 1) == m - 1
    assert _power_depth(size, k, top) == _power_depth(size, k, 4 * top) == m
    rng = random.Random(7500 + size)
    machine = moving_zero(rng, k, size)
    counts = {top - 1, top, top + 1, top - k ** m + 1, k ** m + 1}
    symbols = dfao_prefix(machine, max(counts))
    for count in sorted(counts):
        assert machine.source("t").prefix(count).data == symbols[:count]


def test_a_moving_zero_in_base_three_past_a_row_edge():
    """0 leads a to b: the first row of the power table of a is not the
    prefix, and 3^12 + 1 symbols end one past the 729th row edge."""
    m = Dfao(k=3, states=("a", "b", "c"), initial="a",
             delta={"a": ("b", "c", "a"), "b": ("c", "a", "b"),
                    "c": ("a", "c", "b")},
             output={"a": "0", "b": "1", "c": "2"})
    count = 3 ** 12 + 1
    assert count % 3 ** _power_depth(3, 3, count) == 1
    assert m.source("t").prefix(count).data == dfao_prefix(m, count)


def test_xi3_twos_in_the_first_row_and_past_it():
    """The value 2 at n = 5, 51, 455 lies in the parity's first row, of
    2^11 symbols at 2^20, and at 3855, 31775 and 258111 past it; each is
    the last symbol of a prefix, and the one before or after it."""
    count = 2 ** 20
    assert 2 ** _power_depth(2, 2, count + 1) == 2 ** 11
    want = xi3_prefix(count)
    for n in (5, 51, 455, 3855, 31775, 258111):
        assert want[n - 1] == 2
        for c in (n - 1, n, n + 1, n + 8192):
            assert xi3_source().prefix(c).data == want[:c]
    assert xi3_source().prefix(count).data == want


@pytest.mark.parametrize("k, top", [(2, 9), (3, 6)])
def test_random_dpaos_match_the_config_loop(k, top):
    rng = random.Random(8000 + k)
    for _ in range(60):
        m = random_deep_dpao(rng, k)
        assert m.validate().ok
        for count in edge_counts(k, top):
            assert m.source("t").prefix(count).data == dpao_prefix(m, count)


def test_shallow_dpaos_match_the_config_loop():
    rng = random.Random(8100)
    for _ in range(100):
        m = random_dpao(rng)
        assert m.source("t").prefix(1025).data == dpao_prefix(m, 1025)


def test_catalogue_machines_match_their_loops():
    for name in catalog.names():
        m = catalog.get(name)
        oracle = {Dfao: dfao_prefix, Dpao: dpao_prefix}.get(type(m))
        if oracle is None:
            continue
        for count in edge_counts(m.k, 11):
            assert m.source("t").prefix(count).data == oracle(m, count), name


def test_reachable_dead_row_raises_like_the_loop():
    # (q, X) has no transitions; 1 pushes X in q, so n = 2 (binary 10)
    # is the first input that reaches it
    t = {
        ("p", BOTTOM, 0): ("p", ()),
        ("p", BOTTOM, 1): ("q", ("X",)),
        ("q", BOTTOM, 0): ("p", ()),
        ("q", BOTTOM, 1): ("p", ()),
        ("p", "X", 0): ("p", ()),
        ("p", "X", 1): ("p", ()),
    }
    m = Dpao(k=2, states=("p", "q"), initial="p", stack_symbols=("X",),
             transitions=t,
             output={(q, a): "0" for q in "pq" for a in ("X", BOTTOM)})
    report = m.validate()
    assert report.ok and "dead-row" in report.warning_kinds()
    assert m.source("t").prefix(2).data == dpao_prefix(m, 2)
    expected = ("incompleteness: reached ('q', 'X') with digit 0 but no "
                "transition is defined")
    with pytest.raises(ValidationError) as loop_exc:
        dpao_prefix(m, 3)
    with pytest.raises(ValidationError) as core_exc:
        m.source("t").prefix(3)
    assert str(loop_exc.value) == str(core_exc.value) == expected
    assert core_exc.value.report.error_kinds() == {"incompleteness"}


def test_random_dead_rows_raise_at_the_same_input():
    """Machines with whole digit rows removed: both paths give the same
    bytes or fail on the same smallest n with the same message, at the
    level edges, where a hole may sit on the first or last input of a
    block."""
    rng = random.Random(8200)
    raised = 0
    for k, top, machines in ((2, 9, 80), (3, 6, 40)):
        for _ in range(machines):
            m = with_dead_rows(random_deep_dpao(rng, k), rng)
            assert m.validate().ok
            for count in sorted({*edge_counts(k, top), 64, 65, 300}):
                want = outcome(lambda c: dpao_prefix(m, c), count)
                assert outcome(lambda c: m.source("t").prefix(c).data,
                               count) == want
                raised += isinstance(want, str)
    assert raised > 0


def spelling_machine() -> Dpao:
    """One state that pushes X on 1 and Y on 0 over its top: the stack
    spells the input, so every input reaches a configuration of its own."""
    t = {("p", a, d): ("p", (() if a == BOTTOM else (a,)) + ("YX"[d],))
         for a in ("X", "Y", BOTTOM) for d in (0, 1)}
    return Dpao(k=2, states=("p",), initial="p", stack_symbols=("X", "Y"),
                transitions=t,
                output={("p", "X"): "1", ("p", "Y"): "0", ("p", BOTTOM): "0"})


def test_fill_numbers_configurations_like_the_loop(xi2):
    """Not only the symbols: every id the fill gives equals the loop's,
    at the level edges, where a level is whole or cut."""
    rng = random.Random(8300)
    machines = [(xi2, 12), (spelling_machine(), 12)]
    machines += [(random_dpao(rng), 9) for _ in range(40)]
    machines += [(random_deep_dpao(rng, k), top)
                 for k, top in ((2, 9), (3, 6)) for _ in range(20)]
    machines += [(with_dead_rows(random_deep_dpao(rng, k), rng), top)
                 for k, top in ((2, 9), (3, 6)) for _ in range(20)]
    for m, top in machines:
        for count in edge_counts(m.k, top):
            assert fill_ids(_Core(m), count) == config_ids(m, count)


@pytest.mark.parametrize("count, dtype", [
    (255, np.uint8), (256, np.uint8), (257, np.uint16),
    (65_535, np.uint16), (65_536, np.uint16), (65_537, np.uint32),
])
def test_pushdown_ids_widen_with_the_configurations(count, dtype):
    """n < count reach count distinct configurations of the spelling
    machine, and the ids widen past 256 and 65,536 of them."""
    m = spelling_machine()
    assert m.source("t").prefix(count).data == dpao_prefix(m, count)
    for _, ids in _Core(m).fill(count):
        pass
    assert ids.dtype == dtype and len(np.unique(ids)) == count


def count_step_rows(monkeypatch) -> list[int]:
    """The rows of each `_Core._ids` call from now on."""
    rows = []
    ids = _Core._ids

    def counted(core, states, nodes):
        rows.append(len(states))
        return ids(core, states, nodes)

    monkeypatch.setattr(_Core, "_ids", counted)
    return rows


@pytest.mark.parametrize("machine, count", [
    ("xi2", 2 ** 17), ("spelling", 2 ** 16 + 1),
])
def test_steps_each_configuration_once(machine, count, request, monkeypatch):
    """The fill steps a configuration once for each digit, and only when
    a level reads it: a level reads the configurations of its parents, so
    the digit steps are at most k for each distinct configuration among
    n < ceil(count / k), and k more for n = 0, which has an id of its own.
    2^17 inputs of xi2 reach a few dozen configurations. Every input of
    the spelling machine has its own, and at 2^16 + 1 the last level reads
    only the first of the 2^15 configurations first reached below it."""
    m = (request.getfixturevalue("xi2") if machine == "xi2"
         else spelling_machine())
    rows = count_step_rows(monkeypatch)
    assert m.source("t").prefix(count).data == dpao_prefix(m, count)
    parents = len(set(config_table(m, -(-count // m.k))))
    assert sum(rows) <= m.k * (1 + parents)


def test_a_hole_level_steps_once(monkeypatch):
    """A level whose configurations read a digit with no move steps the
    digits that have one, in the same single call as any other level,
    and then raises the oracle's message."""
    rng = random.Random(174)
    m = with_dead_rows(random_deep_dpao(rng, 2), rng)
    want = outcome(lambda c: dpao_prefix(m, c), 200)
    assert isinstance(want, str)
    rows, expands = count_step_rows(monkeypatch), []
    expand = _Core._expand

    def counted(core, *args):
        before = len(rows)
        expand(core, *args)
        expands.append(len(rows) - before)

    monkeypatch.setattr(_Core, "_expand", counted)
    assert outcome(lambda c: m.source("t").prefix(c).data, 200) == want
    assert expands and set(expands) == {1}


def test_xi3_matches_value_by_value():
    count = 2 ** 16
    data = xi3_source().prefix(count).data
    assert data == xi3_prefix(count)
    for n in (5, 51, 455):
        assert data[n - 1] == 2 == xi3_value(n)
    assert data.count(2) == 5  # j = 1..5: n = 5, 51, 455, 3855, 31775
    for count in edge_counts(2, 10):
        assert xi3_source().prefix(count).data == xi3_prefix(count)


def test_xi3_matches_at_the_largest_certified_prefix():
    """The xi3 (10, 20) family verified to depth 16 reads 1,376,256
    symbols, 673 rows of 2^11 of the parity's power table, the last cut
    one symbol in, as xi3 reads one more parity than it gives."""
    assert xi3_source().prefix(1_376_256).data == xi3_prefix(1_376_256)


@pytest.mark.parametrize("p, q, b", [
    (1, 6, 10), (1, 12, 2), (5, 12, 10), (1, 7, 10), (3, 8, 2), (0, 5, 3),
    (22, 23, 7), (4, 6, 10), (9, 10, 10), (1, 97, 2), (123, 4000, 10),
])
def test_rational_tiling_matches_long_division(p, q, b):
    for count in (0, 1, 2, 3, 5, 17, 400):
        assert rational_source(p, q, b).prefix(count).data == \
            long_division(p, q, b, count)


def test_rational_tiling_on_every_small_fraction():
    for b in (2, 3, 6, 10):
        for q in range(1, 40):
            for p in range(q):
                assert rational_source(p, q, b).prefix(120).data == \
                    long_division(p, q, b, 120)


def traced_peak(make) -> int:
    tracemalloc.start()
    try:
        make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_three_squares_symbols_skip_the_index_copy(three_squares):
    """2^20 symbols are one row gather of the power table's output
    blocks, and peak near 2 MiB; through bytes.translate of one-byte
    states they peaked near 3, and a gather's intp copy of the index
    took 10."""
    source = three_squares.source("t")
    assert traced_peak(lambda: source.prefix(2 ** 20)) < 6 * 2 ** 20


def test_three_squares_prefix_memory_stays_bounded(three_squares):
    """2^20 symbols peak near 2 MiB: the symbols and their bytes; one
    byte of state per n took 3, and int32 states and parent arrays 20."""
    source = three_squares.source("t")
    assert traced_peak(lambda: source.prefix(2 ** 20)) < 14 * 2 ** 20


def test_xi3_prefix_memory_stays_bounded():
    """2^20 values peak near 2 MiB; the parent and digit arrays of each
    level took 17."""
    source = xi3_source()
    assert traced_peak(lambda: source.prefix(2 ** 20)) < 6 * 2 ** 20


def test_largest_certified_xi3_prefix_memory():
    """1,376,256 values peak near 2.7 MiB: the parity's bytes and the
    copy that sets the 2s; one gather a level, by a whole level's
    parents, peaked at 3.8."""
    source = xi3_source()
    assert traced_peak(lambda: source.prefix(1_376_256)) < 3 * 2 ** 20


def test_a_huge_base_fills_in_the_table_s_memory():
    """100 states in base 1024 fill 5,000 states near 0.1 MiB: the
    table, the states and one level's rows, nothing of size S * k^2."""
    rng = random.Random(7300)
    m = random_dfao(rng, 1024, 100)
    table, initial = m.table()
    index = {q: i for i, q in enumerate(m.states)}
    filled = []
    peak = traced_peak(
        lambda: filled.append(_table_fill(table, initial, 5000)))
    assert peak < 2 * 2 ** 20
    assert filled[0].tolist() == [index[q] for q in state_table(m, 5000)]


def test_xi2_prefix_memory_stays_bounded(xi2):
    """2^18 symbols of xi2 peak near 9 MiB; the one-step loop with its
    per-n tuples peaks at 34 MiB."""
    source = xi2.source("t")
    assert traced_peak(lambda: source.prefix(2 ** 18)) < 24 * 2 ** 20


def test_xi2_prefix_memory_in_one_byte_ids(xi2):
    """2^18 symbols of xi2 peak near 1 MiB: one byte of configuration id
    per n; an int32 state and an int32 node per n took 8.6."""
    source = xi2.source("t")
    assert traced_peak(lambda: source.prefix(2 ** 18)) < 4 * 2 ** 20
