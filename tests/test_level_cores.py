"""The level-by-level generation cores against the one-step loops.

Each core fills a table indexed by n one base-k level at a time; the
oracles in conftest step once per n. Counts sit on the level edges,
where a block of the core starts or is cut short.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from conftest import (config_ids, config_table, dfao_prefix, dpao_prefix,
                      fill_ids, long_division, random_dfao, random_deep_dpao,
                      random_dpao, with_dead_rows, xi3_prefix, xi3_value)
from digitseq import catalog
from digitseq.dfao import Dfao
from digitseq.errors import ValidationError
from digitseq.numbers import rational_source, xi3_source
from digitseq.pda import BOTTOM, Dpao, _Core
from digitseq.words import _table_fill


def edge_counts(k: int, top: int) -> list[int]:
    counts = {0, 1, k - 1, k, k + 1}
    for level in range(2, top + 1):
        counts |= {k ** level - 1, k ** level, k ** level + 1}
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
    """One-byte states map to symbols through bytes.translate: 2^20
    symbols peak near 3.5 MiB, where a gather's intp copy of the index
    took 10."""
    source = three_squares.source("t")
    assert traced_peak(lambda: source.prefix(2 ** 20)) < 6 * 2 ** 20


def test_three_squares_prefix_memory_stays_bounded(three_squares):
    """2^20 symbols peak near 10 MiB: one byte of state per n, plus the
    index casts of the gathers; int32 states and parent arrays took 20."""
    source = three_squares.source("t")
    assert traced_peak(lambda: source.prefix(2 ** 20)) < 14 * 2 ** 20


def test_xi3_prefix_memory_stays_bounded():
    """2^20 values peak near 4 MiB; the parent and digit arrays of each
    level took 17."""
    source = xi3_source()
    assert traced_peak(lambda: source.prefix(2 ** 20)) < 6 * 2 ** 20


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
