"""Complete deterministic pushdown transducers on base-k inputs.

Conventions, fixed here and relied on everywhere else:

- The stack is a word over the ordinary stack symbols with its TOP at the
  RIGHT end; the empty word stands for the bottom marker '#', which is
  never pushed, popped, or written explicitly.
- A transition replaces the current top (or acts at '#') with a pushed
  word given bottom-to-top.
- Epsilon moves are strictly decreasing: they pop exactly one symbol
  (empty push) and never fire at '#'. After every consumed digit the
  machine exhausts all epsilon moves, so outputs are only ever taken at
  epsilon-quiescent configurations. This makes closure termination a
  syntactic guarantee.
- Output indexing starts at n = 0 (the expansion of 0 is the empty input),
  matching the automaton modules: sequence position p is input n = p - 1.
- The output table is read at the top symbol only: tau(q, s_1..s_j) =
  tau(q, s_j), and an empty stack reads the '#' column.

A machine runs one way. It compiles to a step core whose stacks are
hash-consed nodes, so equal stacks get equal node ids and a
configuration is an int pair (state, node). One vectorised step reads a
digit in many configurations at once. Sources and the pair search fill
configuration ids level by level, like the automata: the configuration
after n is one digit step from the configuration after n // k. Each
configuration is stepped once, when a level first reads it, into a table
of successor ids; the whole block [k^l, k^(l+1)) is one row gather of
that table by the block below, and a digit with no move leaves id 0
there, which is no input's child. A prefix therefore costs steps in
proportion to its distinct configurations, not to its length. The core
owns one numbering: the walk to one input and the distinguishing
search, over pairs of ids, read and step the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dfao import Dfao
from .errors import ValidationError
from .validation import ValidationReport
from .words import (Alphabet, SequenceSource, _levels, _symbols,
                    encode_base_k)

__all__ = [
    "BOTTOM",
    "Dpao",
    "DistinguishResult",
    "pop_table",
    "find_equivalent_pair",
    "bounded_distinguish",
    "from_dfao",
]

BOTTOM = "#"


@dataclass(frozen=True)
class Dpao:
    """A complete deterministic pushdown automaton with output.

    transitions maps (state, top, input) to (next state, pushed word),
    where top is a stack symbol or '#', input is a digit 0..k-1 or None
    for epsilon, and the pushed word is a tuple of stack symbols given
    bottom-to-top. Construction validates: an invalid machine raises
    ValidationError.
    """

    k: int
    states: tuple[str, ...]
    initial: str
    stack_symbols: tuple[str, ...]
    transitions: Mapping[tuple[str, str, int | None], tuple[str, tuple[str, ...]]]
    output: Mapping[tuple[str, str], str]

    def __post_init__(self):
        object.__setattr__(self, "transitions", dict(self.transitions))
        object.__setattr__(self, "output", dict(self.output))
        self.validate().require()

    def output_alphabet(self) -> Alphabet:
        return Alphabet(tuple(sorted(set(self.output.values()))))

    def validate(self) -> ValidationReport:
        """Determinism, decreasing epsilon moves, and per-row completeness.

        A (state, top) row with no transitions at all is reported as a warning
        (it may be unreachable, like the (initial, symbol) rows of machines
        that only touch the stack elsewhere); a partially filled digit row is
        an error.
        """
        report = ValidationReport()
        if self.k < 2:
            report.error("invalid-base", f"input base must be >= 2, got {self.k}")
        states = set(self.states)
        symbols = set(self.stack_symbols)
        if len(states) != len(self.states):
            report.error("duplicate-state", "state names must be distinct")
        if len(symbols) != len(self.stack_symbols):
            report.error("duplicate-symbol", "stack symbols must be distinct")
        if BOTTOM in symbols:
            report.error("unknown-symbol", "'#' is reserved for the stack bottom")
        if self.initial not in states:
            report.error("unknown-state",
                         f"initial state {self.initial!r} not declared")
        tops = symbols | {BOTTOM}
        row_digits: dict[tuple[str, str], list[int]] = {}
        for (q, a, inp), (to, push) in self.transitions.items():
            if q not in states:
                report.error("unknown-state", f"transition from unknown state {q!r}")
            if a not in tops:
                report.error("unknown-symbol", f"transition on unknown top {a!r}")
            if to not in states:
                report.error("unknown-state", f"transition into unknown state {to!r}")
            for s in push:
                if s not in symbols:
                    report.error("unknown-symbol", f"push of unknown symbol {s!r}")
            if inp is None:
                if push:
                    report.error(
                        "increasing-epsilon",
                        f"epsilon move at ({q!r}, {a!r}) pushes "
                        f"{''.join(push)!r}; epsilon moves must pop exactly "
                        "one symbol",
                    )
                if a == BOTTOM:
                    report.error(
                        "epsilon-on-bottom",
                        f"epsilon move at ({q!r}, '#'); the bottom marker "
                        "cannot be decreased",
                    )
            elif not (0 <= inp < self.k):
                report.error("invalid-digit", f"input digit {inp} out of range")
            else:
                row_digits.setdefault((q, a), []).append(inp)
        if report.errors:
            return report
        for q in self.states:
            for a in sorted(tops):
                has_eps = (q, a, None) in self.transitions
                digits = sorted(row_digits.get((q, a), ()))
                if has_eps and digits:
                    report.error(
                        "determinism-conflict",
                        f"({q!r}, {a!r}) has both an epsilon move and digit "
                        "transitions",
                    )
                elif not has_eps and digits and len(digits) != self.k:
                    report.error(
                        "incompleteness",
                        f"({q!r}, {a!r}) defines digits {digits}, needs all "
                        f"of 0..{self.k - 1}",
                    )
                elif not has_eps and not digits:
                    report.warn(
                        "dead-row",
                        f"({q!r}, {a!r}) has no transitions; only valid if "
                        "unreachable",
                    )
                if (q, a) not in self.output:
                    report.error(
                        "missing-output", f"no output symbol for ({q!r}, {a!r})"
                    )
        for (q, a) in self.output:
            if q not in states or a not in tops:
                report.error("unknown-symbol",
                             f"output for unknown pair ({q!r}, {a!r})")
        return report

    def source(self, source_id: str) -> SequenceSource:
        """The output sequence, n = 0, 1, 2, ...

        The machine compiles once to a step core; each call fills the
        configuration ids one base-k level at a time and reads the output
        of each id.
        """
        core = _Core(self)

        def gen(n: int) -> bytes:
            for _, ids in core.fill(n):
                pass
            state, node = core.config_of(slice(core.configs))
            return _symbols(core.out[state, core.sym.take(node)], ids)

        return SequenceSource(source_id, core.alphabet, gen)


class _Hole(ValidationError):
    """A reached row with no move for the digit read."""

    def __init__(self, state: str, top: str, digit: int):
        report = ValidationReport()
        report.error("incompleteness", f"reached ({state!r}, {top!r}) with "
                     f"digit {digit} but no transition is defined")
        super().__init__(report)


class _Core:
    """A Dpao compiled to step many configurations at once.

    Dense tables over (state, top, digit) hold the moves. Stacks live in
    a hash-consed node store: node 0 is the bare bottom, and node i is
    the stack parent[i] with sym[i] pushed on top. `child` maps (parent,
    symbol) to its node, so equal stacks are one node and a
    configuration is the int pair (state, node).

    The core owns one numbering of the configurations its readers reach:
    `config_id` maps the key node * len(states) + state to the id, and
    `config_key` maps it back. Row i of `succ` holds the ids one digit
    step from id i, and 0 for a digit with no move, as id 0 is no input's
    child. Fills step rows in id order up to `stepped`, walks and searches
    the rows they read. Every table doubles its length when full; `nodes`
    and `configs` count the entries in use.
    """

    def __init__(self, m: Dpao):
        self.k = k = m.k
        self.states = m.states
        self.tops = tops = m.stack_symbols + (BOTTOM,)
        # the bottom's index also stands for "push nothing"
        self.bottom = bottom = len(tops) - 1
        self.alphabet = m.output_alphabet()
        state_ix = {q: i for i, q in enumerate(m.states)}
        top_ix = {a: i for i, a in enumerate(tops)}
        self.eps_to = np.full((len(m.states), len(tops)), -1, dtype=np.int32)
        # a digit row is (state * len(tops) + top) * k + digit
        self.dig_to = np.full(len(m.states) * len(tops) * k, -1,
                              dtype=np.int32)
        # pushed[j, row]: the row's j-th pushed symbol, or the bottom
        # index past the end of its word
        longest = max((len(push) for _, push in m.transitions.values()),
                      default=0)
        self.pushed = np.full((longest, len(self.dig_to)), bottom,
                              dtype=np.int32)
        for (q, a, inp), (to, push) in m.transitions.items():
            if inp is None:
                self.eps_to[state_ix[q], top_ix[a]] = state_ix[to]
                continue
            row = (state_ix[q] * len(tops) + top_ix[a]) * k + inp
            self.dig_to[row] = state_ix[to]
            self.pushed[:len(push), row] = [top_ix[z] for z in push]
        self.out = np.array(
            [[self.alphabet.index(m.output[(q, a)]) for a in tops]
             for q in m.states], dtype=np.uint8)
        self.initial = state_ix[m.initial]
        # moves[state * len(tops) + top]: the row has digit moves, all k of
        # them; complete: every row has digit or epsilon moves (no dead row)
        self.moves = self.dig_to[::k] >= 0
        self.complete = bool((self.moves | (self.eps_to.ravel() >= 0)).all())
        self.epsilon = bool((self.eps_to >= 0).any())
        # node 0 is its own parent, so popping the bare bottom keeps it
        self.nodes, room = 1, 64
        self.parent = np.zeros(room, dtype=np.intp)
        self.sym = np.full(room, bottom, dtype=np.int32)
        # child[node * len(tops) + symbol]: the node one push above, or
        # -1 while unmade; pushing the bottom index keeps the node
        self.child = np.full(room * len(tops), -1, dtype=np.intp)
        self.child[bottom] = 0
        # id 0 is the initial configuration at n = 0
        self.configs, self.stepped, self.holey = 1, 0, False
        self.config_id = np.full(room * len(m.states), -1)
        self.config_key = np.zeros(room, dtype=np.intp)
        self.config_key[0] = self.initial
        self.succ = np.zeros((room, k), dtype=np.uint8)

    def _intern(self, base: np.ndarray, syms: np.ndarray) -> np.ndarray:
        """The node of each stack base[i] with syms[i] pushed on top;
        pairs not seen before become new nodes."""
        width = len(self.tops)
        key = base * width + syms
        node, made = _dedupe(self.child, key, self.nodes)
        if made is not None:
            self.nodes = count = self.nodes + len(made)
            self.parent = _room(self.parent, count)
            self.sym = _room(self.sym, count)
            self.child = _room(self.child, count * width, -1)
            ids, pairs = node[made], key[made]
            parent = pairs // width
            self.parent[ids], self.sym[ids] = parent, pairs - parent * width
            self.child[ids * width + self.bottom] = ids
        return node

    def _ids(self, states: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The id of each configuration (states[i], nodes[i]);
        configurations not seen before get new ids."""
        keys = nodes * len(self.states) + states
        self.config_id = _room(self.config_id,
                               self.nodes * len(self.states), -1)
        ids, made = _dedupe(self.config_id, keys, self.configs)
        if made is not None:
            old, self.configs = self.configs, self.configs + len(made)
            self.config_key = _room(self.config_key, self.configs)
            self.succ = _room(self.succ, self.configs)
            self.config_key[old:self.configs] = keys[made]
            if self.configs > np.iinfo(self.succ.dtype).max + 1:
                self.succ = self.succ.astype(
                    np.min_scalar_type(self.configs - 1))
        return ids

    def config_of(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """The states and nodes of configuration ids (an index, an array
        or a slice)."""
        keys = self.config_key[ids]
        nodes = keys // len(self.states)
        return keys - nodes * len(self.states), nodes

    def _expand(self, ids: np.ndarray) -> None:
        """Step configuration ids (ascending, not stepped yet) into the
        successor table, the one way any reader steps: each reads every
        digit, pushes its word and exhausts the epsilon moves. Each has a
        move for every digit or, on a dead row, for none; one with none
        keeps a row of 0s and makes the table holey.

        Id 0 stands for n = 0 alone. It reads digit 1 in place of 0, as
        its digit-0 child would be a leading zero. The initial
        configuration at any other n has an id of its own.
        """
        k, width = self.k, len(self.tops)
        states, nodes = self.config_of(ids)
        rows = states * width + self.sym.take(nodes)
        if not self.complete:
            live = self.moves.take(rows)
            self.holey |= not live.all()
            ids, rows, nodes = ids[live], rows[live], nodes[live]
        # each configuration's k digit rows in digit order, without a `%`
        row = ((rows * k)[:, None] + np.arange(k)).ravel()
        if ids.size and not ids[0]:
            row[0] += 1
        to = self.dig_to.take(row)
        # the digit move replaces the top, then pushes its word
        nodes = self.parent.take(nodes).repeat(k)
        for pushed in self.pushed:
            nodes = self._intern(nodes, pushed.take(row))
        if self.epsilon:
            # epsilon closure: each pass pops one symbol where a move fires
            fired = self.eps_to.take(to * width + self.sym.take(nodes))
            firing = (fired >= 0).nonzero()[0]
            while firing.size:
                to[firing] = fired[fired >= 0]
                nodes[firing] = self.parent.take(nodes[firing])
                fired = self.eps_to.take(to[firing] * width
                                         + self.sym.take(nodes[firing]))
                firing = firing[fired >= 0]
        self.succ[ids] = self._ids(to, nodes).reshape(-1, k)

    def _hole(self, i: int, digit: int) -> _Hole:
        """The error of configuration id i reading a digit with no move."""
        state, node = self.config_of(i)
        return _Hole(self.states[state], self.tops[self.sym[node]], digit)

    def _next(self, ids: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """The id one step from ids[i] by digits[i]. A 0 there is a row
        not stepped yet or a dead one: those rows are stepped, and the
        hole of the first i still without a move is raised."""
        to = self.succ[ids, digits]
        if not to.all():
            self._expand(np.unique(ids[to == 0]))
            to = self.succ[ids, digits]
        if not to.all():
            i = int(to.argmin())
            raise self._hole(ids[i], int(digits[i]))
        return to

    def fill(self, count: int):
        """Configuration ids of n in [0, count), filled one base-k level
        at a time from id 0 at n = 0; yields (hi, ids) each time every
        n < hi is filled. The ids are kept from one fill to the next.

        Before each level, the configurations it reads that no level read
        yet are stepped into the successor table: a full level reads all
        those first reached in the level below, and the level the count
        cuts only those up to the largest id among its parents. The block
        is then one gather of table rows by its parent slice, laid end to
        end, and the ids array grows by the block, in the smallest
        unsigned type that holds every id. Once a hole is stepped, the
        first 0 of each block is the least input that reaches one: the
        level is yielded filled up to it, and then the hole is raised, as
        when the inputs are stepped one by one.
        """
        k = self.k
        ids = np.zeros(min(count, 1), dtype=np.uint8)
        yield len(ids), ids
        for lo, hi, parents, cut in _levels(k, count):
            stop = (self.configs if hi == lo * k
                    else int(ids[parents].max()) + 1)
            if self.stepped < stop:
                self._expand(np.arange(self.stepped, stop))
                self.stepped = stop
            grown = np.empty(hi, dtype=self.succ.dtype)
            grown[:lo] = ids
            ids = grown
            ids[lo:hi] = self.succ.take(ids[parents], axis=0).ravel()[cut]
            if self.holey:
                at = lo + int(ids[lo:hi].argmin())
                if not ids[at]:
                    yield at, ids
                    raise self._hole(ids[at // k], at % k)
            yield hi, ids

    def id_of(self, n: int) -> int:
        """The id after the base-k expansion of n, walked down the
        successor table from id 0 one digit at a time. n = 0 gets the
        initial configuration's own id, as id 0 reads 1 in place of 0."""
        if n < 0:
            raise ValueError("input integer must be nonnegative")
        if not n:
            return int(self._ids(np.full(1, self.initial),
                                 np.zeros(1, dtype=np.intp))[0])
        at = 0
        for d in encode_base_k(n, self.k):
            at = int(self._next(np.full(1, at), np.full(1, d))[0])
        return at


def _room(table: np.ndarray, size: int, fill=0) -> np.ndarray:
    """table while it has `size` rows, else a copy padded with fill to at
    least twice its length; callers need not check the size first."""
    if len(table) >= size:
        return table
    grown = np.full((max(size, 2 * len(table)),) + table.shape[1:], fill,
                    dtype=table.dtype)
    grown[:len(table)] = table
    return grown


def _dedupe(table: np.ndarray, keys: np.ndarray, count: int
            ) -> tuple[np.ndarray, np.ndarray | None]:
    """The id of each key through a dense table that holds -1 for keys
    without one; those get ids count, count + 1, ... Returns the ids and,
    for each new id in order, the position of the key that made it (None
    when no id is new)."""
    ids = table.take(keys)
    new = (ids < 0).nonzero()[0]
    if not new.size:
        return ids, None
    fresh = keys[new]
    # each new key keeps one of its positions, which makes its id
    table[fresh] = new
    maker = table.take(fresh)
    made = new[maker == new]
    ids[made] = np.arange(count, count + len(made))
    table[fresh] = ids[new] = ids.take(maker)
    return ids, made


def pop_table(m: Dpao) -> dict[tuple[str, str], frozenset[str]]:
    """For each (state, stack symbol): the states reachable at the moment
    that symbol's slot is first emptied, starting with it on top.

    Least fixpoint of two rules. A transition at (q, z) that pushes
    nothing empties the slot immediately, landing in its target state. A
    transition that pushes x_1..x_m (top x_m) defers: the slot empties
    after x_m is popped from the target, then x_{m-1} from wherever that
    landed, and so on down to x_1. An empty set means the symbols below z
    are never read or removed from state q.
    """
    pop: dict[tuple[str, str], set[str]] = {
        (q, z): set() for q in m.states for z in m.stack_symbols
    }
    changed = True
    while changed:
        changed = False
        for (q, z, _inp), (to, push) in m.transitions.items():
            if z == BOTTOM:
                continue
            landing = {to}
            for sym in reversed(push):
                nxt: set[str] = set()
                for r in landing:
                    nxt |= pop[(r, sym)]
                landing = nxt
                if not landing:
                    break
            before = pop[(q, z)]
            if not landing <= before:
                before |= landing
                changed = True
    return {key: frozenset(val) for key, val in pop.items()}


def find_equivalent_pair(m: Dpao, n_max: int = 10_000
                         ) -> tuple[int, int, str] | None:
    """Scan n = 1, 2, ... for two inputs with equivalent configurations.

    Two detectors run side by side. "exact": identical configurations,
    equal configuration ids, by pigeonhole. "protected": same (state,
    top symbol) with a non-empty stack below the top and an empty pop set
    for that pair, so everything below the top is permanently sealed and
    the configurations behave identically. The first hit in scan order
    minimizes n', then n; None, when the budget runs out, proves nothing.
    A negative n_max raises ValueError.

    The scan fills configuration ids one base-k level at a time and
    stops after the first level that holds a hit. Until then every input
    has an id of its own, so a level holds its first hit among its first
    (ids not yet seen) + 1 inputs, and only those are read.
    """
    if n_max < 0:
        raise ValueError(f"search budget must be nonnegative, got {n_max}")
    pops = pop_table(m)
    core = _Core(m)
    width = len(core.tops)
    sealed = np.array([[a != BOTTOM and not pops[(q, a)] for a in core.tops]
                       for q in m.states])
    # the least input of each id and of each protected key state * width
    # + top, or `none`; key -1 of an unprotected id reads the last entry
    none = n_max + 1
    first_id = np.zeros(0, dtype=np.int64)
    first_key = np.full(len(m.states) * width + 1, none)
    key = np.zeros(0, dtype=np.int64)
    lo = 1
    for hi, ids in core.fill(n_max + 1):
        end = min(hi, core.configs + 1)
        if end <= lo:
            continue
        if len(key) < core.configs:
            state, node = core.config_of(slice(len(key), core.configs))
            top = core.sym.take(node)
            key = np.append(key, np.where(
                (core.parent.take(node) > 0) & sealed[state, top],
                state * width + top, -1))
            first_id = np.append(first_id, np.full(len(state), none))
        window, inputs = ids[lo:end], np.arange(lo, end)
        np.minimum.at(first_id, window, inputs)
        exact = first_id.take(window)
        keys = key.take(window)
        np.minimum.at(first_key, keys, np.where(keys < 0, none, inputs))
        protected = first_key.take(keys)
        earliest = np.minimum(exact, protected)
        hits = np.flatnonzero(earliest < inputs)
        if hits.size:
            i = int(hits[0])
            method = "exact" if exact[i] <= protected[i] else "protected"
            return int(earliest[i]), lo + i, method
        lo = hi
    return None


@dataclass(frozen=True)
class DistinguishResult:
    distinguished: bool
    witness: tuple[int, ...] | None
    depth: int

    def describe(self) -> str:
        if self.distinguished:
            word = "".join(str(d) for d in self.witness)
            return f"distinguished by input {word!r}"
        return f"indistinguishable for all inputs of length <= {self.depth}"


def bounded_distinguish(m: Dpao, n: int, n_prime: int, depth: int
                        ) -> DistinguishResult:
    """Breadth-first search for a continuation word on which the outputs
    after n and after n' differ.

    A found word disproves equivalence; exhausting the depth proves
    nothing and is reported as such. Configuration pairs already seen are
    skipped, since outputs depend only on the configurations.

    Each depth is one array of configuration id pairs in search order,
    whose successors are read from the core's table at once; a pair
    seen before is an equal id pair. A negative depth raises ValueError.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    core, k = _Core(m), m.k
    start = (core.id_of(n), core.id_of(n_prime))
    pairs, seen = np.array([start]), {start}
    words = np.zeros((1, 0), dtype=np.int64)
    for level in range(depth + 1):
        state, node = core.config_of(pairs)
        out = core.out[state, core.sym.take(node)]
        first = int(np.argmax(np.append(out[:, 0] != out[:, 1], True)))
        if level < depth:
            # the pairs before the first distinguished one read every
            # digit, first side then second, so a hole raises in order
            stepped = core._next(np.repeat(pairs[:first], k, axis=0).ravel(),
                                 np.tile(np.repeat(np.arange(k), 2), first)
                                 ).reshape(-1, 2)
        if first < len(pairs):
            return DistinguishResult(True, tuple(map(int, words[first])),
                                     depth)
        if level == depth:
            break
        fresh = []
        for i, pair in enumerate(map(tuple, stepped.tolist())):
            if pair not in seen:
                seen.add(pair)
                fresh.append(i)
        if not fresh:
            break
        index = np.array(fresh)
        pairs = stepped[index]
        words = np.column_stack([words[index // k], index % k])
    return DistinguishResult(False, None, depth)


def from_dfao(a: Dfao) -> Dpao:
    """Recast a finite automaton as a stack-free pushdown transducer."""
    transitions = {
        (q, BOTTOM, d): (a.delta[q][d], ())
        for q in a.states
        for d in range(a.k)
    }
    output = {(q, BOTTOM): a.output[q] for q in a.states}
    return Dpao(
        k=a.k,
        states=a.states,
        initial=a.initial,
        stack_symbols=(),
        transitions=transitions,
        output=output,
    )
