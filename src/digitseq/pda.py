"""Complete deterministic pushdown transducers on base-k inputs: the
step core that runs them, the pair search and the distinguishing search.

The model (`Dpao`, `BOTTOM` and the recast `from_dfao`) lives in `dpao`,
which loads no numpy, and is re-exported here as the same objects.

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
proportion to its distinct configurations, not to its length. A source
reads the core it is given, else one it compiles on its first read, so a
certificate's prefix reads the pair search's core: no output reads an
id. The core owns one numbering: the walk to one input and the
distinguishing search, over pairs of ids, read and step the same table,
on a core of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .dpao import BOTTOM, Dpao, from_dfao
from .errors import ValidationError
from .validation import ValidationReport
from .words import SequenceSource, _levels, _symbols, encode_base_k

__all__ = [
    "BOTTOM",
    "Dpao",
    "DistinguishResult",
    "pop_table",
    "find_equivalent_pair",
    "bounded_distinguish",
    "from_dfao",
]


def _source(m: Dpao, source_id: str, core: _Core | None = None
            ) -> SequenceSource:
    """m's output sequence on `core`, or on a step core compiled on the
    first read when none is given."""

    def gen(n: int) -> bytes:
        nonlocal core
        core = _Core(m) if core is None else core
        for _, ids in core.fill(n):
            pass
        return _symbols(core.out[core.row[:core.configs]], ids)

    return SequenceSource(source_id, m.output_alphabet(), gen)


class _Hole(ValidationError):
    """A reached row with no move for the digit read."""

    def __init__(self, state: str, top: str, digit: int):
        report = ValidationReport()
        report.error("incompleteness", f"reached ({state!r}, {top!r}) with "
                     f"digit {digit} but no transition is defined")
        super().__init__(report)


class _Core:
    """A Dpao compiled to step many configurations at once.

    A row is a (state, top) pair, numbered state * len(tops) + top, and
    `move` holds each row's moves by digit: move[0, row, d] is the next
    state (-1 for none), move[1, row, d] is 1 when the pushed word starts
    with the top it replaces, which then stays, and move[2 + j, row, d]
    is the j-th symbol pushed after that, or the bottom index past the
    end. One row more, the last, is id 0's: the initial configuration at
    n = 0, which reads 1 in place of 0, as its digit-0 child would be a
    leading zero.

    Stacks live in a hash-consed node store: node 0 is the bare bottom,
    and node i is the stack parent[i] with sym[i] pushed on top. `child`
    maps node * len(tops) + symbol to its node, so equal stacks are one
    node and a configuration is a row over a node.

    The core owns one numbering of the configurations its readers reach:
    id i is row[i] over node[i], and `config_id` maps the key
    node * len(states) + state to the id, except for id 0, which stands
    for n = 0 alone; the initial configuration at any other n has an id
    of its own. Row i of `succ` holds the ids one digit step from id i,
    and 0 for a digit with no move, as id 0 is no input's child. Fills
    step ids in ascending order up to `stepped`, walks and searches the
    ids they read. No output reads an id, only its row, so a reader may
    read a core others filled. Every table doubles its length when full;
    `nodes` and `configs` count the entries in use. The strides `width`
    and `span` are numpy integers, which numpy multiplies by faster than
    by a Python int.
    """

    def __init__(self, m: Dpao):
        self.k = k = m.k
        self.states = m.states
        self.tops = tops = m.stack_symbols + (BOTTOM,)
        self.width = width = np.intp(len(tops))
        self.span = np.intp(len(m.states))
        # the bottom's index also stands for "push nothing"
        self.bottom = bottom = width - 1
        self.alphabet = m.output_alphabet()
        self.initial = m.states.index(m.initial)
        state_ix = {q: i for i, q in enumerate(m.states)}
        top_ix = {a: i for i, a in enumerate(tops)}
        rows = len(m.states) * len(tops)
        # a word that starts with the top it replaces keeps that top and
        # pushes the rest
        moves = [(state_ix[q] * len(tops) + top_ix[a], inp, state_ix[to],
                  push[:1] == (a,), push)
                 for (q, a, inp), (to, push) in m.transitions.items()]
        longest = max((len(push) - keep for *_, keep, push in moves),
                      default=0)
        # digit row row * k + d, with one row more, the last: id 0's
        eps, move = [-1] * rows, [[-1] * (rows + 1) * k, [0] * (rows + 1) * k]
        move += [[bottom] * len(move[0]) for _ in range(longest)]
        pushed = move[2:]
        for row, inp, to, keep, push in moves:
            if inp is None:
                eps[row] = to
                continue
            at = row * k + inp
            move[0][at], move[1][at] = to, keep
            for table, z in zip(pushed, push[keep:]):
                table[at] = top_ix[z]
        start = (self.initial * len(tops) + len(tops) - 1) * k
        for table in move:
            table[rows * k:] = [table[start + max(d, 1)] for d in range(k)]
        self.move = np.array(move, dtype=np.intp).reshape(-1, rows + 1, k)
        self.eps_to = np.array(eps, dtype=np.intp)
        out = [self.alphabet.index(m.output[pair])
               for pair in product(m.states, tops)]
        self.out = np.array(out + [out[start // k]], dtype=np.uint8)
        # complete: every row has digit or epsilon moves (no dead row)
        self.complete = all(move[0][row * k] >= 0 or eps[row] >= 0
                            for row in range(rows))
        self.epsilon = max(eps) >= 0
        # node 0 is its own parent, so popping the bare bottom keeps it
        self.nodes, room = 1, 64
        self.parent = np.zeros(room, dtype=np.intp)
        self.sym = np.full(room, bottom, dtype=np.int32)
        # child[node * width + symbol]: the node one push above, or -1
        # while unmade; pushing the bottom index keeps the node, and a
        # table that grows holds that for its nodes to be made
        self.child = np.full(room * len(tops), -1, dtype=np.intp)
        self.child[bottom::len(tops)] = np.arange(room)
        # id 0 is the initial configuration at n = 0, on the last row
        self.configs, self.stepped, self.holey = 1, 0, False
        self.config_id = np.full(room * len(m.states), -1, dtype=np.intp)
        self.row = np.full(room, rows, dtype=np.intp)
        self.node = np.zeros(room, dtype=np.intp)
        self.succ = np.zeros((room, k), dtype=np.uint8)

    def _fit(self, nodes: int, configs: int) -> None:
        """Room for `nodes` nodes in the node tables and for `configs` ids
        in the configuration tables; a table short of it grows, to at
        least twice its length. Tables are fitted as entries are made, to
        the count made, not to a bound such as the frontier times the
        longest push, which grows them past what a machine whose
        configurations are all distinct fills."""
        if nodes > len(self.parent):
            old = len(self.parent)
            self.parent = _room(self.parent, nodes)
            self.sym = _room(self.sym, nodes)
            self.child = _room(self.child, len(self.parent) * self.width, -1)
            self.child[old * self.width + self.bottom::self.width] = \
                np.arange(old, len(self.parent))
            self.config_id = _room(self.config_id, nodes * self.span, -1)
        if configs > len(self.row):
            self.row = _room(self.row, configs)
            self.node = _room(self.node, configs)
            self.succ = _room(self.succ, configs, 0)

    def _ids(self, states: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The id of each configuration (states[i], nodes[i]);
        configurations not seen before get new ids, which the tables have
        room for."""
        ids, made = _dedupe(self.config_id, nodes * self.span + states,
                            self.configs)
        if made is not None:
            old, self.configs = self.configs, self.configs + len(made)
            if self.configs > len(self.row):
                self._fit(self.nodes, self.configs)
            nodes = nodes[made]
            self.node[old:self.configs] = nodes
            self.row[old:self.configs] = states[made] * self.width \
                + self.sym[nodes]
            if self.configs > 256 ** self.succ.itemsize:
                self.succ = self.succ.astype(
                    np.min_scalar_type(self.configs - 1))
        return ids

    def config_of(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """The states and nodes of configuration ids (an index, an array
        or a slice); id 0's row, the last, holds the initial state."""
        rows = self.row[ids]
        return (np.where(rows < len(self.out) - 1, rows // self.width,
                         self.initial), self.node[ids])

    def _expand(self, ids) -> None:
        """Step configuration ids (ascending, not stepped yet; an array or
        a slice) into the successor table, the one way any reader steps:
        each reads every digit, pushes its word and exhausts the epsilon
        moves. Each has a move for every digit or, on a dead row, for
        none; one with none keeps a row of 0s and makes the table holey.

        One gather reads every move of the rows.
        """
        k, width = self.k, self.width
        rows = self.row[ids]
        move = self.move.take(rows, axis=1).reshape(len(self.move), -1)
        if not self.complete and move[0, move[0].argmin()] < 0:
            # a configuration on a dead row keeps its row of 0s
            self.holey = True
            live = move[0, ::k] >= 0
            ids, rows = np.r_[ids][live], rows[live]
            move = self.move.take(rows, axis=1).reshape(len(self.move), -1)
        # the digit move replaces the top, or keeps it when its word
        # starts with it, and pushes the rest of its word; rows of `move`
        # are read by index, as iterating an array is slower
        to = move[0]
        nodes = self.node[ids].repeat(k)
        nodes = np.where(move[1], nodes, self.parent[nodes])
        for j in range(2, len(move)):
            syms = move[j]
            key = nodes * width + syms
            base, (nodes, made) = nodes, _dedupe(self.child, key, self.nodes)
            if made is not None:
                old, self.nodes = self.nodes, self.nodes + len(made)
                if self.nodes > len(self.parent):
                    self._fit(self.nodes, self.configs)
                self.parent[old:self.nodes] = base[made]
                self.sym[old:self.nodes] = syms[made]
        if self.epsilon:
            # epsilon closure: each pass pops one symbol where a move fires
            fired = self.eps_to[to * width + self.sym[nodes]]
            firing = (fired >= 0).nonzero()[0]
            while firing.size:
                to[firing] = fired[fired >= 0]
                nodes[firing] = self.parent[nodes[firing]]
                fired = self.eps_to[to[firing] * width
                                    + self.sym[nodes[firing]]]
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
            # the distinct ids in order; np.unique would import numpy.ma
            self._expand(np.flatnonzero(np.bincount(ids[to == 0])))
            to = self.succ[ids, digits]
        if not to.all():
            i = int(to.argmin())
            raise self._hole(ids[i], int(digits[i]))
        return to

    def fill(self, count: int):
        """Configuration ids of n in [0, count), filled one base-k level
        at a time from id 0 at n = 0; yields (hi, ids) each time every
        n < hi is filled. The ids are kept from one fill to the next.

        Before each level, the ids it reads that no level read yet, up to
        the largest among its parents, are stepped into the successor
        table: for a whole level, those first reached in the level below.
        The block is then one gather of table rows by its parent slice,
        laid end to end, and the ids array grows by the block, in the
        smallest unsigned type that holds every id. Once a hole is
        stepped, the first 0 of each block is the least input that reaches
        one: the level is yielded filled up to it, and then the hole is
        raised, as when the inputs are stepped one by one.
        """
        k = self.k
        ids = np.zeros(min(count, 1), dtype=np.uint8)
        yield len(ids), ids
        for lo, hi, parents, cut in _levels(k, count):
            below = ids[parents]
            stop = int(below[below.argmax()]) + 1
            if self.stepped < stop:
                self._expand(slice(self.stepped, stop))
                self.stepped = stop
            ids = np.concatenate(
                (ids, self.succ.take(below, axis=0).ravel()[cut]))
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


def _room(table: np.ndarray, size: int, fill=None) -> np.ndarray:
    """table while it has `size` rows, else a copy to at least twice its
    length, padded with fill, or left unset for a table whose rows are
    written before they are read; callers need not check the size
    first."""
    if len(table) >= size:
        return table
    grown = np.empty((max(size, 2 * len(table)),) + table.shape[1:],
                     dtype=table.dtype)
    grown[:len(table)] = table
    if fill is not None:
        grown[len(table):] = fill
    return grown


def _dedupe(table: np.ndarray, keys: np.ndarray, count: int
            ) -> tuple[np.ndarray, np.ndarray | None]:
    """The id of each key through a dense table that holds -1 for keys
    without one; those get ids count, count + 1, ... in the order of the
    last position of each key. Returns the ids and, for each new id in
    order, the position of the key that made it (None when no id is
    new)."""
    ids = table[keys]
    new = (ids < 0).nonzero()[0]
    if not new.size:
        return ids, None
    fresh = keys[new]
    # each new key keeps its last position, which makes its id
    table[fresh] = new
    made = new[table[fresh] == new]
    table[keys[made]] = np.arange(count, count + len(made))
    return table[keys], made


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


def find_equivalent_pair(m: Dpao, n_max: int = 10_000, *,
                         core: _Core | None = None
                         ) -> tuple[int, int, str] | None:
    """Scan n = 1, 2, ... for two inputs with equivalent configurations.

    One class key per input read: state * width + top when its
    configuration is protected (a non-empty stack below the top and an
    empty pop set for that (state, top), so all below the top is sealed),
    else base + id. The first input n' whose class holds an earlier input
    n is the hit, which minimizes n', then n: "exact" when n has the same
    configuration id (identical configurations), else "protected". None,
    when the budget runs out, proves nothing. A negative n_max raises
    ValueError.

    The scan fills configuration ids one base-k level at a time, on
    `core` when given, a fresh step core of m that the caller reads next,
    and stops after the first level that holds a hit. Until then every
    input has a class of its own, so a level holds its first hit among
    its first (ids not yet seen) + 1 inputs, and only those are read.
    """
    if n_max < 0:
        raise ValueError(f"search budget must be nonnegative, got {n_max}")
    core = _Core(m) if core is None else core
    pops = pop_table(m)
    width = core.width
    # sealed[row]; no input reads the last row, id 0's
    sealed = np.array([a != BOTTOM and not pops[(q, a)]
                       for q in m.states for a in core.tops] + [False])
    # the least input of each class, or `none`
    base, none = len(m.states) * width, n_max + 1
    first = np.full(base, none)
    lo = 1
    for hi, ids in core.fill(n_max + 1):
        end = min(hi, core.configs + 1)
        if end <= lo:
            continue
        # ids are as narrow as uint8, and base + id must not wrap
        window, inputs = ids[lo:end].astype(np.intp), np.arange(lo, end)
        rows = core.row[window]
        keys = np.where((core.parent[core.node[window]] > 0) & sealed[rows],
                        rows, base + window)
        first = _room(first, base + core.configs, none)
        np.minimum.at(first, keys, inputs)
        earliest = first.take(keys)
        hits = np.flatnonzero(earliest < inputs)
        if hits.size:
            i = int(hits[0])
            n = int(earliest[i])
            return n, lo + i, "exact" if ids[n] == window[i] else "protected"
        lo = hi
    return None


def _pair_and_source(m: Dpao, n_max: int, source_id: str
                     ) -> tuple[tuple[int, int, str] | None, SequenceSource]:
    """find_equivalent_pair(m, n_max), and m's output sequence named
    source_id, read on the search's core."""
    core = _Core(m)
    return (find_equivalent_pair(m, n_max, core=core),
            _source(m, source_id, core))


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
        out = core.out[core.row[pairs]]
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
