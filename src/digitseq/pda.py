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
configurations level by level, like the automata: the configuration
after n is one digit step from the configuration after n // k, so a
whole block [k^l, k^(l+1)) steps at once from the block below, each
entry repeated k times. The distinguishing search steps one array of
configuration pairs per depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dfao import Dfao
from .errors import ValidationError
from .validation import ValidationReport
from .words import Alphabet, SequenceSource, _levels, encode_base_k

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

        The machine compiles once to a step core, and the configurations
        fill one base-k level at a time.
        """
        core = _Core(self)

        def gen(n: int) -> bytes:
            *_, (_, state, node) = core.fill(n)
            return core.out.take(state * len(core.tops)
                                 + core.sym.take(node)).tobytes()

        return SequenceSource(source_id, core.alphabet, gen)


class _Hole(ValidationError):
    """A reached row with no move for the digit read, at index `at` of
    the stepped arrays."""

    def __init__(self, state: str, top: str, digit: int, at: int):
        report = ValidationReport()
        report.error("incompleteness", f"reached ({state!r}, {top!r}) with "
                     f"digit {digit} but no transition is defined")
        super().__init__(report)
        self.at = at


class _Core:
    """A Dpao compiled to step many configurations at once.

    Dense tables over (state, top, digit) hold the moves. Stacks live in
    a hash-consed node store: node 0 is the bare bottom, and node i is
    the stack parent[i] with sym[i] pushed on top, height[i] symbols
    high. `child` maps (parent, symbol) to its node, so equal stacks are
    one node and a configuration is the int pair (state, node).
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
        # node 0 is its own parent, so popping the bare bottom keeps it
        self.parent = np.zeros(1, dtype=np.int32)
        self.sym = np.full(1, bottom, dtype=np.int32)
        self.height = np.zeros(1, dtype=np.int32)
        # child[node * len(tops) + symbol]: the node one push above, or
        # -1 while unmade; pushing the bottom index keeps the node
        self.child = np.full(len(tops), -1, dtype=np.int32)
        self.child[bottom] = 0

    def _intern(self, base: np.ndarray, syms: np.ndarray) -> np.ndarray:
        """The node of each stack base[i] with syms[i] pushed on top;
        pairs not seen before become new nodes."""
        width = len(self.tops)
        key = base.astype(np.int64) * width + syms
        node = self.child.take(key)
        new = node < 0
        if new.any():
            fresh, inverse = np.unique(key[new], return_inverse=True)
            ids = len(self.parent) + np.arange(len(fresh), dtype=np.int32)
            parent, sym = np.divmod(fresh, width)
            self.parent = np.concatenate([self.parent, parent.astype(np.int32)])
            self.sym = np.concatenate([self.sym, sym.astype(np.int32)])
            self.height = np.concatenate([self.height, self.height[parent] + 1])
            self.child = np.concatenate(
                [self.child, np.full(len(fresh) * width, -1, dtype=np.int32)])
            self.child[ids * width + self.bottom] = ids
            self.child[fresh] = ids
            node[new] = ids[inverse]
        return node

    def step(self, states: np.ndarray, nodes: np.ndarray, digits: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
        """Read digits[i] in configuration (states[i], nodes[i]), then
        exhaust epsilon moves; returns the new states and nodes.

        Raises `_Hole` for the first configuration whose row has no move
        for its digit, before anything is pushed.
        """
        width = len(self.tops)
        top = self.sym.take(nodes)
        row = (states * width + top) * self.k + digits
        to = self.dig_to.take(row)
        if (to < 0).any():
            i = int(np.argmax(to < 0))
            raise _Hole(self.states[states[i]], self.tops[top[i]],
                        int(digits[i]), i)
        # the digit move replaces the top, then pushes its word
        nodes = self.parent.take(nodes)
        for pushed in self.pushed:
            nodes = self._intern(nodes, pushed.take(row))
        # epsilon closure: each pass pops one symbol where a move fires
        fired = self.eps_to.take(to * width + self.sym.take(nodes))
        live = np.flatnonzero(fired >= 0)
        while live.size:
            to[live] = fired[fired >= 0]
            nodes[live] = self.parent.take(nodes[live])
            fired = self.eps_to.take(to[live] * width
                                     + self.sym.take(nodes[live]))
            live = live[fired >= 0]
        return to, nodes

    def fill(self, count: int):
        """Configurations of n in [0, count) as state and node arrays,
        filled one base-k level at a time from the initial one at n = 0;
        yields (hi, state, node) each time every n < hi is filled.

        At a hole, the level is filled and yielded up to the input that
        reaches it, and then the hole is raised: every input before it
        is filled, as when the inputs are stepped one by one.
        """
        k, digit = self.k, np.arange(self.k)[None]
        state = np.full(count, self.initial, dtype=np.int32)
        node = np.zeros(count, dtype=np.int32)
        yield min(count, 1), state, node
        for lo, hi, parents, cut in _levels(k, count):
            st = state[parents].repeat(k)[cut]
            nd = node[parents].repeat(k)[cut]
            digits = digit.repeat(parents.stop - parents.start, 0).ravel()[cut]
            try:
                state[lo:hi], node[lo:hi] = self.step(st, nd, digits)
            except _Hole as hole:
                hi = lo + hole.at
                state[lo:hi], node[lo:hi] = self.step(
                    st[:hole.at], nd[:hole.at], digits[:hole.at])
                yield hi, state, node
                raise
            yield hi, state, node

    def config(self, n: int) -> tuple[int, int]:
        """(state, node) after the base-k expansion of n, stepped one
        digit at a time; n = 0 reads the empty input."""
        if n < 0:
            raise ValueError("input integer must be nonnegative")
        state, node = np.full(1, self.initial), np.zeros(1, dtype=np.int32)
        for d in encode_base_k(n, self.k):
            state, node = self.step(state, node, np.full(1, d))
        return int(state[0]), int(node[0])


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
    equal (state, node) pairs, by pigeonhole. "protected": same (state,
    top symbol) with a non-empty stack below the top and an empty pop set
    for that pair, so everything below the top is permanently sealed and
    the configurations behave identically. The first hit in scan order
    minimizes n', then n; None, when the budget runs out, proves nothing.
    The scan fills one base-k level at a time and stops after the first
    level that holds a hit. A negative n_max raises ValueError.
    """
    if n_max < 0:
        raise ValueError(f"search budget must be nonnegative, got {n_max}")
    pops = pop_table(m)
    core = _Core(m)
    sealed = np.array([[a != BOTTOM and not pops[(q, a)] for a in core.tops]
                       for q in m.states])
    for hi, state, node in core.fill(n_max + 1):
        # entry i is input n = i + 1; equal stacks are equal nodes
        st, nd = state[1:hi].astype(np.int64), node[1:hi]
        height, top = core.height[nd], core.sym[nd]
        exact = _first_equal(st * len(core.parent) + nd)
        protected = _first_equal(st * len(core.tops) + top,
                                 (height >= 2) & sealed[st, top])
        earliest = np.minimum(exact, protected)
        hits = np.flatnonzero(earliest < np.arange(len(st)))
        if hits.size:
            i = int(hits[0])
            method = "exact" if exact[i] <= protected[i] else "protected"
            return int(earliest[i]) + 1, i + 1, method
    return None


def _first_equal(keys: np.ndarray, mask: np.ndarray | None = None
                 ) -> np.ndarray:
    """For each i in mask (default: every i), the least j in mask with
    keys[j] == keys[i]; len(keys) outside the mask."""
    first = np.full(len(keys), len(keys))
    idx = np.arange(len(keys)) if mask is None else np.flatnonzero(mask)
    _, start, inverse = np.unique(keys[idx], return_index=True,
                                  return_inverse=True)
    first[idx] = idx[start[inverse]]
    return first


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

    Each depth is one array of pairs (s1, node1, s2, node2) in search
    order, all stepped at once; equal stacks are equal nodes, so a pair
    seen before is an equal 4-tuple. A negative depth raises ValueError.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    core, k = _Core(m), m.k
    start = core.config(n) + core.config(n_prime)
    pairs, seen = np.array([start]), {start}
    words = np.zeros((1, 0), dtype=np.int64)
    for level in range(depth + 1):
        out = core.out[pairs[:, [0, 2]], core.sym[pairs[:, [1, 3]]]]
        first = int(np.argmax(np.append(out[:, 0] != out[:, 1], True)))
        if level < depth:
            # the pairs before the first distinguished one read every
            # digit, first side then second, so a hole raises in order
            live = pairs[:first]
            st, nd = core.step(np.repeat(live[:, [0, 2]], k, axis=0).ravel(),
                               np.repeat(live[:, [1, 3]], k, axis=0).ravel(),
                               np.tile(np.repeat(np.arange(k), 2), first))
        if first < len(pairs):
            return DistinguishResult(True, tuple(map(int, words[first])),
                                     depth)
        if level == depth:
            break
        stepped = np.stack([st[::2], nd[::2], st[1::2], nd[1::2]], axis=1)
        fresh = []
        for i, row in enumerate(map(tuple, stepped.tolist())):
            if row not in seen:
                seen.add(row)
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
