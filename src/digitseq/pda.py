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

Sources generate level by level, like the automata: the configuration
after n is one digit step from the configuration after n // k, so a whole
block [k^l, k^(l+1)) steps at once on integer arrays. `StackConfig`,
`step_input` and `config_of` are the one-input-at-a-time path that the
searches use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dfao import Dfao
from .errors import ValidationError
from .validation import ValidationReport
from .words import Alphabet, SequenceSource, _digit_levels, encode_base_k

__all__ = [
    "BOTTOM",
    "Dpao",
    "StackConfig",
    "DistinguishResult",
    "initial_config",
    "step_input",
    "run_word",
    "config_of",
    "output_of_config",
    "output_at",
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
    bottom-to-top.
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
        if BOTTOM in symbols:
            report.error("unknown-symbol", "'#' is reserved for the stack bottom")
        if self.initial not in states:
            report.error("unknown-state",
                         f"initial state {self.initial!r} not declared")
        tops = symbols | {BOTTOM}
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
        if report.errors:
            return report
        for q in self.states:
            for a in sorted(tops):
                has_eps = (q, a, None) in self.transitions
                digits = [d for d in range(self.k) if (q, a, d) in self.transitions]
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
        """The output sequence, n = 0, 1, 2, ...; validates first.

        The machine compiles once to dense tables over (state, top,
        digit), and the configurations fill one base-k level at a time.
        Stacks are persistent lists in two node arrays: node 0 is the
        bare bottom, node i holds parent[i] and sym[i]. A configuration
        is then a pair of ints, a state and a node.
        """
        self.validate().require()
        alphabet = self.output_alphabet()
        k = self.k
        tops = self.stack_symbols + (BOTTOM,)
        bottom = len(tops) - 1
        state_ix = {q: i for i, q in enumerate(self.states)}
        top_ix = {a: i for i, a in enumerate(tops)}
        shape = (len(self.states), len(tops))
        eps_to = np.full(shape, -1, dtype=np.int32)
        # a digit row is (state * len(tops) + top) * k + digit
        dig_to = np.full(shape[0] * shape[1] * k, -1, dtype=np.int32)
        dig_len = np.zeros_like(dig_to)
        dig_start = np.zeros_like(dig_to)
        pushed: list[int] = []
        for (q, a, inp), (to, push) in self.transitions.items():
            if inp is None:
                eps_to[state_ix[q], top_ix[a]] = state_ix[to]
                continue
            row = (state_ix[q] * shape[1] + top_ix[a]) * k + inp
            dig_to[row] = state_ix[to]
            dig_len[row] = len(push)
            dig_start[row] = len(pushed)
            pushed.extend(top_ix[z] for z in push)
        pushed_sym = np.array(pushed, dtype=np.int32)
        out = np.array([[alphabet.index(self.output[(q, a)]) for a in tops]
                        for q in self.states], dtype=np.uint8)
        initial = state_ix[self.initial]

        def gen(n: int) -> bytes:
            state = np.full(n, initial, dtype=np.int32)
            node = np.zeros(n, dtype=np.int32)
            parent = np.zeros(1, dtype=np.int32)
            sym = np.full(1, bottom, dtype=np.int32)
            for lo, hi, parents, digits in _digit_levels(k, n):
                st, nd = state[parents], node[parents]
                top = sym[nd]
                row = (st * shape[1] + top) * k + digits
                to = dig_to[row]
                if (to < 0).any():
                    i = int(np.argmax(to < 0))
                    raise _hole_error(self.states[st[i]], tops[top[i]],
                                      int(digits[i]))
                # the digit move replaces the top; at the bottom it only pushes
                base = np.where(top == bottom, nd, parent[nd])
                # push: the block's pushed words become new nodes, chained
                # from base up to the new top
                length = dig_len[row]
                ends = np.cumsum(length)
                owner = np.repeat(np.arange(len(row)), length)
                offset = np.arange(len(owner)) - (ends - length)[owner]
                first = len(sym)
                new_parent = np.arange(first - 1, first - 1 + len(owner),
                                       dtype=np.int32)
                heads = offset == 0
                new_parent[heads] = base[owner[heads]]
                sym = np.concatenate(
                    [sym, pushed_sym[dig_start[row][owner] + offset]])
                parent = np.concatenate([parent, new_parent])
                nd = np.where(length > 0, first + ends - 1, base)
                # epsilon closure: each pass pops one symbol where a move fires
                st = to
                live = np.arange(len(st))
                while live.size:
                    eps = eps_to[st[live], sym[nd[live]]]
                    live, eps = live[eps >= 0], eps[eps >= 0]
                    st[live] = eps
                    nd[live] = parent[nd[live]]
                state[lo:hi], node[lo:hi] = st, nd
            return out[state, sym[node]].tobytes()

        return SequenceSource(source_id, alphabet, gen)


@dataclass(frozen=True)
class StackConfig:
    """An internal configuration: control state plus stack word (top at
    the right; the empty tuple is the bare bottom marker)."""

    state: str
    stack: tuple[str, ...]

    @property
    def height(self) -> int:
        return len(self.stack)

    @property
    def top(self) -> str:
        return self.stack[-1] if self.stack else BOTTOM


def _closure(m: Dpao, state: str, stack: tuple[str, ...]
             ) -> tuple[str, tuple[str, ...]]:
    # each epsilon move pops one symbol, so this terminates
    while stack:
        t = m.transitions.get((state, stack[-1], None))
        if t is None:
            break
        state = t[0]
        stack = stack[:-1]
    return state, stack


def initial_config(m: Dpao) -> StackConfig:
    state, stack = _closure(m, m.initial, ())
    return StackConfig(state, stack)


def step_input(m: Dpao, config: StackConfig, digit: int) -> StackConfig:
    """Consume one digit, then exhaust epsilon moves."""
    top = config.stack[-1] if config.stack else BOTTOM
    try:
        to, push = m.transitions[(config.state, top, digit)]
    except KeyError:
        raise _hole_error(config.state, top, digit) from None
    stack = (config.stack[:-1] + push) if config.stack else push
    state, stack = _closure(m, to, stack)
    return StackConfig(state, stack)


def _hole_error(state: str, top: str, digit: int) -> ValidationError:
    report = ValidationReport()
    report.error(
        "incompleteness",
        f"reached ({state!r}, {top!r}) with digit {digit} but no transition "
        "is defined",
    )
    return ValidationError(report)


def run_word(m: Dpao, digits) -> StackConfig:
    config = initial_config(m)
    for d in digits:
        config = step_input(m, config, d)
    return config


def config_of(m: Dpao, n: int) -> StackConfig:
    """Configuration after reading the proper base-k expansion of n;
    n = 0 reads the empty input."""
    if n < 0:
        raise ValueError("input integer must be nonnegative")
    return run_word(m, encode_base_k(n, m.k).indices)


def output_of_config(m: Dpao, config: StackConfig) -> str:
    return m.output[(config.state, config.top)]


def output_at(m: Dpao, n: int) -> str:
    return output_of_config(m, config_of(m, n))


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
    m.validate().require()
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


def find_equivalent_pair(m: Dpao, n_max: int = 10_000, height_cap: int = 64
                         ) -> tuple[int, int, str] | None:
    """Scan n = 1, 2, ... for two inputs with equivalent configurations.

    Two detectors run side by side. "exact": identical configurations of
    height at most height_cap, found by pigeonhole. "protected": same
    (state, top symbol) with a non-empty stack below the top and an empty
    pop set for that pair, so everything below the top is permanently
    sealed and the configurations behave identically. The first hit in
    scan order minimizes n', then n; returns None when the budget runs out
    (which proves nothing).
    """
    m.validate().require()
    pops = pop_table(m)
    exact_seen: dict[StackConfig, int] = {}
    protected_seen: dict[tuple[str, str], int] = {}
    configs = [initial_config(m)] * (n_max + 1)
    for n in range(1, n_max + 1):
        c = step_input(m, configs[n // m.k], n % m.k)
        configs[n] = c
        candidates = []
        if c.height <= height_cap and c in exact_seen:
            candidates.append((exact_seen[c], "exact"))
        sig = (c.state, c.top)
        if (
            c.height >= 2
            and not pops[sig]
            and sig in protected_seen
        ):
            candidates.append((protected_seen[sig], "protected"))
        if candidates:
            first_n, method = min(candidates, key=lambda t: (t[0], t[1]))
            return (first_n, n, method)
        if c.height <= height_cap and c not in exact_seen:
            exact_seen[c] = n
        if c.height >= 2 and not pops[sig] and sig not in protected_seen:
            protected_seen[sig] = n
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
    """
    m.validate().require()
    start = (config_of(m, n), config_of(m, n_prime))
    seen = {start}
    frontier: list[tuple[StackConfig, StackConfig, tuple[int, ...]]] = [
        (start[0], start[1], ())
    ]
    while frontier:
        next_frontier = []
        for c1, c2, word in frontier:
            if output_of_config(m, c1) != output_of_config(m, c2):
                return DistinguishResult(True, word, depth)
            if len(word) == depth:
                continue
            for d in range(m.k):
                pair = (step_input(m, c1, d), step_input(m, c2, d))
                if pair not in seen:
                    seen.add(pair)
                    next_frontier.append((pair[0], pair[1], word + (d,)))
        frontier = next_frontier
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
