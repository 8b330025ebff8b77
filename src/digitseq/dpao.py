"""The pushdown model: complete deterministic pushdown transducers on
base-k inputs, their validation, and the recast of an automaton as one.

This module loads no numpy. The step core that runs a machine, the pair
search and the distinguishing search live in `pda`, which re-exports
every name here as the same object; `pda` also fixes the conventions
(stack top at the right, decreasing epsilon moves, outputs at the top
symbol) that `Dpao.validate` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .dfao import Dfao
from .sequences import Alphabet, SequenceSource
from .validation import ValidationReport, _check_alphabet

__all__ = ["BOTTOM", "Dpao", "from_dfao"]

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
        _check_alphabet(report, set(self.output.values()), "output symbols")
        return report

    def source(self, source_id: str) -> SequenceSource:
        """The output sequence, n = 0, 1, 2, ...

        The source comes from `pda`, which loads numpy here. The machine
        compiles to a step core on the first read; each read fills the
        configuration ids one base-k level at a time and reads the output
        of each id.
        """
        from .pda import _source
        return _source(self, source_id)


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
