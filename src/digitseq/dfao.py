"""Deterministic finite automata with output, used as base-k transducers.

A machine reads the base-k digits of n most-significant first and emits
the output symbol of the state it lands in. Output indexing starts at
n = 0: the empty input (the expansion of 0) yields the initial state's
output, and sequence position p (1-based) corresponds to n = p - 1.

Sources generate level by level: the expansion of n is the expansion of
n // k followed by n % k, so the states of a whole block [k^l, k^(l+1))
are the successor-table rows of the block below, gathered in order and
laid end to end. That is the one way a machine runs here; searches over
inputs recast it as a stack-free pushdown transducer (`pda.from_dfao`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .validation import ValidationReport, _reach
from .words import Alphabet, SequenceSource, _table_fill

__all__ = ["Dfao"]


@dataclass(frozen=True)
class Dfao:
    """A complete deterministic finite automaton with output.

    delta maps each state to a tuple of k successor states, indexed by the
    input digit; output maps each state to its output token. Construction
    validates: an invalid machine raises ValidationError.
    """

    k: int
    states: tuple[str, ...]
    initial: str
    delta: Mapping[str, tuple[str, ...]]
    output: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "delta", dict(self.delta))
        object.__setattr__(self, "output", dict(self.output))
        self.validate().require()

    def output_alphabet(self) -> Alphabet:
        return Alphabet(tuple(sorted(set(self.output.values()))))

    def state_count(self) -> int:
        return len(self.states)

    def validate(self) -> ValidationReport:
        """Check totality of the transition table and membership of all names.

        Unreachable states are warnings, not errors.
        """
        report = ValidationReport()
        if self.k < 2:
            report.error("invalid-base", f"input base must be >= 2, got {self.k}")
        if len(set(self.states)) != len(self.states):
            report.error("duplicate-state", "state names must be distinct")
        known = set(self.states)
        if self.initial not in known:
            report.error("unknown-state",
                         f"initial state {self.initial!r} not declared")
        for q in self.states:
            row = self.delta.get(q)
            if row is None:
                report.error("missing-transition", f"no transitions for state {q!r}")
                continue
            if len(row) != max(self.k, 0):
                report.error(
                    "missing-transition",
                    f"state {q!r} defines {len(row)} of {self.k} digit transitions",
                )
            for d, tgt in enumerate(row):
                if tgt not in known:
                    report.error(
                        "unknown-state",
                        f"delta({q!r}, {d}) targets unknown {tgt!r}",
                    )
        for q in self.delta:
            if q not in known:
                report.error("unknown-state",
                             f"transition row for unknown state {q!r}")
        for q in self.states:
            if q not in self.output:
                report.error("missing-output", f"state {q!r} has no output symbol")
        for q in self.output:
            if q not in known:
                report.error("unknown-state", f"output for unknown state {q!r}")
        if not report.errors:
            reached = _reach(self.delta, self.initial, {})
            for q in self.states:
                if q not in reached:
                    report.warn("unreachable-state", f"state {q!r} is unreachable")
        return report

    def source(self, source_id: str) -> SequenceSource:
        """The output sequence, n = 0, 1, 2, ...

        The machine compiles once to a states x k table of state indices,
        and the table of states fills one base-k level at a time.
        """
        alphabet = self.output_alphabet()
        index = {q: i for i, q in enumerate(self.states)}
        delta = np.array([[index[t] for t in self.delta[q]]
                          for q in self.states])
        out = np.array([alphabet.index(self.output[q]) for q in self.states],
                       dtype=np.uint8)
        initial = index[self.initial]
        return SequenceSource(source_id, alphabet, lambda n: out.take(
            _table_fill(delta, initial, n)).tobytes())
