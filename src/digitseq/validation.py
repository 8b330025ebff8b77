"""Validation reports: accumulated errors and warnings with short kind
tags, and the one reachability search the machine models share."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import ValidationError

__all__ = ["ValidationReport"]


@dataclass
class ValidationReport:
    errors: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)

    def error(self, kind: str, message: str) -> None:
        self.errors.append((kind, message))

    def warn(self, kind: str, message: str) -> None:
        self.warnings.append((kind, message))

    @property
    def ok(self) -> bool:
        return not self.errors

    def require(self) -> None:
        """Raise ValidationError carrying this report if it has errors."""
        if self.errors:
            raise ValidationError(self)

    def error_kinds(self) -> set[str]:
        return {kind for kind, _ in self.errors}

    def warning_kinds(self) -> set[str]:
        return {kind for kind, _ in self.warnings}

    def summary(self) -> str:
        lines = [f"error[{k}]: {m}" for k, m in self.errors]
        lines += [f"warning[{k}]: {m}" for k, m in self.warnings]
        return "\n".join(lines) if lines else "ok"


def _reach(rules: Mapping[str, Iterable[str]], start: str,
           known: Mapping[str, set[str]]) -> set[str]:
    """Nodes reached from start along `rules`, start included: the letters
    of sigma^n(start) for some n >= 0, or the states an automaton reaches.
    A node whose reach set is `known` is not expanded: that whole set,
    closed under the rules, joins."""
    reached = {start}
    frontier = [start]
    while frontier:
        a = frontier.pop()
        if a in known:
            reached |= known[a]
            continue
        for b in rules[a]:
            if b not in reached:
                reached.add(b)
                frontier.append(b)
    return reached
