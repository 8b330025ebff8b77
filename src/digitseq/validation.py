"""Validation reports: accumulated errors and warnings with short kind tags."""

from __future__ import annotations

from dataclasses import dataclass, field

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
