"""Exception types shared across the package.

Plain argument mistakes (bad base, digit out of range, empty word) raise
ValueError so callers can treat them like any other Python domain error.
The classes below mark conditions a caller may want to handle separately:
running out of data is not the same as a failed check, and an exhausted
search budget is not a refutation.
"""


class DigitSeqError(Exception):
    """Base class for package-specific errors."""


class ValidationError(DigitSeqError):
    """A machine or spec failed validation; carries the report."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(f"{kind}: {msg}" for kind, msg in report.errors)
        super().__init__(lines or "validation failed")


class InsufficientDataError(DigitSeqError):
    """An operation needs more of the sequence than is available.

    Distinct from a negative answer: a repetition check that runs past the
    known prefix is unanswerable, not false.
    """


class BudgetExceededError(DigitSeqError):
    """A bounded search ran out of budget without an answer."""


class EnumerationCapError(DigitSeqError):
    """A machine search tried more choices than its hard cap."""

    def __init__(self, tried, cap):
        self.tried = tried
        self.cap = cap
        super().__init__(
            f"machine search tried {tried} transition choices, cap is {cap}"
        )


class PairRefutedError(DigitSeqError):
    """An output-equality check for a candidate pair found a mismatch.

    Refutes only this pair; says nothing about the machine.
    """

    def __init__(self, n, n_prime, level, offset):
        self.n = n
        self.n_prime = n_prime
        self.level = level
        self.offset = offset
        super().__init__(
            f"pair ({n}, {n_prime}) refuted at level {level}, offset {offset}"
        )
