"""digitseq: deterministic digit-sequence generators and repetition certificates.

Three generator models produce infinite symbol sequences: finite automata
with output reading base-k digits, morphic fixed points under a coding,
and complete deterministic pushdown transducers. On top of them sit exact
word combinatorics (repetition search, factor complexity) and a
certificate layer that turns structural coincidences (state pigeonhole,
morphic self-similarity, stack-configuration equivalence) into verified
lower bounds on the Diophantine exponent of the output.
"""

from . import catalog, certify, dfao, machinefile, morphic, numbers, pda, tag, words
from .errors import (BudgetExceededError, DigitSeqError, EnumerationCapError,
                     InsufficientDataError, PairRefutedError, ValidationError)

__version__ = "0.1.0"

__all__ = [
    "catalog",
    "certify",
    "dfao",
    "machinefile",
    "morphic",
    "numbers",
    "pda",
    "tag",
    "words",
    "DigitSeqError",
    "ValidationError",
    "InsufficientDataError",
    "BudgetExceededError",
    "EnumerationCapError",
    "PairRefutedError",
    "__version__",
]
