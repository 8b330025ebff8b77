"""digitseq: deterministic digit-sequence generators and repetition certificates.

Three generator models produce infinite symbol sequences: finite automata
with output reading base-k digits, morphic fixed points under a coding,
and complete deterministic pushdown transducers. On top of them sit exact
word combinatorics (repetition search, factor complexity) and a
certificate layer that turns structural coincidences (state pigeonhole,
morphic self-similarity, stack-configuration equivalence) into verified
lower bounds on the Diophantine exponent of the output.

Submodules load on first use (PEP 562), so `import digitseq` costs the
exception types alone, and only the engines (`words`, `pda`, `numbers`,
`tag`, `certify` and `cli`) load numpy. Every submodule is served as
an attribute: `digitseq.words` and `from digitseq import catalog` work
as for any package attribute.
"""

from .errors import (BudgetExceededError, DigitSeqError, EnumerationCapError,
                     InsufficientDataError, PairRefutedError, ValidationError)

__version__ = "0.1.0"

# loaded on first use, by `__getattr__`
_SUBMODULES = ("catalog", "certify", "cli", "console", "dfao", "dpao",
               "machinefile", "morphic", "numbers", "pda", "sequences", "tag",
               "validation", "words")
__all__ = [*_SUBMODULES, "DigitSeqError", "ValidationError",
           "InsufficientDataError", "BudgetExceededError",
           "EnumerationCapError", "PairRefutedError", "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # through __import__, which `python -X importtime` reports
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
