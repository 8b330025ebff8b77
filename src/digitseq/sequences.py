"""The word types every layer shares, on the standard library alone:
alphabets, prefixes and sources of infinite sequences, repetition
witnesses and base-k numeration. `words` re-exports each as the same
object, beside the scans that need numpy.

Positions in every public contract are 1-based (the mathematics reads
a_1 a_2 a_3 ...); storage is 0-based. Ratios and exponents are exact
`fractions.Fraction` values so that witnesses are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .errors import InsufficientDataError

if TYPE_CHECKING:
    from .words import _WindowIndex

__all__ = ["Alphabet", "SequencePrefix", "SequenceSource", "RepetitionWitness",
           "digit_alphabet", "encode_base_k"]


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite set of symbol tokens.

    The ordering is fixed at construction; incidence matrices and stored
    prefixes depend on it.
    """

    symbols: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if any(not s for s in self.symbols):
            raise ValueError("alphabet symbols must be non-empty")
        if len(self.symbols) > 256:
            raise ValueError("alphabets larger than 256 symbols are unsupported")
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.symbols)}
        )

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    @property
    def single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)


def digit_alphabet(k: int) -> Alphabet:
    """The alphabet {0, 1, ..., k-1} of base-k digits."""
    if k < 2:
        raise ValueError(f"base must be at least 2, got {k}")
    return Alphabet(tuple(str(d) for d in range(k)))


@dataclass(frozen=True)
class SequencePrefix:
    """The first N symbols of an infinite word, positions 1..N.

    Data is stored as one byte per symbol index; re-reading a longer prefix
    of the same source must reproduce this one exactly (sources are
    deterministic). The widest window index built for the factor counts
    is kept with the data, which never changes; it holds one copy of the
    windows of each repeated block (see `words._window_index`).
    """

    source_id: str
    alphabet: Alphabet
    data: bytes
    _windows: _WindowIndex | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.data)

    def text(self, sep: str = "") -> str:
        """The symbols joined by sep: one `str.translate` of the bytes,
        each symbol index mapped to its symbol followed by sep."""
        table = {i: s + sep for i, s in enumerate(self.alphabet.symbols)}
        return self.data.decode("latin-1").translate(table).removesuffix(sep)


class SequenceSource:
    """A deterministic, restartable producer of an infinite symbol sequence.

    `generate(n)` must return the first n symbol indices as a bytes object
    and must be a pure function of n. `prefix` reads it through a cache
    that is only extended, so every read sees a consistent prefix; a
    stream composed from this one calls `generate` and keeps no second
    copy here.
    """

    def __init__(self, source_id: str, alphabet: Alphabet,
                 generate: Callable[[int], bytes]):
        self.source_id = source_id
        self.alphabet = alphabet
        self.generate = generate
        self._cache = b""

    def prefix(self, n: int) -> SequencePrefix:
        if n < 0:
            raise ValueError(f"prefix length must be nonnegative, got {n}")
        if n > len(self._cache):
            data = self.generate(n)
            if len(data) < n:
                raise InsufficientDataError(
                    f"source {self.source_id!r} produced {len(data)} of "
                    f"{n} requested symbols"
                )
            if not data.startswith(self._cache):
                raise AssertionError(
                    f"source {self.source_id!r} is not deterministic"
                )
            self._cache = data
        return SequencePrefix(self.source_id, self.alphabet, self._cache[:n])


@dataclass(frozen=True)
class RepetitionWitness:
    """A factorization of a prefix as U V^alpha.

    u = |U| >= 0, v = |V| >= 1, and ext >= v is the total extension: the
    claim is that positions u+1 .. u+ext satisfy the period-v condition
    prefix[i] = prefix[i-v] for all u+v < i <= u+ext. The witnessed prefix
    has length u+ext and the exponent alpha = ext/v is at least 1.
    """

    u: int
    v: int
    ext: int

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("u must be nonnegative")
        if self.v < 1:
            raise ValueError("v must be positive")
        if self.ext < self.v:
            raise ValueError("ext must be at least v (V occurs fully)")

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.u + self.ext, self.u + self.v)

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.ext, self.v)


def encode_base_k(n: int, k: int) -> tuple[int, ...]:
    """Base-k digits of n, most significant first; 0 encodes to no digits."""
    if k < 2:
        raise ValueError(f"base must be at least 2, got {k}")
    if n < 0:
        raise ValueError("cannot encode a negative integer")
    digits = []
    while n > 0:
        n, r = divmod(n, k)
        digits.append(r)
    digits.reverse()
    return tuple(digits)
