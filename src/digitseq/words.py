"""Finite and infinite word primitives.

Alphabets, prefixes of infinite sequences, base-k numeration, repetition
witnesses and the search for them, factor complexity, and right-special
factor counting. Both factor counts read one integer index of a prefix:
its windows sorted by prefix doubling on integer ranks, with their start
positions and the common-prefix length of each adjacent pair. The prefix
keeps the widest index built for it, so one sort serves every block
length of both profiles. The repetition search scans back from the
target length for many periods at once, in numpy blocks of bounded size.

Positions in every public contract are 1-based (the mathematics reads
a_1 a_2 a_3 ...); storage is 0-based. Ratios and exponents are exact
`fractions.Fraction` values so that witnesses are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError

__all__ = [
    "Alphabet",
    "SequencePrefix",
    "SequenceSource",
    "RepetitionWitness",
    "digit_alphabet",
    "encode_base_k",
    "verify_repetition",
    "best_repetition_at",
    "dio_profile",
    "factor_complexity_profile",
    "right_special_count",
]


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
    is kept with the data, which never changes.
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


def _levels(k: int, count: int):
    """Blocks [lo, hi) of n in [1, count): [1, k), then [k^l, k^(l+1)).
    Each is `cut` from the children n = p * k + d, d = 0..k-1, of the
    `parents` slice of p, laid end to end."""
    lo = 1
    while lo < count:
        hi, start = min(count, lo * k), lo // k
        yield lo, hi, slice(start, -(-hi // k)), slice(lo % k, hi - start * k)
        lo = hi


def _table_fill(table: np.ndarray, initial: int, count: int) -> np.ndarray:
    """States after n in [0, count), in the smallest type that holds them:
    each block is the successor-table rows of its parents, end to end."""
    states = np.full(count, initial, np.min_scalar_type(len(table) - 1))
    table = table.astype(states.dtype)
    for lo, hi, parents, cut in _levels(table.shape[1], count):
        states[lo:hi] = table.take(states[parents], axis=0).ravel()[cut]
    return states


def _symbols(out: np.ndarray, index: np.ndarray) -> bytes:
    """The uint8 outputs out[index] as bytes. A one-byte index maps
    through `bytes.translate`, without the intp copy of an index that
    numpy's gathers make."""
    if index.dtype == np.uint8:
        return index.tobytes().translate(out[:256].tobytes().ljust(256, b"\0"))
    return out.take(index).tobytes()


def verify_repetition(prefix: SequencePrefix, witness: RepetitionWitness) -> bool:
    """Check prefix[i] = prefix[i-v] for all u+v < i <= u+ext (1-based).

    Raises InsufficientDataError when the witness reaches past the prefix;
    that is not the same answer as False.
    """
    end = witness.u + witness.ext
    if end > len(prefix):
        raise InsufficientDataError(
            f"witness needs {end} positions, prefix holds {len(prefix)}"
        )
    data = prefix.data
    lo = witness.u + witness.v  # last position already inside U V
    return data[lo:end] == data[lo - witness.v:end - witness.v]


# the backward scan compares at most _BLOCK_CELLS (period, position)
# cells in one block; each chunk of periods starts with _FIRST_BLOCK
# positions
_BLOCK_CELLS = 1 << 20
_FIRST_BLOCK = 16


def best_repetition_at(prefix: SequencePrefix, ell: int,
                       v_max: int | None = None) -> RepetitionWitness | None:
    """Best repetition witness whose extension ends exactly at position ell.

    Maximizes the ratio (u+ext)/(u+v) = ell/(u+v) over all u >= 0, v >= 1
    with u+ext = ell, exhaustive over v up to the cap. The default cap is
    floor(ell/2): longer periods only witness ratios below 2 and desk-scale
    profiles do not need them; pass v_max=ell for the fully uncapped
    search. Returns None when no witness with ratio > 1 exists within the
    cap. Ties: smallest v, then smallest u.

    For a period v the best u is last_bad(v) - v, where last_bad(v) is the
    last 1-based position i with s_i != s_(i-v), so the cost u + v is
    max(v, last_bad(v)). The scan walks back from ell for many periods at
    once: blocks of positions that double in length, each compared with
    the block v earlier. A period is finished at its last mismatch, or
    when the block reaches position v. Periods at or above the cheapest
    cost found so far cannot win and are dropped, and periods enter in
    ascending chunks that double in size, so a periodic word stops after
    its period. A block holds at most _BLOCK_CELLS comparisons.
    """
    if ell < 1:
        raise ValueError("target prefix length must be positive")
    if ell > len(prefix):
        raise InsufficientDataError(
            f"target length {ell} exceeds prefix of length {len(prefix)}"
        )
    s = np.frombuffer(prefix.data, dtype=np.uint8, count=ell)
    cap = ell // 2 if v_max is None else min(v_max, ell)
    best_cost, best_v = ell, 0  # a witness needs cost u + v < ell
    first, size = 1, 1
    while first <= min(cap, best_cost - 1):
        vs = np.arange(first, min(cap, best_cost - 1, first + size - 1) + 1)
        first = int(vs[-1]) + 1
        size = min(2 * size, _BLOCK_CELLS // _FIRST_BLOCK)
        hi, width = ell, _FIRST_BLOCK
        while vs.size:
            # 0-based positions lo..hi-1, none below any remaining period
            lo = max(hi - width, int(vs[-1]))
            earlier = np.lib.stride_tricks.sliding_window_view(
                s[:hi], hi - lo)[lo - vs]
            bad = earlier != s[lo:hi]
            hit = bad.any(axis=1)
            cost = np.where(hit, hi - bad[:, ::-1].argmax(axis=1), vs)
            done = hit | (vs == lo)
            if done.any():
                c = int(cost[done].min())
                v = int(vs[done & (cost == c)][0])
                # (ell, v) never beats the start (ell, 0): ratio 1 is none
                if (c, v) < (best_cost, best_v):
                    best_cost, best_v = c, v
            vs = vs[~done & (vs < best_cost)]
            hi = lo
            if vs.size:
                width = min(2 * width, max(1, _BLOCK_CELLS // vs.size))
    if best_v == 0:
        return None
    return RepetitionWitness(u=best_cost - best_v, v=best_v,
                             ext=ell - best_cost + best_v)


def dio_profile(source: SequenceSource, lengths: Sequence[int],
                v_max: int | None = None) -> list[tuple[int, Fraction]]:
    """Best repetition ratio at each target length, as exact rationals.

    Every recorded ratio is achieved by a checkable witness, so the largest
    one is a lower bound for the Diophantine exponent verified to that
    depth. A finite profile never determines the exponent itself.
    """
    if list(lengths) != sorted(set(lengths)):
        raise ValueError("lengths must be strictly increasing")
    if not lengths:
        return []
    prefix = source.prefix(max(lengths))
    out = []
    for ell in lengths:
        w = best_repetition_at(prefix, ell, v_max=v_max)
        out.append((ell, w.ratio if w is not None else Fraction(1)))
    return out


@dataclass(frozen=True, eq=False)
class _WindowIndex:
    """The windows of a prefix sorted at a width, one per start.

    Window i is data[i:i + width], padded past the end with a sentinel
    that sorts above every letter. `order` holds the starts in sorted
    order and `lcp` the common-prefix length of each adjacent pair, at
    most `width`: for every n <= width, two windows share their first n
    symbols exactly when every length between them is at least n.
    """

    width: int
    order: np.ndarray
    lcp: np.ndarray


def _sort_by(keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """`order` sorted stably by keys[order], keys below 2^32: each key
    goes into the high half of a uint64 and its place in `order` into
    the low half, and one value sort of those does the rest."""
    tagged = keys[order].astype(np.uint64, copy=False)
    tagged <<= np.uint64(32)
    tagged |= np.arange(len(order), dtype=np.uint64)
    tagged.sort()
    tagged &= np.uint64(0xFFFFFFFF)
    return order[tagged]


def _ranks(order: np.ndarray, *sorted_keys: np.ndarray) -> np.ndarray:
    """Dense ranks of the windows that `order` sorts, read from their keys
    in that order, plus one more entry that ranks above them all."""
    step = np.zeros(len(order) - 1, dtype=bool)
    for keys in sorted_keys:
        step |= keys[1:] != keys[:-1]
    ranks = np.empty(len(order) + 1, dtype=np.int32)
    ranks[order[0]] = 0
    ranks[order[1:]] = np.cumsum(step, dtype=np.int32)
    ranks[-1] = ranks[order[-1]] + 1
    return ranks


def _build_index(data: bytes, letters: int, width: int) -> _WindowIndex:
    """Sort the windows of data by prefix doubling on integer ranks
    (Manber & Myers 1993), then find adjacent common prefixes by binary
    lifting over the ranks of every round but the last.

    The first round packs the first `chunk` symbols of each window into
    one uint64 of `bits` bits per symbol, the sentinel being the value
    `letters`, and ranks those keys. Each later round doubles the width
    h: a window of width 2h at i is the pair of width-h windows at i and
    i + h, so the last order, read shifted by h, sorts by the second
    half, and one stable sort by the first half's rank finishes it. The
    rounds stop at `width` or once every window is distinct, and the
    last round's order is the index. A pair's common prefix then takes
    the widest kept width whose ranks still agree, at each width from
    the top, and ends inside one packed chunk: the bit length of the XOR
    of the two keys there. Memory is O(N log(width / chunk)) integers,
    and nothing is a float.
    """
    total = len(data)
    # starts plus a width h < total stay below 2 * total, and int32
    if total > 2 ** 30:
        raise ValueError("the window index holds at most 2^30 windows")
    bits = letters.bit_length()
    chunk = 64 // bits
    padded = np.full(total + chunk, letters, dtype=np.uint16)
    padded[:total] = np.frombuffer(data, dtype=np.uint8)
    # packed[i] holds the symbols i..i+chunk-1, the first in the top bits
    packed = np.zeros(total + 1, dtype=np.uint64)
    for j in range(chunk):
        packed <<= np.uint64(bits)
        packed |= padded[j:j + total + 1]
    del padded
    order = _sort_by(packed & np.uint64(0xFFFFFFFF),
                     np.arange(total, dtype=np.int32))
    order = _sort_by(packed >> np.uint64(32), order)
    ranks = _ranks(order, packed[order])
    levels = []  # levels[j] ranks the windows of width chunk * 2^j
    h = chunk
    while h < width and ranks[-1] < total:
        # every window of width h >= total is distinct, so h < total here;
        # the windows past total - h end in the sentinel, ranked last
        levels.append(ranks)
        order = _sort_by(ranks, np.concatenate(
            (order[order >= h] - h,
             np.arange(total - h, total, dtype=np.int32))))
        ranks = _ranks(order, ranks[order],
                       ranks[np.minimum(order + h, total)])
        h *= 2
    del ranks
    # the last round's ranks need no lifting step: the kept levels and
    # the packed chunk reach h symbols, and h is at least `width` unless
    # no two windows agree on h symbols
    left_start, right_start = order[:-1], order[1:]
    common = np.zeros(total - 1, dtype=np.int32)
    for j in reversed(range(len(levels))):
        # two windows agreeing on `common` symbols end by total, so the
        # sentinel entry at index total is the furthest read
        r = levels[j]
        common[r[left_start + common] == r[right_start + common]] += \
            chunk << j
    del levels
    diff = packed[left_start + common] ^ packed[right_start + common]
    # the bit length of diff, by halving: each shift that leaves a set
    # bit is part of it, and the 0 or 1 left over is the last bit
    length = np.zeros(total - 1, dtype=np.int32)
    for shift in (32, 16, 8, 4, 2, 1):
        high = diff >= np.uint64(1 << shift)
        np.add(length, shift, out=length, where=high)
        np.right_shift(diff, np.uint64(shift), out=diff, where=high)
    length += diff.astype(np.int32)
    common += (chunk * bits - length) // bits
    return _WindowIndex(width, order, np.minimum(common, width, out=common))


def _window_index(prefix: SequencePrefix, width: int) -> _WindowIndex:
    """The prefix's window index, at least `width` wide; built at most
    once per width it grows to, and kept on the prefix."""
    index = prefix._windows
    if index is None or index.width < width:
        index = _build_index(prefix.data, prefix.alphabet.size, width)
        object.__setattr__(prefix, "_windows", index)
    return index


def factor_complexity_profile(prefix: SequencePrefix, n_max: int) -> list[int]:
    """Number of distinct length-n blocks in the prefix, for n = 1..n_max.

    The length-n blocks are the n-prefixes of the sorted windows, so
    p(n) is the window count less the adjacent pairs sharing n symbols.
    The n - 1 windows that start in the last n - 1 positions hold the
    sentinel within their first n symbols and are pairwise distinct;
    they are not blocks.
    """
    if n_max < 1:
        raise ValueError("block length must be positive")
    total = len(prefix)
    if n_max > total:
        raise InsufficientDataError(
            f"block length {n_max} exceeds prefix of length {total}"
        )
    lcp = _window_index(prefix, n_max).lcp
    # shared[n] = number of adjacent pairs with lcp >= n
    shared = np.cumsum(np.bincount(lcp, minlength=n_max + 1)[::-1])[::-1]
    n = np.arange(1, n_max + 1)
    return (total - shared[1:n_max + 1] - (n - 1)).tolist()


def right_special_count(prefix: SequencePrefix, n_max: int) -> list[int]:
    """Number of distinct length-n blocks followed by >= 2 distinct
    symbols, for n = 1..n_max.

    The windows sharing a length-n block w are one run of the sorted
    windows, joined by pairs with lcp >= n; their (n+1)-th symbols
    ascend, so w is right-special exactly when some pair of the run has
    lcp n and two letters there (Abouelhoda, Kurtz & Ohlebusch 2004).
    The sentinel sorts last, so such a pair's right-hand window is the
    one with the larger follower: it must start before total - n. Pairs
    with lcp above n_max take no part, so the loop over n runs on the
    rest only, which is few pairs on a low-complexity word.
    """
    if n_max < 1:
        raise ValueError("block length must be positive")
    total = len(prefix)
    if n_max + 1 > total:
        raise InsufficientDataError(
            f"need a prefix of length at least {n_max + 1}, have {total}"
        )
    index = _window_index(prefix, n_max + 1)
    near = np.flatnonzero(index.lcp <= n_max)
    lcp, right = index.lcp[near], index.order[near + 1]
    counts = [0] * n_max
    for n in (np.flatnonzero(np.bincount(lcp)[1:]) + 1).tolist():
        # pairs with lcp < n break runs; runs are counted by their breaks
        seen = lcp <= n
        shared = lcp[seen]
        runs = np.cumsum(shared < n)[(shared == n)
                                     & (right[seen] < total - n)]
        counts[n - 1] = (int(np.count_nonzero(np.diff(runs))) + 1
                         if runs.size else 0)
    return counts
