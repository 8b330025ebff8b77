"""Finite and infinite word primitives.

Alphabets, prefixes of infinite sequences, base-k numeration and
repetition witnesses, re-exported from `sequences`, which loads no
numpy; and on numpy, the search for repetition witnesses, factor
complexity, and right-special factor counting. Both factor counts read
one integer index of a prefix: its windows sorted by prefix doubling on
integer ranks, several rank digits to one tagged 64-bit sort a round,
with their start positions and the common-prefix length of each
adjacent pair, which is lifted only where the last round's groups
change. The index holds one copy of the windows of each repeated
aligned block of the prefix, when those blocks are under half of it,
which is exact because equal blocks, extended by the index width, hold
equal windows; on an automatic or morphic word that is a few percent of
the prefix. The prefix keeps the widest index built for it, so one sort
serves every block length of both profiles. The repetition search is
one scan for every target length of a profile: a screen compares the
last packed 64-bit window of every (length, period) row in one numpy
pass a block, and only the rows whose last windows agree walk back,
many symbols at a time, in numpy blocks of bounded size.

Positions in every public contract are 1-based (the mathematics reads
a_1 a_2 a_3 ...); storage is 0-based. Ratios and exponents are exact
`fractions.Fraction` values so that witnesses are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError
from .sequences import (Alphabet, RepetitionWitness, SequencePrefix,
                        SequenceSource, digit_alphabet, encode_base_k)

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


def _levels(k: int, count: int):
    """Blocks [lo, hi) of n in [1, count): [1, k), then [k^l, k^(l+1)),
    the last cut at count, so that every parent n // k comes before its
    block. Each is `cut` from the children n = p * k + d, d = 0..k-1, of
    the `parents` slice of p, laid end to end."""
    lo = 1
    while lo < count:
        hi, start = min(count, lo * k), lo // k
        yield lo, hi, slice(start, -(-hi // k)), slice(lo % k, hi - start * k)
        lo = hi


def _table_fill(table, initial: int, count: int) -> np.ndarray:
    """States after n in [0, count), in the smallest type that holds them:
    each level is the successor-table rows of its parents, end to end.
    The table is a state's successors by digit, an array or nested lists.
    It fills the block roots of `_power_fill`, at most count / k states,
    and the |Q| + 2 states of `certify._state_pair`."""
    states = np.full(count, initial, np.min_scalar_type(len(table) - 1))
    table = np.asarray(table, states.dtype)
    for lo, hi, parents, cut in _levels(table.shape[1], count):
        states[lo:hi] = table.take(states[parents], axis=0).ravel()[cut]
    return states


# entries of a power table: its 8-byte states stay within 512 KiB
_POWER_CELLS = 1 << 16


def _power_depth(size: int, k: int, count: int) -> int:
    """The m of the power table `_power_fill` takes for `count` symbols of
    a machine of `size` states in base k: at least 1, since the table is
    its own first power, and then the largest with size * k^m <=
    _POWER_CELLS and size * k^(2m) <= 16 * count, where the table costs
    about what the fill of the roots does. In process on a 2-vCPU Xeon
    VM, this m was the best or within 16% of the best on eight machines
    of 2-300 states in bases 2, 3, 10 and 16, from 2^11 to 2^21 symbols."""
    m = 1
    while (size * k ** (m + 1) <= _POWER_CELLS
           and size * k ** (2 * m + 2) <= 16 * count):
        m += 1
    return m


def _power_fill(table, out: np.ndarray, initial: int, count: int) -> bytes:
    """The uint8 outputs of the states after n in [0, count), as bytes.

    A k-automatic word is k^m-automatic: if st[q, r] is the state reached
    from q by the m digits of r, leading zeros included, the symbols of
    j * k^m .. (j+1) * k^m - 1 are T[state(j)], for T = out[st] and every
    j >= 1. So the prefix is one row gather of T by the states of its
    block roots j, a `_table_fill` k^m times shorter. Block 0 is the
    outputs of the first k^m states of that fill, since digit 0 may move
    the initial state. st is built by doubling m, composing the table
    with itself (st.take(st)), and adding one digit (table.take(st))
    where m has a one bit; at m = 1 it is the table. 2^20 symbols of
    Thue-Morse, at m = 11, took 0.22 ms against 1.5 ms filling every
    state.
    """
    table = np.asarray(table)
    size, k = table.shape
    m = _power_depth(size, k, count)
    width = k ** m
    roots = -(-count // width)
    states = _table_fill(table, initial, max(roots, width))
    power = table
    for bit in bin(m)[3:]:
        power = power.take(power, axis=0).reshape(size, -1)
        if bit == "1":
            power = table.take(power, axis=0).reshape(size, -1)
    blocks = out.take(power).take(states[:roots], axis=0)
    blocks[:1] = out.take(states[:width])
    return blocks.ravel()[:count].tobytes()


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


def _check_lengths(lengths: Sequence[int]) -> list[int]:
    """The target lengths as a list, once they are checked to be positive
    and strictly increasing."""
    lengths = list(lengths)
    if lengths != sorted(set(lengths)):
        raise ValueError("lengths must be strictly increasing")
    if lengths and lengths[0] < 1:
        raise ValueError("target prefix length must be positive")
    return lengths


# one numpy block compares at most _SCAN_CELLS pairs of packed keys, in
# the repetition scan and in the last step of the common prefixes
_SCAN_CELLS = 1 << 16


def best_repetition_at(prefix: SequencePrefix, lengths: Sequence[int],
                       v_max: int | None = None
                       ) -> list[RepetitionWitness | None]:
    """Best repetition witness whose extension ends exactly at position
    ell, for each target length ell in `lengths`, in one scan.

    Maximizes the ratio (u+ext)/(u+v) = ell/(u+v) over all u >= 0, v >= 1
    with u+ext = ell, exhaustive over v up to the cap. The default cap is
    floor(ell/2): longer periods only witness ratios below 2 and desk-scale
    profiles do not need them; pass v_max=max(lengths) for the fully
    uncapped search. The witness at ell is None when none with ratio > 1
    exists within the cap. Ties: smallest v, then smallest u. The lengths
    must be strictly increasing; none gives [].

    For a period v the best u is last_bad(v) - v, where last_bad(v) is the
    last 1-based position i with s_i != s_(i-v), so the cost u + v is
    max(v, last_bad(v)). A row is one (ell, v) pair; each length keeps its
    best as one integer, cost << 32 | v, whose minimum is the witness. The
    scan is a screen and a walk. The screen compares the last packed
    window of every row, `chunk` symbols ending at ell, with the one
    ending at ell - v (see `_pack`, here on the reversed prefix, so the
    last symbol is in the top bits), in one pass per block of at most
    _SCAN_CELLS rows: period 1 alone, then blocks that end at the periods
    _SCREEN_GROWTH^k, or sooner where the lengths left in play each take
    an even share of _SCAN_CELLS, at least one period. The highest
    differing symbol of the XOR is the row's last mismatch, so most rows
    end there. The rest walk back (`_scan_rows`), admitted in chunks of
    ascending periods that grow fourfold. Before each block, chunk and
    walk step, a length's periods at or above its cheapest cost so far
    are dropped, as they cannot win: a constant word stops after period
    1, and a periodic word soon after its period. Memory is the packed
    keys, 12 bytes a symbol of max(lengths) while they are built and 8
    after, and blocks of at most _SCAN_CELLS comparisons.
    """
    lengths = _check_lengths(lengths)
    if not lengths:
        return []
    total = lengths[-1]
    if total > len(prefix):
        raise InsufficientDataError(
            f"target length {total} exceeds prefix of length {len(prefix)}"
        )
    ells = np.array(lengths, dtype=np.int64)
    caps = ells // 2 if v_max is None else np.minimum(ells, min(v_max, total))
    letters = prefix.alphabet.size
    bits = letters.bit_length()
    chunk = 1 << ((64 // bits).bit_length() - 1)
    # keys[f] holds the chunk symbols that end at position total - f, the
    # last in the top bits; positions below 1 hold the sentinel, which
    # differs from every letter
    keys = _pack(np.frombuffer(prefix.data, np.uint8, total)[::-1], letters,
                 chunk)
    # an XOR x >= 1 is at least 2^(bits j) exactly when the keys differ in
    # their symbol j or one above it, counted from the first, so the
    # thresholds below x, searched as x - 1, count the symbols from the
    # first one to the last mismatch; x = 0 wraps to count them all
    below = np.left_shift(np.uint64(1), np.arange(
        0, chunk * bits, bits, dtype=np.uint64)) - np.uint64(1)
    # a witness needs cost u + v < ell, and (ell, 0) is the start: ratio 1
    # is none
    best = ells << 32
    # the last window of each length, and what turns a block cell's count
    # j << 32 | f + v into its cost << 32 | v: cost = ell - chunk + j
    ends = total - ells
    last = keys[ends]
    shift = ((ells - chunk) << 32) - ends
    # walk chunks start at the periods 1, 2, 6, 22, ...: 4^c periods each
    edges = [1]
    while edges[-1] <= total:
        edges.append(4 * edges[-1] - 2)
    first = 1
    while True:
        left = np.minimum(caps, (best >> 32) - 1) - (first - 1)
        live = np.flatnonzero(left > 0)
        if not live.size:
            break
        left = left[live]
        # period 1 alone first, then blocks that end at the periods
        # _SCREEN_GROWTH^k, each length taking an even share of at most
        # _SCAN_CELLS rows
        per = min((_SCREEN_GROWTH - 1) * (first - 1) or 1,
                  max(1, _SCAN_CELLS // live.size))
        counts = np.minimum(left, per)
        offsets = np.cumsum(counts) - counts
        at = np.arange(first, first + int(offsets[-1] + counts[-1]))
        at += np.repeat(ends[live] - offsets, counts)
        diff = keys.take(at)
        diff ^= np.repeat(last[live], counts)
        diff -= np.uint64(1)
        cost = np.searchsorted(below, diff, side="right")
        cost <<= 32
        cost += at
        best[live] = np.minimum(best[live], np.minimum.reduceat(
            cost, offsets) + shift[live])
        # the rows whose last windows agree walk back, in ascending periods
        hold = np.flatnonzero(diff == (1 << 64) - 1)
        rows = live[np.searchsorted(offsets, hold, side="right") - 1]
        vs = at[hold] - ends[rows]
        order = np.argsort(vs, kind="stable")
        rows, vs = rows[order], vs[order]
        cuts = np.searchsorted(vs, edges).tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            if lo < hi:
                _scan_rows(keys, below, best, rows[lo:hi], vs[lo:hi],
                           ends[rows[lo:hi]] + chunk)
        first += int(counts.max())
    out = []
    for ell, cost_v in zip(lengths, best.tolist()):
        cost, v = cost_v >> 32, cost_v & 0xFFFFFFFF
        out.append(None if v == 0 else
                   RepetitionWitness(u=cost - v, v=v, ext=ell - cost + v))
    return out


# the screening blocks after period 1 end at the periods _SCREEN_GROWTH^k,
# so a periodic word screens at most that factor past its period
_SCREEN_GROWTH = 1 << 12
# a walk step gives its rows at least _WALK_CELLS windows in all, so a
# few rows left walk far in one step
_WALK_CELLS = 1 << 9
# the fold's value for a row whose windows all agree: above every cost
_NO_COST = (1 << 63) - 1


def _scan_rows(keys: np.ndarray, below: np.ndarray, best: np.ndarray,
               rows: np.ndarray, vs: np.ndarray, starts: np.ndarray) -> None:
    """Walk each row (ell, v) back from its window at `start`, comparing
    the window at f with the one at f + v, and fold its cost into
    best[row] as cost << 32 | v.

    A step gives each row `width` windows, at f = start, start + chunk,
    ..., which hold the positions total - f - chunk + 1 to total - f. In
    the first with a difference, the last mismatch is at
    total - f - chunk + j, where j counts the thresholds below the XOR.
    That is the cost: position v, compared with the sentinel before the
    word, always differs, so the last mismatch is never below v, and the
    windows past it, clipped to the last key, which holds only the
    sentinel, are never the first to differ. A row whose period reaches
    its length's cheapest cost so far is dropped.
    """
    chunk = len(below)
    base = len(keys) - 1 - chunk
    width = 1
    alive = vs < best[rows] >> 32
    while True:
        keep = np.flatnonzero(alive)
        if not keep.size:
            return
        rows, vs, starts = rows[keep], vs[keep], starts[keep]
        width = max(1, min(_SCAN_CELLS // rows.size,
                           max(2 * width, _WALK_CELLS // rows.size)))
        block = starts[:, None] + np.arange(0, width * chunk, chunk)
        diff = keys.take(block, mode="clip")
        diff ^= keys.take(block + vs[:, None], mode="clip")
        at = diff.astype(bool).argmax(axis=1)
        at += np.arange(0, diff.size, width)
        found = diff.take(at)
        cost = np.searchsorted(below, found - np.uint64(1), side="right")
        cost += base
        cost -= block.take(at)
        np.minimum.at(best, rows, np.where(found, cost << 32 | vs, _NO_COST))
        alive = found == 0
        alive &= vs < best[rows] >> 32
        starts = block[:, -1] + chunk


def dio_profile(source: SequenceSource, lengths: Sequence[int],
                v_max: int | None = None) -> list[tuple[int, Fraction]]:
    """Best repetition ratio at each target length, as exact rationals.

    Every recorded ratio is achieved by a checkable witness, so the largest
    one is a lower bound for the Diophantine exponent verified to that
    depth. A finite profile never determines the exponent itself. The
    lengths are checked before the source generates anything.
    """
    lengths = _check_lengths(lengths)
    prefix = source.prefix(max(lengths, default=0))
    witnesses = best_repetition_at(prefix, lengths, v_max=v_max)
    return [(ell, w.ratio if w is not None else Fraction(1))
            for ell, w in zip(lengths, witnesses)]


@dataclass(frozen=True, eq=False)
class _WindowIndex:
    """The windows of a prefix sorted at a width.

    Window i is data[i:i + width], padded past the end with a sentinel
    that sorts above every letter. `order` holds the starts in sorted
    order and `lcp` the common-prefix length of each adjacent pair, at
    most `width`: for every n <= width, two windows share their first n
    symbols exactly when every length between them is at least n. The
    index of a prefix holds one start for each window of a distinct
    block and for each window of the tail, and none for a window of a
    block that repeats an earlier one at that width: every window it
    leaves out equals one it holds, so each count of distinct blocks of
    length n <= width is the same, and `_build_index` alone holds one
    start per position.
    """

    width: int
    order: np.ndarray
    lcp: np.ndarray


def _pack(data: np.ndarray, letters: int, chunk: int) -> np.ndarray:
    """packed[i] holds the symbols i..i+chunk-1 of data, a uint8 array,
    followed by the sentinel `letters`, the first in the top bits, for
    i = 0..len(data), as uint64. chunk is a power of two. Each pass doubles the symbols held into a new array of the
    narrowest type that holds them, the last into uint64, so the build
    peaks at 12 bytes a symbol."""
    bits = letters.bit_length()
    size = len(data)
    packed = np.full(size + chunk, letters, dtype=np.min_scalar_type(letters))
    packed[:size] = data
    span = 1
    while span < chunk:
        wide = (np.uint64 if 2 * span == chunk
                else np.min_scalar_type((1 << (2 * span * bits)) - 1))
        head = np.left_shift(packed[:-span], span * bits, dtype=wide)
        head |= packed[span:]
        packed = head
        span *= 2
    return packed.astype(np.uint64, copy=False)[:size + 1]


def _rank(code: np.ndarray, posbits: int | None):
    """Sort the windows by their codes, one code a window. Return the
    order, the dense ranks plus one more entry that ranks above them all,
    and which adjacent pairs of the order differ.

    With `posbits`, every code is below 2^(64 - posbits): one value sort
    of code << posbits | position leaves the order in the low bits and
    the sorted codes in the high bits, and `code` is overwritten. With
    None, an argsort orders the codes, equal codes in any order.
    """
    total = len(code)
    if posbits is None:
        order = np.argsort(code).astype(np.int32)
        code = code[order]
    else:
        code <<= np.uint64(posbits)
        code |= np.arange(total, dtype=np.uint64)
        code.sort()
        order = np.empty(total, dtype=np.int32)
        np.bitwise_and(code, np.uint64((1 << posbits) - 1), out=order,
                       casting="unsafe")
        code >>= np.uint64(posbits)
    step = code[1:] != code[:-1]
    ranks = np.empty(total + 1, dtype=np.uint32)
    ranks[order[0]] = 0
    ranks[order[1:]] = np.cumsum(step, dtype=np.uint32)
    ranks[-1] = ranks[order[-1]] + 1
    return order, ranks, step


def _digits(ranks: np.ndarray, h: int, m: int) -> np.ndarray:
    """The code of each window of width m h: the ranks of its m parts of
    width h as base-d digits, the first part most significant, where d is
    the top rank plus 2. A part that starts past the end takes the last
    entry of `ranks`, which ranks above them all."""
    total = len(ranks) - 1
    d = np.uint64(int(ranks[-1]) + 1)
    code = ranks[:total].astype(np.uint64)
    for k in range(1, m):
        cut = max(total - k * h, 0)
        code *= d
        code[:cut] += ranks[k * h:total]
        code[cut:] += ranks[-1]
    return code


def _build_index(data: bytes, letters: int, width: int) -> _WindowIndex:
    """Sort the windows of data by prefix doubling on integer ranks
    (Manber & Myers 1993), as many rank digits a round as one 64-bit sort
    holds, then find the common prefix of each adjacent pair, lifting
    only the pairs that the last round tells apart.

    The first round packs the first `chunk` symbols of each window into
    one key of `bits` bits a symbol, the sentinel being the value
    `letters`; chunk is the largest power of two whose key leaves room
    for a position tag. A later round from width h reads a window of
    width m h as its parts at i, i + h, ..., i + (m-1) h. Their ranks,
    read from contiguous slices of the last ranks, are the m digits of
    one code, and one value sort of the codes, each tagged with its
    position, ranks the wider windows. m is the most digits whose code
    and tag fit in 64 bits, at least 2, and no more than reach `width`.
    The rounds stop at `width` or once every window is distinct, and the
    last round's order is the index.

    Adjacent windows of equal last rank share at least `width` symbols.
    Only the other pairs, the group boundaries, are lifted: at each
    earlier round from the top down, up to m - 1 steps of its width h
    while the ranks there still agree, where m is the digit count of the
    round after it. The rest ends inside one packed key, read off the
    XOR of the two keys, _SCAN_CELLS pairs at a time. Memory is one code
    and one order at a time, the ranks of every round but the last, and
    the packed keys, built again for the last step: on 2^18 symbols at
    widths 8 to 1,024, from 25 to 41 bytes a window at its peak. Nothing
    is a float.
    """
    total = len(data)
    # a start plus a common prefix is at most total, and int32
    if total > 2 ** 30:
        raise ValueError("the window index holds at most 2^30 windows")
    bits = letters.bit_length()
    posbits = (total - 1).bit_length()
    chunk = 1 << (((64 - posbits) // bits).bit_length() - 1)
    symbols = np.frombuffer(data, dtype=np.uint8)
    order, ranks, step = _rank(_pack(symbols, letters, chunk)[:total],
                               posbits)
    levels = []  # (ranks at width h, h, the digits m of the round after)
    h = chunk
    while h < width and ranks[-1] < total:
        # every window of width h >= total is distinct, so h < total here
        d = int(ranks[-1]) + 1
        # past about 2^21 distinct windows two digits leave no room for a tag
        tag = posbits if (d * d - 1).bit_length() + posbits <= 64 else None
        room = 64 - (tag or 0)
        m = 2
        while m * h < width and (d ** (m + 1) - 1).bit_length() <= room:
            m += 1
        code = _digits(ranks, h, m)
        levels.append((ranks, h, m))
        del order, step
        order, ranks, step = _rank(code, tag)
        del code
        h *= m
    del ranks
    # only the pairs at group boundaries are lifted: a pair with equal last
    # ranks shares h >= width symbols, and keeps lcp width
    left, right = order[:-1][step], order[1:][step]
    # each lifted pair differs within m h symbols at level h; two windows
    # agreeing on `common` symbols end by total, so the sentinel entry at
    # index total is the furthest read
    common = np.zeros(len(left), dtype=np.int32)
    while levels:
        ranks, h, m = levels.pop()
        for _ in range(m - 1):
            same = ranks[left + common] == ranks[right + common]
            # a pair that stops here stops for good at this level
            if not same.any():
                break
            np.add(common, h, out=common, where=same)
        del ranks, same
    packed = _pack(symbols, letters, chunk)
    # the XOR is at least 2^(bits j) exactly when the keys differ in one of
    # their last j + 1 symbols, so the thresholds at or below it count the
    # symbols from the first difference to the end of the key
    thresholds = np.left_shift(np.uint64(1), np.arange(
        0, chunk * bits, bits, dtype=np.uint64))
    for lo in range(0, len(common), _SCAN_CELLS):
        part = slice(lo, lo + _SCAN_CELLS)
        done = common[part]
        diff = packed[left[part] + done]
        diff ^= packed[right[part] + done]
        done += chunk - np.searchsorted(thresholds, diff, side="right")
    np.minimum(common, width, out=common)
    lcp = np.full(total - 1, width, dtype=np.int32)
    lcp[step] = common
    return _WindowIndex(width, order, lcp)


# blocks of at least _MIN_BLOCK symbols keep the dictionary of blocks
# cheap on a word with none repeated, which then indexes the prefix: on
# random words of 2^16 to 2^20 symbols it costs 2-6% of that index at
# widths below 64, and 0.7-2% above
_MIN_BLOCK = 128


def _window_index(prefix: SequencePrefix, width: int) -> _WindowIndex:
    """The prefix's window index, at least `width` wide; built at most
    once per width it grows to, and kept on the prefix.

    The index holds one copy of the windows of each repeated block. The
    prefix is cut into aligned blocks of B symbols, B the smallest power
    of two that is at least 2 width and at least _MIN_BLOCK, each
    extended by width - 1 symbols so that it holds every window that
    starts in it. The text is one copy of each distinct extended block,
    then the tail from the first block whose extension runs past the
    end; when its blocks are under half the prefix's, the index is built
    on it instead. That is exact: equal extended blocks hold equal windows;
    lcp stops at width, so the symbols past a block's end can only
    reorder windows that agree on all `width` of theirs; and the tail
    comes last, so the sentinel still follows the true end of the
    prefix. The windows that start in a block's extension run into the
    next copy and are dropped, the lcp of two kept windows adjacent in
    sorted order is the least lcp between them, and each start maps
    back to its first occurrence.
    """
    index = prefix._windows
    if index is not None and index.width >= width:
        return index
    data, total = prefix.data, len(prefix)
    block = max(_MIN_BLOCK, 1 << (2 * width - 1).bit_length())
    span = block + width - 1
    # the blocks whose extension ends by the end of the prefix
    cut = max(0, total - width + 1) // block * block
    first = {}
    for start in range(0, cut, block):
        first.setdefault(data[start:start + span], start)
    if 2 * len(first) * span >= cut:
        # copying the extended blocks and mapping the starts back cost
        # more than they save past about half the prefix
        del first  # it would add 1.6 bytes a symbol to the build's peak
        index = _build_index(data, prefix.alphabet.size, width)
    else:
        text = b"".join(first) + data[cut:]
        built = _build_index(text, prefix.alphabet.size, width)
        # the prefix position of each position of the text, -1 in the
        # extensions
        firsts = np.fromiter(first.values(), dtype=np.int32)
        origin = np.full(len(text), -1, dtype=np.int32)
        copies = origin[:firsts.size * span].reshape(-1, span)
        copies[:, :block] = firsts[:, None] + np.arange(block)
        origin[firsts.size * span:] = np.arange(cut, total)
        starts = origin[built.order]
        kept = np.flatnonzero(starts >= 0)
        index = _WindowIndex(width, starts[kept], np.minimum.reduceat(
            built.lcp[:kept[-1]], kept[:-1]))
    object.__setattr__(prefix, "_windows", index)
    return index


def factor_complexity_profile(prefix: SequencePrefix, n_max: int) -> list[int]:
    """Number of distinct length-n blocks in the prefix, for n = 1..n_max.

    The length-n blocks are the n-prefixes of the sorted windows, so
    p(n) is the window count less the adjacent pairs sharing n symbols;
    the index may hold one copy of a repeated block's windows, so the
    count is its own. The n - 1 windows that start in the last n - 1
    positions hold the sentinel within their first n symbols and are
    pairwise distinct; they are not blocks.
    """
    if n_max < 1:
        raise ValueError("block length must be positive")
    total = len(prefix)
    if n_max > total:
        raise InsufficientDataError(
            f"block length {n_max} exceeds prefix of length {total}"
        )
    index = _window_index(prefix, n_max)
    # shared[n] = number of adjacent pairs with lcp >= n
    shared = np.cumsum(
        np.bincount(index.lcp, minlength=n_max + 1)[::-1])[::-1]
    n = np.arange(1, n_max + 1)
    return (len(index.order) - shared[1:n_max + 1] - (n - 1)).tolist()


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
