"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the library's own code paths: repetition
search by triple loop, digit parity by string counting, the three-squares
predicate by direct arithmetic, morphic growth by big-integer iteration.
The generation oracles are the one-step-per-symbol loops that the
level-by-level numpy cores replaced: dictionary lookups per n, stacks as
tuples, xi3 value by value, rationals by plain long division; and the
loops that power-table doubling and divide-and-conquer digits replaced:
morphic fixed points one image per letter read, surd digits one divmod
each, and the dilation profile one Fraction per letter. The machine
oracles step one input at a time: a dfao by dictionary lookups, a dpao
with its stack as a tuple (`StackConfig`), and the pair search, the
distinguishing search and the dfao pigeonhole as the loops over them that
the hash-consed step core replaced. The
factor-count oracles are the set-of-slices and dict-of-sets scans that the
sorted-window index replaced; the window index itself has the stable
prefix doubling, twice the width a round and every adjacent pair lifted,
that the tagged rank-digit rounds replaced (`doubling_index_oracle`); and
the repetition search has the one-pass-per-period loop that the backward
block scan replaced, and that per-length byte-block scan itself, which the
one packed-key scan over every target length replaced
(`backward_scan_best`). The
morphic growth report, `growth_report_oracle`, is the iterative Tarjan
condensation with a closure per component that per-letter reach sets
replaced. The imitation index has the enumeration of every canonical
transition table, each simulated from n = 0, that the depth-first search
replaced (`imitation_oracle`). The step core's configuration ids have
the one-configuration loop that numbers them batch by batch
(`config_ids`), and certificate JSON has json's own indenting encoder
and one Fraction per witness ratio, which the direct writer and the
cross-multiplied bounds replaced (`certificate_json_oracle`,
`witness_bounds_oracle`).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from digitseq import catalog
from digitseq.certify import Certificate, _document
from digitseq.dfao import Dfao
from digitseq.errors import ValidationError
from digitseq.morphic import GrowthReport, LetterGrowth, MorphicSpec
from digitseq.pda import BOTTOM, DistinguishResult, Dpao, pop_table
from digitseq.validation import ValidationReport
from digitseq.words import (Alphabet, RepetitionWitness, SequencePrefix,
                            SequenceSource, _WindowIndex, encode_base_k)


# --- prefix/source helpers -------------------------------------------------

def str_prefix(text: str, symbols: str | None = None,
               source_id: str = "test") -> SequencePrefix:
    alpha = Alphabet(tuple(symbols) if symbols else tuple(sorted(set(text))))
    return SequencePrefix(source_id, alpha,
                          bytes(alpha.index(c) for c in text))


def str_source(text: str, symbols: str | None = None,
               source_id: str = "test") -> SequenceSource:
    prefix = str_prefix(text, symbols, source_id)
    return SequenceSource(source_id, prefix.alphabet,
                          lambda n: prefix.data[:n])


def periodic_source(block: str, symbols: str | None = None) -> SequenceSource:
    alpha = Alphabet(tuple(symbols) if symbols else tuple(sorted(set(block))))
    pattern = bytes(alpha.index(c) for c in block)

    def gen(n: int) -> bytes:
        reps = -(-n // len(pattern))
        return (pattern * reps)[:n]

    return SequenceSource(f"periodic:{block}", alpha, gen)


# --- arithmetic oracles ----------------------------------------------------

def parity_oracle(n: int) -> str:
    """Thue-Morse: parity of the binary digit sum."""
    return str(bin(n).count("1") % 2)


def legendre_oracle(n: int) -> str:
    """1 iff n is a sum of three squares: n != 4^i (8j + 7)."""
    m = n
    while m and m % 4 == 0:
        m //= 4
    return "0" if m % 8 == 7 else "1"


def balance_oracle(n: int) -> str:
    """1 iff |#ones - #zeros| <= 1 in the binary expansion of n."""
    w = bin(n)[2:] if n else ""
    return "1" if abs(w.count("1") - w.count("0")) <= 1 else "0"


def xi3_value(n: int) -> int:
    """Ternary value at index n >= 1: 2 when the binary expansion of n is
    ones^k zeros^k ones^k for some k >= 1, else the parity of its number
    of ones."""
    if n < 1:
        raise ValueError("index must be positive")
    w = bin(n)[2:]
    if len(w) % 3 == 0:
        k = len(w) // 3
        if w == "1" * k + "0" * k + "1" * k:
            return 2
    return w.count("1") % 2


def xi3_oracle(n: int) -> int:
    """Regular-expression route to the ternary predicate value."""
    import re
    w = bin(n)[2:]
    m = re.fullmatch(r"(1+)(0+)(1+)", w)
    if m and len(m.group(1)) == len(m.group(2)) == len(m.group(3)):
        return 2
    return w.count("1") % 2


# --- one-input-at-a-time machine oracles ----------------------------------

def run_word(m: Dfao, digits) -> str:
    """State reached from the initial state on a digit sequence."""
    state = m.initial
    for d in digits:
        state = m.delta[state][d]
    return state


def run(m: Dfao, n: int) -> str:
    """Output symbol for input n: tau(delta(q0, <n>_k))."""
    if n < 0:
        raise ValueError("input integer must be nonnegative")
    return m.output[run_word(m, encode_base_k(n, m.k))]


def pigeonhole_pair(m: Dfao) -> tuple[int, int]:
    """The first n < n' reaching equal states, scanning n = 1, 2, ..."""
    seen: dict[str, int] = {}
    for n in range(1, m.state_count() + 2):
        state = run_word(m, encode_base_k(n, m.k))
        if state in seen:
            return seen[state], n
        seen[state] = n
    raise AssertionError("pigeonhole on |Q| states")


@dataclass(frozen=True)
class StackConfig:
    """A configuration: control state plus stack word (top at the right;
    the empty tuple is the bare bottom marker)."""

    state: str
    stack: tuple[str, ...]

    @property
    def height(self) -> int:
        return len(self.stack)

    @property
    def top(self) -> str:
        return self.stack[-1] if self.stack else BOTTOM


def closure(m: Dpao, state: str, stack: tuple[str, ...]
            ) -> tuple[str, tuple[str, ...]]:
    # each epsilon move pops one symbol, so this terminates
    while stack:
        t = m.transitions.get((state, stack[-1], None))
        if t is None:
            break
        state = t[0]
        stack = stack[:-1]
    return state, stack


def initial_config(m: Dpao) -> StackConfig:
    return StackConfig(*closure(m, m.initial, ()))


def hole_error(state: str, top: str, digit: int) -> ValidationError:
    report = ValidationReport()
    report.error(
        "incompleteness",
        f"reached ({state!r}, {top!r}) with digit {digit} but no transition "
        "is defined",
    )
    return ValidationError(report)


def step_input(m: Dpao, config: StackConfig, digit: int) -> StackConfig:
    """Consume one digit, then exhaust epsilon moves."""
    top = config.top
    try:
        to, push = m.transitions[(config.state, top, digit)]
    except KeyError:
        raise hole_error(config.state, top, digit) from None
    stack = (config.stack[:-1] + push) if config.stack else push
    return StackConfig(*closure(m, to, stack))


def config_of(m: Dpao, n: int) -> StackConfig:
    """Configuration after reading the proper base-k expansion of n;
    n = 0 reads the empty input."""
    if n < 0:
        raise ValueError("input integer must be nonnegative")
    config = initial_config(m)
    for d in encode_base_k(n, m.k):
        config = step_input(m, config, d)
    return config


def output_of_config(m: Dpao, config: StackConfig) -> str:
    return m.output[(config.state, config.top)]


def output_at(m: Dpao, n: int) -> str:
    return output_of_config(m, config_of(m, n))


def pair_search_loop(m: Dpao, n_max: int = 10_000, height_cap: int = 64
                     ) -> tuple[int, int, str] | None:
    """`find_equivalent_pair` one input at a time, with dictionaries of
    the first n per configuration and per protected (state, top)."""
    m.validate().require()
    pops = pop_table(m)
    exact_seen: dict[StackConfig, int] = {}
    protected_seen: dict[tuple[str, str], int] = {}
    configs = [initial_config(m)] * (n_max + 1)
    for n in range(1, n_max + 1):
        c = step_input(m, configs[n // m.k], n % m.k)
        configs[n] = c
        candidates = []
        if c.height <= height_cap and c in exact_seen:
            candidates.append((exact_seen[c], "exact"))
        sig = (c.state, c.top)
        if c.height >= 2 and not pops[sig] and sig in protected_seen:
            candidates.append((protected_seen[sig], "protected"))
        if candidates:
            first_n, method = min(candidates)
            return (first_n, n, method)
        if c.height <= height_cap and c not in exact_seen:
            exact_seen[c] = n
        if c.height >= 2 and not pops[sig] and sig not in protected_seen:
            protected_seen[sig] = n
    return None


def distinguish_loop(m: Dpao, n: int, n_prime: int, depth: int
                     ) -> DistinguishResult:
    """`bounded_distinguish` one pair and one digit at a time."""
    m.validate().require()
    start = (config_of(m, n), config_of(m, n_prime))
    seen = {start}
    frontier = [(start[0], start[1], ())]
    while frontier:
        next_frontier = []
        for c1, c2, word in frontier:
            if output_of_config(m, c1) != output_of_config(m, c2):
                return DistinguishResult(True, word, depth)
            if len(word) == depth:
                continue
            for d in range(m.k):
                pair = (step_input(m, c1, d), step_input(m, c2, d))
                if pair not in seen:
                    seen.add(pair)
                    next_frontier.append((pair[0], pair[1], word + (d,)))
        frontier = next_frontier
    return DistinguishResult(False, None, depth)


# --- certificate oracles ---------------------------------------------------

def certificate_json_oracle(cert: Certificate) -> str:
    """certificate_to_json as json's own indenting encoder writes it."""
    return json.dumps(_document(cert), indent=2, sort_keys=True) + "\n"


def witness_bounds_oracle(witnesses) -> tuple[Fraction, Fraction]:
    """The least witness ratio and the largest growth of u + v between
    consecutive witnesses (1 for fewer than two), one Fraction each."""
    return (min(w.ratio for w in witnesses),
            max([Fraction(b.u + b.v, a.u + a.v)
                 for a, b in zip(witnesses, witnesses[1:])] or [Fraction(1)]))


# --- generation oracles ----------------------------------------------------

def state_table(m: Dfao, count: int) -> list[str]:
    """States after n = 0..count-1: <n>_k is <n // k>_k then n % k."""
    states = [m.initial] * count
    for n in range(1, count):
        states[n] = m.delta[states[n // m.k]][n % m.k]
    return states


def dfao_prefix(m: Dfao, count: int) -> bytes:
    alphabet = m.output_alphabet()
    return bytes(alphabet.index(m.output[q]) for q in state_table(m, count))


def config_table(m: Dpao, count: int) -> list[StackConfig]:
    """Configurations after n = 0..count-1, one digit step per n."""
    configs = [initial_config(m)] * count
    for n in range(1, count):
        configs[n] = step_input(m, configs[n // m.k], n % m.k)
    return configs


def dpao_prefix(m: Dpao, count: int) -> bytes:
    alphabet = m.output_alphabet()
    return bytes(alphabet.index(output_of_config(m, c))
                 for c in config_table(m, count))


def fill_ids(core, count: int) -> list[int]:
    """The ids a step core's fill yields for n < count, up to the first
    input that reads a digit with no move."""
    filled = []
    try:
        for hi, ids in core.fill(count):
            filled = ids[:hi].tolist()
    except ValidationError:
        pass
    return filled


def config_ids(m: Dpao, count: int) -> list[int]:
    """The configuration id of each n < count as a fresh step core numbers
    them, one configuration and one digit at a time; the list stops at
    the first n that reads a digit with no move.

    Id 0 stands for n = 0 alone: it reads 1 in place of 0, and the initial
    configuration reached at any other n gets an id of its own. Before
    each base-k level, the ids it reads that no level read before are
    stepped as one batch, in ascending order and each reading its digits
    in order: for a level the count cuts, those up to the largest id among
    the parents it reads. The configurations a batch reaches first take
    the next ids in the order of their last occurrence in the batch, so a
    cut batch can number its configurations apart from a whole one.
    """
    configs, index, succ = [initial_config(m)], {}, []
    ids = [0] * min(count, 1)
    lo = 1
    while lo < count:
        hi = min(count, lo * m.k)
        stop = max(ids[lo // m.k:-(-hi // m.k)]) + 1
        last = {}
        for i in range(len(succ), stop):
            row = []
            for d in range(m.k):
                try:
                    c = step_input(m, configs[i], d or int(not i))
                except ValidationError:
                    c = None
                row.append(c)
                last[c] = i * m.k + d
            succ.append(row)
        for c in sorted(last, key=last.get):
            if c is not None and c not in index:
                index[c] = len(configs)
                configs.append(c)
        for i in range(lo, hi):
            c = succ[ids[i // m.k]][i % m.k]
            if c is None:
                return ids
            ids.append(index[c])
        lo = hi
    return ids


def xi3_prefix(count: int) -> bytes:
    return bytes(xi3_value(n) for n in range(1, count + 1))


def long_division(p: int, q: int, b: int, count: int) -> bytes:
    out = bytearray()
    r = p
    for _ in range(count):
        r *= b
        d, r = divmod(r, q)
        out.append(d)
    return bytes(out)


def fixed_point_loop(spec: MorphicSpec, count: int) -> bytes:
    """First `count` internal letter indices of the fixed point: sigma(start)
    followed by the images of its own letters in order, one image appended
    per letter read."""
    alpha = {a: i for i, a in enumerate(spec.internal)}
    images = [bytes(alpha[b] for b in spec.rules[a]) for a in spec.internal]
    out = bytearray(images[alpha[spec.start]])
    i = 1
    while len(out) < count:
        out.extend(images[out[i]])
        i += 1
    return bytes(out[:count])


def expand_word(spec: MorphicSpec, word, levels: int) -> tuple[str, ...]:
    """sigma^levels(word) by naive rule expansion, one image per letter."""
    word = tuple(word)
    for _ in range(levels):
        word = tuple(b for a in word for b in spec.rules[a])
    return word


def iterated_lengths_loop(spec: MorphicSpec, word, levels: int) -> list[int]:
    """|sigma^l(word)| for l = 0..levels from the per-letter recurrence
    len_0(a) = 1, len_{l+1}(a) = sum of len_l(b) over the letters b of
    sigma(a); no matrix and no word is built."""
    size = dict.fromkeys(spec.internal, 1)
    out = []
    for _ in range(levels + 1):
        out.append(sum(size[a] for a in word))
        size = {a: sum(size[b] for b in img) for a, img in spec.rules.items()}
    return out


def surd_digit_loop(d: int, b: int, count: int) -> tuple[int, bytes]:
    """(integer part, first `count` fractional base-b digits) of sqrt(d),
    the digits peeled off isqrt(d * b^(2 count)) one divmod at a time."""
    whole = math.isqrt(d)
    frac = math.isqrt(d * b ** (2 * count)) - whole * b ** count
    digits = bytearray(count)
    for i in range(count - 1, -1, -1):
        frac, digits[i] = divmod(frac, b)
    return whole, bytes(digits)


def dilation_loop(spec: MorphicSpec, n_limit: int):
    """(samples, min_ratio, argmin) of the dilation profile, W(n) grown by
    one image length and compared as one Fraction per letter read."""
    internal = fixed_point_loop(spec, n_limit)
    lengths = [len(spec.rules[a]) for a in spec.internal]
    w, samples, min_ratio, argmin, mark = 0, [], None, 1, 1
    for n, letter in enumerate(internal, start=1):
        w += lengths[letter]
        ratio = Fraction(w, n)
        if min_ratio is None or ratio < min_ratio:
            min_ratio, argmin = ratio, n
        if n == mark:
            samples.append((n, ratio))
            mark *= 2
    if samples[-1][0] != n_limit:
        samples.append((n_limit, ratio))
    return tuple(samples), min_ratio, argmin


# --- imitation by enumeration ---------------------------------------------

def _canonical_deltas(m: int, k: int):
    """Transition tables on states 0..m-1 whose breadth-first discovery
    order from state 0 is exactly 0, 1, ..., m-1 (every state reachable,
    no isomorphic duplicates)."""
    for flat in product(range(m), repeat=m * k):
        delta = tuple(flat[i * k:(i + 1) * k] for i in range(m))
        order = [0]
        seen = {0}
        for q in order:
            for d in range(k):
                t = delta[q][d]
                if t not in seen:
                    seen.add(t)
                    order.append(t)
        if len(order) == m and order == sorted(order):
            yield delta


def imitation_oracle(target: SequenceSource, k: int, max_states: int,
                     max_len: int) -> tuple[int, bool]:
    """(I, censored) of `numbers.imitation_index` by exhaustion: every
    canonical table with up to max_states states, run from n = 0, each
    state's output pinned by the first position that reaches it."""
    goal = target.prefix(max_len).data
    best = 0
    for m in range(1, max_states + 1):
        for delta in _canonical_deltas(m, k):
            states = [0] * max_len
            for n in range(1, max_len):
                states[n] = delta[states[n // k]][n % k]
            tau: dict[int, int] = {}
            agree = max_len
            for pos, (s, want) in enumerate(zip(states, goal)):
                if tau.setdefault(s, want) != want:
                    agree = pos
                    break
            best = max(best, agree)
            if best == max_len:
                return best, True
    return best, best == max_len


# --- brute-force repetition search and factor counts -----------------------

def brute_force_best(text: str, ell: int, v_max: int | None = None):
    """Cubic search over every (u, v); returns (ratio, v, u) or None."""
    best = None
    cap = ell if v_max is None else min(v_max, ell)
    for v in range(1, cap + 1):
        for u in range(0, ell - v + 1):
            if any(text[i] != text[i - v] for i in range(u + v, ell)):
                continue
            ratio = Fraction(ell, u + v)
            if ratio <= 1:
                continue
            if (best is None or ratio > best[0]
                    or (ratio == best[0] and (v, u) < (best[1], best[2]))):
                best = (ratio, v, u)
    return best


def per_period_best(prefix: SequencePrefix, ell: int,
                    v_max: int | None = None) -> RepetitionWitness | None:
    """Best repetition witness ending at ell, one full numpy pass per
    period v in ascending order, stopping once v reaches the best cost."""
    s = np.frombuffer(prefix.data, dtype=np.uint8, count=ell)
    cap = ell // 2 if v_max is None else min(v_max, ell)
    best = None  # (u + v, v, u)
    for v in range(1, cap + 1):
        if best is not None and v >= best[0]:
            break
        mism = np.flatnonzero(s[v:] != s[:-v])
        last_bad = int(mism[-1]) + v + 1 if mism.size else 0  # 1-based
        u = max(0, last_bad - v)
        if u + v < ell and (best is None or u + v < best[0]):
            best = (u + v, v, u)
    if best is None:
        return None
    _, v, u = best
    return RepetitionWitness(u=u, v=v, ext=ell - u)


def backward_scan_best(prefix: SequencePrefix, ell: int,
                       v_max: int | None = None) -> RepetitionWitness | None:
    """Best repetition witness ending at ell, one scan per target length:
    back from ell comparing byte blocks with the block v earlier, for a
    chunk of periods at once. Blocks start at 16 positions and double,
    up to 2^20 comparisons; chunks of periods double in size, and periods
    at or above the best cost so far are dropped."""
    block_cells, first_block = 1 << 20, 16
    s = np.frombuffer(prefix.data, dtype=np.uint8, count=ell)
    cap = ell // 2 if v_max is None else min(v_max, ell)
    best_cost, best_v = ell, 0  # a witness needs cost u + v < ell
    first, size = 1, 1
    while first <= min(cap, best_cost - 1):
        vs = np.arange(first, min(cap, best_cost - 1, first + size - 1) + 1)
        first = int(vs[-1]) + 1
        size = min(2 * size, block_cells // first_block)
        hi, width = ell, first_block
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
                if (c, v) < (best_cost, best_v):
                    best_cost, best_v = c, v
            vs = vs[~done & (vs < best_cost)]
            hi = lo
            if vs.size:
                width = min(2 * width, max(1, block_cells // vs.size))
    if best_v == 0:
        return None
    return RepetitionWitness(u=best_cost - best_v, v=best_v,
                             ext=ell - best_cost + best_v)


def naive_complexity(text: str | bytes, n: int) -> int:
    """Distinct length-n blocks, as a set of slices."""
    return len({text[i:i + n] for i in range(len(text) - n + 1)})


def naive_right_special(data: bytes, n: int) -> int:
    """Distinct length-n blocks with >= 2 followers, as a dict of sets."""
    followers: dict[bytes, set[int]] = {}
    for i in range(len(data) - n):
        followers.setdefault(data[i:i + n], set()).add(data[i + n])
    return sum(1 for s in followers.values() if len(s) >= 2)


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


def doubling_index_oracle(data: bytes, letters: int, width: int
                          ) -> _WindowIndex:
    """The window index by plain prefix doubling: one stable two-pass sort
    of 64-bit packed keys, then each round doubles the width h by a
    stable sort on the first half's rank of the order shifted by h, and
    every adjacent pair is lifted over every kept round's ranks."""
    total = len(data)
    bits = letters.bit_length()
    chunk = 64 // bits
    padded = np.full(total + chunk, letters, dtype=np.uint16)
    padded[:total] = np.frombuffer(data, dtype=np.uint8)
    packed = np.zeros(total + 1, dtype=np.uint64)
    for j in range(chunk):
        packed <<= np.uint64(bits)
        packed |= padded[j:j + total + 1]
    order = _sort_by(packed & np.uint64(0xFFFFFFFF),
                     np.arange(total, dtype=np.int32))
    order = _sort_by(packed >> np.uint64(32), order)
    ranks = _ranks(order, packed[order])
    levels = []  # levels[j] ranks the windows of width chunk * 2^j
    h = chunk
    while h < width and ranks[-1] < total:
        levels.append(ranks)
        order = _sort_by(ranks, np.concatenate(
            (order[order >= h] - h,
             np.arange(total - h, total, dtype=np.int32))))
        ranks = _ranks(order, ranks[order],
                       ranks[np.minimum(order + h, total)])
        h *= 2
    left_start, right_start = order[:-1], order[1:]
    common = np.zeros(total - 1, dtype=np.int32)
    for j in reversed(range(len(levels))):
        r = levels[j]
        common[r[left_start + common] == r[right_start + common]] += \
            chunk << j
    diff = packed[left_start + common] ^ packed[right_start + common]
    length = np.zeros(total - 1, dtype=np.int32)
    for shift in (32, 16, 8, 4, 2, 1):
        high = diff >= np.uint64(1 << shift)
        np.add(length, shift, out=length, where=high)
        np.right_shift(diff, np.uint64(shift), out=diff, where=high)
    length += diff.astype(np.int32)
    common += (chunk * bits - length) // bits
    return _WindowIndex(width, order, np.minimum(common, width, out=common))


# --- random corpora --------------------------------------------------------

LETTERS = "abcd"


def random_morphic(rng: random.Random, require_reachable: bool = True
                   ) -> MorphicSpec:
    """A valid spec with |A| <= 4 and image lengths <= 3; all letters
    reachable from the start when require_reachable is set."""
    while True:
        d = rng.randint(1, 4)
        letters = LETTERS[:d]
        rules = {}
        for a in letters:
            length = rng.randint(1, 3)
            rules[a] = tuple(rng.choice(letters) for _ in range(length))
        extra = tuple(rng.choice(letters)
                      for _ in range(rng.randint(1, 2)))
        rules["a"] = ("a",) + extra
        spec = MorphicSpec(
            internal=tuple(letters),
            rules=rules,
            start="a",
            external=tuple(letters),
            coding={a: a for a in letters},
        )
        report = spec.validate()
        if not report.ok:
            continue
        if require_reachable and report.warnings:
            continue
        return spec


def morphic_growth_oracle(spec: MorphicSpec) -> bool:
    """Exponential growth by direct big-integer length iteration.

    For |A| <= 4 and images of length <= 3, polynomial growth keeps
    |sigma^n(a)| at or below (n * L)^(|A| - 1) for every n, while any
    exponential spec overshoots that bound at n = 1000 by a wide margin;
    the first overshoot decides.
    """
    from digitseq.morphic import incidence
    d = len(spec.internal)
    big_l = max(len(img) for img in spec.rules.values())
    assert d <= 4 and big_l <= 3, "oracle calibrated for the small corpus"
    threshold = (1000 * big_l) ** (d - 1)
    m = incidence(spec)
    idx = {a: i for i, a in enumerate(spec.internal)}
    counts = [0] * d
    counts[idx[spec.start]] = 1
    for _ in range(1000):
        counts = [sum(m[i][j] * counts[j] for j in range(d)) for i in range(d)]
        if sum(counts) > threshold:
            return True
    return False


def incidence_radius_oracle(spec: MorphicSpec) -> float:
    """Spectral radius by a dense eigensolve of the whole incidence
    matrix, the route that the largest component radius replaced."""
    from digitseq.morphic import incidence
    m = np.array(incidence(spec), dtype=float)
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _edges(spec: MorphicSpec) -> dict[str, dict[str, int]]:
    # multigraph: an edge a -> b with multiplicity |sigma(a)|_b
    out: dict[str, dict[str, int]] = {a: {} for a in spec.internal}
    for a in spec.internal:
        for b in spec.rules[a]:
            out[a][b] = out[a].get(b, 0) + 1
    return out


def _sccs(spec: MorphicSpec) -> list[tuple[str, ...]]:
    """Strongly connected components, iterative Tarjan, deterministic order."""
    edges = _edges(spec)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comps: list[tuple[str, ...]] = []
    counter = 0
    for root in spec.internal:
        if root in index:
            continue
        work = [(root, iter(sorted(edges[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
    return comps


def _component_is_exponential(comp: tuple[str, ...],
                              edges: dict[str, dict[str, int]]) -> bool:
    # an irreducible nonnegative integer matrix has Perron root 1 exactly
    # when its graph is a single cycle; more than one within-component
    # out-edge at any vertex breaks that
    members = set(comp)
    if len(comp) == 1:
        a = comp[0]
        return edges[a].get(a, 0) >= 2
    for a in comp:
        inside = sum(mult for b, mult in edges[a].items() if b in members)
        if inside >= 2:
            return True
    return False


def _component_has_cycle(comp: tuple[str, ...],
                         edges: dict[str, dict[str, int]]) -> bool:
    if len(comp) > 1:
        return True
    a = comp[0]
    return edges[a].get(a, 0) >= 1


def _component_radius(comp: tuple[str, ...], spec: MorphicSpec,
                      edges: dict[str, dict[str, int]]) -> float:
    if not _component_has_cycle(comp, edges):
        return 0.0
    if not _component_is_exponential(comp, edges):
        return 1.0  # a single cycle, exactly
    idx = {a: i for i, a in enumerate(comp)}
    sub = np.zeros((len(comp), len(comp)))
    for a in comp:
        for b, mult in edges[a].items():
            if b in idx:
                sub[idx[b]][idx[a]] = mult
    return float(np.max(np.abs(np.linalg.eigvals(sub))))


def growth_report_oracle(spec: MorphicSpec) -> GrowthReport:
    """Per-letter growth indices from the condensation of the incidence
    multigraph, by iterative Tarjan and a closure per component.

    |sigma^n(b)| grows like n^k * theta^n where theta is the largest
    component radius reachable from b and k is one less than the longest
    chain of theta-achieving components on a reachability path. This is
    the growth analysis the per-letter reach sets replaced.
    """
    edges = _edges(spec)
    comps = _sccs(spec)
    comp_of = {a: ci for ci, comp in enumerate(comps) for a in comp}
    radii = [_component_radius(c, spec, edges) for c in comps]
    succ: list[set[int]] = [set() for _ in comps]
    for a in spec.internal:
        for b in edges[a]:
            ca, cb = comp_of[a], comp_of[b]
            if ca != cb:
                succ[ca].add(cb)

    def close(ci: int) -> set[int]:
        seen = {ci}
        frontier = [ci]
        while frontier:
            c = frontier.pop()
            for d in succ[c]:
                if d not in seen:
                    seen.add(d)
                    frontier.append(d)
        return seen

    reach = [close(ci) for ci in range(len(comps))]

    def chain_count(theta: float) -> list[int]:
        # longest theta-achieving chain through the condensation DAG,
        # computed bottom-up over the reverse topological order Tarjan gives
        counts = [0] * len(comps)
        for ci in range(len(comps)):  # Tarjan emits successors first
            best_succ = max((counts[d] for d in succ[ci]), default=0)
            counts[ci] = best_succ + (1 if abs(radii[ci] - theta) <= 1e-9 else 0)
        return counts

    per_letter: dict[str, LetterGrowth] = {}
    counts_cache: dict[float, list[int]] = {}
    for a in spec.internal:
        reachable = reach[comp_of[a]]
        theta = max(radii[ci] for ci in reachable)
        if theta not in counts_cache:
            counts_cache[theta] = chain_count(theta)
        k = counts_cache[theta][comp_of[a]] - 1
        is_exp = any(
            _component_is_exponential(comps[ci], edges) for ci in reachable
        )
        per_letter[a] = LetterGrowth(theta=theta, poly_degree=k, exponential=is_exp)

    occurring = {b for ci in reach[comp_of[spec.start]] for b in comps[ci]}
    best = max(
        (per_letter[a].theta, per_letter[a].poly_degree) for a in occurring
    )
    maximal = tuple(
        a for a in spec.internal
        if a in occurring
        and abs(per_letter[a].theta - best[0]) <= 1e-9
        and per_letter[a].poly_degree == best[1]
    )
    global_exp = any(_component_is_exponential(c, edges) for c in comps)
    return GrowthReport(per_letter=per_letter, maximal=maximal,
                        global_exponential=global_exp)


def random_dpao(rng: random.Random) -> Dpao:
    """A valid machine with <= 3 states and <= 2 stack symbols over base 2."""
    n_states = rng.randint(1, 3)
    states = tuple(f"q{i}" for i in range(n_states))
    n_sym = rng.randint(1, 2)
    symbols = ("X", "Y")[:n_sym]
    transitions = {}
    for q in states:
        for a in symbols + (BOTTOM,):
            if a != BOTTOM and rng.random() < 0.3:
                transitions[(q, a, None)] = (rng.choice(states), ())
                continue
            for d in range(2):
                push_len = rng.choice((0, 0, 1, 1, 2))
                push = tuple(rng.choice(symbols) for _ in range(push_len))
                transitions[(q, a, d)] = (rng.choice(states), push)
    output = {
        (q, a): rng.choice("01")
        for q in states for a in symbols + (BOTTOM,)
    }
    return Dpao(k=2, states=states, initial=states[0],
                stack_symbols=symbols, transitions=transitions, output=output)


def random_dfao(rng: random.Random, k: int, size: int | None = None,
                initial: int = 0) -> Dfao:
    """`size` states (default 1 to 6), starting in states[initial]."""
    states = tuple(f"s{i}" for i in range(size or rng.randint(1, 6)))
    return Dfao(k=k, states=states, initial=states[initial],
                delta={q: tuple(rng.choice(states) for _ in range(k))
                       for q in states},
                output={q: rng.choice("abc") for q in states})


def random_deep_dpao(rng: random.Random, k: int) -> Dpao:
    """Up to 3 states, 2 or 3 stack symbols, pushes of length 0..3, and
    epsilon pops on a third of the non-bottom rows."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    symbols = ("X", "Y", "Z")[:rng.randint(2, 3)]
    transitions = {}
    for q in states:
        for a in symbols + (BOTTOM,):
            if a != BOTTOM and rng.random() < 0.33:
                transitions[(q, a, None)] = (rng.choice(states), ())
                continue
            for d in range(k):
                push = tuple(rng.choice(symbols)
                             for _ in range(rng.randint(0, 3)))
                transitions[(q, a, d)] = (rng.choice(states), push)
    output = {(q, a): rng.choice("01")
              for q in states for a in symbols + (BOTTOM,)}
    return Dpao(k=k, states=states, initial=states[0], stack_symbols=symbols,
                transitions=transitions, output=output)


def with_dead_rows(m: Dpao, rng: random.Random) -> Dpao:
    """m with one or two whole (state, top) digit rows removed."""
    rows = sorted({(q, a) for (q, a, inp) in m.transitions
                   if inp is not None})
    dead = set(rng.sample(rows, min(len(rows), rng.randint(1, 2))))
    return Dpao(k=m.k, states=m.states, initial=m.initial,
                stack_symbols=m.stack_symbols,
                transitions={key: val for key, val in m.transitions.items()
                             if key[:2] not in dead},
                output=m.output)


def simulate_pop_states(m: Dpao, state: str, symbol: str, depth: int
                        ) -> set[str]:
    """States observed at the first moment the starting top symbol's slot
    empties, over all digit words of length <= depth.

    Steps through transitions one micro-move at a time (the digit move,
    then each epsilon pop) so that a removal in the middle of a closure is
    caught in the state where it happens.
    """
    observed: set[str] = set()

    def settle(q: str, stack: tuple[str, ...]):
        # run pending epsilon pops one at a time; None means slot emptied
        while stack:
            t = m.transitions.get((q, stack[-1], None))
            if t is None:
                return q, stack
            q = t[0]
            stack = stack[:-1]
            if not stack:
                observed.add(q)
                return None
        observed.add(q)
        return None

    def walk(q: str, stack: tuple[str, ...], remaining: int):
        if remaining == 0:
            return
        for d in range(m.k):
            t = m.transitions.get((q, stack[-1], d))
            if t is None:
                continue
            to, push = t
            new_stack = stack[:-1] + push
            if not new_stack:
                observed.add(to)
                continue
            settled = settle(to, new_stack)
            if settled is not None:
                walk(settled[0], settled[1], remaining - 1)

    start = settle(state, (symbol,))
    if start is not None:
        walk(start[0], start[1], depth)
    return observed


# --- catalog fixtures -------------------------------------------------------

@pytest.fixture(scope="session")
def tm_dfao():
    return catalog.get("thue-morse")


@pytest.fixture(scope="session")
def three_squares():
    return catalog.get("three-squares")


@pytest.fixture(scope="session")
def tm_morphic():
    return catalog.get("thue-morse-morphic")


@pytest.fixture(scope="session")
def xi1():
    return catalog.get("xi1")


@pytest.fixture(scope="session")
def squares():
    return catalog.get("squares")


@pytest.fixture(scope="session")
def xi2():
    return catalog.get("xi2")


@pytest.fixture(scope="session")
def tall():
    """A dpao whose first identical configurations stand 70 symbols high:
    p pushes X^70 at '#' on 1 and keeps X on 0, so n = 1 and n = 2 both
    reach (p, X^70). X never seals, since q pops it on 0."""
    t = {("p", BOTTOM, 0): ("p", ()), ("p", BOTTOM, 1): ("p", ("X",) * 70),
         ("p", "X", 0): ("p", ("X",)), ("p", "X", 1): ("q", ("X",)),
         ("q", "X", 0): ("q", ()), ("q", "X", 1): ("p", ("X",)),
         ("q", BOTTOM, 0): ("q", ()), ("q", BOTTOM, 1): ("q", ())}
    return Dpao(k=2, states=("p", "q"), initial="p", stack_symbols=("X",),
                transitions=t, output={(q, a): "1" if q == "p" else "0"
                                       for q in "pq" for a in ("X", BOTTOM)})
