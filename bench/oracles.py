"""Independent oracles for every source the benchmark runs.

Nothing here imports digitseq. Each oracle follows the mathematical
definition as directly as it can afford to: arithmetic predicates for the
catalogue machines, the xi3 regular expression, integer square roots and
long division for number streams, naive string rewriting for morphic
words, and a from-scratch run of every n for random automata and
pushdown machines. A word is returned as a str of single-character
symbols, position p holding the value for n = p - 1 (n = p for xi3).
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_left
from itertools import accumulate

import numpy as np


def _ints(count: int) -> np.ndarray:
    return np.arange(count, dtype=np.int64)


def _digits_text(values: np.ndarray) -> str:
    return (values.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def parity(count: int) -> str:
    """Thue-Morse: parity of the number of ones in binary n."""
    return _digits_text(np.bitwise_count(_ints(count)) % 2)


def legendre(count: int) -> str:
    """1 iff n is a sum of three squares, i.e. n != 4^i (8j + 7)."""
    m = _ints(count)
    for _ in range(32):
        div = (m % 4 == 0) & (m > 0)
        m = np.where(div, m // 4, m)
    return _digits_text(m % 8 != 7)


def _bit_lengths(n: np.ndarray) -> np.ndarray:
    length = np.zeros(len(n), dtype=np.int64)
    while n.any():
        length += n > 0
        n = n >> 1
    return length


def balance(count: int) -> str:
    """1 iff the counts of ones and zeros in binary n differ by <= 1."""
    n = _ints(count)
    ones = np.bitwise_count(n).astype(np.int64)
    return _digits_text(np.abs(2 * ones - _bit_lengths(n)) <= 1)


_XI3 = re.compile(r"(1+)(0+)(1+)")


def xi3(count: int) -> str:
    """Value at n = 1..count: 2 when binary n matches 1^k 0^k 1^k, else the
    parity of its ones. The regular expression runs on the n whose length
    3k and 2k ones make the pattern possible."""
    n = _ints(count) + 1
    ones = np.bitwise_count(n).astype(np.int64)
    length = _bit_lengths(n)
    out = ones % 2
    for i in np.flatnonzero((length % 3 == 0) & (3 * ones == 2 * length)):
        m = _XI3.fullmatch(bin(int(n[i]))[2:])
        if m and len(m.group(1)) == len(m.group(2)) == len(m.group(3)):
            out[i] = 2
    return _digits_text(out)


def rational(p: int, q: int, b: int, count: int) -> str:
    """Base-b digits of p/q after the point: long division until the
    remainder repeats, then the period is tiled."""
    digits, seen, r = [], {}, p % q
    while r not in seen:
        seen[r] = len(digits)
        d, r = divmod(r * b, q)
        digits.append(str(d))
    start = seen[r]
    head, period = digits[:start], digits[start:]
    reps = -(-max(0, count - len(head)) // len(period))
    return ("".join(head) + "".join(period) * reps)[:count]


def surd(d: int, b: int, count: int) -> str:
    """Base-b digits of sqrt(d) after the point, from isqrt(d * b^(2c))."""
    scaled = math.isqrt(d * b ** (2 * count)) - math.isqrt(d) * b ** count
    if b == 10:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = str(scaled)
        finally:
            sys.set_int_max_str_digits(limit)
    elif b == 2:
        text = bin(scaled)[2:]
    else:
        raise ValueError(f"surd oracle supports bases 2 and 10, not {b}")
    return text.rjust(count, "0")


def _letter_chars(letters) -> dict:
    return {a: chr(0x21 + i) for i, a in enumerate(letters)}


def morphic_internal(doc: dict, count: int) -> str:
    """The fixed point by rewriting with powers of the morphism: from the
    images of sigma^j, the images of sigma^2j are sigma^j applied to them,
    each cut to `count` letters, until the start letter's image is long
    enough. One char per internal letter."""
    char = _letter_chars(doc["internal"])
    images = {char[a]: "".join(char[b] for b in img)
              for a, img in doc["rules"].items()}
    start = char[doc["start"]]
    while len(images[start]) < count:
        table = str.maketrans(images)
        size = {c: len(word) for c, word in images.items()}
        squared = {}
        for c, word in images.items():
            # only the letters whose images reach position `count` matter
            ends = list(accumulate(map(size.__getitem__, word)))
            keep = bisect_left(ends, count) + 1
            squared[c] = word[:keep].translate(table)[:count]
        images = squared
    return images[start][:count]


def internal_letters(doc: dict, count: int) -> list[str]:
    name = {c: a for a, c in _letter_chars(doc["internal"]).items()}
    return [name[c] for c in morphic_internal(doc, count)]


def morphic_coded(doc: dict, count: int) -> str:
    char = _letter_chars(doc["internal"])
    coding = str.maketrans({char[a]: c for a, c in doc["coding"].items()})
    return morphic_internal(doc, count).translate(coding)


def image_lengths(doc: dict) -> dict:
    """Image length per internal char, for dilation checks."""
    char = _letter_chars(doc["internal"])
    return {char[a]: len(img) for a, img in doc["rules"].items()}


def exponential_growth(rules: dict, letters) -> bool:
    """Exponential growth of |sigma^n(start)| by big-integer iteration.

    Calibrated for |A| <= 4 and images of length <= 3: polynomial growth
    stays at or below (n L)^(|A| - 1) for every n, while an exponential
    morphism passes that bound long before n = 1000.
    """
    letters = list(letters)
    idx = {a: i for i, a in enumerate(letters)}
    big_l = max(len(img) for img in rules.values())
    threshold = (1000 * big_l) ** (len(letters) - 1)
    counts = [0] * len(letters)
    counts[0] = 1
    for _ in range(1000):
        nxt = [0] * len(letters)
        for a, c in zip(letters, counts):
            for b in rules[a]:
                nxt[idx[b]] += c
        counts = nxt
        if sum(counts) > threshold:
            return True
    return False


def dfao_states(doc: dict, count: int) -> np.ndarray:
    """State index after reading each n = 0..count-1 from scratch, most
    significant digit first (vectorised across n, not shared between n)."""
    k = doc["k"]
    names = doc["states"]
    idx = {q: i for i, q in enumerate(names)}
    delta = np.array([[idx[doc["delta"][q][str(d)]] for d in range(k)]
                      for q in names], dtype=np.int64)
    n = _ints(count)
    state = np.full(count, idx[doc["initial"]], dtype=np.int64)
    place = 1
    while place * k <= max(count - 1, 1):
        place *= k
    while place >= 1:
        live = n >= place
        digit = (n[live] // place) % k
        state[live] = delta[state[live], digit]
        place //= k
    return state


def dfao_run(doc: dict, count: int) -> str:
    out = np.array([doc["output"][q] for q in doc["states"]])
    return "".join(out[dfao_states(doc, count)].tolist())


def dpao_configs(doc: dict, count: int):
    """(state, stack height, stack) after reading each n = 0..count-1 from
    scratch, vectorised across n: per digit, one move on the top symbol
    (popping it unless the stack is empty, then pushing the pushed word),
    then epsilon pops until none applies. Symbol 0 is the bottom marker
    '#': it is never pushed, and an empty stack reads it."""
    states = {q: i for i, q in enumerate(doc["states"])}
    tops = {"#": 0, **{z: i + 1 for i, z in enumerate(doc["stack"])}}
    longest = max(len(t["push"]) for t in doc["transitions"])
    shape = (len(states), len(tops))
    move_to = np.full(shape + (doc["k"],), -1, dtype=np.int64)
    push = np.zeros(shape + (doc["k"], max(longest, 1)), dtype=np.int64)
    push_len = np.zeros(shape + (doc["k"],), dtype=np.int64)
    eps_to = np.full(shape, -1, dtype=np.int64)
    for t in doc["transitions"]:
        q, z = states[t["state"]], tops[t["top"]]
        if t["input"] == "eps":
            eps_to[q, z] = states[t["to"]]
            continue
        d = int(t["input"])
        move_to[q, z, d] = states[t["to"]]
        push_len[q, z, d] = len(t["push"])
        push[q, z, d, :len(t["push"])] = [tops[s] for s in t["push"]]
    k = doc["k"]
    n = _ints(count)
    places = [1]
    while places[-1] * k <= count - 1:
        places.append(places[-1] * k)
    stack = np.zeros((count, max(longest, 1) * len(places) + 1),
                     dtype=np.int8)
    height = np.zeros(count, dtype=np.int64)
    state = np.full(count, states[doc["initial"]], dtype=np.int64)

    def top(rows):
        return np.where(height[rows] > 0,
                        stack[rows, np.maximum(height[rows] - 1, 0)], 0)

    def settle(rows):
        while rows.size:
            nxt = eps_to[state[rows], top(rows)]
            rows = rows[(nxt >= 0) & (height[rows] > 0)]
            state[rows] = eps_to[state[rows], top(rows)]
            height[rows] -= 1

    settle(np.arange(count))
    for place in reversed(places):
        rows = np.flatnonzero(n >= place)
        q, z, d = state[rows], top(rows), (n[rows] // place) % k
        target = move_to[q, z, d]
        if (target < 0).any():
            raise ValueError("machine has no move for a reachable row")
        size, word = push_len[q, z, d], push[q, z, d]
        base = height[rows] - (height[rows] > 0)
        for j in range(longest):
            fill = size > j
            stack[rows[fill], base[fill] + j] = word[fill, j]
        height[rows] = base + size
        state[rows] = target
        settle(rows)
    return state, height, stack


def dpao_run(doc: dict, count: int) -> str:
    state, height, stack = dpao_configs(doc, count)
    tops = ["#"] + list(doc["stack"])
    out = np.array([[doc["output"][q][z] for z in tops]
                    for q in doc["states"]])
    top = np.where(height > 0,
                   stack[np.arange(count), np.maximum(height - 1, 0)], 0)
    return "".join(out[state, top].tolist())


def dpao_pair(doc: dict, count: int) -> tuple[int, int]:
    """Pigeonhole pair over the configurations of n = 1..count-1."""
    state, height, stack = dpao_configs(doc, count)
    return pigeonhole_pair((int(q), tuple(stack[i, :h].tolist()))
                           for i, (q, h) in enumerate(zip(state, height)))


def pigeonhole_pair(states) -> tuple[int, int]:
    """First n < n' (n >= 1) whose configurations coincide."""
    seen = {}
    for n, state in enumerate(states):
        if n == 0:
            continue
        if state in seen:
            return seen[state], n
        seen[state] = n
    raise ValueError("no repeated configuration in the scanned range")


class SourceOracles:
    """Oracle words per benchmark source name, computed once at the
    largest length asked for and sliced after that."""

    def __init__(self, machines: dict):
        self.machines = machines
        self._cache: dict = {}

    def word(self, source: str, count: int) -> str:
        have = self._cache.get(source)
        if have is None or len(have) < count:
            have = self._compute(source, max(count, 1))
            self._cache[source] = have
        return have[:count]

    def _compute(self, source: str, count: int) -> str:
        kind, _, rest = source.partition(":")
        if source == "thue-morse" or source == "thue-morse-morphic":
            return parity(count)
        if source == "three-squares":
            return legendre(count)
        if source == "xi2":
            return balance(count)
        if kind in ("xi3", "pair"):
            return xi3(count)
        if kind == "rational":
            frac, _, base = rest.rpartition(":")
            p, _, q = frac.partition("/")
            return rational(int(p), int(q), int(base), count)
        if kind == "surd":
            d, _, base = rest.partition(":")
            return surd(int(d), int(base), count)
        doc = self.machines[source]
        if doc["kind"] == "dfao":
            return dfao_run(doc, count)
        if doc["kind"] == "morphic":
            return morphic_coded(doc, count)
        return dpao_run(doc, count)
