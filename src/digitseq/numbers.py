"""Base-b digit streams of numbers, and the machine imitation index.

Everything here runs on arbitrary-precision integers; floating point is
banned in this module so that fixtures and certificates stay exact.
Each number stream is one source, whose generator is reached only
through it: rational digits come from one period of long division,
tiled; surd digits from one integer square root, split by divide and
conquer; the xi3 word from a level-by-level parity table. A number's
full expansion, as the imitation game reads it, is its fractional
source's generator with the integer part's digits put in front.
"""

from __future__ import annotations

import math

import numpy as np

from .dfao import Dfao
from .errors import EnumerationCapError
from .words import (Alphabet, SequenceSource, _table_fill, digit_alphabet,
                    encode_base_k)

__all__ = [
    "rational_source",
    "surd_source",
    "expansion_stream",
    "xi3_source",
    "imitation_index",
    "ENUMERATION_CAP",
    "parse_stream_spec",
]

# transition choices one imitation search may try
ENUMERATION_CAP = 10_000_000


def rational_source(p: int, q: int, b: int) -> SequenceSource:
    """Base-b digits of p/q (0 <= p < q), by long division.

    The digits are eventually periodic, so the division runs only until
    its remainder returns to the first one inside the period, at most q
    steps, and the period is then tiled. That remainder is the one after
    `pre` digits, where pre counts the divisions by gcd(q', b) that leave
    the reduced denominator q' coprime to b.
    """
    alphabet = digit_alphabet(b)
    if q < 1:
        raise ValueError("denominator must be positive")
    if not (0 <= p < q):
        raise ValueError("need 0 <= p < q")
    pre, rest = 0, q // math.gcd(p, q)
    while (g := math.gcd(rest, b)) > 1:
        rest //= g
        pre += 1

    def digits(count: int) -> bytes:
        out = bytearray()
        r, mark = p, None
        while len(out) < count:
            if len(out) == pre:
                mark = r
            r *= b
            d, r = divmod(r, q)
            out.append(d)
            if r == mark:
                break
        need = count - len(out)
        if need > 0:
            period = bytes(out[pre:])
            out += (period * (need // len(period) + 1))[:need]
        return bytes(out)

    return SequenceSource(f"rational:{p}/{q}:base{b}", alphabet, digits)


def _fixed_digits(x: int, b: int, count: int) -> bytes:
    """The `count` base-b digits of 0 <= x < b^count, leading zeros kept.

    Divide and conquer: divmod by b^(L*h) splits a run of chunks of L
    digits into its low h chunks and the rest, down to single chunks
    below 2^63, whose digits are then peeled off all at once in int64
    arrays, L vectorised divmods by b. Exact integers throughout, and no
    str(int), which refuses values of more than 4300 decimal digits.
    """
    width = 1
    while b ** (width + 1) < 2 ** 63:
        width += 1
    n_chunks = -(-count // width)
    powers: dict[int, int] = {}
    chunks: list[int] = []
    # runs of chunks still to split, the highest on top; a recursive
    # closure would be a reference cycle, keeping the powers alive until
    # the cyclic garbage collector runs
    runs = [(x, n_chunks)] if n_chunks else []
    while runs:
        y, n = runs.pop()
        if n == 1:
            chunks.append(y)
            continue
        low = n // 2
        if low not in powers:
            powers[low] = b ** (width * low)
        high, rest = divmod(y, powers[low])
        runs += [(rest, low), (high, n - low)]
    values = np.array(chunks, dtype=np.int64)
    digits = np.empty((n_chunks, width), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        values, digits[:, j] = np.divmod(values, b)
    return digits.tobytes()[n_chunks * width - count:]


def surd_source(d: int, b: int) -> SequenceSource:
    """Fractional base-b digits of sqrt(d), d >= 2 not a square.

    The first `count` digits are those of the one integer square root of
    d * b^(2 count): exact truncation, no rounding drift. Recomputing at
    higher precision never changes earlier digits, because
    floor(x / b^j) commutes with the truncation. The root becomes digits
    by divide and conquer, in O(log count) rounds of big-integer divmod.
    """
    if d < 2:
        raise ValueError(f"surd radicand must be at least 2, got {d}")
    whole = math.isqrt(d)
    if whole * whole == d:
        raise ValueError(
            f"{d} is a perfect square; use the rational path instead"
        )

    def digits(count: int) -> bytes:
        scaled = math.isqrt(d * b ** (2 * count))
        return _fixed_digits(scaled - whole * b ** count, b, count)

    return SequenceSource(f"surd:{d}:base{b}", digit_alphabet(b), digits)


def expansion_stream(number: str, whole: int, fraction: SequenceSource
                     ) -> SequenceSource:
    """A number's base-b expansion as one stream, with id
    expansion:<number>:base<b>: the digits of its integer part `whole`
    (none for 0, matching the empty expansion of zero) in front of its
    fractional digits, from the generator of `fraction`, whose alphabet
    fixes b. Only this stream caches the digits; `fraction` holds none.

    sqrt(2) in base 2 streams as 1 0 1 1 0 ..., while 1/3 streams as
    0 1 0 1 .... This is the stream the imitation game compares machines
    against.
    """
    b = fraction.alphabet.size
    head = bytes(encode_base_k(whole, b))

    def gen(n: int) -> bytes:
        if n <= len(head):
            return head[:n]
        return head + fraction.generate(n - len(head))

    return SequenceSource(f"expansion:{number}:base{b}", fraction.alphabet,
                          gen)


def xi3_source() -> SequenceSource:
    """The xi3 word; position p holds the value for n = p.

    The parity of the number of ones is the two-state automaton that
    flips on a 1, filled level by level like any other; the value 2
    sits only at the O(log count) indices (2^j - 1)(2^(2j) + 1), whose
    binary expansion is ones^j zeros^j ones^j.
    """

    def values(count: int) -> bytes:
        parity = _table_fill(np.array([[0, 1], [1, 0]]), 0, count + 1)
        j = 1
        while (n := (2 ** j - 1) * (2 ** (2 * j) + 1)) <= count:
            parity[n] = 2
            j += 1
        return parity[1:].tobytes()

    return SequenceSource("xi3", Alphabet(("0", "1", "2")), values)


def imitation_index(target: SequenceSource, k: int, max_states: int,
                    max_len: int) -> tuple[int, bool, Dfao]:
    """Longest prefix of the target digit stream reproducible by a base-k
    automaton with at most max_states states.

    One depth-first search. The state at n is delta(state(n // k), n % k),
    and each transition is chosen when the first n = 1, 2, ... reads it:
    every state in use, then one new state. States are numbered by first
    use, so no two isomorphic machines are tried. A state's output is
    pinned at its first visit, and a branch ends at its first mismatch.
    Returns (I, censored, a best machine), whose transitions that no
    position reads go to state 0. Refuses a search that tries more than
    ENUMERATION_CAP choices.
    """
    if max_states < 1:
        raise ValueError("need at least one state")
    goal = target.prefix(max_len).data
    # each state is first used at a position, so at most max_len of them
    m = min(max_states, max(max_len, 1))
    delta = [-1] * (m * k)
    tau = [goal[0] if goal else 0] + [0] * (m - 1)
    states = [0] * max_len
    choices = []  # (n, slot, states in use before) of each open choice
    n, used, tried, best = min(1, max_len), 1, 0, None
    while True:
        while n < max_len:
            slot = states[n // k] * k + n % k
            if delta[slot] < 0:
                tried += 1
                choices.append((n, slot, used))
                delta[slot] = 0
            s = states[n] = delta[slot]
            if s == used:
                tau[s] = goal[n]
                used += 1
            elif tau[s] != goal[n]:
                break
            n += 1
        if best is None or n > best[0]:
            best = (n, delta[:used * k], tau[:used])
        if n >= max_len:
            break
        if tried > ENUMERATION_CAP:
            raise EnumerationCapError(tried, ENUMERATION_CAP)
        # the last open choice with a state left to try
        while choices:
            n, slot, used = choices[-1]
            if delta[slot] < min(used, m - 1):
                tried += 1
                delta[slot] += 1
                break
            delta[slot] = -1
            choices.pop()
        else:
            break
    agree, delta, tau = best
    alphabet = target.alphabet
    names = tuple(f"q{i}" for i in range(len(tau)))
    machine = Dfao(
        k=k,
        states=names,
        initial="q0",
        delta={q: tuple(names[max(t, 0)] for t in delta[i * k:(i + 1) * k])
               for i, q in enumerate(names)},
        output={q: alphabet.symbols[tau[i]] for i, q in enumerate(names)},
    )
    return agree, agree == max_len, machine


def parse_stream_spec(spec: str, base: int | None = None,
                      expansion: bool = False) -> SequenceSource:
    """CLI stream specs, one grammar: xi3 bare, and rational:p/q, surd:d
    and file:<path> with their colons; anything else is refused.

    Rational and surd streams need a base. With expansion=True they
    stream the full base-b digit string (integer part included) instead
    of the fractional digits alone; the imitation game compares against
    that form. Each kind gives its fractional source, its number and its
    integer part, so the fractional digits come from the same generator
    either way, and each source checks its own arguments.
    """
    if spec == "xi3":
        return xi3_source()
    kind, colon, rest = spec.partition(":")
    if colon and kind == "file":
        return _file_source(rest)
    if not colon or kind not in ("rational", "surd"):
        raise ValueError(f"unknown stream spec {spec!r}")
    if base is None:
        raise ValueError(f"{kind} streams need --base")
    if kind == "rational":
        p_str, _, q_str = rest.partition("/")
        p, q = int(p_str), int(q_str)
        # checked before divmod, so q = 0 never divides
        if expansion and (q < 1 or p < 0):
            raise ValueError("need p >= 0, q >= 1")
        whole, r = divmod(p, q) if expansion else (0, p)
        number, fraction = f"{p}/{q}", rational_source(r, q, base)
    else:
        d = int(rest)
        # the source refuses d < 2 before the square root reads it
        number, fraction = str(d), surd_source(d, base)
        whole = math.isqrt(d)
    if not expansion:
        return fraction
    return expansion_stream(f"{kind}:{number}", whole, fraction)


def _file_source(path: str) -> SequenceSource:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if "\n" in text.strip():
        tokens = [line.strip() for line in text.splitlines() if line.strip()]
    else:
        tokens = list(text.strip())
    if not tokens:
        raise ValueError(f"stream file {path!r} is empty")
    alphabet = Alphabet(tuple(sorted(set(tokens))))
    data = bytes(alphabet.index(t) for t in tokens)
    return SequenceSource(f"file:{path}", alphabet, lambda n: data[:n])
