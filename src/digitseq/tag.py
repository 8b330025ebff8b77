"""Two-head enumerator view of a morphic spec: dilation profiles.

The write head is at position W(n) = |sigma(u_1..u_n)| when the read head
is at position n of the internal fixed point. The limit inferior of
W(n)/n cannot be computed from finite data, so this module reports a
sampled profile plus an exact boolean: W(n)/n stays above 1 exactly when
the morphism has exponential growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import morphic
from .morphic import MorphicSpec

__all__ = ["DilationProfile", "dilation_profile"]


@dataclass(frozen=True)
class DilationProfile:
    samples: tuple[tuple[int, Fraction], ...]
    min_ratio: Fraction
    argmin: int
    exceeds_one: bool


# symbols per block of the profile: bounds its int64 and float64 arrays
_BLOCK = 1 << 16


def dilation_profile(spec: MorphicSpec, n_limit: int) -> DilationProfile:
    """Exact W(n)/n at n = 1, 2, 4, ... up to n_limit, plus the overall
    minimum over all n <= n_limit and the first n attaining it.

    W is a running cumulative sum of image lengths, taken in blocks of
    _BLOCK symbols. Floats only shortlist each block's minimum:
    correctly rounded division is monotone, so every n with the least
    exact ratio has the least float ratio. The exact minimum among
    those, and between blocks, is settled by cross-multiplying integers.
    """
    if n_limit < 1:
        raise ValueError("profile length must be positive")
    internal = morphic.fixed_point_prefix(spec, n_limit)
    letters = np.frombuffer(internal.data, dtype=np.uint8)
    lengths = np.array([len(spec.rules[a]) for a in spec.internal],
                       dtype=np.int64)
    marks = [1 << j for j in range(n_limit.bit_length())]
    if marks[-1] != n_limit:
        marks.append(n_limit)
    at_mark = {}
    best_w, best_n, total = 0, 0, 0
    for lo in range(0, n_limit, _BLOCK):
        w = np.cumsum(lengths[letters[lo:lo + _BLOCK]])
        w += total
        total = int(w[-1])
        n = np.arange(lo + 1, lo + len(w) + 1, dtype=np.int64)
        ratio = w / n
        shortlist = np.flatnonzero(ratio == ratio.min())
        cw, cn = w[shortlist], n[shortlist]
        if total * int(n[-1]) >= 2 ** 63:  # cross products overflow int64
            cw, cn = cw.astype(object), cn.astype(object)
        # stepping to the first strictly smaller candidate ends at the
        # first n of the block with the least ratio
        first = 0
        while (below := cw * cn[first] < cw[first] * cn).any():
            first = int(np.argmax(below))
        if not best_n or int(cw[first]) * best_n < best_w * int(cn[first]):
            best_w, best_n = int(cw[first]), int(cn[first])
        at_mark.update((m, int(w[m - 1 - lo])) for m in marks
                       if lo < m <= lo + len(w))
    return DilationProfile(
        samples=tuple((m, Fraction(at_mark[m], m)) for m in marks),
        min_ratio=Fraction(best_w, best_n),
        argmin=best_n,
        exceeds_one=morphic.exponential_growth(spec),
    )
