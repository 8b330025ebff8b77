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

from . import morphic
from .morphic import MorphicSpec

__all__ = ["DilationProfile", "dilation_profile"]


@dataclass(frozen=True)
class DilationProfile:
    samples: tuple[tuple[int, Fraction], ...]
    min_ratio: Fraction
    argmin: int
    exceeds_one: bool


def dilation_profile(spec: MorphicSpec, n_limit: int) -> DilationProfile:
    """Exact W(n)/n at n = 1, 2, 4, ... up to n_limit, plus the overall
    minimum over all n <= n_limit. Single pass: W grows by one image
    length per letter read."""
    if n_limit < 1:
        raise ValueError("profile length must be positive")
    _, internal = morphic.fixed_point_prefix(spec, n_limit)
    lengths = [len(spec.rules[a]) for a in spec.internal]
    w = 0
    samples = []
    min_ratio = None
    argmin = 1
    mark = 1
    for n, letter in enumerate(internal.data, start=1):
        w += lengths[letter]
        ratio = Fraction(w, n)
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
            argmin = n
        if n == mark:
            samples.append((n, ratio))
            mark *= 2
    if samples[-1][0] != n_limit:
        samples.append((n_limit, ratio))
    return DilationProfile(
        samples=tuple(samples),
        min_ratio=min_ratio,
        argmin=argmin,
        exceeds_one=morphic.exponential_growth(spec),
    )
