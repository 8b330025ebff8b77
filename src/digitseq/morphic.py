"""Morphisms, codings, fixed points, and growth analysis.

A spec is the 5-tuple (internal alphabet, morphism, start letter, external
alphabet, coding). The morphism must be non-erasing and prolongable on the
start letter; iterating it yields the unique fixed point starting with
that letter, and the coding maps it onto the output word. Both words
come from one generator, power-table doubling: `MorphicSpec.source`
streams the coded word, and `fixed_point_prefix` is the one way to read
the internal letters, which certificates, dilation profiles and
repetition seeds work on.

Growth is decided from one decomposition, the strongly connected
components of the incidence multigraph. Exponential growth is purely
combinatorial, because certificates depend on it: some letter has two
letters of its image, counted with multiplicity, in its own component.
The spectral radius, shown only for display, is the largest component
radius (Perron-Frobenius), so the whole matrix is never eigensolved;
that eigensolve is the one place the module loads numpy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .dfao import Dfao
from .errors import BudgetExceededError
from .sequences import Alphabet, SequencePrefix, SequenceSource
from .validation import ValidationReport, _check_alphabet, _reach

__all__ = [
    "MorphicSpec",
    "GrowthReport",
    "LetterGrowth",
    "RepetitionSeed",
    "incidence",
    "exponential_growth",
    "spectral_radius_estimate",
    "growth_report",
    "fixed_point_prefix",
    "repetition_seed",
    "to_dfao",
    "from_dfao",
]


@dataclass(frozen=True)
class MorphicSpec:
    """Internal alphabet, rules, start letter, external alphabet, coding.

    Construction validates: an invalid spec raises ValidationError.
    """

    internal: tuple[str, ...]
    rules: Mapping[str, tuple[str, ...]]
    start: str
    external: tuple[str, ...]
    coding: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(
            self, "rules", {a: tuple(img) for a, img in self.rules.items()}
        )
        object.__setattr__(self, "coding", dict(self.coding))
        self.validate().require()

    def validate(self) -> ValidationReport:
        """Declared names, an external alphabet of at most 256 non-empty
        letters, non-erasing rules, a prolongable start letter.

        Letters that never occur in the fixed point are warnings."""
        report = ValidationReport()
        letters = set(self.internal)
        if len(letters) != len(self.internal):
            report.error("duplicate-letter", "internal letters must be distinct")
        if len(set(self.external)) != len(self.external):
            report.error("duplicate-letter", "external letters must be distinct")
        _check_alphabet(report, self.external, "external letters")
        if self.start not in letters:
            report.error("unknown-letter", f"start letter {self.start!r} not declared")
        for a in self.internal:
            img = self.rules.get(a)
            if img is None:
                report.error("missing-rule", f"letter {a!r} has no image")
                continue
            if len(img) == 0:
                report.error(
                    "unsupported-erasing",
                    f"letter {a!r} maps to the empty word; erasing morphisms "
                    "are rejected, not normalized",
                )
            for b in img:
                if b not in letters:
                    report.error("unknown-letter", f"image of {a!r} uses {b!r}")
        for a in self.rules:
            if a not in letters:
                report.error("unknown-letter", f"rule for undeclared letter {a!r}")
        for a in self.internal:
            c = self.coding.get(a)
            if c is None:
                report.error("missing-coding", f"letter {a!r} has no coding")
            elif c not in set(self.external):
                report.error("unknown-letter", f"coding of {a!r} is {c!r}")
        if report.errors:
            return report
        img = self.rules[self.start]
        # non-erasing images make |sigma^n(start)| -> infinity automatic once
        # sigma(start) = start W with W non-empty
        if img[0] != self.start or len(img) < 2:
            report.error(
                "not-prolongable",
                f"image of start must be {self.start!r} followed by at least "
                f"one letter, got {''.join(img)!r}",
            )
            return report
        reached = self.occurring()
        for a in self.internal:
            if a not in reached:
                report.warn(
                    "unreachable-letter",
                    f"letter {a!r} never occurs in the fixed point",
                )
        return report

    def occurring(self) -> set[str]:
        """Letters of the fixed point: those reachable from the start."""
        return _reach(self.rules, self.start, {})

    def source(self, source_id: str) -> SequenceSource:
        """The coded fixed point over the external alphabet: the internal
        letters of _expand_indices, coded by one bytes.translate. More
        than 256 internal letters raise ValueError when it generates,
        not when it is built."""
        ext_alpha = Alphabet(self.external)
        table = bytes(ext_alpha.index(self.coding[a])
                      for a in self.internal).ljust(256, b"\0")
        return SequenceSource(
            source_id, ext_alpha,
            lambda n: _expand_indices(self, n).translate(table))


def incidence(spec: MorphicSpec) -> list[list[int]]:
    """Matrix M with M[i][j] = number of occurrences of letter i in the
    image of letter j, letters in alphabet order."""
    idx = {a: i for i, a in enumerate(spec.internal)}
    d = len(spec.internal)
    m = [[0] * d for _ in range(d)]
    for j, a in enumerate(spec.internal):
        for b in spec.rules[a]:
            m[idx[b]][j] += 1
    return m


def _components(spec: MorphicSpec) -> tuple[
        dict[str, set[str]], dict[str, int], list[tuple[str, ...]], dict[str, int]]:
    """The strongly connected components of the incidence multigraph,
    from one reach set per letter.

    Returns reach[a], the letters a reaches; comp[a], the id of a's
    component; members[id], the letters of that component sorted by
    name; and inside[a], how many letters of sigma(a), counted with
    multiplicity, lie in a's component.
    """
    reach: dict[str, set[str]] = {}
    for a in spec.internal:
        reach[a] = _reach(spec.rules, a, reach)
    comp: dict[str, int] = {}
    members: list[tuple[str, ...]] = []
    for a in spec.internal:
        if a not in comp:
            group = tuple(sorted(b for b in reach[a] if a in reach[b]))
            for b in group:
                comp[b] = len(members)
            members.append(group)
    inside = {a: sum(comp[b] == comp[a] for b in spec.rules[a])
              for a in spec.internal}
    return reach, comp, members, inside


def exponential_growth(spec: MorphicSpec) -> bool:
    """Exact combinatorial test for spectral radius of the incidence
    matrix exceeding 1: some letter has two letters of its image,
    counted with multiplicity, in its own strongly connected component.

    An irreducible nonnegative integer matrix has Perron root 1 exactly
    when its graph is a single cycle, and the spectral radius is the
    largest component radius. No floating point is involved."""
    *_, inside = _components(spec)
    return max(inside.values()) >= 2


@dataclass(frozen=True)
class LetterGrowth:
    theta: float
    poly_degree: int
    exponential: bool


@dataclass(frozen=True)
class GrowthReport:
    per_letter: dict[str, LetterGrowth]
    maximal: tuple[str, ...]
    global_exponential: bool

    @property
    def radius(self) -> float:
        """The largest letter theta, which is the largest component radius."""
        return max(g.theta for g in self.per_letter.values())


def _radius(members: tuple[str, ...], spec: MorphicSpec,
            inside: dict[str, int]) -> float:
    most = max(inside[a] for a in members)
    if most < 2:
        return float(most)  # no cycle, or a single cycle exactly
    import numpy as np
    idx = {a: i for i, a in enumerate(members)}
    sub = np.zeros((len(members), len(members)))
    for a in members:
        for b in spec.rules[a]:
            if b in idx:
                sub[idx[b]][idx[a]] += 1
    return float(np.max(np.abs(np.linalg.eigvals(sub))))


def growth_report(spec: MorphicSpec) -> GrowthReport:
    """Per-letter growth indices from the components of the incidence
    multigraph.

    |sigma^n(b)| grows like n^k * theta^n where theta is the largest
    component radius reachable from b and k is one less than the longest
    chain of theta-achieving components on a reachability path. The
    convention is validated against direct iteration in the test suite.
    """
    reach, comp, members, inside = _components(spec)
    radii = [_radius(m, spec, inside) for m in members]
    # the components of each component's image letters
    succ = [{comp[b] for a in m for b in spec.rules[a]} for m in members]
    # a component reaches only components that reach fewer letters, so
    # the others it reaches come first; its letters share its growth
    order = sorted(range(len(members)), key=lambda c: len(reach[members[c][0]]))
    grows: dict[int, LetterGrowth] = {}
    for c in order:
        below = [grows[d] for d in succ[c] if d != c]
        theta = max([radii[c]] + [g.theta for g in below])
        chain = (abs(radii[c] - theta) <= 1e-9) + max(
            (g.poly_degree + 1 for g in below if abs(g.theta - theta) <= 1e-9),
            default=0)
        exponential = (max(inside[a] for a in members[c]) >= 2
                       or any(g.exponential for g in below))
        grows[c] = LetterGrowth(theta, chain - 1, exponential)
    per_letter = {a: grows[comp[a]] for a in spec.internal}

    occurring = reach[spec.start]
    best = max(
        (per_letter[a].theta, per_letter[a].poly_degree) for a in occurring
    )
    maximal = tuple(
        a for a in spec.internal
        if a in occurring
        and abs(per_letter[a].theta - best[0]) <= 1e-9
        and per_letter[a].poly_degree == best[1]
    )
    return GrowthReport(per_letter=per_letter, maximal=maximal,
                        global_exponential=max(inside.values()) >= 2)


def spectral_radius_estimate(spec: MorphicSpec) -> float:
    """Spectral radius of the incidence matrix, growth_report(spec).radius:
    by Perron-Frobenius the largest component radius, and so exactly 1.0
    for a spec without exponential growth."""
    return growth_report(spec).radius


# longest tables at which a round joins the tables of every letter of
# every table; past it, a round reads only the letters it needs. Summed
# over the catalogue, linear, quadratic, cycle, bounded and 8 bench-style
# random specs at 2^10..2^20 symbols, 1024 is 7-10% faster than 256 or
# 4096
_SMALL_TABLE = 1024


def _image(word: bytes, tables: list[bytes], runs, one: bytes,
           count: int) -> tuple[list, int]:
    """sigma^m(word) cut at `count`, as pieces to join, and its length.

    tables[b] is sigma^m(b). A letter is copied as its whole table; a run
    that `runs` matches, of letters whose tables hold one symbol, is one
    bytes.translate through `one`. Pieces stop at the first letter that
    reaches `count`, and the last is cut there.
    """
    def pieces():
        # blocks of 1, 2, 4, ... letters, so that the run search reads
        # at most twice the letters needed; a run cut at a block edge
        # makes two pieces with the same symbols
        view, lo, step = memoryview(word), 0, 1
        while lo < len(word):
            hi = min(len(word), lo + step)
            if runs is not None:
                for run in runs.finditer(word, lo, hi):
                    yield from map(tables.__getitem__, view[lo:run.start()])
                    yield word[run.start():run.end()].translate(one)
                    lo = run.end()
            yield from map(tables.__getitem__, view[lo:hi])
            lo, step = hi, 2 * step

    out, total = [], 0
    for piece in pieces():
        out.append(piece)
        total += len(piece)
        if total >= count:
            out[-1] = memoryview(piece)[:len(piece) - (total - count)]
            return out, count
    return out, total


def _expand_indices(spec: MorphicSpec, count: int) -> bytes:
    """First `count` letters of the fixed point, as internal indices.

    Power-table doubling: the table of letter a holds sigma^m(a) cut at
    `count` letters, and one round squares m, because sigma^(2m)(a) is
    the concatenation of sigma^m(b) over the letters b of sigma^m(a).
    Only letters of the fixed point get tables. The start letter's table
    is a prefix of the fixed point, and |sigma^m(start)| >= m + 1, so at
    most log2(count) rounds square. While every table is short, a round
    joins the tables of all the letters of every table; after that it
    reads only the letters each new table needs, copies the whole table
    of each one and translates runs of one-symbol letters (_image).
    Letters are bytes, so more than 256 of them raise ValueError.

    A round squares only while the new tables hold at most
    2 * max(count, _SMALL_TABLE^2) symbols in all, so memory does not
    grow with the alphabet. Past that budget the tables stay sigma^m and
    the prefix p becomes sigma^m(p): once m * j reaches the number of
    letters, sigma^(m*j)(start) holds every letter, and two rounds later
    the prefix is longer than the squared tables would have been, so
    the budget adds at most letters / m + 2 rounds.
    """
    alpha = {a: i for i, a in enumerate(spec.internal)}
    if len(alpha) > 256:  # Alphabet's check, without building one per call
        raise ValueError("alphabets larger than 256 symbols are unsupported")
    start = alpha[spec.start]
    occurring = spec.occurring()
    tables = [bytes(alpha[b] for b in spec.rules[a])[:count]
              if a in occurring else b"" for a in spec.internal]
    budget = 2 * max(count, _SMALL_TABLE ** 2)
    while len(tables[start]) < count:
        longest = max(map(len, tables))
        # a join reads at most _SMALL_TABLE^2 symbols before its cut, and
        # the sum bounds the new tables from above
        if (longest > _SMALL_TABLE or budget <
                sum(min(count, len(t) * longest) for t in tables)):
            break
        tables = [b"".join([tables[b] for b in t])[:count] for t in tables]
    prefix, squaring = tables[start], True
    while len(prefix) < count:
        ones = bytes(b for b, t in enumerate(tables) if len(t) == 1)
        runs = re.compile(b"[%s]+" % re.escape(ones)) if ones else None
        one = bytes(t[0] if len(t) == 1 else 0
                    for t in tables).ljust(256, b"\0")

        def image(word):
            return _image(word, tables, runs, one, count)

        pieces, size = image(prefix)
        squaring = squaring and size < count
        if squaring:
            # the sum stops at the budget, so a round that cannot square
            # makes few images
            images, total = [], 0
            for b, t in enumerate(tables):
                images.append((pieces, size) if b == start else image(t))
                total += images[-1][1]
                if total > budget:
                    squaring = False
                    break
        if not squaring:
            prefix = b"".join(pieces)
            continue
        tables = [b"".join(p) for p, _ in images]
        prefix = tables[start]
    return prefix


def fixed_point_prefix(spec: MorphicSpec, count: int) -> SequencePrefix:
    """The first `count` letters of the internal fixed point, the one way
    to read it; the coded word over the external alphabet is read from
    MorphicSpec.source instead.

    The letters come from power-table doubling (_expand_indices):
    O(log count) rounds for every spec, polynomial growth included, each
    a few byte joins and translations. A negative count, or more than
    256 internal letters, raises ValueError.
    """
    if count < 0:
        raise ValueError(f"prefix length must be nonnegative, got {count}")
    return SequencePrefix(f"morphic:{spec.start}:internal",
                          Alphabet(spec.internal),
                          _expand_indices(spec, count))


@dataclass(frozen=True)
class RepetitionSeed:
    """Positions p1 < p2 of two occurrences of a maximal-growth letter b
    in the internal fixed point, with U = u[1..p1-1] and V = u[p1+1..p2-1],
    so that U b V b is a prefix."""

    letter: str
    p1: int
    p2: int
    u: tuple[str, ...]
    v: tuple[str, ...]


def repetition_seed(spec: MorphicSpec, scan_len: int = 4096) -> RepetitionSeed:
    """First repeated maximal-growth letter in the internal fixed point.

    Deterministic choice: the maximal-growth letter earliest in alphabet
    order that occurs twice within scan_len. Requires exponential growth;
    such a letter recurs infinitely often, so a large enough scan always
    succeeds. A negative scan_len raises ValueError.
    """
    if scan_len < 0:
        raise ValueError(f"scan length must be nonnegative, got {scan_len}")
    report = growth_report(spec)
    if not report.global_exponential:
        raise ValueError(
            "morphic certificates require exponential growth; this spec grows "
            "polynomially, so the self-similarity argument does not apply"
        )
    word = fixed_point_prefix(spec, scan_len).data
    letters = spec.internal
    for b in report.maximal:
        bi = letters.index(b)
        first = word.find(bi)
        if first < 0:
            continue
        second = word.find(bi, first + 1)
        if second < 0:
            continue
        u = tuple(letters[i] for i in word[:first])
        v = tuple(letters[i] for i in word[first + 1:second])
        return RepetitionSeed(letter=b, p1=first + 1, p2=second + 1, u=u, v=v)
    raise BudgetExceededError(
        f"no maximal-growth letter occurs twice within {scan_len} positions"
    )


def to_dfao(spec: MorphicSpec) -> Dfao:
    """Convert a k-uniform spec into the equivalent base-k automaton.

    Letters become states, the i-th letter of each image becomes the
    digit-i transition, and the coding becomes the output table. Outputs
    agree with the fixed point for every n.
    """
    lengths = {len(img) for img in spec.rules.values()}
    if len(lengths) != 1:
        raise ValueError("only uniform morphisms convert to an automaton")
    k = lengths.pop()
    delta = {a: tuple(spec.rules[a]) for a in spec.internal}
    return Dfao(
        k=k,
        states=spec.internal,
        initial=spec.start,
        delta=delta,
        output=dict(spec.coding),
    )


def from_dfao(m: Dfao) -> MorphicSpec:
    """Convert an automaton with delta(q0, 0) = q0 into a k-uniform spec.

    The general leading-zero repair is out of scope; automata whose
    initial state moves on digit 0 are rejected as unsupported.
    """
    if m.delta[m.initial][0] != m.initial:
        raise ValueError(
            "unsupported form: conversion requires delta(initial, 0) = initial"
        )
    return MorphicSpec(
        internal=m.states,
        rules={q: tuple(m.delta[q]) for q in m.states},
        start=m.initial,
        external=m.output_alphabet().symbols,
        coding=dict(m.output),
    )
