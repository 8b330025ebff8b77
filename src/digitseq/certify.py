"""Repetition certificates: construction and independent verification.

A certificate packages machine-checkable evidence that an output sequence
has Diophantine exponent above 1: a family of repetition witnesses that
were actually verified against a generated prefix and the depth to which
the checks ran, with exact rational bounds derived from the family. Each
number is an integer or an exact rational, so re-verification is
bit-for-bit reproducible.

Position bookkeeping (fixed once, used everywhere): machine outputs are
indexed from n = 0, and input integer n sits at 1-based sequence position
n + 1. The output-equality family of a pair n < n' says that for every
level l, the outputs at k^l*n + i and k^l*n' + i agree for 0 <= i < k^l;
those are sequence positions k^l*n + i + 1 and k^l*n' + i + 1. The
witness at level l is then u = k^l*n, v = k^l*(n'-n), ext = v + k^l.

The kind a model's certificate has, and the engine that builds it, are
the model's row in machinefile.MODELS. An automaton's pair is the first
repeated state of its own table of states; a pushdown machine's is the
pair search's, and its prefix reads the search's step core.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import morphic as morphic_mod
from . import pda as pda_mod
from .errors import BudgetExceededError, PairRefutedError
from .machinefile import MODELS
from .words import (RepetitionWitness, SequenceSource, _table_fill,
                    verify_repetition)

__all__ = [
    "Certificate",
    "VerificationReport",
    "certificate_from_pair",
    "certify_dfao",
    "certify_morphic",
    "certify_pda",
    "verify_certificate",
    "certificate_to_json",
    "certificate_from_json",
]

# each certificate kind's methods; machinefile.MODELS says who writes it
_KINDS = {"dfao-pigeonhole": ("exact",), "morphic-witness": (None,),
          "pda-pair": ("exact", "protected"), "sequence-pair": (None,)}


def _kind(kind) -> tuple:
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown certificate kind {kind!r}") from None


@dataclass(frozen=True)
class Certificate:
    """Evidence that a source's output has dio > 1, verified to a depth.

    It holds only what its family cannot derive, and any certificate that
    exists is one verify can load: construction raises ValueError unless its
    kind and method are in the kinds table, there is a level-0 witness, the
    pair kinds and only they carry a pair and a radix, the morphic kind and
    only it carries a seed letter, and a pair's witnesses are its family.
    The rest is derived. verified_depth is the number of witnesses minus
    one, and seed_positions are p1 = u + 1 and p2 = u + v + 1 of the level-0
    witness. dio_lower_bound is n'/(n'-1) for pair kinds, a convention no
    witness achieves (each has ratio (n'+1)/n'), and the least witness ratio
    for the morphic kind. ratio_growth_bound is k for pair kinds, and the
    largest growth of u + v between consecutive witnesses for morphic.
    """

    kind: str
    machine_ref: str
    witnesses: tuple[RepetitionWitness, ...]
    k: int | None = None
    pair: tuple[int, int] | None = None
    method: str | None = None
    seed_letter: str | None = None

    def __post_init__(self):
        methods = _kind(self.kind)
        if self.method not in methods:
            *takes, given = ("none" if m is None else m
                             for m in (*methods, self.method))
            raise ValueError(f"a {self.kind} certificate takes method "
                             f"{' or '.join(takes)}, not {given}")
        if not self.witnesses:
            raise ValueError("a certificate needs its level-0 witness")
        pair_kind = self.kind != "morphic-witness"
        if (self.pair is None, self.k is None) != (not pair_kind,) * 2:
            raise ValueError(f"a {self.kind} certificate "
                             f"{'needs' if pair_kind else 'takes no'} "
                             f"pair n < n' and radix k")
        if (self.seed_letter is None) != pair_kind:
            raise ValueError(f"a {self.kind} certificate "
                             f"{'takes no' if pair_kind else 'needs a'} "
                             f"seed letter")
        if self.pair is not None:
            family = _pair_witnesses(*self.pair, self.k, self.verified_depth)
            for level, (w, own) in enumerate(zip(self.witnesses, family)):
                if w != own:
                    raise ValueError(
                        f"level-{level} witness is not the one the pair "
                        f"{self.pair[0]}, {self.pair[1]} gives")

    @property
    def verified_depth(self) -> int:
        return len(self.witnesses) - 1

    @property
    def seed_positions(self) -> tuple[int, int] | None:
        if self.seed_letter is None:
            return None
        w = self.witnesses[0]
        return w.u + 1, w.u + w.v + 1

    @property
    def dio_lower_bound(self) -> Fraction:
        if self.pair is not None:
            return Fraction(self.pair[1], self.pair[1] - 1)
        return Fraction(*_least((w.u + w.ext, w.u + w.v)
                                for w in self.witnesses))

    @property
    def ratio_growth_bound(self) -> Fraction:
        if self.pair is not None:
            return Fraction(self.k)
        return _witness_growth(self.witnesses)


def _pair_witnesses(n: int, n_prime: int, k: int, depth: int):
    """The witnesses of the pair n < n' at levels 0..depth, lazily through
    _within_reach, so that a comparison which stops early computes no
    further power of k: u = k^l*n, v = k^l*(n'-n), ext = v + k^l. An
    invalid pair raises ValueError at the call, and the first witness to
    end at k^l*(n'+1) >= 2^63 symbols when it is asked for."""
    if not (0 < n < n_prime) or k < 2:
        raise ValueError("a pair certificate needs 0 < n < n' and k >= 2")
    return _within_reach((RepetitionWitness(u=s * n, v=s * (n_prime - n),
                                            ext=s * (n_prime - n + 1))
                          for s in (k ** level for level in range(depth + 1))),
                         depth, "pair identities")


def _within_reach(witnesses, depth: int, what: str):
    """A family's witnesses to `depth`, lazily, each checked as it is
    made: the first that ends at 2^63 symbols or more raises ValueError,
    so no level past it is built."""
    for level, w in enumerate(witnesses):
        if (w.u + w.ext) >> 63:
            raise ValueError(f"{what} to depth {depth} need 2^63 or more "
                             f"symbols from level {level} on")
        yield w


def _failing(prefix, witnesses):
    """(level, witness) for each witness whose identity fails on a prefix
    that holds every witness end, lazily and in order."""
    return ((level, w) for level, w in enumerate(witnesses)
            if not verify_repetition(prefix, w))


def _extent(witnesses) -> int:
    return max((w.u + w.ext for w in witnesses), default=0)


def certificate_from_pair(source: SequenceSource, n: int, n_prime: int,
                          k: int, depth: int, kind: str = "sequence-pair",
                          method: str | None = None) -> Certificate:
    """Verify the output-equality family of a pair and package it.

    For each level l = 0..depth, the level-l witness checks position
    k^l*n + i + 1 against k^l*n' + i + 1 for all 0 <= i < k^l through the
    generic repetition verifier. A single mismatch refutes this pair (and
    only this pair) and is reported at its first offset i. A family that
    needs 2^63 or more symbols raises ValueError as it is derived, at
    the first level that reaches it and before any prefix is read.
    """
    family = _pair_witnesses(n, n_prime, k, depth)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    cert = Certificate(kind=kind, machine_ref=source.source_id,
                       witnesses=tuple(family), k=k, pair=(n, n_prime),
                       method=method)
    prefix = source.prefix(_extent(cert.witnesses))
    for level, w in _failing(prefix, cert.witnesses):
        data = prefix.data
        offset = next(i for i in range(w.ext - w.v)
                      if data[w.u + i] != data[w.u + w.v + i])
        raise PairRefutedError(n, n_prime, level, offset)
    return cert


def _state_pair(m) -> tuple[int, int]:
    """The first n < n' among n = 1 .. |Q| + 1 whose inputs reach one
    state of automaton m, read off its own table of states; by the
    pigeonhole principle there is one."""
    states = _table_fill(*m.table(), m.state_count() + 2).tolist()
    first: dict[int, int] = {}
    for n_prime in range(1, len(states)):
        n = first.setdefault(states[n_prime], n_prime)
        if n < n_prime:
            return n, n_prime


def certify_dfao(m, depth: int = 10, machine_ref: str | None = None) -> Certificate:
    """Pigeonhole certificate for an automaton.

    Scanning n = 1, 2, ... the reached state repeats within |Q| + 1 steps;
    equal states mean equal configurations, so the pair is output-
    equivalent and the identity family holds at every level. The states
    come from the automaton's own table. A negative depth raises before
    the table is read.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    row = MODELS[type(m)]
    n, n_prime = _state_pair(m)
    return certificate_from_pair(m.source(machine_ref or row.kind), n,
                                 n_prime, m.k, depth, kind=row.certificate,
                                 method="exact")


def _least(ratios) -> tuple[int, int]:
    """The least of positive ratios p/q, given as (p, q) pairs and
    compared by cross-multiplication, so that only the caller's one
    Fraction is built; (1, 1) for none."""
    least = (1, 1)
    for i, (p, q) in enumerate(ratios):
        if not i or p * least[1] < least[0] * q:
            least = p, q
    return least


def _witness_growth(witnesses) -> Fraction:
    """Largest growth of u + v between consecutive witnesses; 1 for fewer
    than two."""
    q, p = _least((a.u + a.v, b.u + b.v)
                  for a, b in zip(witnesses, witnesses[1:]))
    return Fraction(p, q)


def _morphic_family(spec: morphic_mod.MorphicSpec,
                    seed: morphic_mod.RepetitionSeed, depth: int):
    """The witnesses the seed U b V b determines at levels 0..depth,
    lazily through _within_reach, touching no prefix.

    The level-l witness is u = |sigma^l(U)|, v = |sigma^l(bV)|, ext =
    v + |sigma^l(b)|, from one table of letter lengths |sigma^l(a)|: it
    starts at 1, one pass over the rules takes it a level up, and u and
    v are its sums over the letter counts of U and bV. The first witness
    to end at 2^63 symbols or more raises ValueError when it is asked for.
    """
    counts = [Counter(word) for word in (seed.u, (seed.letter,) + seed.v)]

    def levels():
        size = dict.fromkeys(spec.internal, 1)
        for _ in range(depth + 1):
            u, bv = (sum(size[a] * c for a, c in count.items())
                     for count in counts)
            yield RepetitionWitness(u=u, v=bv, ext=bv + size[seed.letter])
            size = {a: sum(size[b] for b in img)
                    for a, img in spec.rules.items()}

    return _within_reach(levels(), depth, "morphic witnesses")


def certify_morphic(spec, depth: int = 8, scan_len: int = 4096,
                    machine_ref: str | None = None) -> Certificate:
    """Self-similarity certificate for an exponential-growth morphic spec.

    The family of the first seed U b V b (b of maximal growth) that
    repetition_seed finds, each witness verified against the internal
    fixed point. A verification failure here would mean an
    implementation bug, so it raises instead of reporting.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    seed = morphic_mod.repetition_seed(spec, scan_len)
    cert = Certificate(kind="morphic-witness",
                       machine_ref=machine_ref or f"morphic:{spec.start}",
                       witnesses=tuple(_morphic_family(spec, seed, depth)),
                       seed_letter=seed.letter)
    internal = morphic_mod.fixed_point_prefix(spec, _extent(cert.witnesses))
    for level, _ in _failing(internal, cert.witnesses):
        raise AssertionError(
            f"morphic witness failed at level {level}; "
            "this indicates a bug, not a property of the spec"
        )
    return cert


def certify_pda(m, n_max: int = 10_000, depth: int = 12,
                machine_ref: str | None = None) -> Certificate:
    """Configuration-equivalence certificate for a pushdown transducer:
    the family of the first pair n < n' <= n_max that the pair search
    finds, verified on m's own output, which reads the search's core. A
    negative depth raises before the search."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    row = MODELS[type(m)]
    found, source = pda_mod._pair_and_source(m, n_max,
                                             machine_ref or row.kind)
    if found is None:
        raise BudgetExceededError(f"no equivalent pair within n <= {n_max}; "
                                  "raising the budget may still find one")
    n, n_prime, method = found
    return certificate_from_pair(source, n, n_prime, m.k, depth,
                                 kind=row.certificate, method=method)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    witnesses_checked: int
    extended_depth: int | None
    failures: tuple[str, ...]
    notes: tuple[str, ...]

    def summary(self) -> str:
        lines = []
        verdict = "valid" if self.valid else "INVALID"
        lines.append(
            f"certificate {verdict}: {self.witnesses_checked} witnesses re-checked"
        )
        if self.extended_depth is not None:
            lines.append(f"pair identities extended to depth {self.extended_depth}")
        lines.extend(f"failure: {f}" for f in self.failures)
        lines.extend(self.notes)
        return "\n".join(lines)


def _approximation_note(w: RepetitionWitness, base: int) -> str:
    # each witness pins the first u+ext digits against an eventually
    # periodic tail, i.e. a rational with denominator b^u (b^v - 1)
    num, den = w.u + w.ext, w.u + w.v
    common = math.gcd(num, den)
    ratio = (f"{num // common}" if den == common
             else f"{num // common}/{den // common}")
    return (
        f"witness u={w.u} v={w.v} ext={w.ext}: some p has "
        f"|x - p/q| < q^(-{ratio}) with q = {base}^{w.u}*({base}^{w.v}-1)"
    )


def _seed_failure(spec: morphic_mod.MorphicSpec,
                  cert: Certificate) -> str | None:
    """Why a morphic certificate is not the family of the seed re-derived
    from the spec, or None when it is: the seed is not re-derived, the
    declared seed is not that seed, or the stored witnesses are not its
    family.

    The seed is the first maximal-growth letter, in alphabet order, that
    occurs twice within the scan window, so a window of exactly p2
    symbols re-derives the seed that any window of p2 or more found: the
    check does not depend on the scan length the certificate was built
    with. p2 = u + v + 1 of the level-0 witness, within one symbol of the
    prefix that witness needs.
    """
    p1, p2 = cert.seed_positions
    try:
        seed = morphic_mod.repetition_seed(spec, p2)
    except (ValueError, BudgetExceededError) as exc:
        return f"seed not re-derived: {exc}"
    if (seed.letter, seed.p1, seed.p2) != (cert.seed_letter, p1, p2):
        return (f"declared seed {cert.seed_letter!r} at {p1}, {p2} is not "
                f"the re-derived seed {seed.letter!r} at {seed.p1}, "
                f"{seed.p2}")
    family = _morphic_family(spec, seed, cert.verified_depth)
    if tuple(family) != tuple(cert.witnesses):
        return "stored witnesses do not match the re-derived seed"
    return None


def verify_certificate(source: SequenceSource, cert: Certificate,
                       extra_depth: int = 0, machine=None
                       ) -> VerificationReport:
    """Independently re-check every stored witness against the source.

    Construction has checked all the certificate determines alone; the
    checks here need the source or the machine. A negative extra_depth
    raises ValueError. Given the machine the source comes from, the kind
    must be the one its model certifies. A pair certificate is checked as
    its family to extra_depth levels past its depth: construction made
    the stored witnesses that family's first levels. It is derived before
    any prefix is read, and one that needs 2^63 or more symbols raises
    ValueError at its first level that does. A morphic certificate is
    checked at its own depth, with a note when extra_depth asks for
    more. Given a morphic machine, the seed is re-derived and the
    witnesses must be its family; without it the report notes that the
    seed was not checked. The witnesses are then checked on one prefix.
    The report lists, per witness, the rational-approximation statement
    it implies for the number whose digit stream the source is; the
    statement is symbolic (the denominators are astronomically large)
    and nothing
    floating-point is asserted.
    """
    if extra_depth < 0:
        raise ValueError("extra depth must be nonnegative")
    failures, notes = [], []
    kind = getattr(MODELS.get(type(machine)), "certificate", None)
    if kind not in (None, cert.kind):
        failures.append(f"kind {cert.kind} is not {kind}, the kind its "
                        f"machine certifies")
    checked, extended = tuple(cert.witnesses), None
    if cert.pair is not None:
        extended = cert.verified_depth + extra_depth
        checked = tuple(_pair_witnesses(*cert.pair, cert.k, extended))
    try:
        prefix = source.prefix(_extent(checked))
    except MemoryError as exc:  # cannot even materialize the data
        return VerificationReport(False, 0, extended, (
            f"prefix generation failed: {exc}",), ())
    if cert.kind == "morphic-witness":
        if extra_depth:
            notes.append("note: extra depth extends pair families only; "
                         "these witnesses were checked at their own depth")
        if kind != cert.kind:
            notes.append("note: seed not checked: no morphic machine given")
        elif failure := _seed_failure(machine, cert):
            failures.append(failure)
    failures.extend(
        f"witness u={w.u} v={w.v} ext={w.ext}: prefix identity fails"
        for _, w in _failing(prefix, checked))
    base = source.alphabet.size
    notes.extend(_approximation_note(w, base) for w in cert.witnesses)
    return VerificationReport(not failures, len(checked), extended,
                              tuple(failures), tuple(notes))


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _document(cert: Certificate) -> dict:
    """The JSON document of a certificate: the one definition of the
    format, which certificate_from_json holds every file to."""
    doc = {
        "kind": cert.kind,
        "machine": cert.machine_ref,
        "dioLowerBound": _fraction_str(cert.dio_lower_bound),
        "ratioGrowthBound": _fraction_str(cert.ratio_growth_bound),
        "verifiedDepth": cert.verified_depth,
        "witnesses": [
            {"u": w.u, "v": w.v, "ext": w.ext} for w in cert.witnesses
        ],
    }
    if cert.pair is not None:
        doc["k"], doc["n"], doc["nPrime"] = cert.k, *cert.pair
    if cert.method is not None:
        doc["method"] = cert.method
    if cert.seed_letter is not None:
        doc["seedLetter"] = cert.seed_letter
        doc["seedPositions"] = list(cert.seed_positions)
    return doc


def certificate_to_json(cert: Certificate) -> str:
    return _indented(_document(cert)) + "\n"


def _indented(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for what a document
    holds (dicts, lists, strings and ints), written without the
    pure-Python encoder that an indent selects in json: each string goes
    through json's C escaper, each int through its repr."""
    if type(value) is str:
        return _escape(value)
    inner = pad + "  "
    if type(value) is dict:
        body = ",".join(
            f"{inner}{_escape(key)}: "
            f"{repr(item) if type(item) is int else _indented(item, inner)}"
            for key, item in sorted(value.items()))
        return f"{{{body}{pad}}}" if value else "{}"
    if type(value) is list:
        body = ",".join(
            inner + (repr(item) if type(item) is int
                     else _indented(item, inner)) for item in value)
        return f"[{body}{pad}]" if value else "[]"
    return json.dumps(value)


def _same(a, b) -> bool:
    """Whether two JSON values are the same, type for type: 1 is not
    true, 2 is not 2.0 or "2", and a dict holds the same keys."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


# one JSON text per value, for the error message
_canonical = partial(json.dumps, sort_keys=True)
_escape = json.encoder.encode_basestring_ascii


def certificate_from_json(text: str) -> Certificate:
    """The certificate a document denotes, judged by its constructor and
    accepted only if the document is the one certificate_to_json writes for
    it, key order and whitespace aside. Anything else raises ValueError: a
    field certify does not write for the kind, or another spelling of a
    value, such as "10/8" for "5/4", 2.0 or "2" for 2, or true for 1.
    """
    try:
        doc = json.loads(text)
        methods = _kind(doc["kind"])
        if doc["kind"] == "morphic-witness":
            fields = {"seed_letter": str(doc["seedLetter"])}
        else:
            fields = {"k": int(doc["k"]),
                      "pair": (int(doc["n"]), int(doc["nPrime"]))}
        cert = Certificate(
            kind=doc["kind"], machine_ref=str(doc["machine"]),
            witnesses=tuple(RepetitionWitness(int(w["u"]), int(w["v"]),
                                              int(w["ext"]))
                            for w in doc["witnesses"]),
            method=None if None in methods else doc.get("method"), **fields)
        want = _document(cert)
        if not _same(doc, want):
            foreign = sorted(doc.keys() - want.keys())
            if foreign:
                raise ValueError(f"a {cert.kind} certificate has no fields "
                                 f"{foreign}")
            key = min(key for key in want if not _same(doc[key], want[key]))
            raise ValueError(f"{key!r} is {_canonical(doc[key])} in the file, "
                             f"but certify writes {_canonical(want[key])}")
        return cert
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from exc
    except (TypeError, AttributeError, ArithmeticError, RecursionError) as exc:
        raise ValueError(str(exc)) from exc
