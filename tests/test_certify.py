import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import iterated_lengths_loop, periodic_source, random_morphic
from digitseq import catalog, dfao, numbers, pda
from digitseq.certify import (Certificate, _fraction_str, _morphic_family,
                              certificate_from_json, certificate_from_pair,
                              certificate_to_json, certify_dfao,
                              certify_morphic, certify_pda,
                              verify_certificate)
from digitseq.errors import BudgetExceededError, PairRefutedError
from digitseq.morphic import MorphicSpec, RepetitionSeed, repetition_seed
from digitseq.words import RepetitionWitness, verify_repetition


@pytest.fixture(scope="module")
def xi2_source(xi2):
    return xi2.source("dpao:xi2")


def edited(cert, edit):
    """The certificate a document denotes after edit(document) changed
    the one certify wrote for cert."""
    doc = json.loads(certificate_to_json(cert))
    edit(doc)
    return certificate_from_json(json.dumps(doc))


class TestPairCertificates:
    def test_xi2_pair(self, xi2_source):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=6)
        assert cert.dio_lower_bound == Fraction(5, 4)
        assert cert.ratio_growth_bound == 2
        assert len(cert.witnesses) == 7

    def test_witness_shape_per_level(self, xi2_source):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=6)
        for level, w in enumerate(cert.witnesses):
            scale = 2 ** level
            assert (w.u, w.v, w.ext) == (scale, 4 * scale, 5 * scale)
            # witnessed block ends k^l positions past position k^l * n'
            assert w.u + w.ext == scale * 5 + scale
            assert w.ratio == Fraction(6, 5)

    def test_witnesses_verify_against_fresh_prefix(self, xi2, xi2_source):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=8)
        fresh = xi2.source("test").prefix(2 ** 8 * 6)
        assert all(verify_repetition(fresh, w) for w in cert.witnesses)

    def test_length_growth_is_exactly_k(self, xi2_source):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=6)
        lengths = [w.u + w.v for w in cert.witnesses]
        assert all(b == 2 * a for a, b in zip(lengths, lengths[1:]))

    def test_depth_refinement_never_weakens_bound(self, xi2_source):
        bounds = [
            certificate_from_pair(xi2_source, 1, 5, 2, depth=d).dio_lower_bound
            for d in range(5)
        ]
        assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_non_equivalent_pair_is_refuted_with_location(self, tm_dfao):
        src = tm_dfao.source("tm")
        with pytest.raises(PairRefutedError) as info:
            certificate_from_pair(src, 1, 3, 2, depth=4)
        assert info.value.level == 0 and info.value.offset == 0
        with pytest.raises(PairRefutedError) as info:
            certificate_from_pair(numbers.xi3_source(), 3, 6, 2, depth=6)
        assert (info.value.level, info.value.offset) == (3, 2)

    def test_pair_must_be_positive_and_ordered(self, xi2_source):
        with pytest.raises(ValueError):
            certificate_from_pair(xi2_source, 0, 2, 2, 2)
        with pytest.raises(ValueError):
            certificate_from_pair(xi2_source, 5, 1, 2, 2)

    def test_xi3_pair(self):
        cert = certificate_from_pair(numbers.xi3_source(), 10, 20, 2, depth=6)
        assert cert.dio_lower_bound == Fraction(20, 19)


class TestDfaoCertificates:
    def test_thue_morse(self, tm_dfao):
        cert = certify_dfao(tm_dfao, depth=10)
        assert cert.kind == "dfao-pigeonhole"
        assert cert.pair == (1, 2)
        assert cert.pair[1] <= tm_dfao.state_count() + 1
        assert cert.dio_lower_bound == 2

    def test_three_squares(self, three_squares):
        cert = certify_dfao(three_squares, depth=10)
        assert cert.pair == (2, 4)
        assert cert.pair[1] <= three_squares.state_count() + 1
        assert cert.dio_lower_bound == Fraction(4, 3)

    def test_one_state_machine(self):
        m = dfao.Dfao(k=2, states=("q",), initial="q",
                      delta={"q": ("q", "q")}, output={"q": "c"})
        cert = certify_dfao(m, depth=4)
        assert cert.pair == (1, 2)


class TestMorphicCertificates:
    def test_xi1(self, xi1):
        cert = certify_morphic(xi1, depth=8)
        assert cert.kind == "morphic-witness"
        assert cert.dio_lower_bound == Fraction(5, 4)
        assert cert.dio_lower_bound > 1
        assert cert.ratio_growth_bound == 2
        assert cert.ratio_growth_bound <= 3
        assert cert.seed_letter == "a" and cert.seed_positions == (1, 5)
        assert all(w.u == 0 for w in cert.witnesses)

    def test_thue_morse_constant_ratio(self, tm_morphic):
        cert = certify_morphic(tm_morphic, depth=8)
        assert cert.dio_lower_bound == Fraction(4, 3)
        assert all(w.ratio == Fraction(4, 3) for w in cert.witnesses)

    def test_polynomial_growth_rejected(self, squares):
        with pytest.raises(ValueError, match="exponential"):
            certify_morphic(squares)

    def test_family_lengths_match_the_letter_recurrence(self):
        rng = random.Random(909)
        specs = [catalog.get(name) for name in catalog.names()
                 if isinstance(catalog.get(name), MorphicSpec)]
        specs += [random_morphic(rng) for _ in range(50)]
        for spec in specs:
            try:
                seed = repetition_seed(spec)
            except (ValueError, BudgetExceededError):
                # lengths only: any words stand in for U, b and V
                image = spec.rules[spec.start]
                seed = RepetitionSeed(letter=image[-1], p1=2,
                                      p2=2 + len(image), u=(spec.start,),
                                      v=image)
            cert = _morphic_family(spec, seed, 20, "test")
            u, bv, b = (iterated_lengths_loop(spec, word, 20) for word in
                        (seed.u, (seed.letter,) + seed.v, (seed.letter,)))
            assert [(w.u, w.v, w.ext) for w in cert.witnesses] == [
                (u[level], bv[level], bv[level] + b[level])
                for level in range(21)], spec

    def test_witnesses_hold_on_coded_word_too(self, xi1):
        cert = certify_morphic(xi1, depth=6)
        src = xi1.source("xi1")
        report = verify_certificate(src, cert)
        assert report.valid


class TestPdaCertificates:
    def test_xi2(self, xi2):
        cert = certify_pda(xi2, depth=10)
        assert cert.kind == "pda-pair"
        assert cert.pair == (1, 5) and cert.method == "exact"
        assert cert.dio_lower_bound == Fraction(5, 4)

    def test_identical_configurations_pair_at_any_height(self, tall):
        # n = 1 and n = 2 both reach (p, X^70)
        cert = certify_pda(tall, depth=4)
        assert (cert.pair, cert.method) == ((1, 2), "exact")
        assert cert.dio_lower_bound == 2
        assert verify_certificate(tall.source("dpao"), cert,
                                  machine=tall).valid

    def test_budget_exhaustion_is_not_a_disproof(self):
        t = {}
        for q in ("p0", "p1"):
            for d in (0, 1):
                t[(q, "#", d)] = (f"p{d}", ("X",))
                t[(q, "X", d)] = (f"p{d}", ("X", "X"))
        outputs = {(q, a): "1" for q in ("p0", "p1") for a in ("X", "#")}
        m = pda.Dpao(k=2, states=("p0", "p1"), initial="p0",
                     stack_symbols=("X",), transitions=t, output=outputs)
        with pytest.raises(BudgetExceededError, match="^no equivalent pair "
                           "within n <= 3; raising the budget may still"):
            certify_pda(m, n_max=3, depth=2)


def _rebuilt(cert):
    """The certificate rebuilt from the fields its family cannot derive."""
    return Certificate(
        kind=cert.kind, machine_ref=cert.machine_ref,
        witnesses=cert.witnesses, k=cert.k, pair=cert.pair,
        method=cert.method, seed_letter=cert.seed_letter)


def _catalogue_certificates():
    """(certificate, depth, machine) for every certifiable catalogue
    machine and the xi3 pair (10, 20) at depths 0..12."""
    certs = [(certificate_from_pair(numbers.xi3_source(), 10, 20, 2, depth),
              depth, None) for depth in range(13)]
    for name in catalog.names():
        machine = catalog.get(name)
        if isinstance(machine, dfao.Dfao):
            certify = certify_dfao
        elif isinstance(machine, pda.Dpao):
            certify = certify_pda
        elif name != "squares":  # polynomial growth: no seed
            certify = certify_morphic
        else:
            continue
        certs += [(certify(machine, depth=depth), depth, machine)
                  for depth in range(13)]
    return certs


class TestConstruction:
    def test_bounds_are_not_fields(self, xi2_source):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=3)
        with pytest.raises(TypeError, match="dio_lower_bound"):
            Certificate(kind=cert.kind, machine_ref=cert.machine_ref,
                        dio_lower_bound=Fraction(5, 4),
                        ratio_growth_bound=Fraction(2),
                        witnesses=cert.witnesses, k=2, pair=(1, 5))

    def test_depth_and_seed_positions_are_not_fields(self, xi1):
        cert = certify_morphic(xi1, depth=3)
        for field, value in (("verified_depth", 3),
                             ("seed_positions", (1, 5))):
            with pytest.raises(TypeError, match=field):
                Certificate(kind=cert.kind, machine_ref=cert.machine_ref,
                            witnesses=cert.witnesses,
                            seed_letter=cert.seed_letter, **{field: value})

    def test_morphic_certificate_needs_a_seed_letter(self, xi1, xi2):
        with pytest.raises(ValueError, match="^a morphic-witness certificate "
                                             "needs a seed letter$"):
            dataclasses.replace(certify_morphic(xi1, depth=3),
                                seed_letter=None)
        with pytest.raises(ValueError, match="^a pda-pair certificate takes "
                                             "no seed letter$"):
            dataclasses.replace(certify_pda(xi2, depth=3), seed_letter="a")

    def test_depth_and_seed_positions_are_derived(self):
        # the depth certify is asked for, and the positions of the seed
        # repetition_seed finds
        rng = random.Random(4242)
        certs = _catalogue_certificates()
        for spec in (random_morphic(rng) for _ in range(60)):
            try:
                repetition_seed(spec)
            except (ValueError, BudgetExceededError):
                continue
            certs += [(certify_morphic(spec, depth), depth, spec)
                      for depth in (0, 5, 12)]
        assert sum(isinstance(m, MorphicSpec) for _, _, m in certs) > 80
        for cert, depth, machine in certs:
            derived = _rebuilt(cert)
            assert derived.verified_depth == depth
            if isinstance(machine, MorphicSpec):
                seed = repetition_seed(machine)
                assert derived.seed_positions == (seed.p1, seed.p2)
            else:
                assert derived.seed_positions is None

    def test_bounds_are_the_family_values(self):
        certs = [cert for cert, _, _ in _catalogue_certificates()]
        assert {cert.kind for cert in certs} == {
            "sequence-pair", "dfao-pigeonhole", "pda-pair", "morphic-witness"}
        for cert in certs:
            derived = _rebuilt(cert)
            ws = cert.witnesses
            if cert.pair is None:
                want = (min(Fraction(w.u + w.ext, w.u + w.v) for w in ws),
                        max([Fraction(b.u + b.v, a.u + a.v)
                             for a, b in zip(ws, ws[1:])] or [Fraction(1)]))
            else:
                want = (Fraction(cert.pair[1], cert.pair[1] - 1),
                        Fraction(cert.k))
            assert (derived.dio_lower_bound,
                    derived.ratio_growth_bound) == want, cert
            assert derived == cert
        assert certs[12].dio_lower_bound == Fraction(20, 19)

    @pytest.mark.parametrize("changes, error, message", [
        # the depth is derived, so no certificate can declare another
        ({"verified_depth": 5}, TypeError,
         ".*unexpected keyword argument 'verified_depth'"),
        ({"verified_depth": -1, "witnesses": ()}, TypeError,
         ".*unexpected keyword argument 'verified_depth'"),
        ({"witnesses": ()}, ValueError,
         "a certificate needs its level-0 witness"),
        ({"witnesses": (RepetitionWitness(1, 4, 5), RepetitionWitness(2, 8, 10),
                        RepetitionWitness(4, 16, 21), RepetitionWitness(8, 32, 40),
                        RepetitionWitness(16, 64, 80))}, ValueError,
         "level-2 witness is not the one the pair 1, 5 gives"),
        ({"pair": None, "k": None}, ValueError,
         "a pda-pair certificate needs pair n < n' and radix k"),
        ({"pair": None}, ValueError,
         "a pda-pair certificate needs pair n < n' and radix k"),
    ], ids=["depth-off-by-one", "depth-minus-one", "no-witnesses",
            "pair-witness-off", "pair-kind-without-pair",
            "pair-kind-without-radix"])
    def test_inconsistent_pair_certificate_does_not_construct(
            self, xi2, changes, error, message):
        cert = certify_pda(xi2, depth=4)
        with pytest.raises(error, match=f"^{message}$"):
            dataclasses.replace(cert, **changes)

    def test_morphic_kind_takes_no_pair(self, xi1):
        cert = certify_morphic(xi1, depth=4)
        for changes in ({"pair": (1, 5), "k": 2}, {"k": 2}):
            with pytest.raises(ValueError, match="^a morphic-witness "
                               "certificate takes no pair n < n' and radix k$"):
                dataclasses.replace(cert, **changes)

    def test_huge_radix_pair_file_is_rejected_in_time_bounded_by_the_file(
            self):
        # level 1 would need k^200 * 20, an 800,000-digit number; the
        # comparison stops at level 1, the first level the file gets wrong
        k = 10 ** 4000
        text = json.dumps({
            "kind": "sequence-pair", "machine": "xi3", "k": k, "n": 10,
            "nPrime": 20, "verifiedDepth": 200,
            "witnesses": [{"u": 10, "v": 10, "ext": 11}] * 201,
            "dioLowerBound": "20/19", "ratioGrowthBound": f"{k}/1"})
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^level-1 witness is not the "
                                             "one the pair 10, 20 gives$"):
            certificate_from_json(text)
        assert time.perf_counter() - start < 1


class TestVerification:
    def test_emitted_certificates_reverify(self, xi2, xi2_source, tm_dfao,
                                           xi1):
        for cert, src, machine in (
            (certify_pda(xi2, depth=8), xi2_source, xi2),
            (certify_dfao(tm_dfao, depth=8), tm_dfao.source("tm"), tm_dfao),
            (certify_morphic(xi1, depth=6), xi1.source("xi1"), xi1),
        ):
            for machine in (None, machine):
                report = verify_certificate(src, cert, extra_depth=1,
                                            machine=machine)
                assert report.valid, report.failures

    def test_pair_without_witnesses_is_invalid(self):
        cert = certificate_from_pair(numbers.xi3_source(), 10, 20, 2, depth=4)
        with pytest.raises(ValueError, match="^a certificate needs its "
                                             "level-0 witness$"):
            edited(cert, lambda d: d.update(witnesses=[], verifiedDepth=-1))

    def test_negative_extra_depth_is_rejected(self):
        source = numbers.xi3_source()
        cert = certificate_from_pair(source, 10, 20, 2, depth=4)
        with pytest.raises(ValueError, match="extra depth must be nonnegative"):
            verify_certificate(source, cert, extra_depth=-3)

    def test_tampered_extension_is_invalid(self, xi2_source):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=4)

        def stretch(doc):
            doc["witnesses"][-1]["ext"] += 1

        with pytest.raises(ValueError, match="^level-4 witness is not the "
                                             "one the pair 1, 5 gives$"):
            edited(cert, stretch)

    def test_wrong_source_is_invalid(self, xi2_source, tm_dfao):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=4)
        report = verify_certificate(tm_dfao.source("tm"), cert)
        assert not report.valid

    def test_inflated_bound_is_invalid(self, xi2_source):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=4)
        with pytest.raises(ValueError, match="^'dioLowerBound' is \"3/2\" in "
                           "the file, but certify writes \"5/4\"$"):
            edited(cert, lambda d: d.update(dioLowerBound="3/2"))

    def test_morphic_bounds_are_recomputed(self, xi1):
        cert = certify_morphic(xi1, depth=6)
        assert cert.dio_lower_bound == min(w.ratio for w in cert.witnesses)
        dio, growth = "5/4", "2/1"
        assert (_fraction_str(cert.dio_lower_bound),
                _fraction_str(cert.ratio_growth_bound)) == (dio, growth)
        # the file is held to its first field that differs
        for edit, flagged in (
                ({"dioLowerBound": "100/1", "ratioGrowthBound": "1/1000"},
                 "dioLowerBound"),
                ({"dioLowerBound": "100/1"}, "dioLowerBound"),
                ({"ratioGrowthBound": "1/1000"}, "ratioGrowthBound"),
                ({"dioLowerBound": "31/25"}, "dioLowerBound")):
            want = {"dioLowerBound": dio, "ratioGrowthBound": growth}[flagged]
            with pytest.raises(ValueError, match=(
                    f"^'{flagged}' is \"{edit[flagged]}\" in the file, but "
                    f"certify writes \"{want}\"$")):
                edited(cert, lambda d: d.update(edit))

    def test_morphic_witnesses_must_be_the_seeds_family(self, xi1):
        cert = certify_morphic(xi1, depth=6)
        src = xi1.source("xi1")
        swapped = list(cert.witnesses)
        swapped[5] = swapped[4]
        growth = max(Fraction(b.u + b.v, a.u + a.v)
                     for a, b in zip(swapped, swapped[1:]))

        def swap(doc):
            doc["witnesses"][5] = doc["witnesses"][4]
            doc["dioLowerBound"] = _fraction_str(min(w.ratio for w in swapped))
            doc["ratioGrowthBound"] = _fraction_str(growth)

        tampered = edited(cert, swap)
        # every witness holds and the bounds are the witnesses' own
        assert tampered.witnesses == tuple(swapped)
        assert verify_certificate(src, tampered).valid
        report = verify_certificate(src, tampered, machine=xi1)
        assert report.failures == (
            "stored witnesses do not match the re-derived seed",)

    def test_morphic_certificate_needs_a_witness(self, xi1):
        cert = certify_morphic(xi1, depth=2)
        with pytest.raises(ValueError, match="^a certificate needs its "
                                             "level-0 witness$"):
            edited(cert, lambda d: d.update(witnesses=[]))

    def test_morphic_seed_is_re_derived_from_the_spec(self, xi1, tm_morphic,
                                                      squares):
        cert = certify_morphic(xi1, depth=4)
        src = xi1.source("xi1")
        assert verify_certificate(src, cert, machine=xi1).valid

        def unseeded(doc):
            del doc["seedLetter"], doc["seedPositions"]

        # the positions are the level-0 witness's, so only a file that
        # declares other ones, or none, can disagree: it does not load
        with pytest.raises(ValueError, match="^missing field 'seedLetter'$"):
            edited(cert, unseeded)
        with pytest.raises(ValueError, match=r"^'seedPositions' is \[1, 6\] "
                           r"in the file, but certify writes \[1, 5\]$"):
            edited(cert, lambda d: d.update(seedPositions=[1, 6]))
        tampered = edited(cert, lambda d: d.update(seedLetter="b"))
        # without the spec only the witnesses and bounds are checked
        assert verify_certificate(src, tampered).valid
        report = verify_certificate(src, tampered, machine=xi1)
        assert report.failures == ("declared seed 'b' at 1, 5 is not the "
                                   "re-derived seed 'a' at 1, 5",)
        # the seed of one spec is not re-derived from another
        report = verify_certificate(src, cert, machine=tm_morphic)
        assert report.failures == ("declared seed 'a' at 1, 5 is not the "
                                   "re-derived seed 'q0' at 1, 4",)
        report = verify_certificate(src, cert, machine=squares)
        assert report.failures[0].startswith("seed not re-derived: "
                                             "morphic certificates require")

    def test_pair_growth_bound_is_k(self, xi2_source):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=4)
        with pytest.raises(ValueError, match="^'ratioGrowthBound' is \"3/1\" "
                           "in the file, but certify writes \"2/1\"$"):
            edited(cert, lambda d: d.update(ratioGrowthBound="3/1"))

    def test_kind_must_be_the_one_the_machine_certifies(self, three_squares,
                                                        xi2, xi1):
        cert = certify_dfao(three_squares, depth=6)
        src = three_squares.source("three-squares")
        relabelled = dataclasses.replace(cert, kind="sequence-pair",
                                         method=None)
        # without the machine nothing ties the kind to a model
        assert verify_certificate(src, relabelled).valid
        assert verify_certificate(src, cert, machine=three_squares).valid
        for machine, doc, kind in ((three_squares, relabelled,
                                    "dfao-pigeonhole"),
                                   (xi2, cert, "pda-pair"),
                                   (xi1, cert, "morphic-witness")):
            report = verify_certificate(src, doc, machine=machine)
            assert report.failures == (
                f"kind {doc.kind} is not {kind}, the kind its machine "
                f"certifies",)

    def test_periodic_source_pair(self):
        src = periodic_source("01")
        cert = certificate_from_pair(src, 1, 3, 2, depth=5)
        assert verify_certificate(src, cert, extra_depth=2).valid

    def test_report_mentions_denominator_shape(self, xi2_source):
        cert = certificate_from_pair(xi2_source, 1, 5, 2, depth=2)
        report = verify_certificate(xi2_source, cert)
        assert any("2^1*(2^4-1)" in note
                   for note in report.notes)


class TestJsonRoundTrip:
    def test_round_trip(self, xi2, xi2_source):
        cert = certify_pda(xi2, depth=6, machine_ref="abc123")
        text = certificate_to_json(cert)
        assert '"dioLowerBound": "5/4"' in text
        assert '"nPrime": 5' in text
        back = certificate_from_json(text)
        assert back == cert

    def test_unknown_fields_rejected(self, xi2):
        # a pda-pair needs its method before any other field is read
        with pytest.raises(ValueError, match="takes method"):
            certificate_from_json(
                '{"kind": "pda-pair", "machine": "m", "dioLowerBound": "5/4",'
                ' "ratioGrowthBound": "2", "verifiedDepth": 0,'
                ' "witnesses": [], "surprise": 1}'
            )
        doc = json.loads(certificate_to_json(certify_pda(xi2, depth=2)))
        with pytest.raises(ValueError, match=r"a pda-pair certificate has "
                                             r"no fields \['surprise'\]"):
            certificate_from_json(json.dumps(doc | {"surprise": 1}))

    @pytest.mark.parametrize("key", ["kind", "machine", "witnesses",
                                     "dioLowerBound"])
    def test_missing_field_is_named(self, xi1, key):
        doc = json.loads(certificate_to_json(certify_morphic(xi1, depth=2)))
        del doc[key]
        with pytest.raises(ValueError, match=f"^missing field '{key}'$"):
            certificate_from_json(json.dumps(doc))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            certificate_from_json(
                '{"kind": "magic", "machine": "m", "dioLowerBound": "5/4",'
                ' "ratioGrowthBound": "2", "verifiedDepth": 0, "witnesses": []}'
            )

    def test_pair_without_k_rejected(self, xi2, xi2_source):
        doc = json.loads(certificate_to_json(
            certificate_from_pair(xi2_source, 1, 5, 2, depth=3)))
        del doc["k"]
        with pytest.raises(ValueError, match="'k'"):
            certificate_from_json(json.dumps(doc))

    def test_pair_kind_without_pair_rejected(self, xi2_source):
        # otherwise no declared bound of the certificate would be checked
        doc = json.loads(certificate_to_json(
            certificate_from_pair(xi2_source, 1, 5, 2, depth=3)))
        for key in ("n", "nPrime", "k"):
            del doc[key]
        with pytest.raises(ValueError, match="'nPrime'"):
            certificate_from_json(json.dumps(doc))

    @pytest.mark.parametrize("fields", [
        {"n": 5, "nPrime": 5}, {"n": 0}, {"nPrime": 0}, {"k": 1}, {"k": 0},
    ])
    def test_bad_pair_fields_rejected(self, xi2_source, fields):
        doc = json.loads(certificate_to_json(
            certificate_from_pair(xi2_source, 1, 5, 2, depth=3)))
        doc.update(fields)
        with pytest.raises(ValueError, match="pair certificate"):
            certificate_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        "+10/8", "10/8", " 5/4", "5/4 ", "5_0/4_0", "+5/+4", "05/4", "5/-4",
        "-0/1", "5", "5/", "/4", "5/0", "5/4/1", "five/4", ""])
    def test_fraction_text_must_be_canonical(self, xi2_source, text):
        doc = json.loads(certificate_to_json(
            certificate_from_pair(xi2_source, 1, 5, 2, depth=3)))
        doc["dioLowerBound"] = text
        # text that int() reads on each side of the slash loads as a
        # fraction that certify writes differently
        unreadable = text in ("5/", "/4", "5/0", "5/4/1", "five/4", "")
        with pytest.raises(ValueError, match=None if unreadable else
                           "'dioLowerBound' is .* but certify writes"):
            certificate_from_json(json.dumps(doc))

    @pytest.mark.parametrize("witnesses", [{}, ""])
    def test_witnesses_must_be_an_array(self, xi2_source, witnesses):
        doc = json.loads(certificate_to_json(
            certificate_from_pair(xi2_source, 1, 5, 2, depth=0)))
        doc["witnesses"] = witnesses
        # an empty object or string reads as no witnesses at all
        with pytest.raises(ValueError, match="^a certificate needs its "
                                             "level-0 witness$"):
            certificate_from_json(json.dumps(doc))

    def test_each_kind_takes_only_its_fields(self, xi1, xi2_source):
        pair = json.loads(certificate_to_json(
            certificate_from_pair(xi2_source, 1, 5, 2, depth=3)))
        morphic = json.loads(certificate_to_json(certify_morphic(xi1,
                                                                 depth=3)))
        for doc, extra in ((pair, {"seedLetter": "a"}),
                           (pair, {"seedPositions": [1, 5]}),
                           (morphic, {"method": "exact"}),
                           (morphic, {"n": 1, "nPrime": 5, "k": 2})):
            with pytest.raises(ValueError, match="certificate has no fields"):
                certificate_from_json(json.dumps(doc | extra))
        # a morphic certificate needs both: the letter is read, and the
        # positions are derived and must be in the file as certify writes
        for key in ("seedLetter", "seedPositions"):
            doc = dict(morphic)
            del doc[key]
            with pytest.raises(ValueError, match=f"^missing field '{key}'$"):
                certificate_from_json(json.dumps(doc))

    def test_each_kind_takes_only_its_methods(self, three_squares,
                                              xi2_source):
        dfao_doc = json.loads(certificate_to_json(
            certify_dfao(three_squares, depth=3)))
        pda_doc = json.loads(certificate_to_json(certificate_from_pair(
            xi2_source, 1, 5, 2, depth=3, kind="pda-pair", method="exact")))
        pair_doc = json.loads(certificate_to_json(
            certificate_from_pair(xi2_source, 1, 5, 2, depth=3)))
        assert certificate_from_json(json.dumps(
            pda_doc | {"method": "protected"})).method == "protected"
        for doc, method, want in (
                (dfao_doc, "protected", "exact, not protected"),
                (dfao_doc, None, "exact, not none"),
                (pda_doc, "nonsense", "exact or protected, not nonsense"),
                (pda_doc, None, "exact or protected, not none")):
            doc = dict(doc, method=method)
            if method is None:
                del doc["method"]
            with pytest.raises(ValueError,
                               match=f"certificate takes method {want}"):
                certificate_from_json(json.dumps(doc))
        for method in ("exact", "nonsense"):
            with pytest.raises(ValueError, match="certificate has no fields"):
                certificate_from_json(json.dumps(pair_doc
                                                 | {"method": method}))

    def test_morphic_seed_round_trip(self, xi1):
        cert = certify_morphic(xi1, depth=4)
        back = certificate_from_json(certificate_to_json(cert))
        assert back.seed_letter == "a" and back.seed_positions == (1, 5)
