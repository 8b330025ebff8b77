"""Malformed machine and certificate documents fail with ValueError or
ValidationError, never with another exception.

Each example takes a catalogue machine or a real certificate, deletes one
field or replaces it with an arbitrary JSON value, and loads the result.
Machine documents take integers of any size: loading costs the file, not
the base. Certificate integers stay small (|x| <= 64), because a huge
witness would make verification generate a prefix in proportion to it.
"""

import copy
import dataclasses
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from digitseq import catalog
from digitseq.certify import (Certificate, certificate_from_json,
                              certificate_from_pair, certificate_to_json,
                              certify_dfao, certify_morphic, certify_pda,
                              verify_certificate)
from digitseq.errors import InsufficientDataError, ValidationError
from digitseq.machinefile import loads_machine, machine_to_dict
from digitseq.numbers import xi3_source

DELETE = object()


def values(integers):
    """Arbitrary JSON values whose integers come from `integers`."""
    scalars = (st.none() | st.booleans() | integers | st.floats(-64, 64)
               | st.sampled_from([math.inf, -math.inf, math.nan])
               | st.text(max_size=4))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner,
                                         max_size=3)),
        max_leaves=8,
    )


def paths(doc, prefix=()):
    """Every key path below the root of a JSON document."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def edits(docs, integers):
    """(name, edited document as JSON text) for one field of one doc."""
    targets = [(name, path) for name, doc in docs.items()
               for path in paths(doc)]

    def apply(target, value):
        name, path = target
        doc = copy.deepcopy(docs[name])
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
        return name, json.dumps(doc)

    return st.builds(apply, st.sampled_from(targets),
                     st.just(DELETE) | values(integers))


MACHINES = {name: machine_to_dict(catalog.get(name))
            for name in catalog.names()}


@settings(max_examples=400, deadline=None)
@given(edits(MACHINES, st.integers()))
def test_machine_documents(edit):
    _, text = edit
    try:
        machine = loads_machine(text)
    except (ValueError, ValidationError):
        return
    try:
        prefix = machine.source("fuzz").prefix(64)
    except (ValueError, ValidationError, InsufficientDataError):
        return
    assert len(prefix.text("\n").split("\n")) == 64


def _certificates():
    tm, xi1, xi2 = (catalog.get(n) for n in ("thue-morse", "xi1", "xi2"))
    return {
        "thue-morse": certify_dfao(tm, depth=4),
        "xi1": certify_morphic(xi1, depth=4),
        "xi2": certify_pda(xi2, depth=4),
        "xi3": certificate_from_pair(xi3_source(), 10, 20, 2, 4),
    }


CERTS = _certificates()
CERTIFICATES = {name: json.loads(certificate_to_json(cert))
                for name, cert in CERTS.items()}
CERT_SOURCES = {"thue-morse": catalog.get("thue-morse").source("tm"),
                "xi1": catalog.get("xi1").source("xi1"),
                "xi2": catalog.get("xi2").source("xi2"),
                "xi3": xi3_source()}
# fields the verifier does not recompute yet: exact against protected
# belongs to the structural check, the machine binding to the CLI
UNCHECKED = {"method", "machine_ref"}


@settings(max_examples=400, deadline=None)
@given(edits(CERTIFICATES, st.integers(-64, 64)))
def test_certificate_documents(edit):
    name, text = edit
    try:
        cert = certificate_from_json(text)
    except ValueError:
        return
    # a document that loads is the one certify writes for what it denotes
    assert (json.dumps(json.loads(text), sort_keys=True)
            == json.dumps(json.loads(certificate_to_json(cert)),
                          sort_keys=True))
    # a certificate that loads gets a verdict, and an edit that changes a
    # checked field is rejected
    machine = catalog.get(name) if name in catalog.names() else None
    report = verify_certificate(CERT_SOURCES[name], cert, machine=machine)
    if any(getattr(cert, f.name) != getattr(CERTS[name], f.name)
           for f in dataclasses.fields(Certificate)
           if f.name not in UNCHECKED):
        assert not report.valid
