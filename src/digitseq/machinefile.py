"""JSON machine files for the three generator kinds, and MODELS: one row
per model class holding what the model can do, which commands ask
instead of testing the class.

One document per machine, its "kind" looked up in _KINDS: "dfao",
"morphic" (with "tag" read as an alias and written back as "morphic"),
or "dpao". Digits, names and symbols are JSON strings, the base k a JSON
integer, and a digit d < k is written exactly as str(d). Unknown fields
are rejected so that typos fail loudly instead of silently changing a
machine; any malformed document raises ValueError (a document nested
too deeply to parse too), and an invalid machine ValidationError.
Files and the table load no numpy: the models come from the numpy-free
`dfao`, `morphic` and `dpao`, and each engine is named, not imported.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, NamedTuple

from . import dpao, morphic
from .dfao import Dfao
from .dpao import BOTTOM, Dpao
from .errors import ValidationError
from .morphic import MorphicSpec
from .validation import ValidationReport

__all__ = ["MODELS", "Model", "load_machine", "loads_machine",
           "machine_to_dict", "save_machine"]


def _reject_unknown(doc: dict, allowed: set[str], kind: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(
            f"unknown fields in {kind} machine file: {sorted(unknown)}"
        )


def _name(value) -> str:
    if not isinstance(value, str):
        raise ValueError("names and symbols are JSON strings, not "
                         f"{type(value).__name__}")
    return value


def _names(value) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ValueError("a list of names is a JSON array, not "
                         f"{type(value).__name__}")
    return tuple(map(_name, value))


def _radix(value) -> int:
    if type(value) is not int:
        raise ValueError(f"'k' must be a JSON integer, got {json.dumps(value)}")
    return value


def _digit(text, k: int) -> int:
    """The digit d written exactly as str(d), with 0 <= d < k: " 0", "00"
    or 0.7 is no digit, so two keys never name one digit."""
    d = int(text)
    if str(d) != text or not 0 <= d < k:
        raise ValueError(f"{json.dumps(text)} is not a base-{k} digit "
                         f"0..{k - 1}")
    return d


def _letters(value, what: str) -> tuple[str, ...]:
    """A rule/push word: a string of single-character names, or a list of
    names when any name is longer than one character."""
    if isinstance(value, str):
        return tuple(value)
    if isinstance(value, list) and all(isinstance(x, str) for x in value):
        return tuple(value)
    raise ValueError(f"{what} must be a string or a list of symbol names")


def _dfao_from_dict(doc: dict) -> Dfao:
    _reject_unknown(doc, {"k", "states", "initial", "delta", "output"}, "dfao")
    k = _radix(doc["k"])
    states = _names(doc["states"])
    delta = {}
    for q, row in doc["delta"].items():
        targets = {_digit(d, k): _name(tgt) for d, tgt in row.items()}
        delta[q] = tuple(targets[d] for d in sorted(targets))
    return Dfao(
        k=k, states=states, initial=_name(doc["initial"]), delta=delta,
        output={q: _name(sym) for q, sym in doc["output"].items()},
    )


def _dfao_to_dict(m: Dfao) -> dict:
    return {
        "k": m.k,
        "states": list(m.states),
        "initial": m.initial,
        "delta": {
            q: {str(d): m.delta[q][d] for d in range(m.k)} for q in m.states
        },
        "output": {q: m.output[q] for q in m.states},
    }


def _morphic_from_dict(doc: dict) -> MorphicSpec:
    _reject_unknown(doc, {"internal", "start", "rules", "external", "coding"},
                    "morphic")
    return MorphicSpec(
        internal=_names(doc["internal"]),
        rules={a: _letters(img, f"rule for {a!r}")
               for a, img in doc["rules"].items()},
        start=_name(doc["start"]),
        external=_names(doc["external"]),
        coding={a: _name(c) for a, c in doc["coding"].items()},
    )


def _morphic_to_dict(spec: MorphicSpec) -> dict:
    single = all(len(a) == 1 for a in spec.internal)
    return {
        "internal": list(spec.internal),
        "start": spec.start,
        "rules": {
            a: "".join(img) if single else list(img)
            for a, img in spec.rules.items()
        },
        "external": list(spec.external),
        "coding": dict(spec.coding),
    }


def _dpao_from_dict(doc: dict) -> Dpao:
    _reject_unknown(doc, {"k", "states", "initial", "stack", "transitions",
                          "output"}, "dpao")
    k = _radix(doc["k"])
    transitions = {}
    for t in doc["transitions"]:
        _reject_unknown(t, {"state", "top", "input", "to", "push"},
                        "dpao transition")
        inp = None if t["input"] == "eps" else _digit(t["input"], k)
        push = _letters(t["push"], "push word") if t["push"] else ()
        key = (_name(t["state"]), _name(t["top"]), inp)
        if key in transitions:
            report = ValidationReport()
            report.error(
                "determinism-conflict",
                f"duplicate transition at ({t['state']!r}, {t['top']!r}, "
                f"{t['input']!r})",
            )
            raise ValidationError(report)
        transitions[key] = (_name(t["to"]), push)
    output = {}
    for q, row in doc["output"].items():
        for top, sym in row.items():
            output[(q, top)] = _name(sym)
    return Dpao(
        k=k,
        states=_names(doc["states"]),
        initial=_name(doc["initial"]),
        stack_symbols=_names(doc["stack"]),
        transitions=transitions,
        output=output,
    )


def _dpao_to_dict(m: Dpao) -> dict:
    single = all(len(s) == 1 for s in m.stack_symbols)
    transitions = [
        {"state": q, "top": a, "input": "eps" if inp is None else str(inp),
         "to": to, "push": "".join(push) if single else list(push)}
        for (q, a, inp), (to, push) in sorted(
            m.transitions.items(), key=lambda item: (
                *item[0][:2], -1 if item[0][2] is None else item[0][2]))]
    tops = (BOTTOM, *m.stack_symbols)
    output = {q: {a: m.output[q, a] for a in tops if (q, a) in m.output}
              for q in m.states}
    return {
        "k": m.k,
        "states": list(m.states),
        "initial": m.initial,
        "stack": list(m.stack_symbols),
        "transitions": transitions,
        "output": output,
    }


class Model(NamedTuple):
    """A model's file kind, reader, writer, certificate kind, certify
    engine (a name in `certify`, looked up when it runs) with the options
    it reads, conversion and pushdown view (or None), and growth."""
    kind: str
    read: Callable
    write: Callable
    certificate: str
    certify: tuple[str, tuple[str, ...]]
    convert: Callable | None
    pushdown: Callable | None
    growth: bool


MODELS = {
    Dfao: Model("dfao", _dfao_from_dict, _dfao_to_dict, "dfao-pigeonhole",
                ("certify_dfao", ()), morphic.from_dfao, dpao.from_dfao, False),
    MorphicSpec: Model("morphic", _morphic_from_dict, _morphic_to_dict,
                       "morphic-witness", ("certify_morphic", ("scan_len",)),
                       morphic.to_dfao, None, True),
    Dpao: Model("dpao", _dpao_from_dict, _dpao_to_dict, "pda-pair",
                ("certify_pda", ("n_max",)), None, lambda m: m, False),
}
# each file kind's row; a tag file reads as the same morphism
_KINDS = {r.kind: r for r in MODELS.values()} | {"tag": MODELS[MorphicSpec]}


def loads_machine(text: str):
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError("machine file must be a JSON object with a "
                             "'kind'")
        kind = doc.pop("kind")
        if isinstance(kind, str) and kind in _KINDS:  # a list is no key
            return _KINDS[kind].read(doc)
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from exc
    except (TypeError, AttributeError, ArithmeticError, RecursionError) as exc:
        raise ValueError(str(exc)) from exc
    raise ValueError(f"unknown machine kind {kind!r}")


def load_machine(path, *, with_digest: bool = False):
    """The machine in a JSON file, or with with_digest the pair of it and
    the sha256 hex digest of the file. The file is read once, so the
    digest names the bytes that were parsed. They are decoded as a
    text-mode read decodes them: CR LF and a lone CR each become LF."""
    data = Path(path).read_bytes()
    machine = loads_machine(
        data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    return (machine, hashlib.sha256(data).hexdigest()) if with_digest \
        else machine


def machine_to_dict(machine) -> dict:
    row = MODELS.get(type(machine))
    if row is None:
        raise TypeError(f"cannot serialize {type(machine).__name__}")
    return {"kind": row.kind, **row.write(machine)}


def save_machine(machine, path) -> None:
    Path(path).write_text(
        json.dumps(machine_to_dict(machine), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
