"""Built-in machines used as fixtures and CLI shortcuts, held as their
machine documents.

Names: three-squares, thue-morse and thue-morse-morphic are the two
automata and the uniform spec for the digit-sum parity word; xi1 is the
ternary exponential-growth spec; squares is the polynomial-growth spec
for the characteristic word of the squares; xi2 is the one-stack
transducer for the digit-balance word. Each is a dict in the machine-file
format, `kind` included: `export_all` writes it as the file that
`machinefile.save_machine` would write, and `get` reads it through
`machinefile`'s reader, which validates it. Exporting and listing
import no model, so `catalog export` and `catalog list` load only this
module and the console.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["names", "get", "export_all"]


_DOCS = {
    # Base-2 automaton emitting 1 when n is a sum of three squares. It
    # tracks whether the digits read so far end in three-or-more ones
    # followed by an even number of zeros (n = 4^i * (8j + 7)), the exact
    # pattern excluded by the three-squares theorem.
    "three-squares": {
        "kind": "dfao", "k": 2,
        "states": ["A", "B", "C", "D", "E", "F"], "initial": "A",
        "delta": {"A": {"0": "A", "1": "B"}, "B": {"0": "A", "1": "C"},
                  "C": {"0": "A", "1": "D"}, "D": {"0": "E", "1": "D"},
                  "E": {"0": "F", "1": "B"}, "F": {"0": "E", "1": "B"}},
        "output": {"A": "1", "B": "1", "C": "1", "D": "0", "E": "1",
                   "F": "0"},
    },
    # Base-2 automaton for the parity of the binary digit sum.
    "thue-morse": {
        "kind": "dfao", "k": 2, "states": ["q0", "q1"], "initial": "q0",
        "delta": {"q0": {"0": "q0", "1": "q1"}, "q1": {"0": "q1", "1": "q0"}},
        "output": {"q0": "0", "q1": "1"},
    },
    # The same word as the 2-uniform fixed point q0 -> q0 q1, q1 -> q1 q0.
    "thue-morse-morphic": {
        "kind": "morphic", "internal": ["q0", "q1"], "start": "q0",
        "rules": {"q0": ["q0", "q1"], "q1": ["q1", "q0"]},
        "external": ["0", "1"], "coding": {"q0": "0", "q1": "1"},
    },
    # Ternary word with exponential growth: a -> acb, b -> abc, c -> c,
    # coded a/b/c -> 0/1/2.
    "xi1": {
        "kind": "morphic", "internal": ["a", "b", "c"], "start": "a",
        "rules": {"a": "acb", "b": "abc", "c": "c"},
        "external": ["0", "1", "2"], "coding": {"a": "0", "b": "1", "c": "2"},
    },
    # Characteristic word of the perfect squares (shifted by its leading
    # letter): a -> ab, b -> ccb, c -> c, coded a/c -> 0, b -> 1. Growth
    # is polynomial, not exponential.
    "squares": {
        "kind": "morphic", "internal": ["a", "b", "c"], "start": "a",
        "rules": {"a": "ab", "b": "ccb", "c": "c"},
        "external": ["0", "1"], "coding": {"a": "0", "b": "1", "c": "0"},
    },
    # One-stack transducer for the binary digit-balance word: output 1
    # when the counts of ones and zeros in the input differ by at most 1.
    # The state records the sign of (ones - zeros); the stack height is
    # one less than its absolute value, so the answer is read off whether
    # the stack is empty.
    "xi2": {
        "kind": "dpao", "k": 2, "states": ["q-1", "q0", "q1"],
        "initial": "q0", "stack": ["X"],
        "transitions": [
            {"state": "q-1", "top": "#", "input": "0", "to": "q-1", "push": "X"},
            {"state": "q-1", "top": "#", "input": "1", "to": "q0", "push": ""},
            {"state": "q-1", "top": "X", "input": "0", "to": "q-1", "push": "XX"},
            {"state": "q-1", "top": "X", "input": "1", "to": "q-1", "push": ""},
            {"state": "q0", "top": "#", "input": "0", "to": "q-1", "push": ""},
            {"state": "q0", "top": "#", "input": "1", "to": "q1", "push": ""},
            {"state": "q1", "top": "#", "input": "0", "to": "q0", "push": ""},
            {"state": "q1", "top": "#", "input": "1", "to": "q1", "push": "X"},
            {"state": "q1", "top": "X", "input": "0", "to": "q1", "push": ""},
            {"state": "q1", "top": "X", "input": "1", "to": "q1", "push": "XX"}],
        "output": {"q-1": {"#": "1", "X": "0"}, "q0": {"#": "1", "X": "0"},
                   "q1": {"#": "1", "X": "0"}},
    },
}


def names() -> tuple[str, ...]:
    return tuple(_DOCS)


def get(name: str):
    """The machine `name`, read and validated as its file would be."""
    if name not in _DOCS:
        raise ValueError(f"unknown catalog machine {name!r}")
    from . import machinefile
    return machinefile.loads_machine(json.dumps(_DOCS[name]))


def export_all(directory) -> list[str]:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in _DOCS.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        written.append(str(path))
    return written
