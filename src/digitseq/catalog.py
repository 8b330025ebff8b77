"""Built-in machines used as fixtures and CLI shortcuts.

Names: three-squares, thue-morse and thue-morse-morphic are the two
automata and the uniform spec for the digit-sum parity word; xi1 is the
ternary exponential-growth spec; squares is the polynomial-growth spec
for the characteristic word of the squares; xi2 is the one-stack
transducer for the digit-balance word. `export_all` writes them as
reviewable JSON files; the files, not this module, are the interchange
format.
"""

from __future__ import annotations

from pathlib import Path

from .dfao import Dfao
from .machinefile import save_machine
from .morphic import MorphicSpec
from .pda import BOTTOM, Dpao

__all__ = [
    "three_squares_dfao",
    "thue_morse_dfao",
    "thue_morse_morphic",
    "xi1_morphic",
    "squares_morphic",
    "xi2_dpao",
    "names",
    "get",
    "export_all",
]


def three_squares_dfao() -> Dfao:
    """Base-2 automaton emitting 1 when n is a sum of three squares.

    Tracks whether the digits read so far end in three-or-more ones
    followed by an even number of zeros (n = 4^i * (8j + 7)), the exact
    pattern excluded by the three-squares theorem.
    """
    return Dfao(
        k=2,
        states=("A", "B", "C", "D", "E", "F"),
        initial="A",
        delta={
            "A": ("A", "B"),
            "B": ("A", "C"),
            "C": ("A", "D"),
            "D": ("E", "D"),
            "E": ("F", "B"),
            "F": ("E", "B"),
        },
        output={"A": "1", "B": "1", "C": "1", "D": "0", "E": "1", "F": "0"},
    )


def thue_morse_dfao() -> Dfao:
    """Base-2 automaton for the parity of the binary digit sum."""
    return Dfao(
        k=2,
        states=("q0", "q1"),
        initial="q0",
        delta={"q0": ("q0", "q1"), "q1": ("q1", "q0")},
        output={"q0": "0", "q1": "1"},
    )


def thue_morse_morphic() -> MorphicSpec:
    """The same word as the 2-uniform fixed point q0 -> q0 q1, q1 -> q1 q0."""
    return MorphicSpec(
        internal=("q0", "q1"),
        rules={"q0": ("q0", "q1"), "q1": ("q1", "q0")},
        start="q0",
        external=("0", "1"),
        coding={"q0": "0", "q1": "1"},
    )


def xi1_morphic() -> MorphicSpec:
    """Ternary word with exponential growth: a -> acb, b -> abc, c -> c,
    coded a/b/c -> 0/1/2."""
    return MorphicSpec(
        internal=("a", "b", "c"),
        rules={"a": ("a", "c", "b"), "b": ("a", "b", "c"), "c": ("c",)},
        start="a",
        external=("0", "1", "2"),
        coding={"a": "0", "b": "1", "c": "2"},
    )


def squares_morphic() -> MorphicSpec:
    """Characteristic word of the perfect squares (shifted by its leading
    letter): a -> ab, b -> ccb, c -> c, coded a/c -> 0, b -> 1. Growth is
    polynomial, not exponential."""
    return MorphicSpec(
        internal=("a", "b", "c"),
        rules={"a": ("a", "b"), "b": ("c", "c", "b"), "c": ("c",)},
        start="a",
        external=("0", "1"),
        coding={"a": "0", "b": "1", "c": "0"},
    )


def xi2_dpao() -> Dpao:
    """One-stack transducer for the binary digit-balance word: output 1
    when the counts of ones and zeros in the input differ by at most 1.

    The state records the sign of (ones - zeros); the stack height is one
    less than its absolute value, so the answer is read off whether the
    stack is empty.
    """
    t = {}

    def add(state, top, digit, to, push):
        t[(state, top, digit)] = (to, tuple(push))

    add("q0", BOTTOM, 1, "q1", "")
    add("q0", BOTTOM, 0, "q-1", "")
    add("q1", BOTTOM, 0, "q0", "")
    add("q1", BOTTOM, 1, "q1", "X")
    add("q1", "X", 0, "q1", "")
    add("q1", "X", 1, "q1", "XX")
    add("q-1", BOTTOM, 0, "q-1", "X")
    add("q-1", BOTTOM, 1, "q0", "")
    add("q-1", "X", 0, "q-1", "XX")
    add("q-1", "X", 1, "q-1", "")
    output = {}
    for q in ("q0", "q1", "q-1"):
        output[(q, BOTTOM)] = "1"
        output[(q, "X")] = "0"
    return Dpao(
        k=2,
        states=("q-1", "q0", "q1"),
        initial="q0",
        stack_symbols=("X",),
        transitions=t,
        output=output,
    )


_BUILDERS = {
    "three-squares": three_squares_dfao,
    "thue-morse": thue_morse_dfao,
    "thue-morse-morphic": thue_morse_morphic,
    "xi1": xi1_morphic,
    "squares": squares_morphic,
    "xi2": xi2_dpao,
}


def names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def get(name: str):
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown catalog machine {name!r}") from None


def export_all(directory) -> list[str]:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in _BUILDERS:
        path = out / f"{name}.json"
        save_machine(get(name), path)
        written.append(str(path))
    return written
