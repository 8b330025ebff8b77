"""Command lines drawn from the command table end in an exit code 0-4 and,
when they fail, in one `error:` line, never in a traceback.

The grammar is `console._ROOT`: each example first draws a cell, one
command with at most one of its options and one invalid value for it,
and then leaves each other option out or draws it from the valid pool of
its destination. Drawing the cell first reaches each (command, option,
invalid value) about equally often. The invalid pools hold negative
numbers, `x`, reversed ranges, 2^31, `rational:1/0`, an unknown stream, a
missing file and a missing output directory. Every pool is bounded so that
no example reads more than about 2^16 symbols: a pair family's top witness
ends at k^depth * (n' + 1), so n' <= 15 and depth <= 12, and radix 3 only
to depth 4; `--dio` and `--prefix-length` stay at 2^14 or below (2^16 by
default), `--extra-depth` at 2, and `imitate` at 3 states and 64 digits.
Each example runs in process, in a directory of its own that holds the
exported catalogue, a short stream file and one certificate.
"""

import os
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from digitseq import catalog, console


def run_cli(args):
    return CliRunner().invoke(console.main, args, catch_exceptions=False)


def leaves(node, path=()):
    """(command words, command) for every command of the table."""
    if node.run is not None:
        yield path, node
        return
    for name, command in node.commands.items():
        yield from leaves(command, path + (name,))


COMMANDS = list(leaves(console._ROOT))
BAD = ["-1", "x"]
RANGES = (["1..8", "2^2..2^6", "3"], ["8..1", "1..2^31", "0..3", "x"])
# per destination: (valid values, invalid values)
POOLS = {
    "machine_path": ([f"{name}.json" for name in catalog.names()],
                     ["cert.json", "missing.json"]),
    "stream": (["xi3", "rational:1/7", "surd:2", "file:digits.txt"],
               ["rational:1/0", "nosuch:1", "file:missing.txt"]),
    "base": (["2", "3", "10"], ["1", "-2", "x", "2^31"]),
    "count": (["0", "1", "64", "2^10", "2^16"], ["-5", "x", "2^64"]),
    "output": (["out.json"], ["nodir/out.json"]),
    "dio_range": (["2^4..2^10", "1..64", "2^14"],
                  ["2^10..2^4", "2^31", "1..2^31", "0..4", "x"]),
    "complexity_range": RANGES,
    "rs_range": RANGES,
    "dilation_n": (["64", "2^10"], ["0", *BAD]),
    "prefix_length": (["2^10", "2^14", "100"], BAD),
    "fmt": (["text", "json"], ["xml"]),
    "pair": (["1,7", "10,15", "2,3", "1,2"],
             ["3,3", "7,1", "-1,4", "1,2,3", "2^31,1", "x"]),
    "k": (["2", "3"], ["1", *BAD]),
    "budget": (["0", "100", "10000"], BAD),
    "depth": (["0", "1", "4", "8", "12"], ["2^31", *BAD]),
    "scan_len": (["3", "64", "4096"], ["0", *BAD]),
    "cert_path": (["cert.json"], ["xi1.json", "missing.json"]),
    "extra_depth": (["0", "1", "2"], BAD),
    "states": (["1", "2", "3"], ["0", *BAD]),
    "max_len": (["0", "16", "64"], BAD),
    "directory": (["exported"], ["nodir/sub", "cert.json"]),
}
# the catalogue machines with a certificate: squares grows polynomially
CERTIFIED = ["three-squares", "thue-morse", "thue-morse-morphic", "xi1",
             "xi2"]
SOURCES = {"machine_path", "stream"}


# per command, (option to corrupt, its invalid value): every invalid value
# of every option, and once None, with every value valid
CELLS = [(words, command, [(None, None)] + [
    (option.dest, bad) for option in command.options
    if option.convert is not bool for bad in POOLS[option.dest][1]])
    for words, command in COMMANDS]


@st.composite
def command_lines(draw):
    """(argument vector, machine and depth of the certificate in place)."""
    # the command, then the option to corrupt and its value, are drawn
    # first, so that each (command, option, invalid value) cell is reached
    # about as often as any other of its command
    words, command, cells = draw(st.sampled_from(CELLS))
    corrupt, bad = draw(st.sampled_from(cells))
    options = {option.dest: option for option in command.options}
    # most examples give exactly one of --machine and --stream
    sources = draw(st.sampled_from(["machine_path", "stream"] * 4
                                   + ["both", "neither"]))
    values = {}
    for dest, option in options.items():
        if dest == corrupt:
            present = True
        elif SOURCES <= options.keys() and dest in SOURCES:
            present = sources in (dest, "both")
        else:
            # a required option is mostly given, any other mostly left out
            present = draw(st.sampled_from([True] * 7 + [False]
                                           if option.required
                                           else [True, False, False]))
        if present and option.convert is bool:
            values[dest] = None
        elif present:
            values[dest] = (bad if dest == corrupt
                            else draw(st.sampled_from(POOLS[dest][0])))
    if ("depth" in options and values.get("k") == "3"
            and values.get("depth", "12") in ("8", "12")):
        values["depth"] = "4"  # a radix-3 pair family stays at depth 4
    argv = list(words)
    for dest, value in values.items():
        flag = options[dest].flag
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return (argv, draw(st.sampled_from(CERTIFIED)),
            draw(st.sampled_from(["0", "4", "8"])))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_every_command_line_ends_in_an_exit_code(case):
    argv, cert_machine, cert_depth = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            catalog.export_all(".")
            Path("digits.txt").write_text("0110100110010110" * 8 + "\n",
                                          encoding="utf-8")
            made = run_cli(["certify", "--machine", f"{cert_machine}.json",
                            "--depth", cert_depth, "--output", "cert.json"])
            assert made.exit_code == 0, made.output
            r = run_cli(argv)
        finally:
            os.chdir(cwd)
    assert r.exit_code in range(5), (argv, r.output)
    assert "Traceback" not in r.stderr, (argv, r.stderr)
    assert "internal error" not in r.stderr, (argv, r.stderr)
    invalid_report = (argv[0] == "verify" and r.exit_code == 2
                      and r.stdout.startswith("certificate INVALID")
                      and not r.stderr)
    if r.exit_code and not invalid_report:
        first, *rest = r.stderr.splitlines()
        assert first.startswith("error: "), (argv, r.stderr)
        assert all(line.startswith(("error[", "warning["))
                   for line in rest), (argv, r.stderr)
