"""The `digitseq` command: its table, parser, help and exit codes.

Every command is deterministic: given the same options and input files it
produces byte-identical output. No command accepts or uses randomness.

The commands and their options are one table, `_ROOT`, built at import:
each command with its help text and options, each option with its flag,
destination, converter, default, help text and whether it is required.
`_parse` reads an argument vector against it (`--opt value`,
`--opt=value` and flags, the last value given winning), `--help` prints
from it, and every converter (`int`, a choice, `_output_path`, a
`_parse_*` reader) runs before a command's module is imported: commands
take values, and a malformed one exits 2 before numpy or an engine loads.

This module and what it imports load no numpy, so `--help`, `--version`,
`catalog list`, `catalog export` and `convert`, whose bodies are here,
start without it. It imports no model either: `machinefile` and the
models load when `_load` or `convert` runs, so `--help`, `--version` and
both `catalog` commands load only this module, the catalogue's documents
and the exception types. Every other command is named by its attribute
in `digitseq.cli`, the engine-backed command layer, which is imported
when such a command runs and loads numpy and the engines.

Exit codes: 0 success, 1 search budget exhausted (or pair refuted) or an
internal error, 2 invalid input, 3 insufficient data, 4 search cap
refusal, 141 a closed output pipe (128 + SIGPIPE). The parser, the
helpers and the commands report a failure by raising, and `_run` alone
maps each exception to its exit code and writes the one `error:` line;
a closed pipe ends quietly. The one exit outside `_run` is `verify`'s
INVALID report: the report on stdout, then exit 2. A usage error
(an unknown command or option, a missing or malformed value, an extra
argument) exits 2; an exception from outside the package exits 1 with
`error: internal error: <Type>: <message>`, not a traceback.
"""

from __future__ import annotations

import errno
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import __version__
from . import catalog as catalog_mod
from .errors import (BudgetExceededError, EnumerationCapError,
                     InsufficientDataError, PairRefutedError, ValidationError)

EXIT_BUDGET = 1
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_INSUFFICIENT = 3
EXIT_CAP = 4
EXIT_PIPE = 128 + 13  # a shell's status for a writer killed by SIGPIPE


def _say(text: str, err: bool = False) -> None:
    """Write `text` and a newline to stdout, or stderr, as it is, and
    flush, so the two streams interleave in the order written."""
    stream = sys.stderr if err else sys.stdout
    stream.write(text + "\n")
    stream.flush()


def _die(code: int, message: str) -> None:
    _say(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str):
    """The machine in file `path` and the sha256 hex digest of the bytes
    it was parsed from; a file that does not load raises ValueError. The
    loader is read off its module when it runs, so a wrapper set there
    sees every load."""
    from . import machinefile
    try:
        return machinefile.load_machine(path, with_digest=True)
    except FileNotFoundError:
        raise ValueError(f"machine file not found: {path}")
    except ValidationError as exc:
        raise ValueError(f"machine {path} invalid:\n{exc.report.summary()}")
    except (ValueError, OSError) as exc:
        raise ValueError(f"cannot load machine {path}: {exc}")


def _output_path(path: str) -> str:
    """An --output path, checked when the options are read: a missing
    directory, a directory as the file, or a path that ends in a
    separator raises before any work the OSError, file name and all,
    that opening it to write would raise."""
    if path and Path(path).is_dir():
        code, path = errno.EISDIR, str(Path(path))
    elif path[-1:] in (os.sep, os.altsep):
        code = errno.EISDIR
    elif path and not Path(path).parent.is_dir():
        code = errno.ENOTDIR if Path(path).parent.exists() else errno.ENOENT
    else:
        return path
    raise OSError(code, os.strerror(code), path)


def _parse_number(token: str) -> int:
    """A nonnegative integer or a power such as 2^14, below 2^64; anything
    else raises ValueError. A power is computed only once its bit length
    is bounded below 128."""
    base_s, caret, exp_s = token.strip().partition("^")
    try:
        base, exp = int(base_s), int(exp_s) if caret else 1
    except ValueError:
        base = -1
    if base < 0 or exp < 0:
        raise ValueError(
            f"not a nonnegative integer or a power b^e: {token!r}")
    if exp * (base.bit_length() - 1) >= 64 or (value := base ** exp) >> 64:
        raise ValueError(f"number too large: {token!r} is 2^64 or more")
    return value


def _parse_lengths(expr: str) -> Sequence[int]:
    """"1..64" is an arithmetic range; "2^4..2^14" steps by the power base.
    Lengths are positive and a range ascends, so its last length is its
    largest; an arithmetic range is a `range`, so a top too large to read
    can be checked before any length is made. Anything else, and a power
    base below 2, which never reaches the upper end, raises ValueError."""
    lo_s, dots, hi_s = expr.partition("..")
    lo = _parse_number(lo_s)
    hi = _parse_number(hi_s) if dots else lo
    if not 1 <= lo <= hi:
        raise ValueError(f"lengths must be positive and ascending: {expr!r}")
    if not dots or "^" not in expr:
        return range(lo, hi + 1)
    step = int((lo_s if "^" in lo_s else hi_s).partition("^")[0])
    if step < 2:
        raise ValueError(f"power base must be at least 2: {expr!r}")
    vals = [lo]
    while vals[-1] * step <= hi:
        vals.append(vals[-1] * step)
    return vals


def _parse_dio(expr: str) -> Sequence[int]:
    """Lengths below 2^31: the scan packs cost << 32 | v into an int64."""
    lengths = _parse_lengths(expr)
    if (top := lengths[-1]) >> 31:
        raise ValueError(f"--dio lengths must be below 2^31, got {top}")
    return lengths


def _parse_pair(pair: str) -> tuple[int, int]:
    """"n,n'" as two integers; anything else raises ValueError."""
    try:
        n, n_prime = map(int, pair.split(","))
    except ValueError:
        raise ValueError(f"--pair takes two integers n,n', got {pair!r}")
    return n, n_prime


def convert(machine_path, output):
    from . import machinefile
    machine, _ = _load(machine_path)
    conversion = machinefile.MODELS[type(machine)].convert
    if conversion is None:
        raise ValueError("only dfao and morphic machines convert")
    machinefile.save_machine(conversion(machine), output)
    _say(f"wrote {output}")


def catalog_list():
    for name, doc in catalog_mod._DOCS.items():
        _say(f"{name} ({doc['kind']})")


def catalog_export(directory):
    for path in catalog_mod.export_all(directory):
        _say(f"wrote {path}")


class _Option(NamedTuple):
    """One command-line option. `convert` reads its value: `int`, `bool`
    for a flag that takes no value, a tuple of the choices, or a function
    of the text (`str` keeps it as it is)."""
    flag: str
    dest: str
    convert: object = str
    default: object = None
    help: str = ""
    required: bool = False


class _Command(NamedTuple):
    """A command, whose `run` takes the values of its options, or a group,
    whose `commands` are its subcommands by name; `flags` maps each flag,
    --help included, to its option. A `run` given as a name is that
    attribute of `digitseq.cli`, looked up when the command runs."""
    doc: str
    options: tuple[_Option, ...]
    flags: dict[str, _Option]
    run: Callable | str | None
    commands: dict[str, _Command] | None


_HELP = _Option("--help", "help", bool, help="Show this message and exit.")


def _command(doc: str, run: Callable | str | None, *options: _Option,
             commands: dict[str, _Command] | None = None) -> _Command:
    flags = {option.flag: option for option in options + (_HELP,)}
    return _Command(doc, options, flags, run, commands)


def _parse(tokens: list[str], node: _Command) -> tuple[dict, list[str]]:
    """The option values in `tokens`, by destination and as given, and
    the other tokens. A group's options end at its first other token,
    the command's name; a command's may come after one. `--` ends them."""
    values: dict = {}
    rest: list[str] = []
    tokens = iter(tokens)
    for token in tokens:
        if token == "--":
            rest += tokens
            continue
        if token[:1] != "-" or token == "-":
            rest.append(token)
            if node.run is None:
                rest += tokens
            continue
        flag, eq, value = token.partition("=")
        option = node.flags.get(flag)
        if option is None:
            raise ValueError(f"No such option '{flag}'.")
        if option.convert is bool:
            if eq:
                raise ValueError(f"Option '{flag}' does not take a value.")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"Option '{flag}' requires an argument.")
        values[option.dest] = value
    return values, rest


def _value(option: _Option, values: dict):
    """The converted value of `option`, or its default when absent."""
    if option.dest not in values:
        if option.required:
            raise ValueError(f"Missing option '{option.flag}'.")
        return option.default
    value, convert = values[option.dest], option.convert
    if convert is int:
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"Invalid value for '{option.flag}': {value!r} "
                             "is not a valid integer.")
    if isinstance(convert, tuple):
        if value not in convert:
            raise ValueError(f"Invalid value for '{option.flag}': {value!r} "
                             f"is not one of {', '.join(map(repr, convert))}.")
        return value
    return value if convert is bool else convert(value)


def _help(node: _Command, path: str) -> str:
    """The --help page of `node`, invoked as `path`."""
    rows = []
    for option in node.options + (_HELP,):
        convert = option.convert
        metavar = ("" if convert is bool else " INTEGER" if convert is int
                   else f" [{'|'.join(convert)}]"
                   if isinstance(convert, tuple) else " TEXT")
        tags = "; ".join(
            ([f"default: {option.default}"]
             if option.default is not None and convert is not bool else [])
            + (["required"] if option.required else []))
        text = " ".join(filter(None, (option.help, tags and f"[{tags}]")))
        rows.append((option.flag + metavar, text))
    sections = [("Options", rows)]
    if node.commands:
        sections.append(("Commands", [(name, command.doc.splitlines()[0])
                                      for name, command in
                                      sorted(node.commands.items())]))
    width = max(len(left) for _, table in sections for left, _ in table)
    usage = " COMMAND [ARGS]..." if node.commands else ""
    lines = [f"Usage: {path} [OPTIONS]{usage}", "", f"  {node.doc}"]
    for title, table in sections:
        lines += ["", f"{title}:"] + [
            f"  {left:<{width}}  {right}".rstrip() for left, right in table]
    return "\n".join(lines)


_SOURCE = (
    _Option("--machine", "machine_path",
           help="Machine JSON file (dfao, morphic, tag, dpao)."),
    _Option("--stream", "stream",
           help="Number stream: rational:p/q, surd:d, xi3, file:<path>."),
    _Option("--base", "base", int,
           help="Digit base for rational/surd streams."),
)

_ROOT = _command(
    "Digit-sequence generators and repetition certificates.", None,
    _Option("--version", "version", bool, help="Show the version and exit."),
    commands={
        "digits": _command(
            "Print the first COUNT symbols of a source.", "digits", *_SOURCE,
            _Option("--count", "count", _parse_number, 64),
            _Option("--output", "output", _output_path,
                   help="Write here instead of stdout.")),
        "analyze": _command(
            "Profiles of a source: repetition ratios, complexity, dilation, "
            "growth.", "analyze", *_SOURCE,
            _Option("--dio", "dio_range", _parse_dio, help="Lengths for "
                   "the repetition-ratio profile, e.g. 2^4..2^14."),
            _Option("--complexity", "complexity_range", _parse_lengths,
                   help="Block lengths for the factor-complexity table, "
                   "e.g. 1..64."),
            _Option("--right-special", "rs_range", _parse_lengths,
                   help="Block lengths for the right-special-factor table."),
            _Option("--dilation", "dilation_n", _parse_number, help="Read-head"
                   " depth for the dilation profile (morphic only)."),
            _Option("--growth", "want_growth", bool, False, help="Include the "
                   "per-letter growth report (morphic only)."),
            _Option("--prefix-length", "prefix_length", _parse_number,
                   help="Prefix length for complexity tables (default 2^16)."),
            _Option("--format", "fmt", ("text", "json"), "text"),
            _Option("--output", "output", _output_path)),
        "certify": _command(
            "Build a repetition certificate for a machine or a stream pair.",
            "certify", *_SOURCE,
            _Option("--pair", "pair", _parse_pair,
                   help="Certify a raw index pair n,n' against a stream."),
            _Option("--k", "k", int, 2, help="Radix of the identity family "
                   "for --pair certificates."),
            _Option("--budget", "budget", int, 10_000,
                   help="Scan limit for pushdown pair search."),
            _Option("--depth", "depth", int, 12),
            _Option("--scan-len", "scan_len", int, 4096,
                   help="Fixed-point scan window for morphic seeds."),
            _Option("--output", "output", _output_path,
                   help="Certificate JSON path (default: print to stdout).")),
        "verify": _command(
            "Re-check a certificate against its source; exit 0 only if "
            "valid.", "verify",
            _Option("--certificate", "cert_path", required=True), *_SOURCE,
            _Option("--extra-depth", "extra_depth", int, 0)),
        "convert": _command(
            "Convert between a k-uniform morphic spec and its automaton.",
            convert, _Option("--machine", "machine_path", required=True),
            _Option("--output", "output", _output_path, required=True)),
        "equiv": _command(
            "Bounded output comparison of the configurations after n and "
            "n'.", "equiv",
            _Option("--machine", "machine_path", required=True),
            _Option("--pair", "pair", _parse_pair, help="n,n'",
                   required=True),
            _Option("--depth", "depth", int, 12)),
        "imitate": _command(
            "Longest digit-stream prefix reachable by a small automaton.",
            "imitate", _Option("--stream", "stream", required=True),
            _Option("--base", "base", int, 2),
            _Option("--k", "k", int, help="Input radix of the candidate "
                   "machines (default: base)."),
            _Option("--states", "states", int, required=True),
            _Option("--len", "max_len", int, 64),
            _Option("--output", "output", _output_path,
                   help="Write the best machine here.")),
        "catalog": _command(
            "Built-in machines as reviewable JSON files.", None,
            commands={
                "list": _command(
                    "List the built-in machines and their models.",
                    catalog_list),
                "export": _command(
                    "Write each built-in machine to a JSON file.",
                    catalog_export,
                    _Option("--dir", "directory", required=True))}),
    })


def _dispatch(tokens: list[str], prog: str) -> None:
    """Find the command that `tokens` name and run it on its options."""
    node, path = _ROOT, prog
    while True:
        values, rest = _parse(tokens, node)
        if "help" in values or "version" in values:
            _say(_help(node, path) if "help" in values
                 else f"{prog}, version {__version__}")
            return
        if node.run is not None:
            break
        if not rest:
            raise ValueError("Missing command.")
        name, tokens = rest[0], rest[1:]
        if name not in node.commands:
            raise ValueError(f"No such command '{name}'.")
        node, path = node.commands[name], f"{path} {name}"
    if rest:
        raise ValueError("Got unexpected extra argument"
                         f"{'s' * (len(rest) > 1)} ({' '.join(rest)})")
    kwargs = {option.dest: _value(option, values) for option in node.options}
    if isinstance(node.run, str):
        from . import cli
        return getattr(cli, node.run)(**kwargs)
    node.run(**kwargs)


def _run(tokens: list[str], prog: str) -> None:
    """Run one command line; each error leaves with its exit code and one
    `error:` line."""
    try:
        _dispatch(tokens, prog)
    except PairRefutedError as exc:
        _die(EXIT_BUDGET, f"refuted: {exc}")
    except BudgetExceededError as exc:
        _die(EXIT_BUDGET, str(exc))
    except EnumerationCapError as exc:
        _die(EXIT_CAP, f"{exc}; lower --states or --len")
    except InsufficientDataError as exc:
        _die(EXIT_INSUFFICIENT, str(exc))
    except BrokenPipeError:
        # the reader has gone: end quietly, and point stdout at devnull so
        # that the flush at interpreter exit does not fail again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        sys.exit(EXIT_PIPE)
    except (ValueError, ValidationError, OSError, OverflowError) as exc:
        _die(EXIT_INVALID, str(exc))
    except Exception as exc:
        _die(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}")
    except KeyboardInterrupt:
        _die(EXIT_INTERNAL, "interrupted")


class _Main:
    """The `digitseq` command. Calling it, or its `main`, runs one
    command line (by default `sys.argv[1:]`) under the name `prog_name`
    and always ends in SystemExit with the exit code."""

    name = "digitseq"

    def main(self, args: list[str] | None = None,
             prog_name: str | None = None) -> None:
        _run(sys.argv[1:] if args is None else list(args),
             prog_name or self.name)
        sys.exit(0)

    __call__ = main


main = _Main()
