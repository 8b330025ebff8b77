"""Command-line front end.

Every command is deterministic: given the same options and input files it
produces byte-identical output. No command accepts or uses randomness.

The commands and their options are one table, `_ROOT`, built at import.
Each option is declared once, with its flag, destination, converter,
default, help text and whether it is required; `_parse` reads an
argument vector against it (`--opt value`, `--opt=value` and flags, the
last value given for an option winning), and `--help` prints a
command's docstring and options from the same table.

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
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from . import catalog as catalog_mod
from . import certify as certify_mod
from . import morphic as morphic_mod
from . import numbers as numbers_mod
from . import pda as pda_mod
from . import tag as tag_mod
from . import words as words_mod
from .certify import _fraction_str
from .errors import (BudgetExceededError, EnumerationCapError,
                     InsufficientDataError, PairRefutedError, ValidationError)
from .machinefile import MODELS, load_machine, save_machine

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
    can be checked before any length is made. A power base below 2 never
    reaches the upper end. Each of these raises ValueError.
    """
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


def _load(path: str):
    """The machine in file `path` and the sha256 hex digest of the bytes
    it was parsed from; a file that does not load raises ValueError."""
    try:
        return load_machine(path, with_digest=True)
    except FileNotFoundError:
        raise ValueError(f"machine file not found: {path}")
    except ValidationError as exc:
        raise ValueError(f"machine {path} invalid:\n{exc.report.summary()}")
    except (ValueError, OSError) as exc:
        raise ValueError(f"cannot load machine {path}: {exc}")


def _parse_pair(pair: str) -> tuple[int, int]:
    """"n,n'" as two integers; anything else raises ValueError."""
    try:
        n, n_prime = map(int, pair.split(","))
    except ValueError:
        raise ValueError(f"--pair takes two integers n,n', got {pair!r}")
    return n, n_prime


def _open_stream(spec: str, base: int | None, expansion: bool = False):
    try:
        return numbers_mod.parse_stream_spec(spec, base, expansion=expansion)
    except (ValueError, OSError) as exc:
        raise ValueError(f"cannot open stream {spec!r}: {exc}")


def _resolve_source(machine_path: str | None, stream: str | None,
                    base: int | None):
    if (machine_path is None) == (stream is None):
        raise ValueError("exactly one of --machine or --stream is required")
    if machine_path is not None:
        machine, digest = _load(machine_path)
        return machine, machine.source(digest)
    return None, _open_stream(stream, base)


def _output_path(path: str) -> str:
    """An --output path, checked when the options are read: a missing
    directory raises, before any work, the OSError that writing the file
    at the end would raise."""
    if path and not Path(path).parent.is_dir():
        code = errno.ENOTDIR if Path(path).parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    return path


def _emit(data: bytes | bytearray, output: str | None) -> None:
    """Write encoded output as it is: to the --output file, or to the
    binary stream under stdout, after what the text stream holds."""
    if output:
        Path(output).write_bytes(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _render_prefix(prefix) -> bytes | bytearray:
    """The `digits` output of a prefix as UTF-8: its symbols, one to a
    line unless each is one character, and a closing newline.

    When the symbols are consecutive ASCII characters, one numpy add of
    the first one's code to the symbol indices fills the bytes; any
    other alphabet is joined by `SequencePrefix.text` and encoded.
    """
    symbols = prefix.alphabet.symbols
    first = ord(symbols[0][0])
    if first + len(symbols) <= 128 and symbols == tuple(
            map(chr, range(first, first + len(symbols)))):
        out = bytearray(len(prefix) + 1)
        np.add(np.frombuffer(prefix.data, np.uint8), first,
               out=np.frombuffer(out, np.uint8)[:-1])
        out[-1] = ord("\n")
        return out
    sep = "" if prefix.alphabet.single_char else "\n"
    return (prefix.text(sep) + "\n").encode("utf-8")


def _fmt_approx(f: Fraction) -> str:
    return f"{_fraction_str(f)} (~{float(f):.6g}, approximate)"


def digits(machine_path, stream, base, count, output):
    """Print the first COUNT symbols of a source."""
    if count.strip().startswith("-"):
        raise ValueError(f"--count must be nonnegative, got {count}")
    count = _parse_number(count)
    _, source = _resolve_source(machine_path, stream, base)
    _emit(_render_prefix(source.prefix(count)), output)


def analyze(machine_path, stream, base, dio_range, complexity_range, rs_range,
            dilation_n, want_growth, prefix_length, fmt, output):
    """Profiles of a source: repetition ratios, complexity, dilation, growth."""
    machine, source = _resolve_source(machine_path, stream, base)
    doc: dict = {"source": source.source_id}
    lines: list[str] = [f"source: {source.source_id}"]

    def section(key: str, value, title: str, *rows: str) -> None:
        """One section: its JSON value and its text lines."""
        doc[key] = value
        lines.extend((title,) + rows)

    lengths = _parse_lengths(dio_range) if dio_range else []
    p_ns = _parse_lengths(complexity_range) if complexity_range else []
    rs_ns = _parse_lengths(rs_range) if rs_range else []
    plen = 0
    if p_ns or rs_ns:
        need = max([*p_ns[-1:], *(n + 1 for n in rs_ns[-1:])])
        plen = _parse_number(prefix_length) if prefix_length else 2 ** 16
        if plen < need:
            raise InsufficientDataError(
                f"--prefix-length {plen} is too short for the requested "
                f"block lengths")
    # the source caches what it generates: asking for the longer of the
    # two prefixes first generates once for both profiles
    source.prefix(max([*lengths[-1:], plen]))
    if lengths:
        profile = words_mod.dio_profile(source, lengths)
        section("dio", [{"length": n, "ratio": _fraction_str(r)}
                        for n, r in profile],
                "repetition-ratio profile (exact, per target length):",
                *(f"  length {n}: best ratio {_fmt_approx(r)}"
                  for n, r in profile))
    # both tables read one prefix, so rs reuses the index p builds
    prefix = source.prefix(plen) if plen else None
    if p_ns:
        # the widest block either table needs
        profile = words_mod.factor_complexity_profile(prefix, need)
        section("complexity", [{"n": n, "p": profile[n - 1]} for n in p_ns],
                f"factor complexity p(n) on a prefix of {plen}:",
                *(f"  p({n}) = {profile[n - 1]}" for n in p_ns))
    if rs_ns:
        counts = words_mod.right_special_count(prefix, max(rs_ns))
        section("rightSpecial",
                [{"n": n, "count": counts[n - 1]} for n in rs_ns],
                "right-special factor counts:",
                *(f"  rs({n}) = {counts[n - 1]}" for n in rs_ns))
    if (dilation_n or want_growth) and (
            machine is None or not MODELS[type(machine)].growth):
        raise ValueError("--dilation/--growth need a morphic or tag machine")
    if dilation_n:
        prof = tag_mod.dilation_profile(machine, _parse_number(dilation_n))
        section("dilation", {
            "minRatio": _fraction_str(prof.min_ratio),
            "argmin": prof.argmin,
            "exceedsOne": prof.exceeds_one,
            "samples": [{"n": n, "ratio": _fraction_str(r)}
                        for n, r in prof.samples],
        }, "dilation profile W(n)/n:",
            *(f"  n={n}: {_fmt_approx(r)}" for n, r in prof.samples),
            f"  minimum {_fmt_approx(prof.min_ratio)} at n={prof.argmin}; "
            f"stays above 1: {prof.exceeds_one}")
    if want_growth:
        report = morphic_mod.growth_report(machine)
        letters = sorted(report.per_letter.items())
        section("growth", {
            "radiusEstimate": report.radius,
            "exponential": report.global_exponential,
            "maximalGrowth": list(report.maximal),
            "perLetter": {a: {"theta": g.theta, "polyDegree": g.poly_degree,
                              "exponential": g.exponential}
                          for a, g in letters},
        }, "growth report:",
            f"  spectral radius estimate {report.radius:.9f} (approximate)",
            f"  exponential growth: {report.global_exponential}",
            f"  maximal-growth letters: {', '.join(report.maximal)}",
            *(f"  letter {a}: theta ~ {g.theta:.6f}, polynomial degree "
              f"{g.poly_degree}, exponential {g.exponential}"
              for a, g in letters))
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n" if fmt == "json" \
        else "\n".join(lines) + "\n"
    _emit(text.encode("utf-8"), output)


def certify(machine_path, pair, k, stream, base, budget, depth, scan_len,
            output):
    """Build a repetition certificate for a machine or a stream pair."""
    if pair is not None and machine_path is not None:
        raise ValueError("--pair certificates take --stream, not --machine")
    machine, source = _resolve_source(machine_path, stream, base)
    ref = source.source_id
    if pair is not None:
        n, n_prime = _parse_pair(pair)
        cert = certify_mod.certificate_from_pair(source, n, n_prime, k, depth)
    elif machine is None:
        raise ValueError("--stream certificates need --pair")
    else:
        engine, options = MODELS[type(machine)].certify
        given = {"scan_len": scan_len, "n_max": budget}
        cert = getattr(certify_mod, engine)(
            machine, depth=depth, machine_ref=ref,
            **{option: given[option] for option in options})
    _emit(certify_mod.certificate_to_json(cert).encode("utf-8"), output)
    _say(_cert_summary(cert), err=True)


def _cert_summary(cert) -> str:
    lines = [f"kind: {cert.kind}", f"machine: {cert.machine_ref}"]
    if cert.pair:
        lines.append(f"equivalent pair: n={cert.pair[0]}, n'={cert.pair[1]}"
                     + (f" (method {cert.method})" if cert.method else ""))
    if cert.seed_letter:
        lines.append(f"seed letter {cert.seed_letter!r} at positions "
                     f"{cert.seed_positions[0]} and {cert.seed_positions[1]}")
    return "\n".join(lines + [
        f"repetition exponent lower bound "
        f"{_fraction_str(cert.dio_lower_bound)} (> 1), verified to depth "
        f"{cert.verified_depth}; consecutive witness lengths grow by at most "
        f"{_fraction_str(cert.ratio_growth_bound)}",
        "consequence: a number whose digit stream repeats this strongly is "
        "rational or transcendental; no algebraic irrational expands this "
        "way"])


def verify(cert_path, machine_path, stream, base, extra_depth):
    """Re-check a certificate against its source; exit 0 only if valid."""
    try:
        cert = certify_mod.certificate_from_json(
            Path(cert_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load certificate: {exc}")
    machine, source = _resolve_source(machine_path, stream, base)
    if machine_path is not None and cert.machine_ref != source.source_id:
        raise ValueError(f"certificate is bound to machine {cert.machine_ref}"
                         f", file hashes to {source.source_id}")
    report = certify_mod.verify_certificate(source, cert, extra_depth,
                                            machine=machine)
    _say(report.summary())
    if not report.valid:
        sys.exit(EXIT_INVALID)


def convert(machine_path, output):
    """Convert between a k-uniform morphic spec and its automaton."""
    machine, _ = _load(machine_path)
    conversion = MODELS[type(machine)].convert
    if conversion is None:
        raise ValueError("only dfao and morphic machines convert")
    save_machine(conversion(machine), output)
    _say(f"wrote {output}")


def equiv(machine_path, pair, depth):
    """Bounded output comparison of the configurations after n and n'."""
    machine, _ = _load(machine_path)
    pushdown = MODELS[type(machine)].pushdown
    if pushdown is None:
        raise ValueError("equiv needs a dpao or dfao machine")
    n, n_prime = _parse_pair(pair)
    result = pda_mod.bounded_distinguish(pushdown(machine), n, n_prime, depth)
    _say(result.describe())
    if not result.distinguished:
        _say("note: exhausting the depth proves nothing by itself")


def imitate(stream, base, k, states, max_len, output):
    """Longest digit-stream prefix reachable by a small automaton."""
    for option, radix in (("--base", base), ("--k", k)):
        if radix is not None and radix < 2:
            raise ValueError(f"{option} must be at least 2, got {radix}")
    source = _open_stream(stream, base, expansion=True)
    agree, censored, best = numbers_mod.imitation_index(
        source, base if k is None else k, states, max_len)
    suffix = " (censored: no disagreement found)" if censored else ""
    _say(f"imitation index: {agree}{suffix}")
    if output:
        save_machine(best, output)
        _say(f"best machine written to {output}")


def catalog_list():
    """List the built-in machines and their models."""
    for name in catalog_mod.names():
        kind = type(catalog_mod.get(name)).__name__
        _say(f"{name} ({kind})")


def catalog_export(directory):
    """Write each built-in machine to a JSON file."""
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
    --help included, to its option."""
    doc: str
    options: tuple[_Option, ...]
    flags: dict[str, _Option]
    run: Callable | None
    commands: dict[str, _Command] | None


_HELP = _Option("--help", "help", bool, help="Show this message and exit.")


def _command(run: Callable | None, *options: _Option, doc: str = "",
             commands: dict[str, _Command] | None = None) -> _Command:
    flags = {option.flag: option for option in options + (_HELP,)}
    return _Command(doc or run.__doc__, options, flags, run, commands)


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
    None,
    _Option("--version", "version", bool, help="Show the version and exit."),
    doc="Digit-sequence generators and repetition certificates.",
    commands={
        "digits": _command(
            digits, *_SOURCE,
            _Option("--count", "count", default="64"),
            _Option("--output", "output", _output_path,
                   help="Write here instead of stdout.")),
        "analyze": _command(
            analyze, *_SOURCE,
            _Option("--dio", "dio_range", help="Lengths for the "
                   "repetition-ratio profile, e.g. 2^4..2^14."),
            _Option("--complexity", "complexity_range", help="Block lengths "
                   "for the factor-complexity table, e.g. 1..64."),
            _Option("--right-special", "rs_range",
                   help="Block lengths for the right-special-factor table."),
            _Option("--dilation", "dilation_n", help="Read-head depth for "
                   "the dilation profile (morphic only)."),
            _Option("--growth", "want_growth", bool, False, help="Include the "
                   "per-letter growth report (morphic only)."),
            _Option("--prefix-length", "prefix_length", help="Prefix length "
                   "for complexity tables (default 2^16)."),
            _Option("--format", "fmt", ("text", "json"), "text"),
            _Option("--output", "output", _output_path)),
        "certify": _command(
            certify, *_SOURCE,
            _Option("--pair", "pair",
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
            verify,
            _Option("--certificate", "cert_path", required=True), *_SOURCE,
            _Option("--extra-depth", "extra_depth", int, 0)),
        "convert": _command(
            convert, _Option("--machine", "machine_path", required=True),
            _Option("--output", "output", _output_path, required=True)),
        "equiv": _command(
            equiv, _Option("--machine", "machine_path", required=True),
            _Option("--pair", "pair", help="n,n'", required=True),
            _Option("--depth", "depth", int, 12)),
        "imitate": _command(
            imitate, _Option("--stream", "stream", required=True),
            _Option("--base", "base", int, 2),
            _Option("--k", "k", int, help="Input radix of the candidate "
                   "machines (default: base)."),
            _Option("--states", "states", int, required=True),
            _Option("--len", "max_len", int, 64),
            _Option("--output", "output", _output_path,
                   help="Write the best machine here.")),
        "catalog": _command(
            None, doc="Built-in machines as reviewable JSON files.",
            commands={
                "list": _command(catalog_list),
                "export": _command(
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
    node.run(**{option.dest: _value(option, values)
                for option in node.options})


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


if __name__ == "__main__":
    main()
