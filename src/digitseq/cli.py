"""Command-line front end.

Every command is deterministic: given the same options and input files it
produces byte-identical output. No command accepts or uses randomness.

Exit codes: 0 success, 1 search budget exhausted (or pair refuted),
2 invalid input, 3 insufficient data, 4 enumeration cap refusal. The
command group `_Commands` decides them: every package error a command
raises leaves through its `invoke`, which prints one `error:` line.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from . import catalog as catalog_mod
from . import certify as certify_mod
from . import morphic as morphic_mod
from . import numbers as numbers_mod
from . import pda as pda_mod
from . import tag as tag_mod
from . import words as words_mod
from .certify import _fraction_str
from .dfao import Dfao
from .errors import (BudgetExceededError, EnumerationCapError,
                     InsufficientDataError, PairRefutedError, ValidationError)
from .machinefile import load_machine, save_machine
from .morphic import MorphicSpec
from .pda import Dpao

EXIT_BUDGET = 1
EXIT_INVALID = 2
EXIT_INSUFFICIENT = 3
EXIT_CAP = 4


def _die(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_number(token: str) -> int:
    """A nonnegative integer or a power such as 2^14, below 2^64; anything
    else exits 2, before a power is computed."""
    base_s, caret, exp_s = token.strip().partition("^")
    try:
        base, exp = int(base_s), int(exp_s) if caret else 1
    except ValueError:
        base = -1
    if base < 0 or exp < 0:
        _die(EXIT_INVALID,
             f"not a nonnegative integer or a power b^e: {token!r}")
    if exp * (base.bit_length() - 1) >= 64:
        _die(EXIT_INVALID, f"number too large: {token!r} is 2^64 or more")
    return base ** exp


def _parse_lengths(expr: str) -> list[int]:
    """"1..64" is an arithmetic range; "2^4..2^14" steps by the power base.

    Lengths are positive and a range ascends; a power base below 2 never
    reaches the upper end. Each of these exits 2.
    """
    lo_s, dots, hi_s = expr.partition("..")
    lo = _parse_number(lo_s)
    hi = _parse_number(hi_s) if dots else lo
    if not 1 <= lo <= hi:
        _die(EXIT_INVALID, f"lengths must be positive and ascending: {expr!r}")
    if not dots or "^" not in expr:
        return list(range(lo, hi + 1))
    step = int((lo_s if "^" in lo_s else hi_s).partition("^")[0])
    if step < 2:
        _die(EXIT_INVALID, f"power base must be at least 2: {expr!r}")
    vals = []
    v = lo
    while v <= hi:
        vals.append(v)
        v *= step
    return vals


def _load_machine_or_die(path: str):
    try:
        return load_machine(path)
    except FileNotFoundError:
        _die(EXIT_INVALID, f"machine file not found: {path}")
    except ValidationError as exc:
        _die(EXIT_INVALID, f"machine {path} invalid:\n{exc.report.summary()}")
    except (ValueError, OSError) as exc:
        _die(EXIT_INVALID, f"cannot load machine {path}: {exc}")


def _parse_pair(pair: str) -> tuple[int, int]:
    """"n,n'" as two integers; anything else exits 2."""
    try:
        n, n_prime = map(int, pair.split(","))
    except ValueError:
        _die(EXIT_INVALID, f"--pair takes two integers n,n', got {pair!r}")
    return n, n_prime


def _stream_or_die(spec: str, base: int | None, expansion: bool = False):
    try:
        return numbers_mod.parse_stream_spec(spec, base, expansion=expansion)
    except (ValueError, OSError) as exc:
        _die(EXIT_INVALID, f"cannot open stream {spec!r}: {exc}")


def _resolve_source(machine_path: str | None, stream: str | None,
                    base: int | None):
    if (machine_path is None) == (stream is None):
        _die(EXIT_INVALID, "exactly one of --machine or --stream is required")
    if machine_path is not None:
        machine = _load_machine_or_die(machine_path)
        digest = hashlib.sha256(Path(machine_path).read_bytes()).hexdigest()
        return machine, machine.source(digest)
    return None, _stream_or_die(stream, base)


def _output_path(ctx, param, path: str | None) -> str | None:
    """An --output path, checked when the options are parsed: a missing
    directory raises, before any work, the OSError that writing the file
    at the end would raise."""
    if path and not Path(path).parent.is_dir():
        code = errno.ENOTDIR if Path(path).parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    return path


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _render_prefix(prefix) -> str:
    return prefix.text("" if prefix.alphabet.single_char else "\n") + "\n"


def _fmt_approx(f: Fraction) -> str:
    return f"{_fraction_str(f)} (~{float(f):.6g}, approximate)"


class _Commands(click.Group):
    """The command group: its `invoke` maps each package error to an
    exit code and a one-line message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PairRefutedError as exc:
            _die(EXIT_BUDGET, f"refuted: {exc}")
        except BudgetExceededError as exc:
            _die(EXIT_BUDGET, str(exc))
        except EnumerationCapError as exc:
            _die(EXIT_CAP, f"{exc}; lower --states or --len")
        except InsufficientDataError as exc:
            _die(EXIT_INSUFFICIENT, str(exc))
        except (ValueError, ValidationError, OSError, OverflowError) as exc:
            _die(EXIT_INVALID, str(exc))


@click.group(cls=_Commands)
@click.version_option(version=__version__)
def main() -> None:
    """Digit-sequence generators and repetition certificates."""


def _source_options(command):
    """The --machine, --stream and --base options that name a source."""
    for option in reversed((
            click.option("--machine", "machine_path", type=str, default=None,
                         help="Machine JSON file (dfao, morphic, tag, dpao)."),
            click.option("--stream", type=str, default=None,
                         help="Number stream: rational:p/q, surd:d, xi3, "
                              "file:<path>."),
            click.option("--base", type=int, default=None,
                         help="Digit base for rational/surd streams."))):
        command = option(command)
    return command


@main.command()
@_source_options
@click.option("--count", type=str, default="64", show_default=True)
@click.option("--output", type=str, default=None, callback=_output_path,
              help="Write here instead of stdout.")
def digits(machine_path, stream, base, count, output):
    """Print the first COUNT symbols of a source."""
    if count.strip().startswith("-"):
        _die(EXIT_INVALID, f"--count must be nonnegative, got {count}")
    count = _parse_number(count)
    _, source = _resolve_source(machine_path, stream, base)
    _emit(_render_prefix(source.prefix(count)), output)


@main.command()
@_source_options
@click.option("--dio", "dio_range", type=str, default=None,
              help="Lengths for the repetition-ratio profile, e.g. 2^4..2^14.")
@click.option("--complexity", "complexity_range", type=str, default=None,
              help="Block lengths for the factor-complexity table, e.g. 1..64.")
@click.option("--right-special", "rs_range", type=str, default=None,
              help="Block lengths for the right-special-factor table.")
@click.option("--dilation", "dilation_n", type=str, default=None,
              help="Read-head depth for the dilation profile (morphic only).")
@click.option("--growth", "want_growth", is_flag=True,
              help="Include the per-letter growth report (morphic only).")
@click.option("--prefix-length", type=str, default=None,
              help="Prefix length for complexity tables (default 2^16).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--output", type=str, default=None, callback=_output_path)
def analyze(machine_path, stream, base, dio_range, complexity_range, rs_range,
            dilation_n, want_growth, prefix_length, fmt, output):
    """Profiles of a source: repetition ratios, complexity, dilation, growth."""
    machine, source = _resolve_source(machine_path, stream, base)
    doc: dict = {"source": source.source_id}
    lines: list[str] = [f"source: {source.source_id}"]
    lengths = _parse_lengths(dio_range) if dio_range else []
    p_ns = _parse_lengths(complexity_range) if complexity_range else []
    rs_ns = _parse_lengths(rs_range) if rs_range else []
    plen = 0
    if p_ns or rs_ns:
        need = p_ns + [n + 1 for n in rs_ns]
        plen = _parse_number(prefix_length) if prefix_length else 2 ** 16
        if plen < max(need):
            _die(EXIT_INSUFFICIENT,
                 f"--prefix-length {plen} is too short for the "
                 f"requested block lengths")
    # the source caches what it generates: asking for the longer of the
    # two prefixes first generates once for both profiles
    source.prefix(max(lengths + [plen]))
    if lengths:
        profile = words_mod.dio_profile(source, lengths)
        doc["dio"] = [
            {"length": n, "ratio": _fraction_str(r)} for n, r in profile
        ]
        lines.append("repetition-ratio profile (exact, per target length):")
        for n, r in profile:
            lines.append(f"  length {n}: best ratio {_fmt_approx(r)}")
    if p_ns or rs_ns:
        prefix = source.prefix(plen)
        if p_ns:
            doc["complexity"] = []
            lines.append(f"factor complexity p(n) on a prefix of {plen}:")
            # the widest block either table needs: rs reads the same index
            profile = words_mod.factor_complexity_profile(prefix, max(need))
            for n in p_ns:
                doc["complexity"].append({"n": n, "p": profile[n - 1]})
                lines.append(f"  p({n}) = {profile[n - 1]}")
        if rs_ns:
            doc["rightSpecial"] = []
            lines.append("right-special factor counts:")
            counts = words_mod.right_special_count(prefix, max(rs_ns))
            for n in rs_ns:
                c = counts[n - 1]
                doc["rightSpecial"].append({"n": n, "count": c})
                lines.append(f"  rs({n}) = {c}")
    if dilation_n or want_growth:
        if not isinstance(machine, MorphicSpec):
            _die(EXIT_INVALID,
                 "--dilation/--growth need a morphic or tag machine")
        if dilation_n:
            prof = tag_mod.dilation_profile(machine, _parse_number(dilation_n))
            doc["dilation"] = {
                "minRatio": _fraction_str(prof.min_ratio),
                "argmin": prof.argmin,
                "exceedsOne": prof.exceeds_one,
                "samples": [
                    {"n": n, "ratio": _fraction_str(r)}
                    for n, r in prof.samples
                ],
            }
            lines.append("dilation profile W(n)/n:")
            for n, r in prof.samples:
                lines.append(f"  n={n}: {_fmt_approx(r)}")
            lines.append(
                f"  minimum {_fmt_approx(prof.min_ratio)} at n={prof.argmin}; "
                f"stays above 1: {prof.exceeds_one}"
            )
        if want_growth:
            report = morphic_mod.growth_report(machine)
            radius = report.radius
            letters = sorted(report.per_letter.items())
            doc["growth"] = {
                "radiusEstimate": radius,
                "exponential": report.global_exponential,
                "maximalGrowth": list(report.maximal),
                "perLetter": {
                    a: {"theta": g.theta, "polyDegree": g.poly_degree,
                        "exponential": g.exponential} for a, g in letters
                },
            }
            lines += [
                "growth report:",
                f"  spectral radius estimate {radius:.9f} (approximate)",
                f"  exponential growth: {report.global_exponential}",
                f"  maximal-growth letters: {', '.join(report.maximal)}",
            ] + [
                f"  letter {a}: theta ~ {g.theta:.6f}, polynomial degree "
                f"{g.poly_degree}, exponential {g.exponential}"
                for a, g in letters
            ]
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n" if fmt == "json" \
        else "\n".join(lines) + "\n"
    _emit(text, output)


@main.command()
@_source_options
@click.option("--pair", type=str, default=None,
              help="Certify a raw index pair n,n' against a stream.")
@click.option("--k", type=int, default=2, show_default=True,
              help="Radix of the identity family for --pair certificates.")
@click.option("--budget", type=int, default=10_000, show_default=True,
              help="Scan limit for pushdown pair search.")
@click.option("--depth", type=int, default=12, show_default=True)
@click.option("--scan-len", type=int, default=4096, show_default=True,
              help="Fixed-point scan window for morphic seeds.")
@click.option("--output", type=str, default=None, callback=_output_path,
              help="Certificate JSON path (default: print to stdout).")
def certify(machine_path, pair, k, stream, base, budget, depth, scan_len,
            output):
    """Build a repetition certificate for a machine or a stream pair."""
    if pair is not None and machine_path is not None:
        _die(EXIT_INVALID, "--pair certificates take --stream, not --machine")
    machine, source = _resolve_source(machine_path, stream, base)
    ref = source.source_id
    if pair is not None:
        n, n_prime = _parse_pair(pair)
        cert = certify_mod.certificate_from_pair(source, n, n_prime, k, depth)
    elif machine is None:
        _die(EXIT_INVALID, "--stream certificates need --pair")
    elif isinstance(machine, Dfao):
        cert = certify_mod.certify_dfao(machine, depth=depth, machine_ref=ref)
    elif isinstance(machine, MorphicSpec):
        cert = certify_mod.certify_morphic(machine, depth=depth,
                                           scan_len=scan_len, machine_ref=ref)
    else:
        cert = certify_mod.certify_pda(machine, n_max=budget, depth=depth,
                                       machine_ref=ref)
    _emit(certify_mod.certificate_to_json(cert), output)
    click.echo(_cert_summary(cert), err=True)


def _cert_summary(cert) -> str:
    lines = [
        f"kind: {cert.kind}",
        f"machine: {cert.machine_ref}",
    ]
    if cert.pair:
        lines.append(
            f"equivalent pair: n={cert.pair[0]}, n'={cert.pair[1]}"
            + (f" (method {cert.method})" if cert.method else "")
        )
    if cert.seed_letter:
        lines.append(
            f"seed letter {cert.seed_letter!r} at positions "
            f"{cert.seed_positions[0]} and {cert.seed_positions[1]}"
        )
    lines.append(
        f"repetition exponent lower bound {_fraction_str(cert.dio_lower_bound)} "
        f"(> 1), verified to depth {cert.verified_depth}; consecutive witness "
        f"lengths grow by at most {_fraction_str(cert.ratio_growth_bound)}"
    )
    lines.append(
        "consequence: a number whose digit stream repeats this strongly is "
        "rational or transcendental; no algebraic irrational expands this way"
    )
    return "\n".join(lines)


@main.command()
@click.option("--certificate", "cert_path", type=str, required=True)
@_source_options
@click.option("--extra-depth", type=int, default=0, show_default=True)
def verify(cert_path, machine_path, stream, base, extra_depth):
    """Re-check a certificate against its source; exit 0 only if valid."""
    try:
        cert = certify_mod.certificate_from_json(
            Path(cert_path).read_text(encoding="utf-8")
        )
    except (OSError, ValueError) as exc:
        _die(EXIT_INVALID, f"cannot load certificate: {exc}")
    machine, source = _resolve_source(machine_path, stream, base)
    if machine_path is not None and cert.machine_ref != source.source_id:
        _die(EXIT_INVALID,
             f"certificate is bound to machine {cert.machine_ref}, "
             f"file hashes to {source.source_id}")
    report = certify_mod.verify_certificate(source, cert, extra_depth,
                                            machine=machine)
    click.echo(report.summary())
    if not report.valid:
        sys.exit(EXIT_INVALID)


@main.command()
@click.option("--machine", "machine_path", type=str, required=True)
@click.option("--output", type=str, required=True, callback=_output_path)
def convert(machine_path, output):
    """Convert between a k-uniform morphic spec and its automaton."""
    machine = _load_machine_or_die(machine_path)
    if isinstance(machine, MorphicSpec):
        converted = morphic_mod.to_dfao(machine)
    elif isinstance(machine, Dfao):
        converted = morphic_mod.from_dfao(machine)
    else:
        _die(EXIT_INVALID, "only dfao and morphic machines convert")
    save_machine(converted, output)
    click.echo(f"wrote {output}")


@main.command()
@click.option("--machine", "machine_path", type=str, required=True)
@click.option("--pair", type=str, required=True, help="n,n'")
@click.option("--depth", type=int, default=12, show_default=True)
def equiv(machine_path, pair, depth):
    """Bounded output comparison of the configurations after n and n'."""
    machine = _load_machine_or_die(machine_path)
    if isinstance(machine, Dfao):
        machine = pda_mod.from_dfao(machine)
    elif not isinstance(machine, Dpao):
        _die(EXIT_INVALID, "equiv needs a dpao or dfao machine")
    n, n_prime = _parse_pair(pair)
    result = pda_mod.bounded_distinguish(machine, n, n_prime, depth)
    click.echo(result.describe())
    if not result.distinguished:
        click.echo("note: exhausting the depth proves nothing by itself")


@main.command()
@click.option("--stream", type=str, required=True)
@click.option("--base", type=int, default=2, show_default=True)
@click.option("--k", type=int, default=None,
              help="Input radix of the candidate machines (default: base).")
@click.option("--states", type=int, required=True)
@click.option("--len", "max_len", type=int, default=64, show_default=True)
@click.option("--output", type=str, default=None, callback=_output_path,
              help="Write the best machine here.")
def imitate(stream, base, k, states, max_len, output):
    """Longest digit-stream prefix reachable by a small automaton."""
    for option, radix in (("--base", base), ("--k", k)):
        if radix is not None and radix < 2:
            _die(EXIT_INVALID, f"{option} must be at least 2, got {radix}")
    source = _stream_or_die(stream, base, expansion=True)
    agree, censored, best = numbers_mod.imitation_index(
        source, base if k is None else k, states, max_len
    )
    suffix = " (censored: no disagreement found)" if censored else ""
    click.echo(f"imitation index: {agree}{suffix}")
    if output:
        save_machine(best, output)
        click.echo(f"best machine written to {output}")


@main.group()
def catalog() -> None:
    """Built-in machines as reviewable JSON files."""


@catalog.command("list")
def catalog_list():
    for name in catalog_mod.names():
        kind = type(catalog_mod.get(name)).__name__
        click.echo(f"{name} ({kind})")


@catalog.command("export")
@click.option("--dir", "directory", type=str, required=True)
def catalog_export(directory):
    for path in catalog_mod.export_all(directory):
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
