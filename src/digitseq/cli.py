"""The engine-backed commands: `digits`, `analyze`, `certify`, `verify`,
`equiv` and `imitate`, which `digitseq.console` names in its table and
calls here with the values it converted. This module loads numpy and
every engine when it is imported, so a process that imports it first (a
profiler, a benchmark) runs every command with no import left to do.
Engines are called through their modules, so a wrapper set on a module
attribute sees every call.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import certify as certify_mod
from . import morphic as morphic_mod
from . import numbers as numbers_mod
from . import pda as pda_mod
from . import tag as tag_mod
from . import words as words_mod
from .certify import _fraction_str
from .console import EXIT_INVALID, _load, _say, main
from .errors import InsufficientDataError
# `load_machine` stays a name here: profilers wrap it on this module too
from .machinefile import MODELS, load_machine, save_machine  # noqa: F401


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
    _, source = _resolve_source(machine_path, stream, base)
    _emit(_render_prefix(source.prefix(count)), output)


def analyze(machine_path, stream, base, dio_range, complexity_range, rs_range,
            dilation_n, want_growth, prefix_length, fmt, output):
    machine, source = _resolve_source(machine_path, stream, base)
    doc: dict = {"source": source.source_id}
    lines: list[str] = [f"source: {source.source_id}"]

    def section(key: str, value, title: str, *rows: str) -> None:
        """One section: its JSON value and its text lines."""
        doc[key] = value
        lines.extend((title,) + rows)

    lengths, p_ns, rs_ns = dio_range or [], complexity_range or [], \
        rs_range or []
    plen = 0
    if p_ns or rs_ns:
        need = max([*p_ns[-1:], *(n + 1 for n in rs_ns[-1:])])
        plen = 2 ** 16 if prefix_length is None else prefix_length
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
    if (dilation_n is not None or want_growth) and (
            machine is None or not MODELS[type(machine)].growth):
        raise ValueError("--dilation/--growth need a morphic or tag machine")
    if dilation_n is not None:
        prof = tag_mod.dilation_profile(machine, dilation_n)
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
    if pair is not None and machine_path is not None:
        raise ValueError("--pair certificates take --stream, not --machine")
    machine, source = _resolve_source(machine_path, stream, base)
    if pair is not None:
        cert = certify_mod.certificate_from_pair(source, *pair, k, depth)
    elif machine is None:
        raise ValueError("--stream certificates need --pair")
    else:
        engine, options = MODELS[type(machine)].certify
        given = {"scan_len": scan_len, "n_max": budget}
        cert = getattr(certify_mod, engine)(
            machine, depth=depth, machine_ref=source.source_id,
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


def equiv(machine_path, pair, depth):
    machine, _ = _load(machine_path)
    pushdown = MODELS[type(machine)].pushdown
    if pushdown is None:
        raise ValueError("equiv needs a dpao or dfao machine")
    result = pda_mod.bounded_distinguish(pushdown(machine), *pair, depth)
    _say(result.describe())
    if not result.distinguished:
        _say("note: exhausting the depth proves nothing by itself")


def imitate(stream, base, k, states, max_len, output):
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


if __name__ == "__main__":
    main()
