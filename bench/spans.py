"""Per-layer spans, recorded from outside the program.

`install(tracer)` wraps the public functions of each digitseq module in
place (and the names `cli` and `certify` imported from them), so a job
run through the CLI records one span per layer call. `uninstall` puts
the originals back. Self time is a span's duration minus the time its
child spans took, so the self times of one job add up to its `cli` span.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

GEN_SPANS = ("dfao.gen", "morphic.gen", "pda.gen", "numbers.gen")

# span name -> (digitseq module, attribute) pairs it wraps
WRAPPED = {
    "machinefile.load": (("machinefile", "load_machine"),
                         ("cli", "load_machine")),
    "words.dio": (("words", "dio_profile"),),
    "words.best_repetition": (("words", "best_repetition_at"),),
    "words.complexity": (("words", "factor_complexity_profile"),),
    "words.right_special": (("words", "right_special_count"),),
    "words.verify_repetition": (("words", "verify_repetition"),
                                ("certify", "verify_repetition")),
    "morphic.growth": (("morphic", "growth_report"),
                       ("morphic", "spectral_radius_estimate"),
                       ("morphic", "exponential_growth")),
    "morphic.seed": (("morphic", "repetition_seed"),),
    "tag.dilation": (("tag", "dilation_profile"),),
    "pda.find_pair": (("pda", "find_equivalent_pair"),),
    "certify.build": (("certify", "certify_dfao"),
                      ("certify", "certify_morphic"),
                      ("certify", "certify_pda"),
                      ("certify", "certificate_from_pair")),
    "certify.verify": (("certify", "verify_certificate"),),
    "certify.json": (("certify", "certificate_to_json"),
                     ("certify", "certificate_from_json")),
}

SPANS = ("cli",) + GEN_SPANS + tuple(WRAPPED)
# spans that never contain another span: these also report peak memory
LEAF_SPANS = GEN_SPANS + (
    "machinefile.load", "words.best_repetition", "words.complexity",
    "words.right_special", "words.verify_repetition", "morphic.growth",
    "pda.find_pair", "certify.json")


class Tracer:
    """Span statistics for one traced pass; `model` labels gen spans.

    With track_memory, leaf spans also record their tracemalloc peak; the
    caller starts tracemalloc, which slows Python allocation several-fold,
    so timing and memory come from separate passes.
    """

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.stats = {name: {"calls": 0, "self_s": 0.0, "errors": 0,
                             "symbols": 0, "peak_mib": 0.0}
                      for name in SPANS}
        self.model = "numbers"
        self.cli_total_s = 0.0
        self.final_symbols = 0
        self._stack: list[list[float]] = []
        self._requested: dict = {}

    def call(self, name, fn, *args, **kwargs):
        leaf = self.track_memory and name in LEAF_SPANS
        if leaf:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        children = [0.0]
        self._stack.append(children)
        failed = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            failed = True
            raise
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            else:
                self.cli_total_s += duration
            st = self.stats[name]
            st["calls"] += 1
            st["self_s"] += duration - children[0]
            st["errors"] += failed
            if leaf:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                st["peak_mib"] = max(st["peak_mib"], peak)

    def end_job(self) -> None:
        """Close the per-source bookkeeping of one job."""
        self.final_symbols += sum(n for _, n in self._requested.values())
        self._requested.clear()

    def generated(self, count: int) -> None:
        self.stats[f"{self.model}.gen"]["symbols"] += count


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def install(tracer: Tracer):
    """Wrap every layer; returns a function that restores the originals."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def module(name):
        return importlib.import_module(f"digitseq.{name}")

    for name, targets in WRAPPED.items():
        for owner, attr in targets:
            owner = module(owner)
            patch(owner, attr, _wrap(tracer, name, getattr(owner, attr)))

    morphic = module("morphic")
    source_cls = module("words").SequenceSource
    orig_init, orig_prefix = source_cls.__init__, source_cls.prefix

    def init(self, source_id, alphabet, generate):
        def counted(n):
            data = generate(n)
            tracer.generated(len(data))
            return data
        orig_init(self, source_id, alphabet, counted)

    def prefix(self, n):
        # a source is extended when asked for more than it was asked before;
        # the source is held until the job ends so its id stays unique
        _, before = tracer._requested.get(id(self), (self, 0))
        if n <= before:
            return orig_prefix(self, n)
        tracer._requested[id(self)] = (self, n)
        return tracer.call(f"{tracer.model}.gen", orig_prefix, self, n)

    orig_fixed = morphic.fixed_point_prefix

    def fixed_point_prefix(spec, count):
        tracer.stats["morphic.gen"]["symbols"] += count
        tracer.final_symbols += count
        return tracer.call("morphic.gen", orig_fixed, spec, count)

    patch(source_cls, "__init__", init)
    patch(source_cls, "prefix", prefix)
    patch(morphic, "fixed_point_prefix", fixed_point_prefix)

    def uninstall():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
    return uninstall
