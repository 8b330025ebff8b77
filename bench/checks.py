"""Output checks for benchmark jobs, against the oracles only.

`Checker.check(job, record)` returns (status, reason, symbols): status is
"ok", "fail" or "defect" (a named ROADMAP 4 defect behaving exactly as
recorded), and symbols is what the job asked the program to produce.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from jobs import KNOWN_DEFECTS

# small block lengths are checked by brute force on the oracle word
BRUTE_MAX_LENGTH = 64
NAIVE_MAX_N = 8

# frozen: exact minimum of W(n)/n for the squares machine, as in the
# acceptance tests
SQUARES_DILATION_MIN = {10_000: Fraction(10199, 10000),
                        65_536: Fraction(66047, 65536)}


def fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def thue_morse_complexity(n: int) -> int:
    """Brlek / de Luca-Varricchio: factor complexity of Thue-Morse."""
    if n <= 2:
        return 2 * n
    m = n - 1
    r = (m - 1).bit_length() - 1  # 2^r < m <= 2^(r+1)
    q = m - 2 ** r
    half = Fraction(2 ** r, 2)
    return int(6 * half + 4 * q if q <= half else 8 * half + 2 * q)


def brute_best_ratio(word: str, ell: int) -> Fraction:
    """Best (u + ext)/(u + v) with u + ext = ell and v <= ell // 2, by
    trying every (v, u)."""
    best = Fraction(1)
    for v in range(1, ell // 2 + 1):
        for u in range(0, ell - v):
            if word[u + v:ell] == word[u:ell - v]:
                best = max(best, Fraction(ell, u + v))
                break
    return best


def window_codes(word: str, n: int) -> tuple[np.ndarray, int]:
    """Every length-n window of the word as one integer in base |alphabet|,
    last symbol least significant; returns (codes, base)."""
    _, symbols = np.unique(np.frombuffer(word.encode("utf-32-le"),
                                         dtype=np.uint32), return_inverse=True)
    base = int(symbols.max()) + 1
    codes = np.zeros(len(word) - n + 1, dtype=np.int64)
    for j in range(n):
        codes = codes * base + symbols[j:len(word) - n + 1 + j]
    return codes, base


def naive_complexity(word: str, n: int) -> int:
    """Distinct length-n windows, counted directly."""
    return len(np.unique(window_codes(word, n)[0]))


def naive_right_special(word: str, n: int) -> int:
    """Length-n windows seen with two or more different next symbols."""
    longer, base = window_codes(word, n + 1)
    heads = np.unique(np.unique(longer) // base, return_counts=True)[1]
    return int(np.count_nonzero(heads >= 2))


def holds(word: str, u: int, v: int, ext: int) -> bool:
    """The witness identity word[i] = word[i - v] for u+v < i <= u+ext."""
    return word[u + v:u + ext] == word[u:u + ext - v]


def pair_family(n: int, n_prime: int, k: int, depth: int) -> list[dict]:
    return [{"u": k ** lv * n, "v": k ** lv * (n_prime - n),
             "ext": k ** lv * (n_prime - n + 1)} for lv in range(depth + 1)]


class Checker:
    def __init__(self, machines: dict, run_dir: Path):
        self.machines = machines
        self.run_dir = run_dir
        self.words = oracles.SourceOracles(machines)
        self._expected_certs: dict = {}

    def warm(self, jobs) -> None:
        """Compute each oracle word once, at the largest length needed."""
        longest: dict = {}
        for job in jobs:
            if job["kind"] == "digits" or "dio_max" in job:
                longest[job["source"]] = max(longest.get(job["source"], 0),
                                             job["count"])
        for source, count in longest.items():
            self.words.word(source, count)

    def check(self, job: dict, rec: dict):
        kind = job["kind"]
        if kind == "digits":
            return self._digits(job, rec)
        if kind == "analyze":
            return self._analyze(job, rec)
        if kind == "certify":
            return self._certify(job, rec)
        return self._verify(job, rec)

    # --- digits ------------------------------------------------------------

    def _digits(self, job, rec):
        count = job["count"]
        if rec["exit"] != 0:
            return "fail", f"exit {rec['exit']}", count
        expected = (self.words.word(job["source"], count) + "\n").encode()
        if hashlib.sha256(expected).hexdigest() != rec["stdout_sha"]:
            return "fail", "digits differ from the oracle", count
        return "ok", "", count

    # --- analyze -----------------------------------------------------------

    def _analyze(self, job, rec):
        count = job["count"]
        if rec["exit"] != 0 or rec["stdout"] is None:
            return "fail", f"exit {rec['exit']}", count
        try:
            problem = self._analyze_problem(job, rec["stdout"])
        except (ValueError, KeyError, IndexError) as exc:
            problem = f"unparseable output: {exc!r}"
        return ("fail", problem, count) if problem else ("ok", "", count)

    def _analyze_problem(self, job, text):
        lines = text.splitlines()
        if "growth" in job:
            return self._growth_problem(job, lines)
        if "dilation" in job:
            return self._dilation_problem(job, lines)
        word = self.words.word(job["source"], job["count"])
        dio = [(int(n), fraction(r)) for n, r in re.findall(
            r"^  length (\d+): best ratio (\d+/\d+) ", text, re.M)]
        want = [2 ** e for e in range(4, job["dio_max"].bit_length())]
        if [n for n, _ in dio] != want:
            return "dio lengths differ from the requested range"
        for n, r in dio:
            if r < 1 or (n <= BRUTE_MAX_LENGTH and
                         r != brute_best_ratio(word, n)):
                return f"dio ratio at length {n} is {r}"
        plen = job["prefix_length"]
        prefix = word[:plen]
        comp = [int(p) for p in
                re.findall(r"^  p\(\d+\) = (\d+)$", text, re.M)]
        if len(comp) != job["complexity"] or f"prefix of {plen}:" not in text:
            return "complexity table has the wrong rows"
        tm = job["source"] in ("thue-morse", "thue-morse-morphic")
        for n, p in enumerate(comp, start=1):
            if tm and p != thue_morse_complexity(n):
                return f"p({n}) = {p}, not the Thue-Morse value"
            if n <= NAIVE_MAX_N and p != naive_complexity(prefix, n):
                return f"p({n}) = {p} differs from the naive count"
        rs = [int(c) for c in re.findall(r"^  rs\(\d+\) = (\d+)$", text, re.M)]
        if len(rs) != job["right_special"]:
            return "right-special table has the wrong rows"
        for n, c in enumerate(rs[:NAIVE_MAX_N], start=1):
            if c != naive_right_special(prefix, n):
                return f"rs({n}) = {c} differs from the naive count"
        return None

    def _growth_problem(self, job, lines):
        doc = self.machines[job["source"]]
        want = oracles.exponential_growth(doc["rules"], doc["internal"])
        if f"  exponential growth: {want}" not in lines:
            return f"exponential growth should read {want}"
        return None

    def _dilation_problem(self, job, lines):
        doc = self.machines[job["source"]]
        limit = job["dilation"]
        lengths = oracles.image_lengths(doc)
        w, best, samples = 0, None, {}
        for n, ch in enumerate(oracles.morphic_internal(doc, limit), start=1):
            w += lengths[ch]
            if best is None or w * best[1] < best[0] * n:
                best = (w, n)
            if n & (n - 1) == 0 or n == limit:
                samples[n] = Fraction(w, n)
        got = {int(n): fraction(r) for n, r in
               (re.match(r"  n=(\d+): (\d+/\d+) ", ln).groups()
                for ln in lines if ln.startswith("  n="))}
        if got != samples:
            return "dilation samples differ from naive W(n)/n"
        tail = lines[-1]
        minimum = Fraction(*best)
        frozen = SQUARES_DILATION_MIN.get(limit)
        if job["source"] == "squares" and frozen and minimum != frozen:
            return f"oracle minimum {minimum} differs from frozen {frozen}"
        grows = oracles.exponential_growth(doc["rules"], doc["internal"])
        want = (f"  minimum {minimum.numerator}/{minimum.denominator} ",
                f" at n={best[1]}; stays above 1: {grows}")
        if not (tail.startswith(want[0]) and tail.endswith(want[1])):
            return "dilation minimum line is wrong"
        return None

    # --- certify / verify --------------------------------------------------

    def expected_certificate(self, job) -> dict:
        """Pair, bound and witnesses the certificate must carry, from the
        benchmark's own scans."""
        key = (job["source"], job["depth"])
        if key not in self._expected_certs:
            self._expected_certs[key] = self._expect(job)
        return self._expected_certs[key]

    def _expect(self, job):
        source, depth = job["source"], job["depth"]
        if job["model"] == "morphic":
            return self._expect_morphic(source, depth)
        if source == "pair:xi3":
            n, n_prime, k, kind = 10, 20, 2, "sequence-pair"
        else:
            doc = self.machines[source]
            k = doc["k"]
            if doc["kind"] == "dfao":
                states = oracles.dfao_states(doc, len(doc["states"]) + 2)
                n, n_prime = oracles.pigeonhole_pair(states.tolist())
                kind = "dfao-pigeonhole"
            else:
                n, n_prime = oracles.dpao_pair(doc, 10_001)
                kind = "pda-pair"
        return {"kind": kind, "k": k, "n": n, "nPrime": n_prime,
                "dioLowerBound": Fraction(n_prime, n_prime - 1),
                "ratioGrowthBound": Fraction(k), "verifiedDepth": depth,
                "witnesses": pair_family(n, n_prime, k, depth)}

    def _expect_morphic(self, source, depth):
        # the seed letter is taken from the certificate: that it is the
        # first maximal-growth letter to repeat is not re-derived here
        doc = self.machines[source]
        return {"kind": "morphic-witness", "verifiedDepth": depth,
                "head": oracles.internal_letters(doc, 4096),
                "rules": doc["rules"]}

    def _certificate(self, path: str):
        try:
            return json.loads((self.run_dir / path).read_text("utf-8"))
        except (OSError, ValueError):
            return None

    def _certify(self, job, rec):
        doc = self._certificate(job["cert"])
        if rec["exit"] != 0 or doc is None:
            return "fail", f"exit {rec['exit']}", 0
        symbols = max(w["u"] + w["ext"] for w in doc["witnesses"])
        problem = self._certificate_problem(job, doc)
        return ("fail", problem, symbols) if problem else ("ok", "", symbols)

    def _certificate_problem(self, job, doc):
        want = self.expected_certificate(job)
        if doc.get("kind") != want["kind"]:
            return f"kind {doc.get('kind')} instead of {want['kind']}"
        if doc.get("verifiedDepth") != job["depth"]:
            return "verified depth differs from --depth"
        if want["kind"] == "morphic-witness":
            return self._morphic_problem(job, doc, want)
        for key in ("k", "n", "nPrime"):
            if doc.get(key) != want[key]:
                return f"{key} is {doc.get(key)}, own scan gives {want[key]}"
        for key in ("dioLowerBound", "ratioGrowthBound"):
            if fraction(doc[key]) != want[key]:
                return f"{key} is {doc[key]}, expected {want[key]}"
        if doc["witnesses"] != want["witnesses"]:
            return "witnesses differ from the pair family"
        word = self.words.word(job["source"], max(
            w["u"] + w["ext"] for w in want["witnesses"]))
        for w in want["witnesses"]:
            if not holds(word, w["u"], w["v"], w["ext"]):
                return f"pair identity fails on the oracle at u={w['u']}"
        return None

    def _morphic_problem(self, job, doc, want):
        head, rules = want["head"], want["rules"]
        letter = doc.get("seedLetter")
        p1, p2 = doc.get("seedPositions", (0, 0))
        if not (1 <= p1 < p2 <= len(head)) or \
                head[p1 - 1] != letter or head[p2 - 1] != letter:
            return "seed positions do not hold the seed letter"
        lengths = {a: 1 for a in rules}
        u_word, bv_word = head[:p1 - 1], head[p1 - 1:p2 - 1]
        witnesses = []
        for _ in range(job["depth"] + 1):
            u = sum(lengths[a] for a in u_word)
            v = sum(lengths[a] for a in bv_word)
            witnesses.append({"u": u, "v": v, "ext": v + lengths[letter]})
            lengths = {a: sum(lengths[b] for b in img)
                       for a, img in rules.items()}
        if doc["witnesses"] != witnesses:
            return "witness lengths differ from |sigma^l(U)|, |sigma^l(bV)|"
        word = oracles.morphic_internal(self.machines[job["source"]], max(
            w["u"] + w["ext"] for w in witnesses))
        for w in witnesses:
            if not holds(word, w["u"], w["v"], w["ext"]):
                return f"witness u={w['u']} v={w['v']} fails on the oracle"
        ratios = [Fraction(w["u"] + w["ext"], w["u"] + w["v"])
                  for w in witnesses]
        growth = max((Fraction(b["u"] + b["v"], a["u"] + a["v"])
                      for a, b in zip(witnesses, witnesses[1:])),
                     default=Fraction(1))
        if fraction(doc["dioLowerBound"]) != min(ratios):
            return "dioLowerBound is not the least witness ratio"
        if fraction(doc["ratioGrowthBound"]) != growth:
            return "ratioGrowthBound is not the witness growth"
        return None

    def _verify(self, job, rec):
        path = job["args"][job["args"].index("--certificate") + 1]
        doc = self._certificate(path)
        symbols = self._verify_symbols(job, doc)
        expected = self._verify_expected_exit(job, doc)
        tamper = job.get("tamper")
        if rec["exit"] == expected:
            if expected == 0 and not (rec["stdout"] or "").startswith(
                    "certificate valid:"):
                return "fail", "exit 0 without a valid verdict", symbols
            return "ok", "", symbols
        if tamper in KNOWN_DEFECTS and self._defect_matches(tamper, rec):
            return "defect", KNOWN_DEFECTS[tamper], symbols
        return "fail", f"exit {rec['exit']}, expected {expected}" + (
            f" for tamper {tamper}" if tamper else ""), symbols

    @staticmethod
    def _defect_matches(tamper, rec):
        if tamper == "4a-morphic-bound":
            return rec["exit"] == 0
        return rec["exit"] == 1 and (rec["exc"] or "").startswith("TypeError")

    def _verify_expected_exit(self, job, doc):
        tamper = job.get("tamper")
        if tamper != "witness-period" or job["model"] != "morphic":
            return 2 if tamper else 0
        # a morphic witness stretched by one may still hold by chance
        last = doc["witnesses"][-1]
        word = self.words.word(job["source"], last["u"] + last["ext"])
        return 0 if holds(word, last["u"], last["v"], last["ext"]) else 2

    @staticmethod
    def _verify_symbols(job, doc):
        if doc is None:
            return 0
        ends = [w["u"] + w["ext"] for w in doc["witnesses"]]
        if "k" in doc and "n" in doc:
            top = doc["verifiedDepth"] + job["extra"]
            ends.append(doc["k"] ** top * (doc["nPrime"] + 1))
        return max(ends)
