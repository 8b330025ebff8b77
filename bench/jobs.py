"""Seeded job lists for the three benchmark workloads.

Everything here is a pure function of (workload, seed): the same seed
gives the same machine files and the same job list. The program under
test only ever sees the machine files and the command-line arguments.

Jobs come in blocks. Every block has the same composition: each source
at each size stratum, and the same share of each tamper. The seed picks
the random machines (fresh ones in every block), the stream parameters
and the order of the jobs. A run measures whole blocks, so every run
measures the same mix.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CATALOG_MORPHIC = ("thue-morse-morphic", "xi1", "squares")
MODEL = {"three-squares": "dfao", "thue-morse": "dfao",
         "thue-morse-morphic": "morphic", "xi1": "morphic",
         "squares": "morphic", "xi2": "pda"}

# job_s.tail percentile per workload: the highest one that still has at
# least ten jobs beyond it at the minimum job count of a run
TAIL_PERCENTILE = {"digits-mix": 96, "analyze-profile": 82,
                   "certify-roundtrip": 94}

# seconds one untraced pass over a block takes, calibration kernel runs
# included, at the nominal speed of calibrate.py (2-vCPU Xeon VM); an
# untraced run holds as many blocks as fit in half its --seconds, and at
# least enough for its tail percentile
BLOCK_PASS_S = {"digits-mix": 4.0, "analyze-profile": 11.0,
                "certify-roundtrip": 7.0}

# certificate tampers that verify must reject with exit code 2; the two
# named after ROADMAP item 4 are defects open at the time of writing
TAMPERS = ("pair-nprime", "4b-pair-no-k", "witness-period",
           "4a-morphic-bound", "pair-bound", "malformed-json")
KNOWN_DEFECTS = {
    "4a-morphic-bound": "morphic dioLowerBound raised to 100 is accepted "
                        "(exit 0)",
    "4b-pair-no-k": "pair certificate without 'k' crashes verify "
                    "(TypeError, exit 1)",
}


def _log_uniform(lo_exp: float, hi_exp: float, t: float) -> int:
    return round(2 ** (lo_exp + (hi_exp - lo_exp) * t))


def _stratum(rng: random.Random, cell: int, n: int) -> float:
    """A point near the centre of stratum `cell` of n equal strata of
    [0, 1); the seed moves it by at most a fiftieth of the stratum, so that
    job sizes, and with them the times, hardly depend on the seed."""
    return (cell + 0.48 + 0.04 * rng.random()) / n


def _strata(rng: random.Random, n: int) -> list[float]:
    """One point per stratum of n equal strata of [0, 1), in random order."""
    cells = [_stratum(rng, c, n) for c in range(n)]
    rng.shuffle(cells)
    return cells


# --- random machines, in the machine-file format ---------------------------

def random_dfao(rng: random.Random) -> dict:
    k = rng.choice((2, 2, 3))
    states = [f"s{i}" for i in range(rng.randint(2, 5))]
    return {
        "kind": "dfao", "k": k, "states": states, "initial": "s0",
        "delta": {q: {str(d): rng.choice(states) for d in range(k)}
                  for q in states},
        "output": {q: rng.choice("01") for q in states},
    }


def _reachable(rules: dict, start: str) -> set:
    seen, todo = {start}, [start]
    while todo:
        for b in rules[todo.pop()]:
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def random_morphic(rng: random.Random) -> dict:
    """|A| <= 4 letters, images of length <= 3, a -> a W, identity coding,
    every letter reachable."""
    while True:
        letters = "abcd"[:rng.randint(1, 4)]
        rules = {a: "".join(rng.choice(letters)
                            for _ in range(rng.randint(1, 3)))
                 for a in letters}
        rules["a"] = "a" + "".join(
            rng.choice(letters) for _ in range(rng.randint(1, 2)))
        if _reachable(rules, "a") == set(letters):
            return {"kind": "morphic", "internal": list(letters),
                    "start": "a", "rules": rules, "external": list(letters),
                    "coding": {a: a for a in letters}}


def random_dpao(rng: random.Random) -> dict:
    """<= 3 states, <= 2 stack symbols, base 2; epsilon pops on 30% of the
    non-bottom rows."""
    states = [f"q{i}" for i in range(rng.randint(1, 3))]
    symbols = ["X", "Y"][:rng.randint(1, 2)]
    transitions = []
    for q in states:
        for top in symbols + ["#"]:
            if top != "#" and rng.random() < 0.3:
                transitions.append({"state": q, "top": top, "input": "eps",
                                    "to": rng.choice(states), "push": ""})
                continue
            for d in "01":
                push = "".join(rng.choice(symbols)
                               for _ in range(rng.choice((0, 0, 1, 1, 2))))
                transitions.append({"state": q, "top": top, "input": d,
                                    "to": rng.choice(states), "push": push})
    return {"kind": "dpao", "k": 2, "states": states, "initial": states[0],
            "stack": symbols, "transitions": transitions,
            "output": {q: {top: rng.choice("01") for top in symbols + ["#"]}
                       for q in states}}


def write_machines(machines: dict, run_dir: Path) -> None:
    mdir = run_dir / "machines"
    mdir.mkdir(parents=True, exist_ok=True)
    for name, doc in machines.items():
        (mdir / f"{name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _machine_args(name: str) -> list[str]:
    return ["--machine", f"machines/{name}.json"]


def _stream_args(stream: str) -> list[str]:
    kind, _, rest = stream.partition(":")
    if kind == "xi3":
        return ["--stream", "xi3"]
    value, _, base = rest.rpartition(":")
    return ["--stream", f"{kind}:{value}", "--base", base]


# --- workloads --------------------------------------------------------------

STREAM_SLOTS = ("rational-a", "rational-b", "surd-10", "surd-2", "xi3-a",
                "xi3-b")


def _stream(rng, slot: str) -> str:
    if slot == "rational-a":
        p, q = sorted(rng.sample(range(1, 200), 2))
        return f"rational:{p}/{q}:{rng.choice((2, 3, 10))}"
    if slot == "rational-b":
        return f"rational:{rng.randint(1, 6)}/7:10"
    if slot == "surd-10":
        return f"surd:{rng.choice((2, 3, 5, 6, 7))}:10"
    if slot == "surd-2":
        return f"surd:{rng.choice((2, 3, 5, 10, 11))}:2"
    return "xi3"


def _random_machines(rng, machines, b, makers) -> dict:
    """Fresh random machines for block b; returns {slot: (name, model)}."""
    out = {}
    for slot, (model, make) in makers.items():
        name = f"{slot}-{b}"
        machines[name] = make(rng)
        out[slot] = (name, model)
    return out


# count strata per digits slot: a block holds every slot at every size; an
# odd number puts the median job inside the middle stratum, not in a gap
DIGITS_STRATA = 5


def _digits_blocks(rng, machines, n_blocks):
    makers = {"rand-dfao-0": ("dfao", random_dfao),
              "rand-dfao-1": ("dfao", random_dfao),
              "rand-morphic": ("morphic", random_morphic),
              "rand-dpao": ("pda", random_dpao)}
    blocks = []
    for b in range(n_blocks):
        fresh = _random_machines(rng, machines, b, makers)
        block = []
        for slot in [*MODEL, *fresh, *STREAM_SLOTS]:
            for t in _strata(rng, DIGITS_STRATA):
                if slot in STREAM_SLOTS:
                    source, model = _stream(rng, slot), "numbers"
                else:
                    source, model = fresh.get(slot, (slot, MODEL.get(slot)))
                top = 17 if model == "pda" else 14 if source.startswith(
                    "surd") else 20
                count = _log_uniform(10, top, t)
                args = (_machine_args(source) if model != "numbers"
                        else _stream_args(source))
                block.append({"kind": "digits", "model": model,
                              "source": source, "count": count,
                              "args": ["digits", *args, "--count",
                                       str(count)]})
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# analyze sources: each turn of a block puts every source in one dio slot
ANALYZE_SOURCES = tuple(MODEL) + ("xi3",)
# dio maxima of the profile jobs of one turn; with the fast growth or
# dilation job added, the median falls inside the 2^12 group and the tail
# percentile inside the 2^13 group
DIO_EXPONENTS = (11, 12, 12, 12, 12, 13, 13)


def _analyze_blocks(rng, machines, n_blocks):
    """A block is a Latin square: over its turns every source meets every
    dio slot, and every slot every stratum of prefix length, complexity
    range and right-special range, once each."""
    cells = len(DIO_EXPONENTS)
    blocks = []
    for _ in range(n_blocks):
        block = []
        for turn in range(cells):
            for i, d in enumerate(DIO_EXPONENTS):
                source = ANALYZE_SOURCES[(i + turn) % cells]
                model = MODEL.get(source, "numbers")
                # 7 is prime, so these three squares are mutually orthogonal
                plen = _log_uniform(14, 16, _stratum(
                    rng, (i + 2 * turn) % cells, cells))
                c = round(32 * 4 ** _stratum(
                    rng, (i + 3 * turn) % cells, cells))
                s = 4 + int(9 * _stratum(
                    rng, (i + 4 * turn) % cells, cells))
                args = (_machine_args(source) if model != "numbers"
                        else _stream_args(source))
                block.append({
                    "kind": "analyze", "model": model, "source": source,
                    "args": ["analyze", *args, "--dio", f"2^4..2^{d}",
                             "--complexity", f"1..{c}", "--right-special",
                             f"1..{s}", "--prefix-length", str(plen)],
                    "dio_max": 2 ** d, "complexity": c, "right_special": s,
                    "prefix_length": plen, "count": max(2 ** d, plen)})
            source = CATALOG_MORPHIC[turn % len(CATALOG_MORPHIC)]
            if turn % 2:
                block.append({"kind": "analyze", "model": "morphic",
                              "source": source, "growth": True, "count": 0,
                              "args": ["analyze", *_machine_args(source),
                                       "--growth"]})
            else:
                n = _log_uniform(10, 16, _stratum(rng, turn // 2, 4))
                block.append({"kind": "analyze", "model": "morphic",
                              "source": source, "dilation": n, "count": n,
                              "args": ["analyze", *_machine_args(source),
                                       "--dilation", str(n)]})
        rng.shuffle(block)
        blocks.append(block)
    return blocks


CERTIFY_DEPTHS = range(10, 16)


def random_uniform_morphic(rng: random.Random) -> dict:
    """Every image of length 2, with a -> ab and b -> xa, so the fixed point
    starts a b x a: the certificate seed is the second a at position 4 and
    the witness lengths, 3 * 2^l and 4 * 2^l, do not depend on the draw."""
    while True:
        letters = "abcd"[:rng.randint(2, 4)]
        rules = {a: "".join(rng.choice(letters) for _ in range(2))
                 for a in letters}
        rules["a"] = "ab"
        rules["b"] = rng.choice(letters[1:]) + "a"
        if _reachable(rules, "a") == set(letters):
            return {"kind": "morphic", "internal": list(letters),
                    "start": "a", "rules": rules, "external": list(letters),
                    "coding": {a: a for a in letters}}


def _tamper_applies(kind: str, model: str) -> bool:
    if kind == "4a-morphic-bound":
        return model == "morphic"
    if kind in ("pair-nprime", "pair-bound", "4b-pair-no-k"):
        return model != "morphic"
    return True


def _certify_blocks(rng, machines, n_blocks):
    slots = {"three-squares": "dfao", "thue-morse": "dfao", "xi1": "morphic",
             "thue-morse-morphic": "morphic", "rand-morphic": "morphic",
             "xi2": "pda", "pair:xi3": "numbers"}
    blocks = []
    for b in range(n_blocks):
        fresh = _random_machines(rng, machines, b, {
            "rand-morphic": ("morphic", random_uniform_morphic)})
        runs = [(fresh.get(slot, (slot, model)), depth)
                for slot, model in slots.items() for depth in CERTIFY_DEPTHS]
        # a quarter of the verifies read a tampered certificate, the
        # tampers taken in turn, each on a certificate kind it applies to;
        # they sit on the same runs in every block and for every seed,
        # because a rejected certificate can end its verify early, and
        # where the fast jobs fall would move the median job time
        tampered: dict = {}
        for t in range(round(len(runs) / 4)):
            kind = TAMPERS[t % len(TAMPERS)]
            free = [i for i, ((_, model), _) in enumerate(runs)
                    if i not in tampered and _tamper_applies(kind, model)]
            tampered[free[t * 7 % len(free)]] = kind
        pairs = []
        for i, ((source, model), depth) in enumerate(runs):
            # verify extends odd depths by one level: the same in every block
            extra = depth % 2
            cert = f"certs/{source.replace(':', '-')}-{b}-{depth}.json"
            if source == "pair:xi3":
                src_args = ["--stream", "xi3"]
                certify_args = ["--pair", "10,20", "--k", "2", *src_args]
            else:
                src_args = _machine_args(source)
                certify_args = src_args
            tamper = tampered.get(i)
            read = cert.replace(".json", ".tampered.json") if tamper else cert
            common = {"model": model, "source": source, "depth": depth,
                      "cert": cert}
            pairs.append([
                dict(common, kind="certify",
                     args=["certify", *certify_args, "--depth", str(depth),
                           "--output", cert]),
                dict(common, kind="verify", tamper=tamper, extra=extra,
                     args=["verify", "--certificate", read, *src_args,
                           "--extra-depth", str(extra)]),
            ])
        rng.shuffle(pairs)
        blocks.append([job for pair in pairs for job in pair])
    return blocks


BUILDERS = {"digits-mix": _digits_blocks, "analyze-profile": _analyze_blocks,
            "certify-roundtrip": _certify_blocks}
WORKLOADS = tuple(BUILDERS)


def generate(workload: str, seed: int, n_blocks: int) -> tuple[dict, list]:
    """(random machine documents by name, list of job blocks)."""
    rng = random.Random(f"{workload}:{seed}")
    machines: dict = {}
    blocks = BUILDERS[workload](rng, machines, n_blocks)
    for i, job in enumerate(job for block in blocks for job in block):
        job["id"] = i
    return machines, blocks


# --- tampering (applied between certify and verify, in the worker) ---------

def tamper(kind: str, text: str) -> str:
    """A certificate the verifier must reject with exit code 2."""
    if kind == "malformed-json":
        return text[: len(text) // 2]
    doc = json.loads(text)
    if kind == "pair-nprime":
        doc["nPrime"] += 1
    elif kind == "pair-bound":
        num, _, den = doc["dioLowerBound"].partition("/")
        doc["dioLowerBound"] = f"{int(num) + int(den)}/{den}"
    elif kind == "witness-period":
        last = doc["witnesses"][-1]
        last["v"] += 1
        last["ext"] += 1
    elif kind == "4a-morphic-bound":
        doc["dioLowerBound"] = "100/1"
        doc["ratioGrowthBound"] = "1/1000"
    elif kind == "4b-pair-no-k":
        del doc["k"]
    else:
        raise ValueError(f"unknown tamper {kind!r}")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
