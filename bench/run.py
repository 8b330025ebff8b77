"""The digitseq benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload digits-mix --seed 1 --seconds 30 --trace 0

Run it from the repository root; it builds nothing and imports the package
from ./src. Set-up time is a fresh interpreter exporting the catalogue,
measured several times before and after the jobs. One worker process runs
the seeded job list (see jobs.py) through the CLI entry point, each job
once in each of two passes, and every output is checked against the
oracles (see checks.py). --seconds sizes the job list: as many whole
blocks as one pass fits into half of it at the nominal speed, and at
least enough for the tail percentile. End-to-end times are wall times
scaled to a nominal machine speed by a reference kernel timed around each
of them (see calibrate.py); the raw wall times are printed alongside.

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 it carries the per-layer ones: then every job also runs
with spans installed, right before or after its untraced run. Lines
before the last give the environment, each metric with its unit and
sample count, any failed job and the known defects.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
from checks import Checker  # noqa: E402

ROOT = HERE.parent
SETUP_RUNS = 11
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def measure_setup(out_dir: Path) -> tuple[float, float]:
    """Wall time of a fresh interpreter exporting the catalogue, raw and
    scaled to the nominal machine speed."""
    ref_before = calibrate.steady_reference_s()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "digitseq", "catalog",
                             "export", "--dir", str(out_dir)], env=_env(),
                            cwd=out_dir.parent, stdout=subprocess.DEVNULL)
    # a blocking wait: wait(timeout=...) polls in steps of up to 50 ms,
    # which would round the measurement
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed, calibrate.scale(elapsed, ref_before,
                                    calibrate.steady_reference_s())


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def min_blocks_for(workload: str, block_size: int) -> int:
    """Blocks that leave at least ten jobs beyond the tail percentile."""
    beyond = 1 - jobs.TAIL_PERCENTILE[workload] / 100
    return math.ceil(math.ceil(10 / beyond - 1e-9) / block_size)


def environment(seed: int) -> dict:
    import numpy
    cpu, caches = "unknown", {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                            .glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = \
                (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "click": importlib.metadata.version("click"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "caches": caches, "commit": commit, "seed": seed,
            "blas_threads": BLAS_ENV}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _times(workload, records, outcomes, setup_times, key):
    walls = [rec[key] for rec in records]
    symbols = sum(sym for _, _, sym in outcomes)
    return {"job_s.p50": statistics.median(walls),
            "job_s.tail": percentile(walls, jobs.TAIL_PERCENTILE[workload]),
            "symbols_per_s": symbols / sum(walls),
            "setup_s": statistics.median(setup_times)}


def end_to_end(workload, result, outcomes, setup_times):
    """(metrics, sample counts, notes): times scaled to the nominal machine
    speed; the notes give the raw wall-time value of each."""
    records = result["records"]
    units = {"job_s.p50": "s", "job_s.tail": "s", "symbols_per_s": "1/s",
             "setup_s": "s"}
    scaled = _times(workload, records, outcomes,
                    [s for _, s in setup_times], "scaled_s")
    raw = _times(workload, records, outcomes,
                 [w for w, _ in setup_times], "wall_s")
    metrics = {name: _metric(value, units[name])
               for name, value in scaled.items()}
    metrics["peak_rss_mib"] = _metric(result["peak_rss_kib"] / 1024, "MiB")
    samples = {"job_s.p50": len(records), "job_s.tail": len(records),
               "symbols_per_s": len(records), "peak_rss_mib": 1,
               "setup_s": len(setup_times)}
    notes = {name: f"raw wall {value:.6g} {units[name]}"
             for name, value in raw.items()}
    notes["job_s.tail"] = (f"p{jobs.TAIL_PERCENTILE[workload]}, "
                           + notes["job_s.tail"])
    return metrics, samples, notes


def per_layer(result, outcomes):
    stats = result["stats"]
    metrics = {}
    for name in spans.SPANS:
        st = stats[name]
        metrics[f"{name}.calls"] = _metric(st["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(st["self_s"], "s")
        metrics[f"{name}.errors"] = _metric(st["errors"], "count")
        if name in spans.GEN_SPANS:
            metrics[f"{name}.symbols"] = _metric(st["symbols"], "count")
            metrics[f"{name}.symbols_per_s"] = _metric(
                st["symbols"] / st["self_s"] if st["self_s"] else 0.0, "1/s")
        if name in spans.LEAF_SPANS:
            metrics[f"{name}.peak_mib"] = _metric(result["peak_mib"][name],
                                                  "MiB")
    generated = sum(stats[name]["symbols"] for name in spans.GEN_SPANS)
    metrics["gen.useful_ratio"] = _metric(
        result["final_symbols"] / generated if generated else 1.0, "ratio")
    metrics["trace.overhead_s"] = _metric(
        result["cli_total_s"] - sum(r["wall_s"] for r in result["records"]),
        "s")
    metrics["jobs.known_defect"] = _metric(
        sum(status == "defect" for status, _, _ in outcomes), "count")
    return metrics


def trace_problems(result) -> list[str]:
    """Traced and untraced runs of a job must print the same bytes, and
    span self times must add up to the cli totals."""
    problems = []
    plain = {rec["id"]: rec for rec in result["records"]}
    for rec in result["traced"]:
        ref = plain.get(rec["id"])
        if ref and (rec["exit"], rec["stdout_sha"]) != (ref["exit"],
                                                        ref["stdout_sha"]):
            problems.append(f"job {rec['id']}: traced output differs")
    total = result["cli_total_s"]
    self_total = sum(st["self_s"] for st in result["stats"].values())
    if abs(self_total - total) > 1e-6 * total:
        problems.append(f"span self times sum to {self_total}, cli spans "
                        f"to {total}")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 min_blocks: int | None = None, checker_hook=None):
    """Set up, run and check one workload; returns (result, report lines)."""
    run_dir = ROOT / ".bench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "certs").mkdir(parents=True)
    try:
        # set-up runs on both sides of the jobs, so that one slow spell of
        # the machine does not decide their median
        setup_times = [measure_setup(run_dir / "machines")
                       for _ in range(SETUP_RUNS // 2 + 1)]
        probe = jobs.generate(workload, seed, 1)[1][0]
        if min_blocks is None:
            min_blocks = 1 if trace else max(
                min_blocks_for(workload, len(probe)),
                math.floor(seconds / 2 / jobs.BLOCK_PASS_S[workload]))
        # an untraced run measures exactly min_blocks blocks, sized from
        # --seconds at the nominal speed, so that what it measures does not
        # depend on how fast the machine or the program happens to be
        machines, blocks = jobs.generate(
            workload, seed,
            min_blocks + math.ceil(seconds) + 2 if trace else min_blocks)
        jobs.write_machines(machines, run_dir)
        docs = {path.stem: json.loads(path.read_text("utf-8"))
                for path in (run_dir / "machines").glob("*.json")}
        plan = {"blocks": blocks, "trace": trace, "seconds": seconds}
        (run_dir / "plan.json").write_text(json.dumps(plan), "utf-8")
        subprocess.run([sys.executable, str(HERE / "worker.py"), "plan.json",
                        "results.json"], env=_env(), cwd=run_dir, check=True,
                       timeout=WORKER_TIMEOUT_S)
        setup_times += [measure_setup(run_dir / "setup")
                        for _ in range(SETUP_RUNS // 2)]
        result = json.loads((run_dir / "results.json").read_text("utf-8"))
        by_id = {job["id"]: job for block in blocks for job in block}
        checker = Checker(docs, run_dir)
        if checker_hook:
            checker_hook(checker)
        records = result["records"]
        checker.warm(by_id[rec["id"]] for rec in records)
        outcomes = [checker.check(by_id[rec["id"]], rec) for rec in records]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    lines = [f"env: {json.dumps(environment(seed), sort_keys=True)}"]
    problems = [f"job {rec['id']} ({' '.join(by_id[rec['id']]['args'])}): "
                f"{reason}" for rec, (status, reason, _) in
                zip(records, outcomes) if status == "fail"]
    problems += [f"job {rec['id']}: output differs between its two runs"
                 for rec in records if rec.get("repeat_differs")]
    failed = len(problems)
    if trace:
        integrity = trace_problems(result)
        problems += integrity
        failed += len(integrity)
        metrics = per_layer(result, outcomes)
    else:
        metrics, samples, notes = end_to_end(workload, result, outcomes,
                                             setup_times)
        beyond = len(records) - math.ceil(
            jobs.TAIL_PERCENTILE[workload] / 100 * len(records))
        if beyond < 10:
            problems.append(f"only {beyond} jobs beyond the tail percentile")
        for name, m in metrics.items():
            note = f", {notes[name]}" if name in notes else ""
            lines.append(f"{workload} {name} = {m['value']:.6g} {m['unit']} "
                         f"(n={samples[name]}{note})")
        lines.append(f"{workload} calibration kernel: median "
                     f"{statistics.median(result['kernel_s']):.6g} s over "
                     f"{len(result['kernel_s'])} runs, nominal "
                     f"{calibrate.REF_NOMINAL_S} s")
    defects: dict = {}
    for status, reason, _ in outcomes:
        if status == "defect":
            defects[reason] = defects.get(reason, 0) + 1
    lines += [f"known defect (ROADMAP 4, still open) x{n}: {reason}"
              for reason, n in sorted(defects.items())]
    lines += [f"FAILED {p}" for p in problems[:20]]
    result_doc = {"correct": not problems, "attempted": len(records),
                  "failed": failed, "metrics": metrics}
    return result_doc, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "digitseq" / "__init__.py").is_file():
        print(f"error: no digitseq sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
