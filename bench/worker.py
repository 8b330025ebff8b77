"""Runs benchmark jobs in one process, one at a time, through the digitseq
click entry point, with the parsing, rendering and exit codes of the shell
command.

    python bench/worker.py <plan.json> <results.json>

The plan holds the job blocks, the time budget and whether to trace.
Without tracing, every job of the plan runs twice, in two passes over the
blocks, and the calibration kernel (calibrate.py) runs between jobs. With
tracing, whole blocks run, at least one, while the budget lasts, every
job also runs a second time with spans installed, and a further pass with
tracemalloc on gives the peak memory of leaf spans.
Run it with the job directory as the working directory.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from digitseq import cli  # noqa: E402

import calibrate  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

# stdout kept verbatim for checks; longer output is kept as a hash only
KEEP_STDOUT = 1 << 16


def invoke(args: list[str]) -> dict:
    """One CLI invocation with captured stdout/stderr."""
    out, err = io.BytesIO(), io.BytesIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
    code, exc = 0, None
    try:
        cli.main.main(args=args, prog_name="digitseq")
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else int(
            stop.code is not None)
    except Exception as error:  # the shell prints a traceback and exits 1
        code, exc = 1, f"{type(error).__name__}: {error}"
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        sys.stdout.detach()
        sys.stderr.detach()
        sys.stdout, sys.stderr = saved
    data = out.getvalue()
    return {"exit": code, "exc": exc, "stdout_len": len(data),
            "stdout_sha": hashlib.sha256(data).hexdigest(),
            "stdout": data.decode("utf-8") if len(data) <= KEEP_STDOUT
            else None,
            "stderr_tail": err.getvalue()[-400:].decode("utf-8", "replace")}


def run_job(job: dict, tracer: spans.Tracer | None = None) -> dict:
    tamper = job.get("tamper")
    if tamper:
        cert = Path(job["cert"])
        if cert.exists():
            target = job["args"][job["args"].index("--certificate") + 1]
            Path(target).write_text(
                jobs.tamper(tamper, cert.read_text("utf-8")), "utf-8")
    if tracer is None:
        start = time.perf_counter()
        rec = invoke(job["args"])
        rec["wall_s"] = time.perf_counter() - start
    else:
        tracer.model = job["model"]
        uninstall = spans.install(tracer)
        try:
            start = time.perf_counter()
            rec = tracer.call("cli", invoke, job["args"])
            rec["wall_s"] = time.perf_counter() - start
        finally:
            uninstall()
        tracer.end_job()
        tracer.stats["cli"]["errors"] += rec["exit"] != 0
    rec["id"] = job["id"]
    return rec


def run_blocks(blocks, seconds: float, min_blocks: int, run) -> None:
    """Run whole blocks, at least `min_blocks`, and then only while the
    next one is expected to end within `seconds`."""
    start = time.perf_counter()
    for done, block in enumerate(blocks):
        elapsed = time.perf_counter() - start
        per_block = elapsed / max(done, 1)
        if done >= min_blocks and elapsed + per_block > seconds:
            break
        for job in block:
            run(job)


def main(plan_path: str, results_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text("utf-8"))
    blocks, seconds = plan["blocks"], plan["seconds"]
    records: list[dict] = []
    if not plan["trace"]:
        # every job runs in each of two passes over the blocks, and its
        # times are the means of the two; the calibration kernel runs
        # between jobs, so each job has a kernel time right before and
        # right after it
        kernel_s = [calibrate.reference_s()]

        def timed(job):
            rec = run_job(job)
            kernel_s.append(calibrate.reference_s())
            rec["scaled_s"] = calibrate.scale(rec["wall_s"], *kernel_s[-2:])
            return rec

        jobs_in_order = [job for block in blocks for job in block]
        records += [timed(job) for job in jobs_in_order]
        for ref, rec in zip(records, [timed(job) for job in jobs_in_order]):
            for key in ("wall_s", "scaled_s"):
                ref[key] = (ref[key] + rec[key]) / 2
            ref["repeat_differs"] = (rec["exit"], rec["stdout_sha"]) != (
                ref["exit"], ref["stdout_sha"])
        result = {"records": records, "kernel_s": kernel_s, "peak_rss_kib":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    else:
        # each job runs untraced and traced back to back, in alternating
        # order so that neither side always finds the caches warm
        tracer, traced = spans.Tracer(), []

        def both(job):
            for t in ((None, tracer) if job["id"] % 2 else (tracer, None)):
                (records if t is None else traced).append(run_job(job, t))

        run_blocks(blocks, seconds / 2, 1, both)
        # tracemalloc slows Python allocation several-fold, so peak memory
        # comes from a pass of its own, over as many jobs as fit in time
        memory, mem_records = spans.Tracer(track_memory=True), []
        singles = [[job] for block in blocks for job in block]
        tracemalloc.start()
        try:
            run_blocks(singles, seconds / 4, 1,
                       lambda job: mem_records.append(run_job(job, memory)))
        finally:
            tracemalloc.stop()
        result = {"records": records, "traced": traced + mem_records,
                  "stats": tracer.stats, "cli_total_s": tracer.cli_total_s,
                  "final_symbols": tracer.final_symbols,
                  "peak_mib": {name: st["peak_mib"]
                               for name, st in memory.stats.items()}}
    Path(results_path).write_text(json.dumps(result), "utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
