"""Self-test of the benchmark harness.

    python -m pytest bench/tests -q

Runs one block of each workload, untraced and traced, so it takes a few
minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibrate  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

END_TO_END = {"job_s.p50", "job_s.tail", "symbols_per_s", "peak_rss_mib",
              "setup_s"}

# each row of the ROADMAP baseline table, and the span and workload that
# measure it
BASELINE_ROWS = {
    "dfao thue-morse source, 2^20 symbols": ("digits-mix", "dfao.gen"),
    "morphic xi1 source, 2^20 symbols": ("digits-mix", "morphic.gen"),
    "pda xi2 source, 2^18 symbols": ("digits-mix", "pda.gen"),
    "numbers.surd_source(2, 10), 2^16 digits": ("digits-mix", "numbers.gen"),
    "dio_profile xi1, lengths 2^4..2^16": ("analyze-profile", "words.dio"),
    "factor_complexity_profile 2^16 x 256": ("analyze-profile",
                                             "words.complexity"),
    "right_special_count n = 1..64 on 2^16": ("analyze-profile",
                                              "words.right_special"),
    "certify_pda xi2, depth 14": ("certify-roundtrip", "pda.find_pair"),
    "certify_dfao three-squares, depth 16": ("certify-roundtrip",
                                             "certify.build"),
}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert jobs.generate(workload, 7, 3) == jobs.generate(workload, 7, 3)
    assert jobs.generate(workload, 7, 3) != jobs.generate(workload, 8, 3)
    # a longer list starts with the shorter one
    assert jobs.generate(workload, 7, 5)[1][:3] == jobs.generate(
        workload, 7, 3)[1]


def test_scaling_cancels_machine_speed():
    nominal = calibrate.REF_NOMINAL_S
    assert calibrate.scale(0.2, nominal, nominal) == pytest.approx(0.2)
    # on a machine half as fast the job and the kernel both take twice as
    # long; the scaled time stays the same
    assert calibrate.scale(0.4, 2 * nominal, 2 * nominal) == pytest.approx(
        0.2)
    assert calibrate.reference_s() > 0


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_job_list_runs(workload):
    result, lines = run.run_workload(workload, 0, 0, False, min_blocks=1)
    assert result["attempted"] == len(jobs.generate(workload, 0, 1)[1][0])
    assert result["failed"] == 0, lines
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_expectation_is_a_failed_job():
    def corrupt(checker):
        word = checker.words.word
        checker.words.word = lambda source, count: (
            "9" + word(source, count)[1:])

    result, lines = run.run_workload("digits-mix", 0, 0, False, min_blocks=1,
                                     checker_hook=corrupt)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any(line.startswith("FAILED job") for line in lines)


@pytest.fixture(scope="module")
def traced():
    return {w: run.run_workload(w, 0, 0, True)[0] for w in jobs.WORKLOADS}


def test_traced_runs_are_consistent(traced):
    for result in traced.values():
        # byte-identical output between the passes, self times add up
        assert result["correct"], result
        assert "trace.overhead_s" in result["metrics"]


def test_all_span_names_appear(traced):
    called = {name for result in traced.values() for name in spans.SPANS
              if result["metrics"][f"{name}.calls"]["value"] > 0}
    assert called == set(spans.SPANS)


def test_baseline_rows_map_to_spans(traced):
    for row, (workload, span) in BASELINE_ROWS.items():
        assert traced[workload]["metrics"][f"{span}.calls"]["value"] > 0, row
