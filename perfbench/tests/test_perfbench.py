"""Tests for the benchmark's statistics and output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import check_table1, check_verdicts, table1_rows  # noqa: E402
from stats import (  # noqa: E402
    MIN_TAIL_SAMPLES,
    Tally,
    percentile,
    quartiles,
    samples_beyond,
    tail_percentile,
)


# ----------------------------------------------------------------------
# quartiles / percentiles
# ----------------------------------------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    got = quartiles(values)
    assert (got["q1"], got["median"], got["q3"]) == (q1, med, q3)
    assert got["iqr_frac"] == pytest.approx((q3 - q1) / med)
    assert got["n"] == 10


def test_quartiles_of_one_value_have_no_spread():
    assert quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5,
                                "iqr_frac": 0.0, "n": 1}


def test_quartiles_reject_empty():
    with pytest.raises(ValueError):
        quartiles([])


def test_percentile_interpolates_like_numpy_linear():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    assert percentile(values, 90) == pytest.approx(37.0)


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n,pct,beyond", [
    (100, 50, 50), (100, 90, 10), (90, 90, 9), (1000, 99, 10),
    (900, 99, 9), (1080, 99, 11), (0, 99, 0),
])
def test_samples_beyond_counts_strictly_greater_ranks(n, pct, beyond):
    assert samples_beyond(n, pct) == beyond
    if n:
        values = list(range(n))
        cut = percentile(values, pct)
        assert sum(v > cut for v in values) == beyond


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == MIN_TAIL_SAMPLES
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert tail_percentile(list(range(90)), 90) is None
    assert tail_percentile(list(range(900)), 99) is None
    assert tail_percentile(list(range(1000)), 99) is not None


# ----------------------------------------------------------------------
# Tally: attempted = succeeded + refused + failed
# ----------------------------------------------------------------------
def test_tally_counts_every_outcome_as_attempted():
    t = Tally()
    t.ok()
    t.refuse("queue full")
    t.fail("wrong label")
    assert t.check(True, "unused") is True
    assert t.check(False, "mismatch") is False
    assert (t.attempted, t.succeeded, t.refused, t.failed) == (5, 2, 1, 2)
    assert t.not_ok == 3
    assert t.reasons == ["queue full", "wrong label", "mismatch"]


def test_tally_merge_and_round_trip():
    a, b = Tally(), Tally()
    a.ok()
    b.fail("x")
    b.refuse("y")
    a.merge(Tally.from_dict(b.as_dict()))
    assert (a.attempted, a.succeeded, a.refused, a.failed) == (3, 1, 1, 1)


def test_tally_keeps_a_bounded_reason_list():
    t = Tally()
    for i in range(50):
        t.fail(str(i))
    assert t.failed == 50 and len(t.reasons) == 20


# ----------------------------------------------------------------------
# table1 checks
# ----------------------------------------------------------------------
def _cell(asr, l1=10.0, l2=1.0):
    return {"asr": asr, "l1": l1, "l2": l2, "kappa": 0.0}


ROWS = table1_rows(["digits"], [0.01])
N_ATTACK = {"digits": 6}


def _report(cw=0.5, en=0.5, l1=0.5):
    return {"digits/cw": _cell(cw), "digits/ead_en_beta0.01": _cell(en),
            "digits/ead_l1_beta0.01": _cell(l1)}


def test_table1_rows_cover_cw_and_both_rules():
    assert ROWS == ["digits/cw", "digits/ead_en_beta0.01",
                    "digits/ead_l1_beta0.01"]


def test_table1_matching_report_passes_every_operation():
    t = Tally()
    check_table1(_report(), _report(), ROWS, N_ATTACK, t)
    assert (t.attempted, t.failed) == (len(ROWS) + 1, 0)


def test_table1_missing_row_is_one_failure():
    report = _report()
    del report["digits/ead_l1_beta0.01"]
    t = Tally()
    check_table1(report, _report(), ROWS, N_ATTACK, t)
    assert t.failed == 1 and "missing" in t.reasons[0]


def test_table1_asr_tolerance_is_one_lane():
    t = Tally()
    check_table1(_report(cw=0.5 - 1 / 6), _report(), ROWS, N_ATTACK, t)
    assert t.failed == 0
    t = Tally()
    check_table1(_report(cw=0.5 - 2 / 6), _report(), ROWS, N_ATTACK, t)
    assert t.failed == 1


def test_table1_distortion_tolerance_is_ten_percent():
    ref = _report()
    ok, bad = _report(), _report()
    ok["digits/cw"]["l1"] = 10.9
    bad["digits/cw"]["l2"] = 1.2
    for report, failed in ((ok, 0), (bad, 1)):
        t = Tally()
        check_table1(report, ref, ROWS, N_ATTACK, t)
        assert t.failed == failed


def test_table1_nan_distortion_must_stay_nan():
    ref, got = _report(), _report()
    ref["digits/cw"]["l1"] = got["digits/cw"]["l1"] = math.nan
    t = Tally()
    check_table1(got, ref, ROWS, N_ATTACK, t)
    assert t.failed == 0
    got["digits/cw"]["l1"] = 1.0
    t = Tally()
    check_table1(got, ref, ROWS, N_ATTACK, t)
    assert t.failed == 1


def test_table1_claim_best_ead_reaches_cw():
    # Reference and report agree, so only the claim can fail.
    weak = _report(cw=0.5, en=1 / 3, l1=1 / 3)
    t = Tally()
    check_table1(weak, weak, ROWS, N_ATTACK, t)
    assert t.failed == 1 and "best EAD" in t.reasons[0]


# ----------------------------------------------------------------------
# verdict checks
# ----------------------------------------------------------------------
def test_verdicts_count_matches_mismatches_refusals_and_errors():
    labels, detected = [1, 2, 3, 4], [False, True, False, False]
    verdicts = {
        0: {"label": 1, "detected": False},
        1: {"label": 2, "detected": False},      # detection differs
        2: {"refused": "QueueFullError"},
        3: {"error": "RuntimeError"},
    }
    t = Tally()
    check_verdicts(verdicts, labels, detected, t)
    assert (t.attempted, t.succeeded, t.refused, t.failed) == (4, 1, 1, 2)
