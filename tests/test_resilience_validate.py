"""Tick validation, dead-letter quarantine, and dark-sector tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tensor import HOURS_PER_DAY
from repro.resilience import DarkSectorTracker, DeadLetterQueue, TickValidator
from repro.resilience.validate import ACCEPT, QUARANTINE, RECONCILE

N_SECTORS, N_KPIS = 4, 3


@pytest.fixture()
def validator():
    return TickValidator(n_sectors=N_SECTORS, n_kpis=N_KPIS)


def good_values():
    return np.arange(N_SECTORS * N_KPIS, dtype=np.float64).reshape(N_SECTORS, N_KPIS)


def calendar_row(hour):
    return np.array([hour % 24, 0.0, 1.0, 0.0, 0.0])


class TestValidatorAccept:
    def test_clean_tick_accepts(self, validator):
        verdict = validator.validate(good_values(), hour=5, clock=5)
        assert verdict.action == ACCEPT
        assert verdict.gap_hours == 0
        assert verdict.declared_hour == 5
        assert verdict.values.dtype == np.float64
        assert not verdict.missing.any()

    def test_no_hour_trusts_arrival_order(self, validator):
        verdict = validator.validate(good_values(), clock=17)
        assert verdict.action == ACCEPT
        assert verdict.declared_hour == 17

    def test_nan_folds_into_missing(self, validator):
        values = good_values()
        values[0, 0] = np.nan
        verdict = validator.validate(values, hour=0, clock=0)
        assert verdict.action == ACCEPT
        assert verdict.missing[0, 0]
        assert verdict.missing.sum() == 1

    def test_inf_folds_into_missing_under_budget(self, validator):
        values = good_values()
        values[1, 2] = np.inf
        verdict = validator.validate(values, hour=0, clock=0)
        assert verdict.action == ACCEPT
        assert verdict.missing[1, 2]

    def test_forward_gap_within_budget(self, validator):
        verdict = validator.validate(good_values(), hour=13, clock=10)
        assert verdict.action == ACCEPT
        assert verdict.gap_hours == 3

    def test_valid_calendar_passes(self, validator):
        verdict = validator.validate(
            good_values(), calendar_row=calendar_row(30), hour=30, clock=30
        )
        assert verdict.action == ACCEPT
        assert verdict.calendar_row.dtype == np.float64


class TestValidatorQuarantine:
    def test_non_numeric_values(self, validator):
        verdict = validator.validate([["a"] * N_KPIS] * N_SECTORS, clock=0)
        assert (verdict.action, verdict.reason) == (QUARANTINE, "dtype")

    def test_wrong_shape(self, validator):
        verdict = validator.validate(good_values()[:-1], clock=0)
        assert (verdict.action, verdict.reason) == (QUARANTINE, "shape")
        assert "expected" in verdict.detail

    def test_wrong_missing_shape(self, validator):
        verdict = validator.validate(
            good_values(), missing=np.zeros((N_SECTORS, N_KPIS + 1), dtype=bool),
            clock=0,
        )
        assert (verdict.action, verdict.reason) == (QUARANTINE, "shape")

    def test_bad_value_budget(self, validator):
        values = good_values()
        values[:3] = np.nan  # 9/12 entries > 50 % budget
        verdict = validator.validate(values, clock=0)
        assert (verdict.action, verdict.reason) == (QUARANTINE, "bad_value_budget")

    def test_calendar_wrong_width(self, validator):
        verdict = validator.validate(good_values(), calendar_row=[1, 2, 3], clock=0)
        assert (verdict.action, verdict.reason) == (QUARANTINE, "calendar")

    def test_calendar_non_finite(self, validator):
        verdict = validator.validate(
            good_values(), calendar_row=np.full(5, np.nan), clock=0
        )
        assert (verdict.action, verdict.reason) == (QUARANTINE, "calendar")

    def test_calendar_hour_mismatch(self, validator):
        verdict = validator.validate(
            good_values(), calendar_row=calendar_row(7), hour=8, clock=8
        )
        assert (verdict.action, verdict.reason) == (QUARANTINE, "calendar")

    def test_gap_too_large(self, validator):
        verdict = validator.validate(good_values(), hour=HOURS_PER_DAY + 1, clock=0)
        assert (verdict.action, verdict.reason) == (QUARANTINE, "gap_too_large")

    @pytest.mark.parametrize("hour", ["soon", float("nan"), float("inf"), [3]])
    def test_hour_not_an_integer_quarantines(self, validator, hour):
        verdict = validator.validate(good_values(), hour=hour, clock=0)
        assert (verdict.action, verdict.reason) == (QUARANTINE, "dtype")

    def test_late_without_ring_lookup(self, validator):
        verdict = validator.validate(good_values(), hour=3, clock=10)
        assert (verdict.action, verdict.reason) == (QUARANTINE, "late")


class TestDuplicateReconciliation:
    def test_idempotent_duplicate_reconciles(self, validator):
        values = good_values()
        values[0, 0] = np.nan
        stored = values.copy()
        stored_missing = np.isnan(stored)

        def ring_payload(hour):
            assert hour == 4
            return stored, stored_missing

        verdict = validator.validate(
            values, hour=4, clock=10, ring_payload=ring_payload
        )
        assert (verdict.action, verdict.reason) == (RECONCILE, "duplicate")

    def test_conflicting_duplicate_quarantines(self, validator):
        stored = good_values()
        changed = stored + 1.0
        verdict = validator.validate(
            changed, hour=4, clock=10,
            ring_payload=lambda hour: (stored, np.zeros_like(stored, dtype=bool)),
        )
        assert (verdict.action, verdict.reason) == (QUARANTINE, "conflicting_duplicate")

    def test_evicted_hour_quarantines_late(self, validator):
        verdict = validator.validate(
            good_values(), hour=4, clock=10, ring_payload=lambda hour: None
        )
        assert (verdict.action, verdict.reason) == (QUARANTINE, "late")


class TestValidatorConfig:
    """The admission budget is fixed: 50 % bad entries, a 24-hour gap."""

    def test_bad_fraction_bounds(self, validator):
        values = good_values()
        values.flat[:6] = np.nan  # 6/12 is exactly the 50 % budget
        assert validator.validate(values, clock=0).action == ACCEPT
        values.flat[6] = np.inf  # 7/12 is over it
        verdict = validator.validate(values, clock=0)
        assert (verdict.action, verdict.reason) == (QUARANTINE, "bad_value_budget")

    def test_negative_gap_rejected(self, validator):
        verdict = validator.validate(good_values(), hour=9, clock=10)
        assert (verdict.action, verdict.reason) == (QUARANTINE, "late")
        verdict = validator.validate(good_values(), hour=10 + HOURS_PER_DAY, clock=10)
        assert (verdict.action, verdict.gap_hours) == (ACCEPT, HOURS_PER_DAY)


class TestDeadLetterQueue:
    def test_bounded_with_exact_totals(self):
        queue = DeadLetterQueue()
        for i in range(257):
            queue.push("shape", hour=i)
        assert len(queue) == 256
        assert queue.total == 257
        assert queue.dropped == 1
        assert [r["hour"] for r in queue.items()] == list(range(1, 257))

    def test_counts_by_reason_and_stats(self):
        queue = DeadLetterQueue()
        queue.push("shape", hour=0)
        queue.push("calendar", hour=1)
        queue.push("shape", hour=2, detail="oops")
        assert queue.counts_by_reason() == {"shape": 2, "calendar": 1}
        assert queue.stats() == {
            "buffered": 3, "capacity": 256, "total": 3, "dropped": 0,
        }

    def test_push_returns_record(self):
        record = DeadLetterQueue().push("late", hour=9, detail="d", op="tick")
        assert record == {"hour": 9, "reason": "late", "detail": "d", "op": "tick"}


class TestDarkSectorTracker:
    def test_crossing_threshold_flags_once(self):
        tracker = DarkSectorTracker(n_sectors=3, threshold_hours=2)
        dark_mask = np.zeros((3, 2), dtype=bool)
        dark_mask[1] = True  # sector 1 fully missing
        assert tracker.observe(dark_mask).size == 0
        newly = tracker.observe(dark_mask)
        assert list(newly) == [1]
        assert tracker.dark_sectors == [1]
        # Already dark: not re-announced.
        assert tracker.observe(dark_mask).size == 0
        assert tracker.went_dark_total == 1
        assert tracker.missing_run(1) == 3

    def test_one_reporting_hour_resets(self):
        tracker = DarkSectorTracker(n_sectors=2, threshold_hours=2)
        all_dark = np.ones((2, 2), dtype=bool)
        tracker.observe(all_dark)
        tracker.observe(all_dark)
        assert tracker.dark_sectors == [0, 1]
        partial = all_dark.copy()
        partial[0, 0] = False  # sector 0 reports one KPI
        tracker.observe(partial)
        assert tracker.dark_sectors == [1]
        assert tracker.missing_run(0) == 0

    def test_stats(self):
        tracker = DarkSectorTracker(n_sectors=2, threshold_hours=3)
        tracker.observe(np.ones((2, 2), dtype=bool))
        assert tracker.stats() == {
            "dark_now": 0, "went_dark_total": 0,
            "threshold_hours": 3, "longest_run": 1,
        }

    def test_shape_and_config_validation(self):
        tracker = DarkSectorTracker(n_sectors=2)
        with pytest.raises(ValueError, match="sectors"):
            tracker.observe(np.ones((3, 2), dtype=bool))
        with pytest.raises(ValueError, match="n_sectors"):
            DarkSectorTracker(n_sectors=0)
        with pytest.raises(ValueError, match="threshold_hours"):
            DarkSectorTracker(n_sectors=1, threshold_hours=0)
