"""Tests for the region-structured, traced pointer memory."""

import pytest

from repro.queueing import PointerMemory
from repro.queueing.pointer_memory import AccessRecord, access_pattern


def make():
    pm = PointerMemory()
    pm.add_region("next", 16)
    pm.add_region("qhead", 4)
    pm.freeze()
    return pm

def test_regions_are_disjoint():
    pm = PointerMemory()
    a = pm.add_region("a", 10)
    b = pm.add_region("b", 5)
    assert a.base == 0
    assert b.base == 10
    assert pm.total_words == 15

def test_read_write_roundtrip():
    pm = make()
    pm.write("next", 3, 99)
    assert pm.read("next", 3) == 99

def test_regions_do_not_alias():
    pm = make()
    pm.write("next", 0, 1)
    pm.write("qhead", 0, 2)
    assert pm.read("next", 0) == 1
    assert pm.read("qhead", 0) == 2

def test_counters_per_region():
    pm = make()
    pm.write("next", 0, 1)
    pm.read("next", 0)
    pm.read("qhead", 1)
    assert pm.writes_by_region["next"] == 1
    assert pm.reads_by_region["next"] == 1
    assert pm.reads_by_region["qhead"] == 1
    assert pm.total_accesses == 3
    pm.reset_counters()
    assert pm.total_accesses == 0

def test_trace_records_order_and_kind():
    pm = make()
    pm.start_trace()
    pm.write("next", 1, 5)
    pm.read("qhead", 0)
    trace = pm.end_trace()
    assert trace == [AccessRecord("W", "next", 1), AccessRecord("R", "qhead", 0)]

def test_accesses_outside_trace_not_recorded():
    pm = make()
    pm.write("next", 0, 1)
    pm.start_trace()
    pm.read("next", 0)
    trace = pm.end_trace()
    assert len(trace) == 1

def test_end_trace_without_start_raises():
    pm = make()
    with pytest.raises(RuntimeError):
        pm.end_trace()

def test_peek_is_uncounted_and_untraced():
    pm = make()
    pm.write("next", 2, 7)
    pm.reset_counters()
    pm.start_trace()
    assert pm.peek("next", 2) == 7
    assert pm.end_trace() == []
    assert pm.total_accesses == 0

def test_bounds_checked_per_region():
    pm = make()
    with pytest.raises(IndexError):
        pm.read("qhead", 4)
    with pytest.raises(IndexError):
        pm.write("next", 16, 0)

def test_layout_frozen_rules():
    pm = PointerMemory()
    pm.add_region("a", 4)
    with pytest.raises(RuntimeError):
        pm.read("a", 0)  # not frozen yet
    pm.freeze()
    with pytest.raises(RuntimeError):
        pm.add_region("b", 4)  # frozen
    with pytest.raises(RuntimeError):
        pm.freeze()  # double freeze

def test_duplicate_region_rejected():
    pm = PointerMemory()
    pm.add_region("a", 4)
    with pytest.raises(ValueError):
        pm.add_region("a", 4)

def test_empty_layout_rejected():
    pm = PointerMemory()
    with pytest.raises(RuntimeError):
        pm.freeze()

def test_zero_word_region_rejected():
    pm = PointerMemory()
    with pytest.raises(ValueError):
        pm.add_region("a", 0)

# ------------------------------------------------- charge-once accounting

PATTERN = access_pattern("R qhead", "R next", "W next", "W next",
                         "W qhead")
INDICES = (1, 3, 3, 5, 1)


def _accesses_one_by_one(pm):
    pm.read("qhead", 1)
    pm.read("next", 3)
    pm.write("next", 3, 0)
    pm.write("next", 5, 0)
    pm.write("qhead", 1, 0)


def _counters(pm):
    return (dict(pm.reads_by_region), dict(pm.writes_by_region),
            pm.sram.read_count, pm.sram.write_count)


@pytest.mark.parametrize("count_only", [False, True])
def test_charge_accounts_like_the_access_sequence(count_only):
    one_by_one, charged = make(), make()
    for pm in (one_by_one, charged):
        pm.count_only_traces = count_only
        pm.start_trace()
    _accesses_one_by_one(one_by_one)
    charged.charge(PATTERN, INDICES)
    expected, got = one_by_one.end_trace(), charged.end_trace()
    assert got == expected
    assert _counters(charged) == _counters(one_by_one) == (
        {"next": 1, "qhead": 1}, {"next": 2, "qhead": 1}, 2, 3)


def test_charge_outside_a_trace_only_counts():
    pm = make()
    pm.charge(PATTERN, INDICES)
    pm.charge(PATTERN, INDICES)
    pm.read("next", 0)
    assert _counters(pm) == ({"next": 3, "qhead": 2},
                             {"next": 4, "qhead": 2}, 5, 6)
    assert pm.total_accesses == 11


def test_charge_indices_must_match_the_pattern():
    pm = make()
    pm.start_trace()
    with pytest.raises(ValueError):
        pm.charge(PATTERN, INDICES[:-1])


def test_charged_counts_survive_counter_replacement_and_reset():
    """Checkpoint restore assigns the per-region dicts; pending charges
    must not leak into the restored counts, nor survive a reset."""
    pm = make()
    pm.charge(PATTERN, INDICES)
    pm.reads_by_region = {"next": 10, "qhead": 20}
    pm.writes_by_region = {"next": 30, "qhead": 40}
    assert pm.reads_by_region == {"next": 10, "qhead": 20}
    assert pm.writes_by_region == {"next": 30, "qhead": 40}
    pm.charge(PATTERN, INDICES)
    assert pm.total_accesses == 100 + 5
    pm.charge(PATTERN, INDICES)
    pm.reset_counters()
    assert _counters(pm) == ({"next": 0, "qhead": 0},
                             {"next": 0, "qhead": 0}, 0, 0)


def test_access_pattern_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        access_pattern("X next")


def test_index_error_matches_read_write():
    pm = make()
    with pytest.raises(IndexError) as via_read:
        pm.read("qhead", 4)
    assert str(pm.region("qhead").index_error(4)) == str(via_read.value)
