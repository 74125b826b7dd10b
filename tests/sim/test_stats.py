"""Tests for statistics collectors."""


import pytest
from hypothesis import given, strategies as st

from repro.sim import LatencyRecorder, RunningStats, Simulator, TimeWeighted
from repro.sim.stats import weighted_mean


def test_running_stats_known_values():
    rs = RunningStats()
    rs.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert rs.mean == pytest.approx(5.0)
    assert rs.stddev == pytest.approx(2.0)
    assert rs.minimum == 2.0
    assert rs.maximum == 9.0

def test_running_stats_empty():
    rs = RunningStats()
    assert rs.mean == 0.0
    assert rs.variance == 0.0

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_running_stats_matches_naive(xs):
    rs = RunningStats()
    rs.extend(xs)
    naive_mean = sum(xs) / len(xs)
    naive_var = sum((x - naive_mean) ** 2 for x in xs) / len(xs)
    assert rs.mean == pytest.approx(naive_mean, rel=1e-9, abs=1e-6)
    assert rs.variance == pytest.approx(naive_var, rel=1e-6, abs=1e-3)
    assert rs.minimum == min(xs)
    assert rs.maximum == max(xs)

def test_time_weighted_piecewise_constant():
    sim = Simulator()
    tw = TimeWeighted(sim, initial=0)

    def body():
        tw.record(10)     # 10 from t=0
        yield 100
        tw.record(20)     # 20 from t=100
        yield 300
        tw.record(0)      # 0 from t=400
        yield 100

    sim.spawn(body())
    sim.run()
    # (10*100 + 20*300 + 0*100) / 500 = 14
    assert tw.mean == pytest.approx(14.0)
    assert tw.current == 0

def test_time_weighted_no_elapsed_time():
    sim = Simulator()
    tw = TimeWeighted(sim, initial=5)
    assert tw.mean == 5

def test_latency_recorder_basic():
    lr = LatencyRecorder("cmd")
    for v in (10.0, 20.0, 30.0):
        lr.record(v)
    assert lr.count == 3
    assert lr.mean == pytest.approx(20.0)
    assert lr.minimum == 10.0
    assert lr.maximum == 30.0

def test_weighted_mean():
    assert weighted_mean([(10.0, 1.0), (20.0, 3.0)]) == pytest.approx(17.5)
    assert weighted_mean([]) == 0.0
    assert weighted_mean([(5.0, 0.0)]) == 0.0

@given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                          st.floats(0.1, 10, allow_nan=False)),
                min_size=1, max_size=50))
def test_weighted_mean_bounded_by_extremes(pairs):
    m = weighted_mean(pairs)
    values = [v for v, _w in pairs]
    assert min(values) - 1e-9 <= m <= max(values) + 1e-9
