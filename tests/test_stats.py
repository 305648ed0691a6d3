"""Unit tests for streaming statistics."""


import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.kernel import ns, us
from repro.trace import OnlineStats, TimeStats


class TestOnlineStats:
    def test_empty_stats_are_zero(self):
        s = OnlineStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0
        assert s.minimum is None and s.maximum is None

    def test_basic_moments(self):
        s = OnlineStats()
        for v in (2.0, 4.0, 6.0):
            s.add(v)
        assert s.mean == pytest.approx(4.0)
        assert s.variance == pytest.approx(8.0 / 3.0)
        assert s.minimum == 2.0 and s.maximum == 6.0
        assert s.total == 12.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_matches_numpy(self, values):
        s = OnlineStats()
        for v in values:
            s.add(v)
        assert s.mean == pytest.approx(np.mean(values), rel=1e-6, abs=1e-6)
        assert s.variance == pytest.approx(
            np.var(values), rel=1e-6, abs=1e-5
        )
        assert s.minimum == min(values)
        assert s.maximum == max(values)

    def test_sample_variance_and_sem(self):
        s = OnlineStats()
        for v in (1.0, 2.0, 3.0, 4.0):
            s.add(v)
        # ddof=1 variance of 1..4 is 5/3.
        assert s.sample_variance == pytest.approx(5.0 / 3.0)
        assert s.sample_stddev == pytest.approx((5.0 / 3.0) ** 0.5)
        assert s.sem == pytest.approx(s.sample_stddev / 2.0)

    def test_sample_moments_degenerate_below_two(self):
        s = OnlineStats()
        assert s.sample_variance == 0.0 and s.sem == 0.0
        s.add(7.0)
        assert s.sample_variance == 0.0 and s.sem == 0.0

    @given(st.lists(st.floats(-1e5, 1e5), min_size=2, max_size=100))
    def test_sample_variance_matches_numpy(self, values):
        s = OnlineStats()
        for v in values:
            s.add(v)
        assert s.sample_variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-6, abs=1e-4
        )


class TestTimeStats:
    def test_zero_duration_samples_are_real_samples(self):
        t = TimeStats()
        t.add(ns(0))
        t.add(ns(0))
        assert t.count == 2
        assert t.mean_ns == 0.0
        assert t.max_ns == 0.0
        assert t.total_ns == 0.0
        # A zero-duration sample must not vanish next to real ones.
        t.add(ns(30))
        assert t.count == 3
        assert t.mean_ns == pytest.approx(10.0)

    def test_durations_tracked_in_ns(self):
        t = TimeStats()
        t.add(ns(10))
        t.add(us(1))
        assert t.count == 2
        assert t.mean_ns == pytest.approx(505.0)
        assert t.max_ns == 1000.0
        assert t.total_ns == pytest.approx(1010.0)
