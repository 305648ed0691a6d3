"""Unit tests for arbitration policies."""

import pytest
from hypothesis import given, strategies as st

from repro.cam import (
    RoundRobinArbiter,
    StaticPriorityArbiter,
    TdmaArbiter,
    make_arbiter,
)


class Req:
    """Stand-in for a bus transaction in arbiter tests."""

    def __init__(self, master, priority=0, seq=0):
        self.master = master
        self.priority = priority
        self.seq = seq

    def __repr__(self):
        return f"Req({self.master}, p{self.priority}, s{self.seq})"


class TestStaticPriority:
    def test_lowest_priority_value_wins(self):
        arb = StaticPriorityArbiter()
        pending = [Req("a", 2, 0), Req("b", 0, 1), Req("c", 1, 2)]
        assert arb.pick(pending, 0).master == "b"

    def test_fifo_within_level(self):
        arb = StaticPriorityArbiter()
        pending = [Req("late", 1, 5), Req("early", 1, 2)]
        assert arb.pick(pending, 0).master == "early"


class TestRoundRobin:
    def test_rotates_across_masters(self):
        arb = RoundRobinArbiter()
        granted = []
        for i in range(6):
            pending = [Req("a", seq=i * 3), Req("b", seq=i * 3 + 1),
                       Req("c", seq=i * 3 + 2)]
            chosen = arb.pick(pending, i)
            granted.append(chosen.master)
        # each master appears exactly twice over 6 grants
        assert sorted(granted) == ["a", "a", "b", "b", "c", "c"]

    def test_skips_absent_masters(self):
        arb = RoundRobinArbiter()
        arb.pick([Req("a"), Req("b")], 0)
        # only b pending now: must be granted even if pointer says a
        assert arb.pick([Req("b", seq=1)], 1).master == "b"

    def test_fairness_under_saturation(self):
        """Under continuous load every master gets the same share."""
        arb = RoundRobinArbiter()
        counts = {"a": 0, "b": 0, "c": 0}
        seq = 0
        for cycle in range(300):
            pending = [Req(m, seq=seq + i)
                       for i, m in enumerate(("a", "b", "c"))]
            seq += 3
            counts[arb.pick(pending, cycle).master] += 1
        assert counts["a"] == counts["b"] == counts["c"] == 100


class TestTdma:
    def test_slot_owner_is_preferred(self):
        arb = TdmaArbiter(["a", "b"], slot_cycles=4)
        pending = [Req("a", seq=0), Req("b", seq=1)]
        assert arb.pick(pending, 0).master == "a"   # slot 0 -> a
        assert arb.pick(pending, 4).master == "b"   # slot 1 -> b
        assert arb.pick(pending, 8).master == "a"   # wraps

    def test_work_conserving_fallback(self):
        arb = TdmaArbiter(["a", "b"], slot_cycles=4)
        pending = [Req("b", seq=0)]
        # slot belongs to a, but only b is pending: fallback grants b
        assert arb.pick(pending, 0).master == "b"

    def test_slot_owner_calculation(self):
        arb = TdmaArbiter(["x", "y", "z"], slot_cycles=2)
        owners = [arb.slot_owner(c) for c in range(8)]
        assert owners == ["x", "x", "y", "y", "z", "z", "x", "x"]

    def test_validation(self):
        with pytest.raises(ValueError):
            TdmaArbiter([])
        with pytest.raises(ValueError):
            TdmaArbiter(["a"], slot_cycles=0)


class TestFactory:
    def test_make_each_kind(self):
        assert isinstance(make_arbiter("static-priority"),
                          StaticPriorityArbiter)
        assert isinstance(make_arbiter("round-robin"), RoundRobinArbiter)
        assert isinstance(
            make_arbiter("tdma", schedule=["a"], slot_cycles=2),
            TdmaArbiter,
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arbiter"):
            make_arbiter("coin-flip")


@given(
    st.lists(
        st.tuples(st.sampled_from("abcd"), st.integers(0, 3)),
        min_size=1, max_size=10,
    )
)
def test_static_priority_always_picks_minimum(entries):
    arb = StaticPriorityArbiter()
    pending = [Req(m, p, i) for i, (m, p) in enumerate(entries)]
    chosen = arb.pick(pending, 0)
    assert chosen.priority == min(r.priority for r in pending)


@given(st.integers(0, 10_000), st.integers(1, 16))
def test_tdma_owner_cycles_through_schedule(cycle, slot_cycles):
    schedule = ["m0", "m1", "m2"]
    arb = TdmaArbiter(schedule, slot_cycles=slot_cycles)
    owner = arb.slot_owner(cycle)
    assert owner == schedule[(cycle // slot_cycles) % 3]
