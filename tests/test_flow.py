"""Unit tests for the design-flow driver."""

from types import SimpleNamespace

import pytest

from repro.kernel import SimContext, ns, us
from repro.models import AbstractionLevel
from repro.flow import DesignFlow, FlowError


def make_builder(delay_per_item, items=5, scale=1):
    """A trivial 'system': emits items with per-level timing detail."""

    def builder():
        ctx = SimContext()
        outputs = []

        def body():
            for i in range(items):
                yield delay_per_item
                outputs.append(i * scale)

        ctx.register_thread(body, "pe")
        return SimpleNamespace(ctx=ctx, outputs=lambda: list(outputs))

    return builder


class TestAbstractionLevels:
    def test_ordering_reflects_refinement(self):
        assert (AbstractionLevel.COMPONENT_ASSEMBLY
                < AbstractionLevel.CCATB
                < AbstractionLevel.COMM_ARCHITECTURE
                < AbstractionLevel.PIN_ACCURATE)


class TestDesignFlow:
    def test_runs_all_stages_and_checks_equivalence(self):
        flow = DesignFlow("demo")
        flow.register(AbstractionLevel.COMPONENT_ASSEMBLY,
                      make_builder(ns(0)))
        flow.register(AbstractionLevel.CCATB, make_builder(ns(100)))
        flow.register(AbstractionLevel.COMM_ARCHITECTURE,
                      make_builder(ns(250)))
        report = flow.run_all()
        assert report.functionally_equivalent
        assert report.mismatches() == []
        assert report.ends_in_order([report.levels])
        assert len(report.levels) == 3
        table = report.format_table()
        assert "COMPONENT_ASSEMBLY" in table
        assert "equivalent: True" in table

    def test_detects_functional_mismatch(self):
        flow = DesignFlow("buggy")
        flow.register(AbstractionLevel.COMPONENT_ASSEMBLY,
                      make_builder(ns(0)))
        flow.register(AbstractionLevel.CCATB,
                      make_builder(ns(10), scale=2))  # wrong refinement
        report = flow.run_all()
        assert not report.functionally_equivalent
        assert report.mismatches() == [
            (AbstractionLevel.COMPONENT_ASSEMBLY, AbstractionLevel.CCATB)
        ]

    def test_detects_timing_regression(self):
        flow = DesignFlow("odd")
        flow.register(AbstractionLevel.COMPONENT_ASSEMBLY,
                      make_builder(ns(500)))
        flow.register(AbstractionLevel.CCATB, make_builder(ns(10)))
        report = flow.run_all()
        assert report.functionally_equivalent
        assert not report.ends_in_order([report.levels])

    def test_stage_results_carry_metrics(self):
        flow = DesignFlow("m")
        flow.register(AbstractionLevel.CCATB, make_builder(ns(10)))
        result = flow.run_stage(AbstractionLevel.CCATB)
        assert result.sim_time == ns(50)
        assert result.outputs == [0, 1, 2, 3, 4]
        assert result.wall_seconds >= 0.0
        assert result.speed_events_per_second() >= 0.0

    def test_duplicate_registration_rejected(self):
        flow = DesignFlow("dup")
        flow.register(AbstractionLevel.CCATB, make_builder(ns(1)))
        with pytest.raises(FlowError, match="already"):
            flow.register(AbstractionLevel.CCATB, make_builder(ns(1)))

    def test_missing_stage_rejected(self):
        flow = DesignFlow("missing")
        with pytest.raises(FlowError, match="no builder"):
            flow.run_stage(AbstractionLevel.CCATB)

    def test_empty_flow_rejected(self):
        flow = DesignFlow("empty")
        with pytest.raises(FlowError, match="no stages"):
            flow.run_all()

    def test_max_time_bounds_stages(self):
        flow = DesignFlow("bounded")
        flow.register(AbstractionLevel.CCATB,
                      make_builder(us(10), items=100))
        result = flow.run_stage(AbstractionLevel.CCATB,
                                max_time=us(25))
        # sim_time is the last activity (item at 20us), not the bound
        assert result.sim_time == us(20)
        assert len(result.outputs) == 2
