"""Integration tests: whole systems across abstraction levels.

These are the end-to-end checks behind the paper's flow promise: the
same application, refined through every level of one design flow,
produces bit-identical results; the untimed level ends first and the
CAM no later than the prototype.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import ns, us
from repro.models import AbstractionLevel
from repro.apps import (END_ORDER, LEVEL_BUILDERS, RUN_BOUND, build_cam,
                        build_ccatb, build_hwsw_system, build_pv,
                        generate_block, pipeline_flow, quantize,
                        reference_output, walsh_hadamard)

BLOCKS = 6
GOLDEN = reference_output(BLOCKS)


@pytest.fixture(scope="module")
def reports():
    """The flow's report by block count: 6 and 64 lie either side of
    the 14-block point where the CCATB estimate crosses the CAM."""
    return {blocks: pipeline_flow(blocks).run_all(RUN_BOUND)
            for blocks in (6, 64)}


class TestPipelineAcrossLevels:
    @pytest.mark.parametrize("level", LEVEL_BUILDERS,
                             ids=lambda level: level.name)
    def test_each_level_matches_golden(self, reports, level):
        for blocks, report in reports.items():
            assert report.results[level].outputs == \
                reference_output(blocks), f"{level.name} diverged"

    def test_untimed_ends_first_and_cam_before_prototype(self, reports):
        for blocks, report in reports.items():
            assert report.ends_in_order(END_ORDER), (blocks, {
                level.name: result.sim_ns
                for level, result in report.results.items()
            })

    def test_simulation_cost_grows_with_detail(self, reports):
        """Delta-cycle counts (simulation effort) must rise toward RTL."""
        for report in reports.values():
            deltas = [report.results[level].delta_cycles
                      for level in report.levels]
            assert deltas[0] < deltas[-1]
            assert deltas == sorted(deltas)

    @pytest.mark.parametrize("builder,blocks,end_ns,deltas", [
        (build_pv, 100, 50_300.0, 295),
        (build_ccatb, 16, 8_946.0, 80),
        (build_cam, 10, 5_860.0, 180),
    ], ids=["pv", "ccatb", "cam"])
    def test_ship_level_end_time_and_deltas_pinned(self, builder, blocks,
                                                   end_ns, deltas):
        """Each SHIP level's end time and delta-cycle count: a change in
        how a level is wired or scheduled moves one of them."""
        system = builder(blocks)
        system.ctx.run()
        assert (system.ctx.last_activity_time.to("ns"),
                system.ctx.delta_count) == (end_ns, deltas)

    def test_cam_level_generates_real_bus_traffic(self):
        system = build_cam(BLOCKS)
        system.ctx.run()
        plb = system.extras["plb"]
        assert plb.stats.transactions > 2 * BLOCKS
        assert plb.stats.bytes > 0

    def test_irq_variant_of_cam_level(self):
        system = build_cam(BLOCKS, use_irq=True)
        system.ctx.run()
        assert system.outputs() == GOLDEN


class TestDesignFlowDriver:
    def test_flow_report_over_real_application(self, reports):
        for report in reports.values():
            assert report.functionally_equivalent, report.mismatches()
            assert report.levels == list(AbstractionLevel)
            assert "PIN_ACCURATE" in report.format_table()


class TestHwSwSystem:
    def test_partitioned_system_matches_golden(self):
        system = build_hwsw_system(blocks=4)
        system.ctx.run(us(100_000))
        assert system.outputs() == reference_output(4)
        assert system.accelerator.blocks_processed == 4

    def test_polling_variant_matches_golden(self):
        system = build_hwsw_system(blocks=4, use_irq=False,
                                   poll_interval=ns(300))
        system.ctx.run(us(100_000))
        assert system.outputs() == reference_output(4)
        assert system.link.driver.pio_reads > 4  # polled status

    def test_irq_count_matches_replies(self):
        system = build_hwsw_system(blocks=5, use_irq=True)
        system.ctx.run(us(100_000))
        assert system.irq_controller is not None
        assert system.irq_controller.irq_count == 5


class TestGoldenModel:
    def test_transform_linearity(self):
        a = generate_block(1)
        b = generate_block(2)
        summed = [x + y for x, y in zip(a, b)]
        lhs = walsh_hadamard(summed)
        rhs = [x + y for x, y in
               zip(walsh_hadamard(a), walsh_hadamard(b))]
        assert lhs == rhs

    def test_transform_energy_scaling(self):
        """WHT of a constant block concentrates into the DC bin."""
        block = [3] * 16
        out = walsh_hadamard(block)
        assert out[0] == 3 * 16
        assert all(v == 0 for v in out[1:])

    @given(st.lists(st.integers(-1000, 1000), min_size=16, max_size=16))
    @settings(max_examples=50)
    def test_transform_involution_up_to_scale(self, block):
        """WHT applied twice scales by 16 (self-inverse transform)."""
        twice = walsh_hadamard(walsh_hadamard(block))
        assert twice == [16 * v for v in block]

    def test_quantize_rounds_toward_zero(self):
        assert quantize([15, -15, 7, -7] + [0] * 12, step=8)[:4] == [
            1, -1, 0, 0
        ]


@given(blocks=st.integers(1, 5))
@settings(max_examples=8, deadline=None)
def test_pv_and_ccatb_equivalent_for_any_length(blocks):
    """Property: PV and CCATB agree for every workload length."""
    pv = build_pv(blocks)
    pv.ctx.run()
    ccatb = build_ccatb(blocks)
    ccatb.ctx.run()
    assert pv.outputs() == ccatb.outputs() == reference_output(blocks)
