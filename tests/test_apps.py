"""Unit tests for the reference applications package (repro.apps)."""

import pytest

from repro.kernel import us
from repro.apps import (
    BLOCK_SIZE,
    build_cam,
    build_ccatb,
    build_hwsw_system,
    build_pv,
    generate_block,
    quantize,
    reference_output,
    walsh_hadamard,
)
from repro.ship import ShipTiming


class TestGoldenFunctions:
    def test_blocks_are_deterministic_and_distinct(self):
        assert generate_block(3) == generate_block(3)
        assert generate_block(3) != generate_block(4)
        assert len(generate_block(0)) == BLOCK_SIZE

    def test_transform_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            walsh_hadamard([1, 2, 3])

    def test_quantize_step(self):
        block = [16] * BLOCK_SIZE
        assert quantize(block, step=4) == [4] * BLOCK_SIZE

    def test_reference_output_composition(self):
        ref = reference_output(2, quant_step=4)
        assert ref[0] == quantize(walsh_hadamard(generate_block(0)), 4)
        assert ref[1] == quantize(walsh_hadamard(generate_block(1)), 4)


class TestBuilders:
    def test_pv_block_count_parameter(self):
        system = build_pv(3)
        system.ctx.run()
        assert len(system.outputs()) == 3

    def test_ccatb_custom_timing(self):
        slow = build_ccatb(4, timing=ShipTiming(base_latency=us(1)))
        slow.ctx.run()
        fast = build_ccatb(4)
        fast.ctx.run()
        assert slow.outputs() == fast.outputs()
        assert slow.ctx.last_activity_time > fast.ctx.last_activity_time

    def test_cam_exposes_bus_for_analysis(self):
        system = build_cam(4)
        system.ctx.run()
        plb = system.extras["plb"]
        assert plb.stats.transactions > 0
        link1, link2 = system.extras["links"]
        assert link1.bus_side.messages_forwarded == 4
        assert link2.bus_side.messages_forwarded == 4

    def test_hwsw_quant_step_parameter(self):
        system = build_hwsw_system(blocks=2, quant_step=4)
        system.ctx.run(us(100_000))
        assert system.outputs() == reference_output(2, quant_step=4)
