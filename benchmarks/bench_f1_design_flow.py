"""F1 — Figure 1: the design flow, regenerated.

The paper's only figure shows one system description refined through
component-assembly, CCATB and communication-architecture models down to
the prototype.  This benchmark carries the JPEG-like pipeline through
all four levels of one :class:`~repro.flow.DesignFlow` and regenerates
the figure as a table: one row per level with simulated completion
time, simulation effort (delta cycles) and wall-clock cost.

Shape that must hold (the flow's raison d'être):

* outputs are bit-identical at every level;
* the untimed level ends first, and the CAM no later than the prototype
  (``END_ORDER``).  CCATB against the CAM is reported, not asserted:
  its annotation is an estimate that crosses the CAM at 14 blocks;
* simulation *cost* grows monotonically — which is why early
  development happens at the top of the flow.
"""

import pytest

from repro.apps import (END_ORDER, LEVEL_BUILDERS, RUN_BOUND, pipeline_flow,
                        reference_output)
from repro.models import AbstractionLevel

from _util import print_table

BLOCKS = 12


@pytest.mark.parametrize("level", LEVEL_BUILDERS,
                         ids=lambda level: level.name)
def test_f1_level_simulation_speed(benchmark, level):
    """Wall-clock cost of simulating the pipeline at each level."""
    flow = pipeline_flow(BLOCKS)
    result = benchmark(lambda: flow.run_stage(level, RUN_BOUND))
    assert result.outputs == reference_output(BLOCKS)
    benchmark.extra_info["sim_time_ns"] = result.sim_ns
    benchmark.extra_info["delta_cycles"] = result.delta_cycles


def test_f1_flow_table(benchmark):
    """Regenerate the Figure-1 profile in one run."""
    report = benchmark.pedantic(
        lambda: pipeline_flow(BLOCKS).run_all(RUN_BOUND),
        rounds=1, iterations=1,
    )
    results = [report.results[level] for level in report.levels]
    print_table("F1: design flow profile", [{
        "level": result.level.name,
        "sim_time": str(result.sim_time),
        "deltas": result.delta_cycles,
        "wall_ms": round(result.wall_seconds * 1e3, 2),
    } for result in results])
    gap = (report.results[AbstractionLevel.CCATB].sim_ns
           - report.results[AbstractionLevel.COMM_ARCHITECTURE].sim_ns)
    print(f"CCATB - CAM end time: {gap:+.0f} ns")

    assert report.functionally_equivalent, report.mismatches()
    assert results[0].outputs == reference_output(BLOCKS)
    assert report.ends_in_order(END_ORDER)
    deltas = [result.delta_cycles for result in results]
    assert deltas == sorted(deltas), (
        "simulation effort must grow monotonically down the flow"
    )
    # the pin-accurate level must be at least an order of magnitude
    # more expensive than the component-assembly level
    assert deltas[-1] > 10 * deltas[0]
