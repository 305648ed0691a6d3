"""E6 — systematic eSW generation (§4).

The methodology generates embedded software from the SystemC model by
substituting kernel primitives with RTOS-based equivalents, under two
constraints (component-assembly level, SHIP-only communication).  This
benchmark regenerates the evaluation a SW-generation paper reports:

* functional equivalence: the all-hardware model and the generated
  all-software image produce identical outputs for the pipeline;
* substitution coverage: every suspension the PEs perform is mapped to
  an RTOS call (counted by kind);
* the cost of software hosting: serialized CPU time makes the eSW run
  finish no earlier than the parallel-hardware run, and context switches
  appear;
* the constraint validator rejects non-conforming PEs.
"""

import pytest

from repro.kernel import Module, SimContext, ns, us
from repro.apps import build_pv, reference_output
from repro.apps.pipeline import SourcePE
from repro.esw import (
    EswConstraintError,
    PartitionSpec,
    generate_esw,
    validate_partition,
)
from repro.rtos import Rtos
from repro.ship import ShipChannel

from _util import print_table

BLOCKS = 10


def build(partition_sw: bool):
    system = build_pv(BLOCKS)
    image = None
    os = None
    if partition_sw:
        os = Rtos("os", system.top, context_switch=ns(500))
        image = generate_esw(PartitionSpec(software=system.pes), os)
    system.ctx.run(us(1_000_000))
    return system, image, os


def test_e6_equivalence_and_coverage(benchmark):
    hw, _, _ = build(partition_sw=False)
    sw, image, os = benchmark.pedantic(
        lambda: build(partition_sw=True), rounds=1, iterations=1
    )
    golden = reference_output(BLOCKS)
    assert hw.outputs() == golden
    assert sw.outputs() == golden

    subs = image.substitutions
    rows = [{
        "model": "component-assembly (HW)",
        "finish": str(hw.ctx.last_activity_time),
        "tasks": "-",
        "substitutions": "-",
        "ctx_switches": "-",
    }, {
        "model": "generated eSW on RTOS",
        "finish": str(sw.ctx.last_activity_time),
        "tasks": len(image.tasks),
        "substitutions": (f"{subs.total} (delay={subs.delays}, "
                          f"wait={subs.event_waits}, "
                          f"exec={subs.executes})"),
        "ctx_switches": os.context_switches,
    }]
    print_table("E6: eSW generation, HW model vs generated SW", rows)

    # one task per PE thread process
    assert len(image.tasks) == 3
    # every ExecuteFor annotation became an os.execute
    assert subs.executes == 3 * BLOCKS
    # channel blocking became RTOS blocking
    assert subs.event_waits > 0
    # software serialization: the single CPU cannot beat parallel HW
    assert sw.ctx.last_activity_time >= hw.ctx.last_activity_time
    assert os.context_switches > 0
    assert os.all_finished()


def test_e6_constraint_validator(benchmark):
    def build_violating():
        ctx = SimContext()
        top = Module("top", ctx=ctx)
        c1 = ShipChannel("c1", top)
        source = SourcePE("source", top, c1, BLOCKS)
        # illegal: a PE with a non-SHIP port selected for software
        from repro.ocp import OcpMasterPort
        from repro.models import ProcessingElement

        class BusPE(ProcessingElement):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.bus = OcpMasterPort("bus", self, required=False)
                self.add_thread(self.run)

            def run(self):
                yield ns(1)

        bad = BusPE("bad", top)
        return PartitionSpec(software=[source, bad])

    spec = benchmark.pedantic(build_violating, rounds=1, iterations=1)
    with pytest.raises(EswConstraintError) as err:
        validate_partition(spec)
    assert any("non-SHIP" in v for v in err.value.violations)
    print("\nE6: validator rejected the non-conforming PE:\n  "
          + "\n  ".join(err.value.violations))


def test_e6_generation_and_run_benchmark(benchmark):
    """Wall-clock cost of synthesis plus the all-SW simulation."""
    benchmark(lambda: build(partition_sw=True))
