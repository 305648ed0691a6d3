#!/usr/bin/env python3
"""The design flow of Figure 1, end to end, on a JPEG-like pipeline.

Carries one application (source -> Walsh-Hadamard transform -> quantize
sink) through all four levels:

1. component-assembly (untimed SHIP),
2. CCATB (annotated SHIP),
3. communication architecture model (SHIP over CoreConnect PLB), and
4. the pin-accurate prototype (accessors on the RTL fabric),

checking bit-exact functional equivalence at every step and printing
the speed/accuracy profile the flow trades on.

Run:  python examples/jpeg_pipeline.py [blocks]
"""

import sys

from repro.models import AbstractionLevel
from repro.apps import END_ORDER, RUN_BOUND, pipeline_flow, reference_output


def main():
    blocks = int(sys.argv[1]) if len(sys.argv) > 1 else 16

    print(f"running the flow on {blocks} blocks...\n")
    report = pipeline_flow(blocks).run_all(RUN_BOUND)
    print(report.format_table())

    assert report.functionally_equivalent, report.mismatches()
    pv = report.results[AbstractionLevel.COMPONENT_ASSEMBLY]
    assert pv.outputs == reference_output(blocks), \
        "output does not match the golden model"
    print(f"untimed ends first, CAM no later than the prototype: "
          f"{report.ends_in_order(END_ORDER)}")
    gap = (report.results[AbstractionLevel.CCATB].sim_ns
           - report.results[AbstractionLevel.COMM_ARCHITECTURE].sim_ns)
    print(f"CCATB - CAM end time: {gap:+.0f} ns (an estimate: negative "
          f"below 14 blocks, positive above)")

    rtl = report.results[AbstractionLevel.PIN_ACCURATE]
    if pv.wall_seconds > 0:
        print(f"\nsimulation cost growth PV -> pin-accurate: "
              f"{rtl.delta_cycles / max(pv.delta_cycles, 1):.1f}x "
              f"delta cycles, "
              f"{rtl.wall_seconds / pv.wall_seconds:.1f}x wall clock")


if __name__ == "__main__":
    main()
