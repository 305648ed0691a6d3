#!/usr/bin/env python3
"""HW/SW partitioned system over the generic SHIP-based interface.

Software (an application task on the RTOS, using the device driver and
SHIP communication library) drives a hardware Walsh-Hadamard accelerator
over CoreConnect PLB — the §4 scenario of the paper.  The script:

1. runs the system with the interrupt-driven driver and with the polling
   driver, comparing latency and PIO traffic;
2. demonstrates eSW generation: the same source/sink PE classes that run
   as hardware at the component-assembly level are re-hosted as RTOS
   tasks by library substitution, with identical outputs.

Run:  python examples/hwsw_partitioned.py
"""

from repro.kernel import ns, us
from repro.apps import build_hwsw_system, build_pv, reference_output
from repro.esw import PartitionSpec, generate_esw
from repro.rtos import Rtos


def run_partitioned(use_irq: bool, blocks: int = 8):
    system = build_hwsw_system(
        blocks=blocks,
        use_irq=use_irq,
        poll_interval=ns(300),
    )
    system.ctx.run(us(1_000_000))
    assert system.outputs() == reference_output(blocks)
    mode = "interrupt" if use_irq else "polling"
    main_task = system.os.task_by_name("app_main")
    print(f"  {mode:9}: finished at {system.ctx.last_activity_time}, "
          f"driver PIO reads={system.link.bus_side.pio_reads} "
          f"writes={system.link.bus_side.pio_writes}, "
          f"app cpu time={main_task.cpu_time}")
    return system


def demo_esw_generation(blocks: int = 8):
    """The whole pipeline as software: eSW generated from the PEs."""
    system = build_pv(blocks)
    os = Rtos("os", system.top, context_switch=ns(500))
    spec = PartitionSpec(
        software=system.pes,
        priorities={"source": 7, "transform": 6, "sink": 5},
    )
    image = generate_esw(spec, os)
    system.ctx.run(us(1_000_000))

    assert system.outputs() == reference_output(blocks)
    subs = image.substitutions
    print(f"  generated {len(image.tasks)} eSW tasks; substituted "
          f"{subs.total} primitives "
          f"(delays={subs.delays}, waits={subs.event_waits}, "
          f"executes={subs.executes})")
    print(f"  all-software run finished at "
          f"{system.ctx.last_activity_time}, "
          f"context switches={os.context_switches}")
    for entry in image.tasks:
        print(f"    task {entry.task.name:16} cpu={entry.task.cpu_time}")


def main():
    print("== HW/SW partitioned system (SW master -> HW accelerator) ==")
    irq_sys = run_partitioned(use_irq=True)
    poll_sys = run_partitioned(use_irq=False)
    extra = (poll_sys.link.bus_side.pio_reads
             - irq_sys.link.bus_side.pio_reads)
    print(f"  polling cost: {extra} extra PIO status reads\n")

    print("== eSW generation (whole pipeline re-hosted on the RTOS) ==")
    demo_esw_generation()
    print("\nsame PE sources, three hosting choices, identical outputs.")


if __name__ == "__main__":
    main()
