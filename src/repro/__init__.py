"""repro — Systematic Transaction Level Modeling of Embedded Systems.

A Python reproduction of W. Klingauf, *"Systematic Transaction Level
Modeling of Embedded Systems with SystemC"* (DATE 2005): a complete TLM
design-flow stack —

* :mod:`repro.kernel` — SystemC-like discrete-event simulation kernel;
* :mod:`repro.ship` — the SHIP protocol (send/recv/request/reply,
  serialization, master/slave detection);
* :mod:`repro.ocp` — OCP transaction, blocking-transport, and pin-level
  interfaces;
* :mod:`repro.models` — abstraction levels, mailbox, SHIP-over-bus
  wrappers;
* :mod:`repro.cam` — CCATB communication architecture models
  (CoreConnect PLB/OPB, generic bus, crossbar, arbiters, memories);
* :mod:`repro.rtl` / :mod:`repro.accessors` — pin-accurate fabric and
  the synthesizable-prototype accessors;
* :mod:`repro.rtos` / :mod:`repro.esw` — RTOS substrate and eSW
  generation by library substitution;
* :mod:`repro.hwsw` — the generic SHIP-based HW/SW interface;
* :mod:`repro.explore` — communication architecture exploration;
* :mod:`repro.flow` — the Figure-1 design-flow driver;
* :mod:`repro.trace` — VCD tracing, transaction recording, statistics.

Quick start: see ``examples/quickstart.py``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
