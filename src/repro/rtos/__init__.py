"""``repro.rtos`` — a fixed-priority preemptive RTOS model.

The substrate for embedded-software generation (§4 of the paper): tasks
with CPU-time accounting, preemption, context-switch cost, delays, and
blocking on kernel events.  Generated eSW entities run as tasks on an
:class:`Rtos` instance.
"""

from repro.rtos.core import Rtos, Task, TaskState

__all__ = [
    "Rtos",
    "Task",
    "TaskState",
]
