"""Smoke tests: every example script runs green from a clean directory.

Examples are documentation that executes; a broken example is a doc
bug, so each one runs as a subprocess (like a user would run it) inside
a temp directory (so artifact files never pollute the repo).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def _example_env():
    """Subprocess environment with ``src`` importable.

    The examples import ``repro`` without installing the package; the
    test process may have gotten it via conftest path munging, but the
    subprocess needs PYTHONPATH to carry it explicitly.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src + os.pathsep + existing if existing else src
    )
    return env


def test_examples_directory_populated():
    assert len(EXAMPLES) >= 6
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        cwd=tmp_path,
        env=_example_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script} produced no output"


def test_prototype_example_writes_vcd(tmp_path):
    subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "prototype_generation.py")],
        cwd=tmp_path, env=_example_env(),
        capture_output=True, text=True, timeout=300,
        check=True,
    )
    vcd = tmp_path / "prototype_pins.vcd"
    assert vcd.exists()
    text = vcd.read_text()
    assert "$enddefinitions" in text
    assert "dma_MCmd" in text


#: ``prototype_generation.py``'s stdout and waveform, byte for byte: the
#: pin-level stack (clock, OCP pin masters, accessors, RTL core) must
#: switch every traced pin on the same edge in the same order.
PROTOTYPE_STDOUT = """\
prototype ran 616 bus cycles, 8 transactions, utilization 11.4%
data integrity through the pin-level path: PASS
  dma socket: 4 bursts, 64 request beats, 64 stall cycles — clean
  cpu socket: 4 bursts, 64 request beats, 4 stall cycles — clean
waveform written to prototype_pins.vcd
"""
PROTOTYPE_VCD_SHA256 = (
    "af31dfcd7bf1191f0747c5703fbffd9db475626fdad83d206fa01cb2933f7598"
)


def test_prototype_example_output_and_waveform_pinned(tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "prototype_generation.py")],
        cwd=tmp_path, env=_example_env(),
        capture_output=True, text=True, timeout=300,
        check=True,
    )
    assert result.stdout == PROTOTYPE_STDOUT
    vcd = (tmp_path / "prototype_pins.vcd").read_bytes()
    assert hashlib.sha256(vcd).hexdigest() == PROTOTYPE_VCD_SHA256


#: ``fault_injection_demo.py``'s stdout, byte for byte.  Outside the
#: fault campaign it is the one consumer of a SHIP deadline: its
#: ``with_timeout`` around each echo ``request`` must time out, drop and
#: retry on the same instants, which the fault-log digest pins.
FAULT_DEMO_STDOUT = """\
act 1+2 finished at 10 ms
  drv0: 24/24 transactions ok, 3 retries, 3 recoveries
  drv1: 24/24 transactions ok, 10 retries, 7 recoveries
  producer: 14/16 echoes ok, 2 corrupted payload(s) detected
  injected faults by kind:
    bus.error          6
    link.corrupt       2
    link.delay         3
    link.drop          3
    retry.attempt      13
    slave.error        7
  fault log digest: c9ef8276bef47281…

act 3: watchdog fired at 5 us
  watchdog top.wd fired at 5 us: no progress for 5 us
  2 blocked process(es):
    - top.plb.bus_process [thread] waiting on event [top.silent.never]
    - master [thread] waiting on event [top.plb.done_5]
"""


def test_fault_injection_demo_output_pinned(tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "fault_injection_demo.py")],
        cwd=tmp_path, env=_example_env(),
        capture_output=True, text=True, timeout=300,
        check=True,
    )
    assert result.stdout == FAULT_DEMO_STDOUT


#: ``hwsw_partitioned.py``'s stdout, byte for byte.  It is the one
#: example that runs a SW->HW link (mapped by ``SystemMapper``) under
#: both the interrupt and the polling driver, plus eSW generation: the
#: finish times, PIO counts and CPU times pin the driver's timing.
HWSW_STDOUT = """\
== HW/SW partitioned system (SW master -> HW accelerator) ==
  interrupt: finished at 20260 ns, driver PIO reads=32 writes=32, app cpu time=14100 ns
  polling  : finished at 21620 ns, driver PIO reads=48 writes=32, app cpu time=14100 ns
  polling cost: 16 extra PIO status reads

== eSW generation (whole pipeline re-hosted on the RTOS) ==
  generated 3 eSW tasks; substituted 40 primitives (delays=0, waits=16, executes=24)
  all-software run finished at 19400 ns, context switches=26
    task source_run       cpu=5600 ns
    task transform_run    cpu=8500 ns
    task sink_run         cpu=5300 ns

same PE sources, three hosting choices, identical outputs.
"""


def test_hwsw_partitioned_output_pinned(tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "hwsw_partitioned.py")],
        cwd=tmp_path, env=_example_env(),
        capture_output=True, text=True, timeout=300,
        check=True,
    )
    assert result.stdout == HWSW_STDOUT
