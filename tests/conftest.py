"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.kernel import Module, SimContext


@pytest.fixture
def ctx() -> SimContext:
    """A fresh simulation context."""
    return SimContext()


@pytest.fixture
def top(ctx) -> Module:
    """A fresh top-level module in a fresh context."""
    return Module("top", ctx=ctx)


class InjectedHazardError(RuntimeError):
    """The failure raised by a ``raise`` hazard."""


class Hazards:
    """Faults injected into sweep points through a wrapped ``run_point``.

    ``arm(config, action)`` makes every point whose config name is
    ``config`` (``None``: any point) trigger ``action`` when it runs:

    * ``"raise"`` — the point raises :class:`InjectedHazardError`;
    * ``"exit"`` — the process dies via ``os._exit``;
    * ``"hang"`` — the point sleeps ``seconds`` before it simulates;
    * ``"kill"`` — the process SIGKILLs itself, ``kills`` times in all.
      Each kill first claims one token file with ``os.unlink``, so
      exactly ``kills`` runs die across every worker and the re-runs
      of their points succeed.

    The process-level actions fire only in forked pool workers, never
    in the test process itself.
    """

    def __init__(self, token_dir):
        self.token_dir = token_dir
        self.rules = {}
        self.home_pid = os.getpid()

    def arm(self, config, action, kills=1, seconds=3600.0):
        if action == "kill":
            self.token_dir.mkdir(exist_ok=True)
            for n in range(kills):
                (self.token_dir / f"kill-{n}").touch()
        self.rules[config] = (action, seconds)

    def disarm(self):
        self.rules.clear()

    def trigger(self, config_name):
        rule = self.rules.get(config_name) or self.rules.get(None)
        if rule is None:
            return
        action, seconds = rule
        if action == "raise":
            raise InjectedHazardError(
                f"injected hazard: poison point {config_name}")
        if os.getpid() == self.home_pid:
            return
        if action == "exit":
            os._exit(41)
        if action == "hang":
            time.sleep(seconds)
        if action == "kill" and self._claim_token():
            os.kill(os.getpid(), signal.SIGKILL)

    def _claim_token(self):
        for token in sorted(self.token_dir.glob("kill-*")):
            try:
                os.unlink(token)
            except FileNotFoundError:
                continue  # another worker claimed it first
            return True
        return False


@pytest.fixture
def hazard(monkeypatch, tmp_path):
    """:class:`Hazards` wired into ``repro.explore.runner.run_point``.

    Arm it before the engine's first run: the pool forks its workers
    then, and they inherit the wrapped function with the armed rules.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("hazards reach pool workers only through fork")
    from repro.explore import runner

    hazards = Hazards(tmp_path / "kill-tokens")
    original = runner.run_point

    def run_point(*args, **kwargs):
        config = kwargs["config"] if "config" in kwargs else args[0]
        hazards.trigger(config.name)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "run_point", run_point)
    return hazards
