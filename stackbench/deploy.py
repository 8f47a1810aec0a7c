"""Serving processes for the benchmark: spawn, wait, poll, measure, drain.

Every child runs from the checkout root with ``PYTHONPATH=src`` and with
every ``REPRO_*`` variable removed from its environment, so the repository
defaults (engine, memory budget) are what gets measured.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import Optional

BANNER_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
POLL_INTERVAL_S = 0.01


def child_env(extra: Optional[dict] = None) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra or {})
    return env


class Process:
    """A child process whose merged stdout/stderr is captured by a pump
    thread; serving processes announce ``listening on HOST:PORT``."""

    def __init__(self, name: str, argv: list, env_extra: Optional[dict] = None):
        self.name = name
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            text=True,
            env=child_env(env_extra),
        )
        self.lines: list = []
        self._eof = threading.Event()
        self._pump = threading.Thread(target=self._read_all, daemon=True)
        self._pump.start()

    def _read_all(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)
        self._eof.set()

    def output(self) -> str:
        return "".join(self.lines)

    def await_banner(self) -> tuple:
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        scanned = 0
        while True:
            while scanned < len(self.lines):
                line = self.lines[scanned].strip()
                scanned += 1
                if line.startswith("listening on "):
                    host, _, port = line[len("listening on "):].rpartition(":")
                    return host, int(port)
            if self._eof.is_set() or time.monotonic() >= deadline:
                raise RuntimeError(
                    f"{self.name} did not start listening; output:\n"
                    f"{self.output()}"
                )
            time.sleep(POLL_INTERVAL_S)

    def wait_for_exit(self, timeout_s: float) -> int:
        """Wait for the process to exit on its own; returns its code."""
        try:
            self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(
                f"{self.name} did not exit within {timeout_s:.0f}s; "
                f"output:\n{self.output()}"
            ) from None
        self._pump.join(timeout=10)
        return self.process.returncode

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) of the live process, in MiB."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{self.name}: no VmHWM in /proc status")

    def drain(self) -> int:
        """SIGTERM, then wait for the graceful drain; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        return self.wait_for_exit(DRAIN_TIMEOUT_S)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._pump.join(timeout=10)


def python_module(module: str, args: list, launcher: Optional[str]) -> list:
    """argv for ``python3 -m module args`` — or, when tracing, for the
    benchmark's launcher, which installs spans and then calls the same
    module's ``main``."""
    if launcher is None:
        return [sys.executable, "-m", module, *args]
    return [sys.executable, launcher, module, *args]


def poll_until(predicate, timeout_s: float, what: str):
    """Call ``predicate`` every :data:`POLL_INTERVAL_S` until it returns a
    truthy value; no backoff, so set-up time has no timer in it."""
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise RuntimeError(f"timed out after {timeout_s:.0f}s waiting for {what}")
        time.sleep(POLL_INTERVAL_S)
