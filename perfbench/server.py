"""Start, probe and stop a real ``repro serve --async`` process.

The server's output goes to a log file (never a pipe that could fill and
stall it); its port is read from the ``listening on`` line; it is stopped
with SIGTERM and waited for.  Peak memory and CPU time are summed over the
server and every descendant process (shard workers included).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class ServerError(RuntimeError):
    """The server failed to start, or exited when it should not have."""


class Server:
    """One server process, started by :meth:`spawn` and ended by :meth:`stop`."""

    def __init__(self, process: subprocess.Popen, log_path: Path, started: float) -> None:
        self.process = process
        self.log_path = log_path
        self.started = started
        self.port = 0

    @classmethod
    def spawn(
        cls,
        repro_args: list[str],
        log_path: Path,
        *,
        spans_path: Path | None = None,
    ) -> "Server":
        """Start ``repro <repro_args>``, under the span launcher when ``spans_path``."""
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *repro_args]
        else:
            command = [
                sys.executable,
                str(ROOT / "perfbench" / "traced_serve.py"),
                "--spans",
                str(spans_path),
                *repro_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        with open(log_path, "wb") as log:
            process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
            )
        return cls(process, log_path, started)

    def wait_ready(self) -> int:
        """Block until the server prints its address; returns the port."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if "listening on http://" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                    return self.port
            if self.process.poll() is not None:
                raise ServerError(
                    f"server exited with {self.process.returncode} before listening:\n"
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            time.sleep(0.005)
        self.kill()
        raise ServerError(f"server did not listen within {READY_TIMEOUT_S:.0f}s")

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server's live process tree.

        Time the host steals from the virtual CPUs is not in it, so it
        measures the work done rather than the wait for a CPU.
        """
        ticks = 0
        for pid in _process_tree(self.process.pid):
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (``VmHWM``) of the server's process tree."""
        return sum(_vm_hwm_kb(pid) for pid in _process_tree(self.process.pid)) / 1024.0

    def stop(self) -> int:
        """SIGTERM, then wait for the drain to finish; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise ServerError("server did not exit within 30s of SIGTERM") from None
        return self.process.returncode

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def _process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants, from ``/proc/<pid>/stat``."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # the command name may contain spaces; the ppid follows its ")"
        parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = [root], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parent_of.items() if ppid == parent]
        tree.extend(children)
        frontier.extend(children)
    return tree


def _vm_hwm_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0
