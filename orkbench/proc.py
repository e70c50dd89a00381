"""Run one child process and measure it from the outside.

The child's standard output is a pseudo-terminal, so Python line-buffers it
as it would on a terminal, and every output line is timestamped when this
process receives it.  Wall time runs from spawn to reap; CPU time and peak
resident memory come from ``os.wait4``.
"""

from __future__ import annotations

import errno
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    lines: list
    stamps: list
    stderr: str
    timed_out: bool


def _read_lines(master: int, deadline: float):
    """Lines from ``master`` until EOF, each with its arrival time, and
    whether ``deadline`` passed first."""
    lines, stamps, buf = [], [], b""
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            return lines, stamps, True
        ready, _, _ = select.select([master], [], [], min(left, 1.0))
        if not ready:
            continue
        try:
            chunk = os.read(master, 1 << 16)
        except OSError as exc:
            if exc.errno != errno.EIO:  # EIO: the child closed the terminal
                raise
            chunk = b""
        now = time.perf_counter()
        if not chunk:
            if buf.strip():
                lines.append(buf.rstrip(b"\r").decode("utf-8", "replace"))
                stamps.append(now)
            return lines, stamps, False
        *done, buf = (buf + chunk).split(b"\n")
        for line in done:
            lines.append(line.rstrip(b"\r").decode("utf-8", "replace"))
            stamps.append(now)


def run_child(argv, *, cwd, env, stderr_path, timeout_s: float) -> ChildRun:
    """Run ``argv`` to completion (killing it after ``timeout_s``) and measure it."""
    master, slave = os.openpty()
    try:
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=slave, stderr=err,
            )
        os.close(slave)
        slave = -1
        timed_out = True
        try:
            lines, stamps, timed_out = _read_lines(master, t0 + timeout_s)
        finally:
            # Reap with wait4 (not Popen.wait) to get the child's rusage; on a
            # timeout or an error, kill it first.
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        os.close(master)
        if slave >= 0:
            os.close(slave)
    with open(stderr_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        lines=lines,
        stamps=stamps,
        stderr=stderr,
        timed_out=timed_out,
    )
