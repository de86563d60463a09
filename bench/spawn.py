"""Run one child process to completion or to its time limit, with its resource usage."""

from __future__ import annotations

import os
import select
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Result:
    wall_s: float
    exit_code: int | None  # None when the child hit its time limit and was killed
    cpu_s: float
    max_rss_mb: float
    stdout: str
    stderr: str


def run(argv: list[str], env: dict, limit_s: float, scratch: Path) -> Result:
    """Spawn argv in the current directory, wait for it to exit or kill it at the limit, and reap it.

    Standard output and error go to files under scratch, so a chatty child
    never blocks on a full pipe. Wall time runs from spawn to exit; CPU time
    and peak RSS come from the child's own rusage.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    exited = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited = bool(select.select([pidfd], [], [], limit_s)[0])
        finally:
            os.close(pidfd)
    finally:
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter_ns()
    return Result(
        wall_s=(end - start) / 1e9 if exited else limit_s,
        exit_code=os.waitstatus_to_exitcode(status) if exited else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def python_env(root: Path) -> dict:
    """The environment for children: the checkout's src/ first on the import path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


PYTHON = sys.executable
