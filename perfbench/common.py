"""Helpers shared by the runner and its child processes (stdlib only)."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import threading
import time
from pathlib import Path

#: Largest accepted ||psi_end - exp(-i K tau) psi_0|| for a pure-kernel run.
ENDPOINT_TOL = 1e-6

#: Starts the program's CLI entry point (``simplexflow.cli:main``) without
#: relying on an installed console script.
CLI = ("-c", "from simplexflow.cli import main; main(prog_name='simplexflow')")


def digest(paths) -> str:
    """SHA-256 over file names and contents, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def digest_tree(root: Path) -> dict[str, str]:
    """One digest per scenario subdirectory of a batch output root."""
    return {d.name: digest(d.iterdir()) for d in sorted(root.iterdir()) if d.is_dir()}


def verdict(report_path: Path) -> dict:
    """Exit code a report implies, with its rows that are not ok.

    The code follows the program's rule: 2 with an error record, 1 when a
    check row differs from its expectation, 0 otherwise.
    """
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    rows = report.get("checks", [])
    if report.get("error"):
        code = 2
    else:
        code = 0 if report.get("exit_ok") else 1
    bad = [{k: r[k] for k in ("name", "residual", "tolerance")} for r in rows if not r["ok"]]
    return {"exit_code": code, "rows": len(rows), "bad_rows": bad}


def batch_verdicts(out_root: Path) -> dict[str, dict]:
    """Verdict of every scenario a batch command wrote under ``out_root``."""
    return {d.name: verdict(next(d.glob("*_report.json"))) for d in sorted(out_root.iterdir()) if d.is_dir()}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Child:
    """A finished child process: exit code, wall time, peak memory, output."""

    def __init__(self, argv, *, env, cwd, log: Path, timeout: float):
        """Run ``argv`` to its end in a session of its own; the whole session
        is killed when the timeout expires or the caller is interrupted.
        """
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
            timer.start()
            try:
                # wait4 rather than Popen.wait: it also returns the child's
                # resource usage, which holds its peak resident memory.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = log.with_suffix(".out").read_text(encoding="utf-8", errors="replace")
        self.stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")

    def last_json(self):
        """The JSON object on the last stdout line, or None."""
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None

    def describe(self) -> str:
        tail = self.stderr.strip().splitlines()[-5:]
        return f"exit {self.returncode}" + (": " + " | ".join(tail) if tail else "")
