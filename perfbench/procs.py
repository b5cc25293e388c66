"""Child processes the benchmark starts, always stopped and waited for."""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent


class Child:
    """A Python child with line-oriented stdout read on a helper thread."""

    def __init__(self, script: str, args: List[str], root: Path,
                 env: Optional[Dict[str, str]] = None) -> None:
        child_env = dict(os.environ)
        child_env.pop("RESPDI_DEFAULT_JOBS", None)
        child_env.update(env or {})
        child_env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            cwd=str(root),
            env=child_env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, timeout: float) -> str:
        """The next stdout line starting with *prefix*."""
        while True:
            try:
                line = self.lines.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(f"no {prefix!r} line within {timeout:g}s") from None
            if line is None:
                raise RuntimeError(
                    f"child exited with {self.proc.wait()} before {prefix!r}"
                )
            if line.startswith(prefix):
                return line

    def send(self, text: str) -> None:
        self.proc.stdin.write(text)
        self.proc.stdin.flush()

    def finish(self, timeout: float) -> int:
        """Close stdin, wait for exit, and join the reader."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        code = self.proc.wait(timeout=timeout)
        self._reader.join(timeout)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(5)


class Children:
    """Every child started in one run; :meth:`stop_all` kills the stragglers."""

    def __init__(self) -> None:
        self.started: List[Child] = []

    def start(self, *args, **kwargs) -> Child:
        child = Child(*args, **kwargs)
        self.started.append(child)
        return child

    def stop_all(self) -> None:
        for child in self.started:
            child.kill()
