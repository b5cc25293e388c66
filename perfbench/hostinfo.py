"""Host facts and speed probes recorded with every result.

The probes time a fixed pure-Python loop and a fixed run of small
durable writes before and after each run, so a run that landed in one of
the host's slow episodes, of the processor or of the disk, can be
recognised afterwards.  Nothing gates on them.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, Optional


def speed_probe_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop, in milliseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    times.sort()
    return times[len(times) // 2]


def fsync_probe_ms(directory: Path, repeats: int = 50) -> float:
    """Median wall time of one small durable write in *directory*, in
    milliseconds: write 4 KiB, fsync the file, rename it into place and
    fsync the directory, as an atomic write of the program does."""
    directory.mkdir(parents=True)
    times = []
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            tmp = directory / "probe.tmp"
            with open(tmp, "wb") as handle:
                handle.write(b"x" * 4096)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, directory / "probe")
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            times.append((time.perf_counter() - start) * 1e3)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return statistics.median(times)


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path*, from /proc/mounts."""
    try:
        target = os.path.realpath(path)
        best, kind = "", "unknown"
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
        return kind
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_to_one_cpu() -> Optional[int]:
    """Run this process, and every process it starts, on one processor.

    On a virtual machine a closed loop whose client and server sit on
    different processors pays for waking the idle one on every request,
    and that cost swings with the host: on a 2-vCPU virtual machine,
    serve_ingest runs interleaved pinned and unpinned gave 590 to 720
    responses a second pinned and 280 to 370 unpinned.  Returns the
    processor's number (the highest this process may use), or None where
    the platform does not let a process choose.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def host_facts(data_dir: Path) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "data_filesystem": filesystem_of(data_dir),
    }


def peak_rss_mib() -> float:
    """This process's kernel peak RSS (VmHWM), in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
