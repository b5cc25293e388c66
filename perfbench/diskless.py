"""Take the virtual disk's fsync latency out of a measured process.

respdi makes every atomic write durable: it fsyncs the file, renames it
into place and fsyncs the directory.  On tmpfs an fsync returns at once.
The benchmark keeps all of its data inside the checkout, which on a
virtual machine is a virtual disk shared with other tenants; there one
fsync took from 0.3 ms to over 1 ms depending on the minute, and a cold
``catalog_build`` build makes about 250 of them, so the disk's mood
moved whole runs.

:func:`install` makes ``os.fsync`` in the calling process behave as it
does on tmpfs.  The program still makes every call, with the same
arguments and at the same points (a traced run counts them in
``fsutil.fsyncs``); only the disk's flush latency is gone.  The parent
process keeps the real ``os.fsync`` for its fsync probe.
"""

from __future__ import annotations

import os


def install() -> None:
    def fsync(fd) -> None:
        # Nothing to flush, as on tmpfs; a bad descriptor still raises.
        os.fstat(fd)

    os.fsync = fsync
