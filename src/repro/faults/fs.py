"""The filesystem seam: real pass-through and the fault-injecting wrapper.

Every durable write the simulator performs (WAL, SSTable, block files,
block index, LSM manifest) goes through a :class:`FileSystem` object
instead of the ``open``/``os.replace`` builtins.  The default
:data:`REAL_FS` singleton delegates straight to the builtins -- the hot
path pays one attribute lookup per *file open*, nothing per write -- while
:class:`FaultyFS` buffers writes in userspace so a test harness can
simulate a process kill (buffered-but-unflushed bytes vanish) or a power
loss (flushed-but-unfsynced bytes vanish too), and can inject torn writes
and bit flips on the :class:`~repro.faults.plan.FaultPlan`'s seeded
schedule.

The write model mirrors what the OS actually guarantees:

* ``write()``   -> bytes sit in the process's buffer; a kill loses them;
* ``flush()``   -> bytes reach the OS page cache; a kill preserves them,
  a power loss does not;
* ``fsync()``   -> bytes reach the device; nothing short of media failure
  loses them.

A power loss keeps only fsynced bytes, whether the file's handle is
still open or was closed long before (after *All File Systems Are Not
Created Equal*, Pillai et al., OSDI 2014): :class:`FaultyFS` keeps one
fsync watermark per path it wrote, and the watermark outlives ``close``,
follows ``replace`` and is dropped by ``remove``.  Directory entries are
not modelled: a create, rename or remove is durable once it returns.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, Dict, List, Set, Union

from repro.common.errors import FaultInjectionError

__all__ = ["FileSystem", "FaultyFS", "FaultyFile", "FaultyReadFile", "REAL_FS"]


class FileSystem:
    """Real filesystem: the zero-overhead default seam."""

    def open(self, path: Union[str, Path], mode: str) -> IO[bytes]:
        """Open ``path`` exactly like the builtin ``open``."""
        return open(path, mode)

    def pread(self, handle: IO[bytes], size: int, offset: int) -> bytes:
        """Read up to ``size`` bytes at ``offset`` of a handle opened for
        reading, without moving (or depending on) its position, so
        readers can share one handle (``os.pread``)."""
        return os.pread(handle.fileno(), size, offset)

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        """Atomically rename ``src`` over ``dst`` (``os.replace``)."""
        os.replace(src, dst)

    def fsync(self, handle: IO[bytes]) -> None:
        """Flush ``handle`` and force its bytes to the device."""
        handle.flush()
        os.fsync(handle.fileno())

    def remove(self, path: Union[str, Path]) -> None:
        """Delete ``path``; missing files are ignored."""
        Path(path).unlink(missing_ok=True)


#: Shared real-filesystem singleton used whenever no fault plan is active.
REAL_FS = FileSystem()


class FaultyFile:
    """A write handle whose buffer the harness can destroy.

    Writes accumulate in an in-memory buffer; ``flush`` moves them to the
    real file (the simulated OS page cache) and ``fsync`` (via the owning
    :class:`FaultyFS`) moves the path's power-loss-safe watermark.  The owning
    filesystem's fault plan sees every write and may mutate the payload
    (bit flip), cut it short (torn write) or raise
    :class:`~repro.common.errors.SimulatedCrashError` mid-operation.
    """

    def __init__(self, fs: "FaultyFS", path: Path, mode: str) -> None:
        self._fs = fs
        self.path = path
        # Raw (unbuffered) handle: what *we* flush is exactly what the
        # simulated OS has; Python adds no hidden second buffer.
        self._real = open(path, mode, buffering=0)
        self._buffer = bytearray()
        self.flushed_size = self._real.seek(0, os.SEEK_END)
        self.closed = False

    # -- file protocol (the subset the storage layer uses) ---------------

    def write(self, data: bytes) -> int:
        """Buffer ``data`` (after the fault plan's mutations, if any)."""
        self._check_alive()
        data = self._fs.plan.on_write(self, bytes(data))
        self._buffer.extend(data)
        return len(data)

    def tell(self) -> int:
        """Logical end-of-file position (flushed bytes + buffered bytes)."""
        self._check_alive()
        return self.flushed_size + len(self._buffer)

    def flush(self) -> None:
        self._check_alive()
        self._fs.plan.on_flush(self)
        self._drain_buffer()

    def fileno(self) -> int:
        """The underlying OS file descriptor."""
        return self._real.fileno()

    def close(self) -> None:
        if self.closed:
            return
        self._drain_buffer()
        self._real.close()
        self.closed = True
        self._fs.forget(self)

    # -- harness hooks ----------------------------------------------------

    def _drain_buffer(self) -> None:
        if self._buffer:
            self._real.write(bytes(self._buffer))
            self.flushed_size += len(self._buffer)
            self._buffer.clear()

    def kill(self) -> None:
        """Simulate the process dying: buffered bytes vanish."""
        if self.closed:
            return
        self._buffer.clear()
        self._real.close()
        self.closed = True

    def _check_alive(self) -> None:
        if self.closed:
            raise FaultInjectionError(
                f"I/O on {self.path.name} after the simulated crash"
            )


class FaultyReadFile:
    """A read handle consulting the fault plan before every read.

    This is how intermittent ``EIO``-style media errors
    (:meth:`FaultPlan.fail_reads`) reach the storage layer: the plan's
    :meth:`~repro.faults.plan.FaultPlan.on_read` hook runs before each
    ``read`` (and each :meth:`FaultyFS.pread` on this handle) and may
    raise ``OSError``.  Everything else passes
    straight through to a real handle -- read handles hold no buffered
    state, so a kill only forbids further use.
    """

    def __init__(self, fs: "FaultyFS", path: Path, mode: str) -> None:
        self._fs = fs
        self.path = path
        self._real = open(path, mode)
        self.closed = False

    def read(self, size: int = -1):
        """Read up to ``size`` bytes, consulting the fault plan first."""
        self._fs._check_alive()
        self._fs.plan.on_read(self.path)
        return self._real.read(size)

    def readline(self, size: int = -1):
        """Read one line, consulting the fault plan first."""
        self._fs._check_alive()
        self._fs.plan.on_read(self.path)
        return self._real.readline(size)

    def seek(self, offset: int, whence: int = 0) -> int:
        """Reposition the underlying handle (never faults on its own)."""
        return self._real.seek(offset, whence)

    def tell(self) -> int:
        """Current position of the underlying handle."""
        return self._real.tell()

    def fileno(self) -> int:
        """The underlying OS file descriptor."""
        return self._real.fileno()

    def close(self) -> None:
        if not self.closed:
            self._real.close()
            self.closed = True
            self._fs._readers.discard(self)

    def __iter__(self):
        return iter(self._real)

    def __enter__(self) -> "FaultyReadFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FaultyFS(FileSystem):
    """Filesystem wrapper that owns every write handle it hands out.

    Binary write/append handles become :class:`FaultyFile`; plain read
    handles become :class:`FaultyReadFile` so the plan can inject
    intermittent read errors.  (Read-side *corruption* is
    still injected by flipping bits in the write path -- detection by
    checksum is the property under test.)  After :meth:`kill` the
    filesystem is dead: any further I/O raises
    :class:`FaultInjectionError`, catching code that incorrectly keeps
    running after a simulated crash.
    """

    def __init__(self, plan) -> None:
        self.plan = plan
        self._files: List[FaultyFile] = []
        #: Open read handles: a kill closes them, as the OS closes a dead
        #: process's descriptors.
        self._readers: Set[FaultyReadFile] = set()
        #: Per path written through this filesystem, the byte count a
        #: power loss keeps: what the last ``fsync`` made durable.
        self._synced: Dict[Path, int] = {}
        self._dead = False

    def open(self, path: Union[str, Path], mode: str) -> IO[bytes]:
        self._check_alive()
        if "b" in mode and ("w" in mode or "a" in mode):
            handle = FaultyFile(self, Path(path), mode)
            self._files.append(handle)
            # A file this filesystem never wrote counts as durable; one
            # reopened for append keeps its recorded mark (a truncation
            # since may have cut the file below it).
            size = handle.flushed_size
            self._synced[handle.path] = min(self._synced.get(handle.path, size), size)
            return handle  # type: ignore[return-value]
        if "r" in mode and "+" not in mode:
            reader = FaultyReadFile(self, Path(path), mode)
            self._readers.add(reader)
            return reader  # type: ignore[return-value]
        return open(path, mode)

    def pread(self, handle: IO[bytes], size: int, offset: int) -> bytes:
        """One positional read, consulting the fault plan first exactly
        as :meth:`FaultyReadFile.read` does (one hook call per read)."""
        self._check_alive()
        self.plan.on_read(handle.path)  # type: ignore[attr-defined]
        return super().pread(handle, size, offset)

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        self._check_alive()
        self.plan.on_replace(Path(src), Path(dst))
        os.replace(src, dst)
        # The renamed file's unsynced bytes go with it; a source this
        # filesystem never wrote is durable, and so is its new name.
        mark = self._synced.pop(Path(src), None)
        if mark is None:
            self._synced.pop(Path(dst), None)
        else:
            self._synced[Path(dst)] = mark

    def fsync(self, handle: IO[bytes]) -> None:
        self._check_alive()
        if isinstance(handle, FaultyFile):
            handle.flush()
            self._synced[handle.path] = handle.flushed_size
        else:  # a real handle that slipped through (read-mode open)
            super().fsync(handle)

    def remove(self, path: Union[str, Path]) -> None:
        self._check_alive()
        Path(path).unlink(missing_ok=True)
        self._synced.pop(Path(path), None)

    def forget(self, handle: FaultyFile) -> None:
        """Drop a cleanly closed handle from the kill list (its path's
        watermark stays)."""
        if handle in self._files:
            self._files.remove(handle)

    def kill(self, power_loss: bool = False) -> None:
        """Kill the simulated process: destroy every live write handle and
        close every read handle.

        With ``power_loss=True``, every file this filesystem wrote is also
        cut back to its fsync watermark, open or closed -- the difference
        between the ``flush`` and ``fsync`` durability levels.
        """
        for handle in list(self._files):
            handle.kill()
        self._files.clear()
        for reader in list(self._readers):
            reader.close()
        if power_loss:
            for path, mark in self._synced.items():
                if path.exists() and path.stat().st_size > mark:
                    os.truncate(path, mark)
        self._dead = True

    @property
    def open_file_count(self) -> int:
        return len(self._files)

    def _check_alive(self) -> None:
        if self._dead:
            raise FaultInjectionError("filesystem used after the simulated crash")
