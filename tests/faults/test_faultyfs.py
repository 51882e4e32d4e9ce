"""Unit tests for the fault-injection primitives themselves.

The crash sweeps only prove anything if :class:`FaultyFS` faithfully
models what a kill or power loss does to in-flight writes, so the model
is pinned down here byte by byte.
"""

from __future__ import annotations

import pytest

from repro.common.errors import (
    BlockFileError,
    FaultInjectionError,
    SimulatedCrashError,
)
from repro.faults import FaultPlan, FaultyFS, active_plan, crash_point
from repro.faults.crashpoints import LEDGER_POST_COMMIT, LEDGER_PRE_STATE
from repro.storage.blockfile import BlockFileManager


def read_bytes(path) -> bytes:
    return path.read_bytes() if path.exists() else b""


# -- write / flush / fsync semantics --------------------------------------


def test_unflushed_bytes_vanish_on_kill(tmp_path):
    fs = FaultyFS(FaultPlan())
    handle = fs.open(tmp_path / "f.bin", "wb")
    handle.write(b"buffered")
    fs.kill()
    assert read_bytes(tmp_path / "f.bin") == b""


def test_flushed_bytes_survive_kill_but_not_power_loss(tmp_path):
    for power_loss, expected in [(False, b"flushed"), (True, b"")]:
        fs = FaultyFS(FaultPlan())
        path = tmp_path / f"f{power_loss}.bin"
        handle = fs.open(path, "wb")
        handle.write(b"flushed")
        handle.flush()
        handle.write(b"still-buffered")
        fs.kill(power_loss=power_loss)
        assert read_bytes(path) == expected


def test_fsynced_bytes_survive_power_loss(tmp_path):
    fs = FaultyFS(FaultPlan())
    path = tmp_path / "f.bin"
    handle = fs.open(path, "wb")
    handle.write(b"durable")
    fs.fsync(handle)
    handle.write(b"flushed-only")
    handle.flush()
    fs.kill(power_loss=True)
    assert read_bytes(path) == b"durable"


def test_tell_counts_buffered_bytes_and_append_resumes(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"12345")
    fs = FaultyFS(FaultPlan())
    handle = fs.open(path, "ab")
    assert handle.tell() == 5
    handle.write(b"678")
    assert handle.tell() == 8  # buffered bytes count toward the logical size
    handle.close()
    assert read_bytes(path) == b"12345678"


def test_close_drains_and_unregisters(tmp_path):
    fs = FaultyFS(FaultPlan())
    handle = fs.open(tmp_path / "f.bin", "wb")
    handle.write(b"data")
    assert fs.open_file_count == 1
    handle.close()
    assert fs.open_file_count == 0
    assert read_bytes(tmp_path / "f.bin") == b"data"
    # Closing is not syncing: a power loss still takes the bytes.
    fs.kill(power_loss=True)
    assert read_bytes(tmp_path / "f.bin") == b""


def test_a_closed_file_keeps_only_its_fsynced_bytes(tmp_path):
    fs = FaultyFS(FaultPlan())
    path = tmp_path / "f.bin"
    handle = fs.open(path, "wb")
    handle.write(b"durable")
    fs.fsync(handle)
    handle.write(b"+flushed")
    handle.close()
    fs.kill(power_loss=True)
    assert read_bytes(path) == b"durable"


def test_watermark_follows_replace(tmp_path):
    fs = FaultyFS(FaultPlan())
    staged, live = tmp_path / "t.tmp", tmp_path / "t.sst"
    live.write_bytes(b"old and durable")
    handle = fs.open(staged, "wb")
    handle.write(b"abc")
    fs.fsync(handle)
    handle.write(b"def")
    handle.close()
    fs.replace(staged, live)
    fs.kill(power_loss=True)
    assert read_bytes(live) == b"abc"
    assert not staged.exists()


def test_reopen_for_append_starts_at_the_recorded_mark(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"12")  # written before this filesystem: durable
    fs = FaultyFS(FaultPlan())
    handle = fs.open(path, "ab")
    handle.write(b"34")
    handle.close()  # flushed, never synced
    handle = fs.open(path, "ab")
    assert handle.tell() == 4
    handle.write(b"56")
    handle.flush()
    fs.kill(power_loss=True)
    assert read_bytes(path) == b"12"


def test_remove_forgets_the_path(tmp_path):
    fs = FaultyFS(FaultPlan())
    path = tmp_path / "f.bin"
    handle = fs.open(path, "wb")
    handle.write(b"unsynced")
    handle.close()
    fs.remove(path)
    path.write_bytes(b"another writer's file")  # not this filesystem's
    fs.kill(power_loss=True)
    assert read_bytes(path) == b"another writer's file"


def test_io_after_kill_raises(tmp_path):
    fs = FaultyFS(FaultPlan())
    handle = fs.open(tmp_path / "f.bin", "wb")
    fs.kill()
    with pytest.raises(FaultInjectionError):
        handle.write(b"zombie")
    with pytest.raises(FaultInjectionError):
        fs.open(tmp_path / "g.bin", "wb")
    with pytest.raises(FaultInjectionError):
        fs.replace(tmp_path / "a", tmp_path / "b")


def test_read_handles_stay_real(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"payload")
    fs = FaultyFS(FaultPlan())
    with fs.open(path, "rb") as handle:
        assert handle.read() == b"payload"
    assert fs.open_file_count == 0  # read handles are not tracked


# -- scheduled faults ------------------------------------------------------


def test_torn_write_leaves_strict_prefix(tmp_path):
    plan = FaultPlan(seed=17).crash_on_write("f.bin", nth=2, torn=True)
    fs = FaultyFS(plan)
    handle = fs.open(tmp_path / "f.bin", "wb")
    handle.write(b"AAAA")
    handle.flush()
    with pytest.raises(SimulatedCrashError):
        handle.write(b"BBBBBBBB")
    fs.kill()
    on_disk = read_bytes(tmp_path / "f.bin")
    assert on_disk.startswith(b"AAAA")
    torn_tail = on_disk[4:]
    assert 0 < len(torn_tail) < 8  # strict prefix of the torn payload
    assert torn_tail == b"B" * len(torn_tail)
    assert plan.fired == "write:f.bin"


def test_flip_bit_flips_exactly_one_bit(tmp_path):
    plan = FaultPlan(seed=19).flip_bit("f.bin", nth_write=1)
    fs = FaultyFS(plan)
    original = b"\x00" * 32
    handle = fs.open(tmp_path / "f.bin", "wb")
    handle.write(original)
    handle.close()
    corrupted = read_bytes(tmp_path / "f.bin")
    assert len(corrupted) == len(original)
    diff_bits = sum(
        bin(a ^ b).count("1") for a, b in zip(original, corrupted)
    )
    assert diff_bits == 1


def test_crash_on_replace_preserves_src_and_dst(tmp_path):
    src = tmp_path / "table.tmp"
    dst = tmp_path / "table.sst"
    src.write_bytes(b"new")
    dst.write_bytes(b"old")
    plan = FaultPlan().crash_on_replace("*.sst")
    fs = FaultyFS(plan)
    with pytest.raises(SimulatedCrashError):
        fs.replace(src, dst)
    assert src.read_bytes() == b"new"  # temp file survives for the sweep
    assert dst.read_bytes() == b"old"  # target untouched: rename is atomic
    assert plan.fired == "replace:table.sst"


def test_crash_at_counts_occurrences():
    plan = FaultPlan().crash_at(LEDGER_PRE_STATE, occurrence=3)
    with active_plan(plan):
        crash_point(LEDGER_PRE_STATE)
        crash_point(LEDGER_POST_COMMIT)
        crash_point(LEDGER_PRE_STATE)
        with pytest.raises(SimulatedCrashError):
            crash_point(LEDGER_PRE_STATE)
    assert plan.fired == LEDGER_PRE_STATE
    assert plan.point_counts[LEDGER_PRE_STATE] == 3
    assert plan.point_counts[LEDGER_POST_COMMIT] == 1


def test_crash_point_is_free_when_disarmed():
    crash_point("never.registered")  # must be a no-op, not an error


def test_armed_crash_point_refuses_an_unregistered_name():
    # A point the registry lacks is one the kill-point sweep never fires.
    plan = FaultPlan().crash_at(LEDGER_PRE_STATE)
    with active_plan(plan):
        with pytest.raises(FaultInjectionError, match="is not registered"):
            crash_point("ledger.pre_savepoint_record")
    assert plan.fired is None and plan.point_counts == {}


def test_every_registered_point_really_fires_in_the_sweep():
    """The registry the sweep iterates names each point once.  That
    each one fires is the sweep's own check (``outcome.fired ==
    point``), and that nothing fires an unregistered name is
    ``crash_point``'s (above)."""
    from repro.faults.crashpoints import ALL_CRASH_POINTS

    assert len(ALL_CRASH_POINTS) == len(set(ALL_CRASH_POINTS)) >= 15


def test_active_plan_is_not_reentrant():
    with active_plan(FaultPlan()):
        with pytest.raises(RuntimeError, match="already active"):
            with active_plan(FaultPlan()):
                pass
    # ...and disarms cleanly on exit.
    with active_plan(FaultPlan()):
        pass


@pytest.mark.parametrize("bad", [0, -1])
def test_schedules_reject_nonpositive_counts(bad):
    with pytest.raises(ValueError):
        FaultPlan().crash_at("p", occurrence=bad)
    with pytest.raises(ValueError):
        FaultPlan().crash_on_write("f", nth=bad)
    with pytest.raises(ValueError):
        FaultPlan().crash_on_replace("f", nth=bad)
    with pytest.raises(ValueError):
        FaultPlan().flip_bit("f", nth_write=bad)


# -- read-side faults: intermittent errors and latency ---------------------


def test_fail_reads_fires_on_exactly_the_nth_read(tmp_path):
    path = tmp_path / "blockfile_000000"
    path.write_bytes(b"0123456789")
    plan = FaultPlan().fail_reads("blockfile_*", nth=3)
    fs = FaultyFS(plan)
    handle = fs.open(path, "rb")
    assert handle.read(2) == b"01"
    assert handle.read(2) == b"23"
    with pytest.raises(OSError) as excinfo:
        handle.read(2)
    assert excinfo.value.errno == 5  # EIO
    assert plan.fired == "read:blockfile_000000"
    # Intermittent, like real media errors: the next read succeeds.
    assert handle.read(2) == b"45"
    handle.close()


def test_fail_reads_counts_from_when_it_was_scheduled(tmp_path):
    # Recovery replay at open absorbs reads before the harness arms the
    # plan; the scheduled nth must count only reads after arming.
    path = tmp_path / "blockfile_000000"
    path.write_bytes(b"0123456789")
    plan = FaultPlan()
    fs = FaultyFS(plan)
    handle = fs.open(path, "rb")
    handle.read(1)
    handle.read(1)  # two pre-arm reads (the "recovery")
    plan.fail_reads("blockfile_*", nth=1)
    with pytest.raises(OSError):
        handle.read(1)
    handle.close()


def test_fail_reads_ignores_non_matching_files(tmp_path):
    victim = tmp_path / "blockfile_000000"
    bystander = tmp_path / "wal.log"
    victim.write_bytes(b"xx")
    bystander.write_bytes(b"yy")
    plan = FaultPlan().fail_reads("blockfile_*", nth=1)
    fs = FaultyFS(plan)
    with fs.open(bystander, "rb") as handle:
        assert handle.read() == b"yy"  # never faulted
    with fs.open(victim, "rb") as handle:
        with pytest.raises(OSError):
            handle.read()


def test_pread_consults_the_plan_once_and_shares_no_position(tmp_path):
    path = tmp_path / "blockfile_000000"
    path.write_bytes(b"0123456789")
    # nth=2 fails the second pread only if the first consulted the plan once.
    plan = FaultPlan().fail_reads("blockfile_*", nth=2)
    fs = FaultyFS(plan)
    handle = fs.open(path, "rb")
    assert fs.pread(handle, 4, 3) == b"3456"
    assert handle.tell() == 0  # positional: the handle never moved
    with pytest.raises(OSError) as excinfo:
        fs.pread(handle, 4, 0)
    assert excinfo.value.errno == 5  # EIO
    assert fs.pread(handle, 100, 8) == b"89"  # short at end of file
    fs.kill()
    with pytest.raises(FaultInjectionError):
        fs.pread(handle, 1, 0)
    handle.close()


# -- the same faults, seen through a block read ----------------------------


def _block_files(tmp_path, plan, blocks=6):
    """A manager on a faulty filesystem with ``blocks`` records spread
    over several files; returns (fs, manager, locations, payloads)."""
    fs = FaultyFS(plan)
    manager = BlockFileManager(tmp_path / "chains", max_file_bytes=64, fs=fs)
    payloads = [f"block-{i}-".encode() * 4 for i in range(blocks)]
    locations = [manager.append(payload) for payload in payloads]
    assert manager._current_num > 0
    return fs, manager, locations, payloads


@pytest.mark.parametrize("k", [1, 2, 4])
def test_fail_reads_fails_exactly_the_kth_block_read(tmp_path, k):
    plan = FaultPlan()
    fs, manager, locations, payloads = _block_files(tmp_path, plan)
    manager.read(locations[0])  # before arming: does not consume the schedule
    plan.fail_reads("blockfile_*", nth=k)
    # One file, so the per-file read count is the block-read count: the
    # hook fires once per block (it used to fire for header and payload).
    target = locations[0]
    for attempt in range(1, 7):
        if attempt == k:
            with pytest.raises(BlockFileError, match="read failed at blockfile_000000:0"):
                manager.read(target)
        else:
            assert manager.read(target) == payloads[0]
    assert plan.fired == "read:blockfile_000000"
    manager.close()


def test_block_read_after_kill_raises(tmp_path):
    fs, manager, locations, payloads = _block_files(tmp_path, FaultPlan())
    sealed, current = locations[0], locations[-1]
    assert manager.read(sealed) == payloads[0]
    manager.sync()
    fs.kill()
    # A cached descriptor on a sealed file, and the current file's
    # visibility flush, both refuse to serve a dead process.
    for location in (sealed, current):
        with pytest.raises(FaultInjectionError):
            manager.read(location)


def test_faulty_read_file_protocol_passthrough(tmp_path):
    path = tmp_path / "blockfile_000000"
    path.write_bytes(b"line-1\nline-2\n")
    fs = FaultyFS(FaultPlan())
    with fs.open(path, "rb") as handle:
        assert handle.readline() == b"line-1\n"
        position = handle.tell()
        assert handle.read() == b"line-2\n"
        handle.seek(position)
        assert handle.read() == b"line-2\n"
    # Iteration also passes through to the real handle.
    with fs.open(path, "rb") as handle:
        assert list(handle) == [b"line-1\n", b"line-2\n"]
