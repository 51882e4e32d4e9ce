"""Tests for SSTable write/read, the decoded entry index and tombstones."""

from __future__ import annotations

import zlib

import pytest

from repro.common.codec import write_uvarint
from repro.common.errors import SSTableError
from repro.storage.kv.bloom import BloomFilter
from repro.storage.kv.sstable import _FOOTER, MAGIC, SSTableReader, write_sstable
from tests.helpers import table_rows


def build(tmp_path, entries, name="t.sst"):
    path = tmp_path / name
    write_sstable(path, iter(entries))
    return SSTableReader(path)


def write_raw_table(path, data: bytes, index: bytes = b"", keys=()) -> None:
    """A table file around hand-made sections, CRC and footer valid."""
    body = data + index + BloomFilter.build(list(keys)).to_bytes()
    footer = _FOOTER.pack(
        len(data), len(data) + len(index), len(keys), zlib.crc32(body), MAGIC
    )
    path.write_bytes(body + footer)


def write_pr21_table(path, entries, stride: int = 16) -> None:
    """The emission every table written up to PR 21 has: a sparse
    ``key -> data offset`` index section, one entry per ``stride`` keys."""
    data, index = bytearray(), bytearray()
    for count, (key, value) in enumerate(entries):
        if count % stride == 0:
            write_uvarint(len(key), index)
            index.extend(key)
            write_uvarint(len(data), index)
        write_uvarint(len(key), data)
        data.extend(key)
        if value is None:
            data.append(1)
        else:
            data.append(0)
            write_uvarint(len(value), data)
            data.extend(value)
    write_raw_table(path, bytes(data), bytes(index), [key for key, _ in entries])


class TestWrite:
    def test_write_returns_count(self, tmp_path):
        count = write_sstable(tmp_path / "t.sst", iter([(b"a", b"1"), (b"b", b"2")]))
        assert count == 2

    def test_out_of_order_keys_rejected(self, tmp_path):
        with pytest.raises(SSTableError, match="out of order"):
            write_sstable(tmp_path / "t.sst", iter([(b"b", b"1"), (b"a", b"2")]))

    def test_duplicate_keys_rejected(self, tmp_path):
        with pytest.raises(SSTableError, match="out of order"):
            write_sstable(tmp_path / "t.sst", iter([(b"a", b"1"), (b"a", b"2")]))

    def test_empty_table(self, tmp_path):
        reader = build(tmp_path, [])
        assert reader.entry_count == 0
        assert reader.lookup(b"x") == (False, None)
        assert table_rows(reader) == []


    def test_index_section_is_empty(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, iter([(b"k%03d" % i, b"v") for i in range(40)]))
        raw = path.read_bytes()
        index_offset, bloom_offset, count, _, _ = _FOOTER.unpack_from(
            raw, len(raw) - _FOOTER.size
        )
        assert index_offset == bloom_offset
        assert count == 40


class TestLookup:
    def test_point_lookup(self, tmp_path):
        reader = build(tmp_path, [(b"a", b"1"), (b"m", b"2"), (b"z", b"3")])
        assert reader.lookup(b"m") == (True, b"2")

    def test_absent_between_keys(self, tmp_path):
        reader = build(tmp_path, [(b"a", b"1"), (b"z", b"3")])
        assert reader.lookup(b"m") == (False, None)

    def test_absent_before_first_key(self, tmp_path):
        reader = build(tmp_path, [(b"m", b"1")])
        assert reader.lookup(b"a") == (False, None)

    def test_absent_after_last_key(self, tmp_path):
        reader = build(tmp_path, [(b"m", b"1")])
        assert reader.lookup(b"z") == (False, None)

    def test_tombstone_lookup(self, tmp_path):
        reader = build(tmp_path, [(b"dead", None), (b"live", b"v")])
        assert reader.lookup(b"dead") == (True, None)
        assert reader.lookup(b"live") == (True, b"v")

    def test_lookup_across_index_strides(self, tmp_path):
        entries = [(f"key{i:05d}".encode(), f"val{i}".encode()) for i in range(200)]
        reader = build(tmp_path, entries)
        assert reader.entry_count == 200
        # 15 / 16: either side of a sparse-index point of the old format.
        for i in (0, 1, 15, 16, 57, 199):
            assert reader.lookup(f"key{i:05d}".encode()) == (True, f"val{i}".encode())
        assert reader.lookup(b"key99999") == (False, None)


class TestScan:
    def test_full_scan_sorted(self, tmp_path):
        entries = [(f"k{i:03d}".encode(), b"v") for i in range(50)]
        reader = build(tmp_path, entries)
        keys = [key for key, _ in table_rows(reader)]
        assert keys == [key for key, _ in entries]

    def test_range_scan_half_open(self, tmp_path):
        entries = [(f"k{i:03d}".encode(), b"v") for i in range(50)]
        reader = build(tmp_path, entries)
        keys = [key for key, _ in table_rows(reader, b"k010", b"k013")]
        assert keys == [b"k010", b"k011", b"k012"]

    def test_range_scan_start_between_index_points(self, tmp_path):
        entries = [(f"k{i:03d}".encode(), b"v") for i in range(64)]
        reader = build(tmp_path, entries)
        keys = [key for key, _ in table_rows(reader, b"k017", b"k020")]
        assert keys == [b"k017", b"k018", b"k019"]

    def test_scan_includes_tombstones(self, tmp_path):
        reader = build(tmp_path, [(b"a", b"1"), (b"b", None), (b"c", b"3")])
        assert table_rows(reader) == [
            (b"a", b"1"),
            (b"b", None),
            (b"c", b"3"),
        ]


class TestFormat:
    """What the decoded entry index reads, beyond the writer's own output."""

    def test_table_with_a_sparse_index_section_reads_identically(self, tmp_path):
        """Every state-db directory written up to PR 21 holds tables whose
        index section is not empty; they open and read the same."""
        entries = [
            (b"key%05d" % i, None if i % 7 == 3 else b"val%d" % i) for i in range(100)
        ]
        write_pr21_table(tmp_path / "old.sst", entries)
        old = SSTableReader(tmp_path / "old.sst")
        new = build(tmp_path, entries, name="new.sst")
        assert (tmp_path / "old.sst").stat().st_size > (tmp_path / "new.sst").stat().st_size
        assert old.entry_count == new.entry_count == 100
        assert table_rows(old) == table_rows(new) == entries
        bounds = [None, b"a", b"key00015", b"key00016", b"key000160", b"key00099", b"z"]
        for start in bounds:
            for end in bounds:
                assert table_rows(old, start, end) == table_rows(new, start, end)
        for key in [key for key, _ in entries] + [b"a", b"key000160", b"z"]:
            assert old.lookup(key) == new.lookup(key)

    def test_two_byte_lengths(self, tmp_path):
        """Keys of 128+ bytes and values of 16 KiB+ take a multi-byte
        varint length; the one-byte fast path must not eat them."""
        entries = [
            (b"a", b"x" * 127),
            (b"b" * 127, b"y" * 128),
            (b"b" * 128, b""),
            (b"b" * 129, None),
            (b"c" * 300, b"z" * 16_384),
            (b"d", b"w" * 70_000),
        ]
        reader = build(tmp_path, entries)
        assert table_rows(reader) == entries
        for key, value in entries:
            assert reader.lookup(key) == (True, value)
        assert reader.lookup(b"b" * 130) == (False, None)
        assert table_rows(reader, b"b" * 128, b"c") == entries[2:4]

    def test_unknown_op_byte_is_a_typed_error(self, tmp_path):
        path = tmp_path / "t.sst"
        write_raw_table(path, b"\x01a\x00\x01v" + b"\x01b\x07", keys=[b"a", b"b"])
        reader = SSTableReader(path)  # the CRC holds: the bytes are as written
        with pytest.raises(SSTableError, match="unknown op 7"):
            reader.lookup(b"a")
        with pytest.raises(SSTableError, match="unknown op 7"):
            table_rows(reader)

    @pytest.mark.parametrize(
        "tail", [b"\x05b", b"\x01b", b"\x01b\x00", b"\x01b\x00\x05v", b"\x81"]
    )
    def test_entry_cut_short_is_a_typed_error(self, tmp_path, tail):
        path = tmp_path / "t.sst"
        write_raw_table(path, b"\x01a\x00\x01v" + tail, keys=[b"a"])
        with pytest.raises(SSTableError, match="ends inside an entry"):
            SSTableReader(path).lookup(b"a")


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, iter([(b"a", b"1")]))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SSTableError, match="magic"):
            SSTableReader(path)

    def test_tiny_file_rejected(self, tmp_path):
        path = tmp_path / "t.sst"
        path.write_bytes(b"short")
        with pytest.raises(SSTableError, match="too small"):
            SSTableReader(path)
