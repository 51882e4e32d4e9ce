"""Tests for the Bloom filter and its SSTable integration."""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kv.bloom import BloomFilter, key_hashes
from repro.storage.kv.sstable import SSTableReader, write_sstable


def probe(bloom: BloomFilter, key: bytes) -> bool:
    """The filter's answer for ``key``, hashed as a ``get`` hashes it."""
    return bloom.may_contain_hashed(*key_hashes(key))


def reference_may_contain(bloom: BloomFilter, key: bytes) -> bool:
    """The probe as the format defines it, read off the persisted bytes:
    bit ``(h1 + i*h2) mod m`` for ``i < k``, ``h2`` replaced when it is a
    multiple of ``m``.  What every table already on disk was built with."""
    payload = bloom.to_bytes()
    hash_count, bit_count = struct.unpack_from("<II", payload, 0)
    bits = payload[8:]
    h1, h2 = zlib.crc32(key), zlib.adler32(key)
    if h2 % bit_count == 0:
        h2 = 0x5BD1E995
    return all(
        bits[position >> 3] & (1 << (position & 7))
        for position in ((h1 + i * h2) % bit_count for i in range(hash_count))
    )


class TestBloomFilter:
    def test_no_false_negatives(self):
        keys = [f"key-{i}".encode() for i in range(500)]
        bloom = BloomFilter.build(keys)
        assert all(probe(bloom, key) for key in keys)

    def test_mostly_true_negatives(self):
        keys = [f"key-{i}".encode() for i in range(500)]
        bloom = BloomFilter.build(keys, bits_per_key=10)
        false_positives = sum(
            1 for i in range(2_000) if probe(bloom, f"other-{i}".encode())
        )
        assert false_positives < 2_000 * 0.05  # ~1% expected at 10 bits/key

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter.build([])
        assert not probe(bloom, b"anything")

    def test_serialization_round_trip(self):
        keys = [b"a", b"bb", b"\x00\xff"]
        bloom = BloomFilter.build(keys)
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored.to_bytes() == bloom.to_bytes()
        assert all(probe(restored, key) for key in keys)

    def test_from_bytes_validates_length(self):
        bloom = BloomFilter.build([b"a"])
        payload = bloom.to_bytes()
        with pytest.raises(ValueError, match="expected"):
            BloomFilter.from_bytes(payload[:-1])

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(bytearray(1), bit_count=0, hash_count=1)

    @settings(max_examples=40)
    @given(keys=st.sets(st.binary(min_size=1, max_size=12), max_size=60))
    def test_no_false_negatives_property(self, keys):
        bloom = BloomFilter.build(keys)
        for key in keys:
            assert probe(bloom, key)

    @settings(max_examples=20)
    @given(keys=st.sets(st.binary(min_size=1, max_size=12), min_size=1, max_size=60))
    def test_persistence_preserves_membership(self, keys):
        bloom = BloomFilter.from_bytes(BloomFilter.build(keys).to_bytes())
        for key in keys:
            assert probe(bloom, key)


    @settings(max_examples=40)
    @given(
        keys=st.sets(st.binary(min_size=1, max_size=12), max_size=60),
        probes=st.lists(st.binary(min_size=1, max_size=12), max_size=30),
    )
    def test_hashed_probe_is_the_probe(self, keys, probes):
        """One hash per ``get``: the pre-hashed probe and the format's
        definition agree on members and non-members alike."""
        bloom = BloomFilter.build(keys)
        for key in [*keys, *probes]:
            assert probe(bloom, key) == reference_may_contain(bloom, key)

    def test_zero_step_substitution(self):
        """A key whose ``h2`` is a multiple of the bit count probes with
        the substitute step, at insert and at both probes."""
        stuck = [
            key
            for key in (f"k{i}".encode() for i in range(2_000))
            if zlib.adler32(key) % 64 == 0
        ]
        assert stuck
        bloom = BloomFilter.build(stuck[:3])
        assert struct.unpack_from("<II", bloom.to_bytes())[1] == 64  # bit count
        for key in stuck:
            assert probe(bloom, key) == reference_may_contain(bloom, key)
        assert all(probe(bloom, key) for key in stuck[:3])
        assert not all(probe(bloom, key) for key in stuck)


class TestSSTableBloomIntegration:
    def test_reader_exposes_bloom(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, iter([(b"a", b"1"), (b"m", b"2")]))
        reader = SSTableReader(path)
        assert probe(reader.bloom, b"a")
        assert probe(reader.bloom, b"m")

    def test_lookup_still_correct_with_bloom(self, tmp_path):
        path = tmp_path / "t.sst"
        entries = [(f"k{i:04d}".encode(), str(i).encode()) for i in range(100)]
        write_sstable(path, iter(entries))
        reader = SSTableReader(path)
        for key, value in entries:
            assert reader.lookup(key) == (True, value)
        assert reader.lookup(b"k9999") == (False, None)
        assert reader.lookup(b"a") == (False, None)

    def test_tombstones_pass_the_bloom(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, iter([(b"dead", None)]))
        reader = SSTableReader(path)
        assert reader.lookup(b"dead") == (True, None)
