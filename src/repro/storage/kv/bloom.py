"""A from-scratch Bloom filter for SSTable key lookups.

Point lookups in an LSM store consult SSTables newest-first and most
tables don't contain the key.  A per-table Bloom filter answers
"definitely absent" first, as in LevelDB, so a table that cannot hold the
key is never searched (nor, on its first read, decoded).

Double hashing (Kirsch-Mitzenmacher): the i-th probe position is
``h1 + i*h2 mod m`` with two independent checksums, which preserves the
asymptotic false-positive rate of k independent hash functions.  The two
checksums depend on the key alone (:func:`key_hashes`), so one ``get``
hashes its key once and probes every table's filter with the pair.  The
encoding is stable across processes (no reliance on ``hash()``), so
filters persist inside SSTable files.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Iterable, Tuple

_HEADER = struct.Struct("<II")  # hash_count, bit_count

#: Probe step for a key whose ``h2`` is a multiple of the bit count: a zero
#: step would probe the same bit k times.
_FALLBACK_STEP = 0x5BD1E995


def key_hashes(key: bytes) -> Tuple[int, int]:
    """The ``(h1, h2)`` pair every filter derives ``key``'s positions from."""
    return zlib.crc32(key), zlib.adler32(key)


class BloomFilter:
    """An immutable-after-build Bloom filter over byte keys."""

    def __init__(self, bits: bytearray, bit_count: int, hash_count: int) -> None:
        if bit_count <= 0 or hash_count <= 0:
            raise ValueError("bit_count and hash_count must be positive")
        self._bits = bits
        self._bit_count = bit_count
        self._hash_count = hash_count

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, keys: Iterable[bytes], bits_per_key: int = 10) -> "BloomFilter":
        """Build a filter sized for ``keys`` at ``bits_per_key``.

        10 bits/key with the optimal hash count (~7) gives ~1% false
        positives, LevelDB's default trade-off.
        """
        key_list = list(keys)
        bit_count = max(64, len(key_list) * bits_per_key)
        hash_count = max(1, min(30, round(bits_per_key * math.log(2))))
        bits = bytearray((bit_count + 7) // 8)
        bloom = cls(bits, bit_count, hash_count)
        for key in key_list:
            bloom._insert(key)
        return bloom

    def _insert(self, key: bytes) -> None:
        position, h2 = key_hashes(key)
        step = h2 if h2 % self._bit_count else _FALLBACK_STEP
        for _ in range(self._hash_count):
            position %= self._bit_count
            self._bits[position >> 3] |= 1 << (position & 7)
            position += step

    # -- queries ----------------------------------------------------------

    def may_contain_hashed(self, h1: int, h2: int) -> bool:
        """Whether the key hashed to ``(h1, h2)`` by :func:`key_hashes` may
        be in the set: False means *definitely absent*, True "probably
        present"."""
        bits, bit_count = self._bits, self._bit_count
        step = h2 if h2 % bit_count else _FALLBACK_STEP
        for _ in range(self._hash_count):
            h1 %= bit_count
            if not bits[h1 >> 3] & (1 << (h1 & 7)):
                return False
            h1 += step
        return True

    # -- persistence ------------------------------------------------------

    def to_bytes(self) -> bytes:
        return _HEADER.pack(self._hash_count, self._bit_count) + bytes(self._bits)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BloomFilter":
        hash_count, bit_count = _HEADER.unpack_from(payload, 0)
        bits = bytearray(payload[_HEADER.size:])
        expected = (bit_count + 7) // 8
        if len(bits) != expected:
            raise ValueError(
                f"bloom payload has {len(bits)} bytes, expected {expected}"
            )
        return cls(bits, bit_count, hash_count)
