"""Hashing and simulated signing for the ledger simulator.

Block integrity uses real SHA-256 (header hash chain, data hashes).
Signatures are HMAC-SHA256 under per-identity secrets -- not public-key
cryptography, but enough to make endorsement verification a real check
rather than a stub (the paper's results do not depend on signature
schemes, only on the commit path's shape).
"""

from __future__ import annotations

import hashlib
import hmac

#: SHA-256's block size: an HMAC key is padded (or first hashed) to it.
_BLOCK_SIZE = 64
#: RFC 2104's inner and outer pads, as ``bytes.translate`` tables.
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


def sha256(payload: bytes) -> bytes:
    """SHA-256 digest of ``payload``."""
    return hashlib.sha256(payload).digest()


def sha256_hex(payload: bytes) -> str:
    """Hex-encoded SHA-256, used for transaction ids."""
    return hashlib.sha256(payload).hexdigest()


class HmacKey:
    """An HMAC-SHA256 key, keyed once.

    ``hmac.new(secret, payload, hashlib.sha256)`` pads and hashes the key
    on every call; here the inner and outer padded keys (RFC 2104; a key
    longer than the block is hashed first) are hashed at construction,
    and each signature copies the two states: the same digest for half
    the work.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, secret: bytes) -> None:
        if len(secret) > _BLOCK_SIZE:
            secret = hashlib.sha256(secret).digest()
        secret = secret.ljust(_BLOCK_SIZE, b"\x00")
        self._inner = hashlib.sha256(secret.translate(_INNER_PAD))
        self._outer = hashlib.sha256(secret.translate(_OUTER_PAD))

    def sign(self, payload: bytes) -> bytes:
        """HMAC-SHA256 signature of ``payload``."""
        inner = self._inner.copy()
        inner.update(payload)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, payload: bytes, signature: object) -> bool:
        """Constant-time check of ``signature``; a signature that is not
        ``bytes`` (a tampered or malformed transaction) is simply wrong."""
        if not isinstance(signature, bytes):
            return False
        return hmac.compare_digest(self.sign(payload), signature)
