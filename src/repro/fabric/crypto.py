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


def sha256(payload: bytes) -> bytes:
    """SHA-256 digest of ``payload``."""
    return hashlib.sha256(payload).digest()


def sha256_hex(payload: bytes) -> str:
    """Hex-encoded SHA-256, used for transaction ids."""
    return hashlib.sha256(payload).hexdigest()


def sign(secret: bytes, payload: bytes) -> bytes:
    """HMAC-SHA256 signature of ``payload`` under ``secret``."""
    return hmac.new(secret, payload, hashlib.sha256).digest()


def verify(secret: bytes, payload: bytes, signature: bytes) -> bool:
    """Constant-time verification of a signature."""
    return hmac.compare_digest(sign(secret, payload), signature)
