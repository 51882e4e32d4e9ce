"""HMAC-SHA256 keyed once: the bytes of ``hmac.new`` for every key length."""

from __future__ import annotations

import hashlib
import hmac

import pytest

from repro.fabric.crypto import HmacKey
from repro.fabric.identity import MSP, Identity

KEY_LENGTHS = [0, 1, 16, 63, 64, 65, 200]
PAYLOADS = [b"", bytes(range(256)) * 400]


@pytest.mark.parametrize("length", KEY_LENGTHS)
@pytest.mark.parametrize("payload", PAYLOADS, ids=["empty", "100KB"])
def test_signature_is_hmac_sha256(length, payload):
    secret = bytes((7 * index + 3) % 256 for index in range(length))
    key = HmacKey(secret)
    expected = hmac.new(secret, payload, hashlib.sha256).digest()
    assert key.sign(payload) == expected
    assert key.sign(payload) == expected  # the keyed states are copied, not consumed
    assert key.verify(payload, expected)


@pytest.mark.parametrize("length", KEY_LENGTHS)
def test_a_flipped_bit_or_a_truncated_signature_fails(length):
    key = HmacKey(b"s" * length)
    signature = key.sign(b"payload")
    flipped = bytes([signature[0] ^ 0x01]) + signature[1:]
    assert not key.verify(b"payload", flipped)
    assert not key.verify(b"payload", signature[:-1])
    assert not key.verify(b"payload!", signature)
    assert not HmacKey(b"t" * (length + 1)).verify(b"payload", signature)


@pytest.mark.parametrize("signature", ["abc", None, 5, bytearray(32)])
def test_a_signature_that_is_not_bytes_is_wrong(signature):
    assert HmacKey(b"secret").verify(b"payload", signature) is False


def test_identities_compare_on_name_msp_and_secret():
    one = Identity("peer0", "Org1MSP", b"secret")
    same = Identity("peer0", "Org1MSP", b"secret")
    assert one == same and hash(one) == hash(same)
    assert one != Identity("peer0", "Org1MSP", b"other")
    assert one.sign(b"x") == same.sign(b"x") == hmac.new(b"secret", b"x", hashlib.sha256).digest()
    assert same.verify(b"x", one.sign(b"x"))
    assert "secret" not in repr(one)
    assert "_key" not in repr(one)


def test_enrolled_identities_verify_only_their_own_signatures():
    msp = MSP()
    alice, bob = msp.enroll("alice"), msp.enroll("bob")
    assert msp.enroll("alice") is alice
    signature = alice.sign(b"tx")
    assert alice.verify(b"tx", signature)
    assert not bob.verify(b"tx", signature)
