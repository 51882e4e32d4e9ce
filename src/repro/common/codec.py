"""The serialization codec of ledger payloads, and the varints framing them.

Blocks on the simulated file system are stored as *bytes* and must be
decoded on every read -- that decode cost is the paper's central cost,
so it has to be real work, not a pointer copy.  Blocks and state
records are stored in one codec, :class:`JsonCodec` (UTF-8 JSON, the
parse runs in C); :class:`Codec` is its interface, the seam a test
substitutes a counting subclass through.

The codec round-trips the JSON-ish value universe: ``None``, ``bool``,
``int``, ``float``, ``str``, ``bytes``, ``list`` and ``dict`` with string
keys.  ``bytes`` survive the round trip via a tagged base64 wrapper: a
one-key dict ``{BYTES_TAG: base64 str}``, which is therefore not itself
a storable value (endorsement refuses it, and a tag holding anything but
a ``str`` does not decode).

It also exposes its *list syntax* (:meth:`Codec.list_affixes`), so a
caller can lay several encoded values out as one encoded list whose
elements stay individually decodable -- the framed block payload of
:mod:`repro.fabric.block` decodes either one element or the whole list
with a single :meth:`Codec.decode` call -- and its *map syntax*
(:meth:`Codec.map_affixes`), so a value encoded once can be spliced into
a map: the commit path encodes a write's value once for the block's
write segment and the state-db record.

The unsigned LEB128 varints (:func:`write_uvarint`, :func:`read_uvarint`,
:func:`read_uvarints`) frame the block payload, the WAL and SSTables.
"""

from __future__ import annotations

import binascii
import json
from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.common.errors import CodecError

#: The key of the one-key dict a ``bytes`` value is encoded as.
BYTES_TAG = "__repro_bytes__"
_encode_string = json.encoder.encode_basestring_ascii


class Codec(ABC):
    """Serialize Python values to bytes and back."""

    @abstractmethod
    def encode(self, value: Any) -> bytes:
        """Serialize ``value``; raises :class:`CodecError` on failure."""

    @abstractmethod
    def decode(self, payload: bytes) -> Any:
        """Deserialize ``payload``; raises :class:`CodecError` on failure."""

    @abstractmethod
    def list_affixes(self) -> tuple[bytes, bytes, bytes]:
        """The codec's list syntax, as ``(prefix, separator, suffix)``:
        ``prefix + separator.join(encode(x) for x in items) + suffix ==
        encode(items)``."""

    @abstractmethod
    def map_affixes(self, keys: Sequence[str]) -> list[bytes]:
        """The codec's map syntax for a map with ``keys``, in that order,
        as the ``len(keys) + 1`` pieces around its values:
        ``pieces[0] + encode(v0) + pieces[1] + ... + encode(vn) +
        pieces[n + 1] == encode(dict(zip(keys, values)))``."""


def _encode_special(value: Any) -> Any:
    if isinstance(value, bytes):
        return {BYTES_TAG: binascii.b2a_base64(value, newline=False).decode("ascii")}
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _decode_special(obj: dict) -> Any:
    """A bytes tag's value decoded by ``binascii.a2b_base64``, which is
    what ``base64.b64decode`` calls after its own ASCII check (the same
    check ``a2b_base64`` makes): the same bytes and error classes,
    without the Python wrapper.  A tag holding anything but a ``str`` is
    a ``ValueError``, so :meth:`JsonCodec.decode` raises
    :class:`CodecError` for it."""
    if len(obj) == 1 and BYTES_TAG in obj:
        text = obj[BYTES_TAG]
        if type(text) is not str:
            raise ValueError(f"a bytes tag holds a value of type {type(text).__name__}, not base64 text")
        return binascii.a2b_base64(text)
    return obj


class JsonCodec(Codec):
    """UTF-8 JSON with a tagged wrapper so ``bytes`` round-trip.

    The encoder and decoder objects are built once: handing ``default=``
    / ``object_hook=`` to ``json.dumps`` / ``json.loads`` constructs a
    fresh coder on every call, which costs more than a small payload's
    parse (the segments of a framed block, a state-db value).  The
    encoder is the C encoder ``json.JSONEncoder(default=_encode_special,
    separators=(",", ":"))`` would build on each ``encode`` call, built
    once: the same bytes without the per-call construction.  It is made
    with ``markers=None`` -- no cycle-detection dict -- so it holds no
    per-call state (a shared markers dict would keep the entries an
    exception left behind and report false cycles); a cycle ends as a
    :class:`CodecError` like any value nested too deep.

    A decode goes straight to the decoder's scanner (the C
    ``scan_once`` that ``JSONDecoder.decode`` itself calls, built once
    with the decoder): ``scan(text, 0)`` parses the value at the start,
    and when it ends exactly at the end of the text that value is the
    answer.  ``JSONDecoder.decode`` adds only a Python wrapper around
    the same call -- two whitespace regex matches and an end check --
    which costs as much as parsing a small segment.  Every other
    outcome (leading whitespace, nothing parseable at 0, anything left
    after the value, trailing whitespace included) is handed to
    ``JSONDecoder.decode``, and an error the scanner raises at 0 is the
    one ``decode`` would raise from the same call, so accepted inputs,
    values and error messages are those of ``JSONDecoder.decode``.
    """

    def __init__(self) -> None:
        self._encoder = json.encoder.c_make_encoder(
            None, _encode_special, json.encoder.encode_basestring_ascii,
            None, ":", ",", False, False, True,
        )
        decoder = json.JSONDecoder(object_hook=_decode_special)
        self._decode = decoder.decode
        self._scan = decoder.scan_once

    def encode(self, value: Any) -> bytes:
        if type(value) is str:  # a key: the encoder's spelling, without its call
            return _encode_string(value).encode("utf-8")
        try:
            return "".join(self._encoder(value, 0)).encode("utf-8")
        except (TypeError, ValueError, RecursionError) as exc:
            raise CodecError(f"JSON encode failed: {exc}") from exc

    def decode(self, payload: bytes) -> Any:
        try:
            text = payload.decode("utf-8")
            try:
                value, end = self._scan(text, 0)
                if end == len(text):
                    return value
            except StopIteration:  # no value starts at 0: let decode say why
                pass
            return self._decode(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8
            raise CodecError(f"JSON decode failed: {exc}") from exc

    def list_affixes(self) -> tuple[bytes, bytes, bytes]:
        return b"[", b",", b"]"

    def map_affixes(self, keys: Sequence[str]) -> list[bytes]:
        pieces = [b"{"]
        for index, key in enumerate(keys):
            pieces[-1] += (b"," if index else b"") + self.encode(key) + b":"
            pieces.append(b"")
        pieces[-1] += b"}"
        return pieces


# --- Varints ---------------------------------------------------------------


def write_uvarint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise CodecError(f"uvarint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(payload: bytes, offset: int) -> tuple[int, int]:
    """Read a varint from ``payload`` at ``offset``; return (value, next_offset)."""
    result = 0
    shift = 0
    try:
        while True:
            byte = payload[offset]
            offset += 1
            if byte < 0x80:
                return result | (byte << shift), offset
            result |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63 * 2:
                raise CodecError("varint too long")
    except IndexError:
        raise CodecError("truncated varint") from None


def read_uvarints(payload: bytes, offset: int, count: int) -> tuple[list[int], int]:
    """Read ``count`` consecutive varints; return (values, next_offset).

    Equal to ``count`` :func:`read_uvarint` calls, same errors, without
    a call and a tuple per value.  A framed block reads its write counts
    here only when some count needs more than one byte; otherwise the
    payload's bytes *are* the counts.
    """
    values = []
    try:
        for _ in range(count):
            byte = payload[offset]
            offset += 1
            if byte >= 0x80:
                result = byte & 0x7F
                shift = 7
                while True:
                    byte = payload[offset]
                    offset += 1
                    if byte < 0x80:
                        break
                    result |= (byte & 0x7F) << shift
                    shift += 7
                    if shift > 63 * 2:
                        raise CodecError("varint too long")
                byte = result | (byte << shift)
            values.append(byte)
    except IndexError:
        raise CodecError("truncated varint") from None
    return values, offset
