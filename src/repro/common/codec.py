"""Pluggable serialization codecs for ledger payloads.

Blocks on the simulated file system are stored as *bytes* and must be
decoded on every read -- that decode cost is the paper's central cost
driver, so it has to be real work, not a pointer copy.  Two codecs are
provided:

* :class:`JsonCodec` -- human-inspectable, the default for block storage
  (fastest decode: the parse runs in C).
* :class:`BinaryCodec` -- a compact from-scratch tag-length-value format
  (varint lengths, type tags): the smallest payloads.

Both codecs round-trip the JSON-ish value universe: ``None``, ``bool``,
``int``, ``float``, ``str``, ``bytes``, ``list`` and ``dict`` with string
keys.  ``bytes`` survive a JSON round trip via a tagged base64 wrapper.

Both also expose their *list syntax* (:meth:`Codec.list_affixes`), so a
caller can lay several encoded values out as one encoded list whose
elements stay individually decodable -- the framed block payload of
:mod:`repro.fabric.block` decodes either one element or the whole list
with a single :meth:`Codec.decode` call -- and their *map syntax*
(:meth:`Codec.map_affixes`), so a value encoded once can be spliced into
a map: the commit path encodes a write's value once for the block's
write segment and the state-db record.
"""

from __future__ import annotations

import base64
import json
import struct
from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.common.errors import CodecError

_BYTES_TAG = "__repro_bytes__"


class Codec(ABC):
    """Serialize Python values to bytes and back."""

    #: Short identifier used in file headers and configs.
    name: str = "abstract"

    @abstractmethod
    def encode(self, value: Any) -> bytes:
        """Serialize ``value``; raises :class:`CodecError` on failure."""

    @abstractmethod
    def decode(self, payload: bytes) -> Any:
        """Deserialize ``payload``; raises :class:`CodecError` on failure."""

    @abstractmethod
    def list_affixes(self, count: int) -> tuple[bytes, bytes, bytes]:
        """The codec's list syntax for ``count`` items, as ``(prefix,
        separator, suffix)``: ``prefix + separator.join(encode(x) for x
        in items) + suffix == encode(items)``."""

    @abstractmethod
    def map_affixes(self, keys: Sequence[str]) -> list[bytes]:
        """The codec's map syntax for a map with ``keys``, in that order,
        as the ``len(keys) + 1`` pieces around its values:
        ``pieces[0] + encode(v0) + pieces[1] + ... + encode(vn) +
        pieces[n + 1] == encode(dict(zip(keys, values)))``."""


def _encode_special(value: Any) -> Any:
    if isinstance(value, bytes):
        return {_BYTES_TAG: base64.b64encode(value).decode("ascii")}
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _decode_special(obj: dict) -> Any:
    if len(obj) == 1 and _BYTES_TAG in obj:
        return base64.b64decode(obj[_BYTES_TAG])
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
    exception left behind and report false cycles) and one instance
    serves every thread; a cycle ends as a :class:`CodecError` like any
    value nested too deep.

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

    name = "json"

    def __init__(self) -> None:
        self._encoder = json.encoder.c_make_encoder(
            None, _encode_special, json.encoder.encode_basestring_ascii,
            None, ":", ",", False, False, True,
        )
        decoder = json.JSONDecoder(object_hook=_decode_special)
        self._decode = decoder.decode
        self._scan = decoder.scan_once

    def encode(self, value: Any) -> bytes:
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

    def list_affixes(self, count: int) -> tuple[bytes, bytes, bytes]:
        return b"[", b",", b"]"

    def map_affixes(self, keys: Sequence[str]) -> list[bytes]:
        pieces = [b"{"]
        for index, key in enumerate(keys):
            pieces[-1] += (b"," if index else b"") + self.encode(key) + b":"
            pieces.append(b"")
        pieces[-1] += b"}"
        return pieces


# --- Binary codec ----------------------------------------------------------
#
# Layout: one type-tag byte, then a type-specific body.  Variable-length
# payloads are prefixed with an unsigned LEB128 varint length.  Containers
# are a varint count followed by the encoded items.

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT_POS = 0x03
_T_INT_NEG = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_LIST = 0x08
_T_DICT = 0x09


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


class BinaryCodec(Codec):
    """Compact tag-length-value binary encoding (no stdlib pickle)."""

    name = "binary"

    def encode(self, value: Any) -> bytes:
        out = bytearray()
        try:
            self._encode_into(value, out)
        except RecursionError:  # nested too deep, or a cycle
            raise CodecError("binary encode failed: value nested too deep") from None
        return bytes(out)

    def decode(self, payload: bytes) -> Any:
        try:
            value, offset = self._decode_from(payload, 0)
        except RecursionError:
            raise CodecError("binary decode failed: value nested too deep") from None
        if offset != len(payload):
            raise CodecError(f"trailing bytes after value: {len(payload) - offset}")
        return value

    def list_affixes(self, count: int) -> tuple[bytes, bytes, bytes]:
        prefix = bytearray((_T_LIST,))
        write_uvarint(count, prefix)
        return bytes(prefix), b"", b""

    def map_affixes(self, keys: Sequence[str]) -> list[bytes]:
        head = bytearray((_T_DICT,))
        write_uvarint(len(keys), head)
        pieces = [bytes(head)]
        for key in keys:
            raw = key.encode("utf-8")
            name = bytearray()
            write_uvarint(len(raw), name)
            pieces[-1] += bytes(name) + raw
            pieces.append(b"")
        return pieces

    def _encode_into(self, value: Any, out: bytearray) -> None:
        if value is None:
            out.append(_T_NONE)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif isinstance(value, int):
            if value >= 0:
                out.append(_T_INT_POS)
                write_uvarint(value, out)
            else:
                out.append(_T_INT_NEG)
                write_uvarint(-value, out)
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out.extend(struct.pack(">d", value))
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(_T_STR)
            write_uvarint(len(raw), out)
            out.extend(raw)
        elif isinstance(value, (bytes, bytearray)):
            out.append(_T_BYTES)
            write_uvarint(len(value), out)
            out.extend(value)
        elif isinstance(value, (list, tuple)):
            out.append(_T_LIST)
            write_uvarint(len(value), out)
            for item in value:
                self._encode_into(item, out)
        elif isinstance(value, dict):
            out.append(_T_DICT)
            write_uvarint(len(value), out)
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CodecError(
                        f"dict keys must be str, got {type(key).__name__}"
                    )
                raw = key.encode("utf-8")
                write_uvarint(len(raw), out)
                out.extend(raw)
                self._encode_into(item, out)
        else:
            raise CodecError(f"unsupported type: {type(value).__name__}")

    def _decode_from(self, payload: bytes, offset: int) -> tuple[Any, int]:
        if offset >= len(payload):
            raise CodecError("truncated payload")
        tag = payload[offset]
        offset += 1
        if tag == _T_NONE:
            return None, offset
        if tag == _T_TRUE:
            return True, offset
        if tag == _T_FALSE:
            return False, offset
        if tag == _T_INT_POS:
            return read_uvarint(payload, offset)
        if tag == _T_INT_NEG:
            value, offset = read_uvarint(payload, offset)
            return -value, offset
        if tag == _T_FLOAT:
            if offset + 8 > len(payload):
                raise CodecError("truncated float")
            (value,) = struct.unpack_from(">d", payload, offset)
            return value, offset + 8
        if tag == _T_STR:
            length, offset = read_uvarint(payload, offset)
            end = offset + length
            if end > len(payload):
                raise CodecError("truncated string")
            return payload[offset:end].decode("utf-8"), end
        if tag == _T_BYTES:
            length, offset = read_uvarint(payload, offset)
            end = offset + length
            if end > len(payload):
                raise CodecError("truncated bytes")
            return payload[offset:end], end
        if tag == _T_LIST:
            count, offset = read_uvarint(payload, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_from(payload, offset)
                items.append(item)
            return items, offset
        if tag == _T_DICT:
            count, offset = read_uvarint(payload, offset)
            result: dict[str, Any] = {}
            for _ in range(count):
                key_len, offset = read_uvarint(payload, offset)
                end = offset + key_len
                if end > len(payload):
                    raise CodecError("truncated dict key")
                key = payload[offset:end].decode("utf-8")
                item, end = self._decode_from(payload, end)
                result[key] = item
                offset = end
            return result, offset
        raise CodecError(f"unknown type tag: {tag:#04x}")


_CODECS = {codec.name: codec for codec in (JsonCodec(), BinaryCodec())}


def get_codec(name: str) -> Codec:
    """Look up a codec by its :attr:`Codec.name` (``json`` or ``binary``)."""
    try:
        return _CODECS[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_CODECS)}"
        ) from None
