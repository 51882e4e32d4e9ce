"""Unit and property tests for the serialization codec and its varints."""

from __future__ import annotations

import base64
from typing import Any, Callable

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.codec import JsonCodec, read_uvarint, read_uvarints, write_uvarint
from repro.common.errors import CodecError

CODECS = [JsonCodec()]
CODEC_IDS = ["json"]


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
class TestRoundTrip:
    def test_scalars(self, codec):
        for value in (None, True, False, 0, 1, -1, 2**40, -(2**40), 0.5, -3.25):
            assert codec.decode(codec.encode(value)) == value

    def test_strings(self, codec):
        for value in ("", "plain", "uniçode ☃", "with\nnewlines\t"):
            assert codec.decode(codec.encode(value)) == value

    def test_bytes(self, codec):
        for value in (b"", b"\x00\x01\xff", bytes(range(256))):
            assert codec.decode(codec.encode(value)) == value

    def test_nested_containers(self, codec):
        value = {
            "list": [1, "two", None, [3.5, {"deep": True}]],
            "empty": {},
            "blob": b"\x00binary\xff",
        }
        assert codec.decode(codec.encode(value)) == value

    def test_tuple_encodes_as_list(self, codec):
        assert codec.decode(codec.encode((1, 2))) == [1, 2]

    def test_decode_is_deterministic(self, codec):
        value = {"a": [1, 2, 3], "b": "x"}
        assert codec.encode(value) == codec.encode(value)

    def test_unsupported_type_raises(self, codec):
        with pytest.raises(CodecError):
            codec.encode({"bad": object()})

    def test_garbage_decode_raises(self, codec):
        with pytest.raises(CodecError):
            codec.decode(b"\xff\xfe\x00garbage that is not valid")


class TestUvarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_round_trip(self, value):
        out = bytearray()
        write_uvarint(value, out)
        decoded, offset = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            write_uvarint(-1, bytearray())

    def test_truncated_rejected(self):
        out = bytearray()
        write_uvarint(300, out)
        with pytest.raises(CodecError):
            read_uvarint(bytes(out[:-1]), 0)


class TestUvarintTable:
    """``read_uvarints`` is ``count`` successive ``read_uvarint`` calls."""

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=2**63),
                st.sampled_from([0, 127, 128, 16_383, 16_384, 2**63]),
            ),
            max_size=40,
        ),
        st.binary(max_size=3),
        st.binary(max_size=3),
    )
    def test_equals_successive_single_reads(self, values, before, after):
        table = bytearray(before)
        for value in values:
            write_uvarint(value, table)
        payload = bytes(table) + after
        expected, offset = [], len(before)
        for _ in values:
            value, offset = read_uvarint(payload, offset)
            expected.append(value)
        assert read_uvarints(payload, len(before), len(values)) == (expected, offset)
        assert expected == values
        assert offset == len(payload) - len(after)

    @pytest.mark.parametrize("value", [127, 128, 16_384, 2**63])
    def test_truncated_table_is_a_codec_error(self, value):
        table = bytearray()
        for _ in range(3):
            write_uvarint(value, table)
        for cut in range(len(table)):
            with pytest.raises(CodecError, match="truncated varint"):
                read_uvarints(bytes(table[:cut]), 0, 3)
        with pytest.raises(CodecError, match="truncated varint"):
            read_uvarints(bytes(table), 0, 4)  # count past the end
        with pytest.raises(CodecError, match="truncated varint"):
            read_uvarints(bytes(table), len(table) + 5, 1)  # offset past it

    def test_over_long_varint_rejected_like_the_single_reader(self):
        # 18 continuation bytes is the longest accepted, 19 is too long,
        # in both readers.
        longest = b"\x80" * 18 + b"\x01"
        assert read_uvarints(b"\x05" + longest, 0, 2) == (
            [5, read_uvarint(longest, 0)[0]],
            1 + len(longest),
        )
        too_long = b"\x80" * 19 + b"\x01"
        for reader in (
            lambda: read_uvarint(too_long, 0),
            lambda: read_uvarints(b"\x05" + too_long, 0, 2),
        ):
            with pytest.raises(CodecError, match="varint too long"):
                reader()

    def test_zero_count_reads_nothing(self):
        assert read_uvarints(b"", 0, 0) == ([], 0)
        assert read_uvarints(b"\xff", 1, 0) == ([], 1)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(value=json_values)
def test_json_codec_round_trip_property(value):
    codec = JsonCodec()
    assert codec.decode(codec.encode(value)) == value


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
@given(items=st.lists(json_values, max_size=6))
def test_list_affixes_spell_the_encoded_list(codec, items):
    """The identity the framed block payload rests on: elements encoded
    one by one and joined with the affixes *are* the encoded list, so the
    whole decodes in one call and each element decodes from its slice."""
    prefix, separator, suffix = codec.list_affixes()
    joined = prefix + separator.join(codec.encode(item) for item in items) + suffix
    assert joined == codec.encode(items)
    assert codec.decode(joined) == [codec.decode(codec.encode(item)) for item in items]


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
@given(record=st.dictionaries(st.text(max_size=4), json_values, max_size=4))
def test_map_affixes_spell_the_encoded_map(codec, record):
    """Values encoded one by one and placed between the map's pieces *are*
    the encoded map: how the commit path splices a write's value, encoded
    once, into its state-db record."""
    pieces = codec.map_affixes(list(record))
    assert len(pieces) == len(record) + 1
    spliced = pieces[0] + b"".join(
        codec.encode(value) + piece for value, piece in zip(record.values(), pieces[1:])
    )
    assert spliced == codec.encode(record)


# -- the JSON encoder built once ---------------------------------------------

#: The codec's value universe with what plain ``json_values`` leaves out:
#: any float (``inf``, ``nan``, ``-0.0``), any text (non-ASCII, control
#: characters) and ints past 2**53.
encodable = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=25,
)


@given(value=encodable)
def test_json_encoder_built_once_spells_what_a_fresh_encoder_spells(value):
    """Byte for byte the output of ``json.JSONEncoder(default=...,
    separators=(",", ":"))``, which the codec used to build per call."""
    import json

    from repro.common.codec import _encode_special

    fresh = json.JSONEncoder(default=_encode_special, separators=(",", ":"))
    assert JsonCodec().encode(value) == fresh.encode(value).encode("utf-8")


# -- the decoder's scanner fast path is JSONDecoder.decode ----------------------


def reference_decode(payload: bytes) -> Any:
    """``JsonCodec.decode`` before the scanner fast path: the decoder's
    ``decode`` on every payload, errors mapped the same way."""
    import json

    from repro.common.codec import _decode_special

    try:
        return json.JSONDecoder(object_hook=_decode_special).decode(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CodecError(f"JSON decode failed: {exc}") from exc


def outcome(decode: Callable[[bytes], Any], payload: bytes) -> tuple[str, str]:
    """A decode's value or its CodecError message; ``repr`` tells ``1``
    from ``1.0`` and ``True`` and makes ``nan`` equal to itself."""
    try:
        return "value", repr(decode(payload))
    except CodecError as exc:
        return "error", str(exc)


@given(
    value=encodable,
    before=st.sampled_from([b"", b" ", b"\n\t "]),
    after=st.sampled_from([b"", b" ", b"\r\n", b"x", b"]", b",1", b"[2]", b"\xff"]),
)
def test_json_decode_is_the_decoders_decode(value, before, after):
    codec = JsonCodec()
    payload = codec.encode(value)
    assert repr(codec.decode(payload)) == repr(reference_decode(payload))
    padded = before + payload + after
    assert outcome(codec.decode, padded) == outcome(reference_decode, padded)


@pytest.mark.parametrize(
    "payload, kind",
    [
        (b"[1] ", "value"),
        (b" [1]", "value"),
        (b"[1]x", "error"),
        (b"[1][2]", "error"),
        (b"", "error"),
        (b"  ", "error"),
        (b"]", "error"),
        (b"[1, \xff]", "error"),
        (b"\xc3(", "error"),
        (b"NaN", "value"),
        (b"[Infinity,-Infinity]", "value"),
        (b"[" * 5_000 + b"]" * 5_000, "error"),
    ],
    ids=["trailing-space", "leading-space", "trailing-garbage", "two-values", "empty",
         "blank", "lone-bracket", "bad-utf8", "bad-utf8-start", "nan", "infinities",
         "deep"],
)
def test_json_decode_table(payload, kind):
    """Each input gives the reference decode's value, or a CodecError
    with its message."""
    got = outcome(JsonCodec().decode, payload)
    assert got == outcome(reference_decode, payload)
    assert got[0] == kind, got


# -- values too deep to code are a CodecError, not a RecursionError ------------

DEPTH = 5_000


def nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
class TestRecursionIsACodecError:
    def test_deep_encode(self, codec):
        with pytest.raises(CodecError):
            codec.encode(nested(DEPTH))

    def test_deep_decode(self, codec):
        payload = b"[" * DEPTH + b"]" * DEPTH
        with pytest.raises(CodecError):
            codec.decode(payload)

    def test_cyclic_encode(self, codec):
        cycle: list = []
        cycle.append({"again": cycle})
        with pytest.raises(CodecError):
            codec.encode(cycle)
        # The codec is still usable, and still stateless, afterwards.
        assert codec.decode(codec.encode([[1], {"k": b"v"}])) == [[1], {"k": b"v"}]


# -- a bytes tag decodes as base64.b64decode would -----------------------------


def _b64decode_outcome(decode: Callable[[Any], Any], text: str) -> tuple[str, Any]:
    """The decoded bytes, or the class of the error raised."""
    try:
        return "value", decode(text)
    except Exception as exc:  # the class is what is compared
        return "error", type(exc)


_BASE64_TEXT = st.binary(max_size=24).map(lambda raw: base64.b64encode(raw).decode("ascii"))

tag_texts = st.one_of(
    _BASE64_TEXT,  # valid
    _BASE64_TEXT.map(lambda text: text.rstrip("=")),  # unpadded
    st.text(alphabet="AZaz09+/=-_ \n.!", max_size=16),  # malformed, ASCII
    st.text(min_size=1, max_size=8).map(lambda text: text + "é"),  # non-ASCII
    _BASE64_TEXT.map(lambda text: "ÿ" + text),
)


@given(text=tag_texts)
def test_a_bytes_tag_decodes_as_b64decode_does(text):
    """The decode hook calls ``binascii.a2b_base64`` directly: the same
    value, or the same error class, as ``base64.b64decode`` on every tag
    text -- and through the codec that error is a :class:`CodecError`."""
    from repro.common.codec import BYTES_TAG, _decode_special

    expected = _b64decode_outcome(base64.b64decode, text)
    assert _b64decode_outcome(lambda held: _decode_special({BYTES_TAG: held}), text) == expected
    payload = JsonCodec().encode({BYTES_TAG: text})
    if expected[0] == "value":
        assert JsonCodec().decode(payload) == expected[1]
    else:
        with pytest.raises(CodecError):
            JsonCodec().decode(payload)
