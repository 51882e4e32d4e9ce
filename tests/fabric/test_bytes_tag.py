"""The codec's bytes tag is not a storable value.

``bytes`` are stored as the one-key dict ``{BYTES_TAG: base64 text}``.
A chaincode value spelled the same way used to commit and then either
read back as ``bytes`` or wedge the ledger: with a non-``str`` tag value
every later ``get_state``, GHFK and reopen raised a raw ``TypeError``.
Endorsement now refuses such a value, and the decoder refuses a tag it
cannot read with :class:`CodecError`.
"""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common.codec import BYTES_TAG, JsonCodec
from repro.common.config import FabricConfig, StateDbConfig
from repro.common.errors import ChaincodeError, CodecError
from repro.fabric.block import RWSet, Transaction
from repro.fabric.network import FabricNetwork
from tests.helpers import KeyValueChaincode

#: One-key dicts keyed by the tag, whatever they hold.
TAGGED = [{BYTES_TAG: 5}, {BYTES_TAG: "abc"}, {BYTES_TAG: "AP8="}, {BYTES_TAG: None}]


def signed(value=None, event=None) -> Transaction:
    rw_set = RWSet()
    rw_set.add_write("k", value)
    return Transaction(
        tx_id="tx-1", chaincode="cc", creator="alice", timestamp=1,
        rw_set=rw_set, event_name="e" if event is not None else "", event_payload=event,
    )


class _EventingChaincode:
    name = "eventing"

    def invoke(self, stub, fn, args):
        key, value, payload = args
        stub.put_state(key, value)
        stub.set_event("written", payload)
        return value


class TestDecode:
    @pytest.mark.parametrize("held", [5, None, True, 1.5, [1], {"a": 1}])
    def test_a_tag_holding_anything_but_text_is_a_codec_error(self, held):
        payload = JsonCodec().encode({BYTES_TAG: held})
        with pytest.raises(CodecError, match="bytes tag holds"):
            JsonCodec().decode(payload)
        with pytest.raises(CodecError):
            JsonCodec().decode(b"[1, " + payload + b"]")

    def test_a_tag_beside_other_keys_is_a_plain_dict(self):
        value = {BYTES_TAG: 5, "x": 1}
        assert JsonCodec().decode(JsonCodec().encode(value)) == value


class TestSigning:
    @pytest.mark.parametrize("tagged", TAGGED, ids=["int", "malformed", "base64", "null"])
    @pytest.mark.parametrize("where", ["write", "nested", "in-tuple", "event", "nested-event"])
    def test_a_tagged_value_raises_chaincode_error(self, tagged, where):
        value = {
            "write": tagged,
            "nested": {"a": [1, {"b": tagged}]},
            "in-tuple": (1, tagged),
        }.get(where, "plain")
        event = {"event": tagged, "nested-event": [tagged]}.get(where)
        with pytest.raises(ChaincodeError, match="how the codec stores bytes"):
            signed(value, event).signable_payload()

    @pytest.mark.parametrize(
        "value",
        [
            BYTES_TAG,
            {"x": BYTES_TAG},
            {BYTES_TAG: 5, "x": 1},
            [BYTES_TAG, {"k": 1}],
            f'"{BYTES_TAG}"',
            b"\x00\xff",
        ],
        ids=["text", "as-value", "beside-a-key", "list", "quoted-text", "bytes"],
    )
    def test_the_tag_as_text_or_beside_a_key_is_signed(self, value):
        assert signed(value, event=value).signable_payload()

    def test_a_key_spelled_as_the_tag_is_signed(self):
        rw_set = RWSet()
        rw_set.add_write(BYTES_TAG, {"v": 1})
        tx = Transaction(tx_id="t", chaincode="cc", creator="c", timestamp=0, rw_set=rw_set)
        assert BYTES_TAG.encode() in tx.signable_payload()


@pytest.mark.parametrize("backend", ["memory", "lsm"])
class TestNoWedge:
    def test_a_tagged_value_is_refused_and_the_ledger_stays_open(self, tmp_path, backend):
        """The values that wedged the ledger are refused at submit: the
        height does not move, the next submit commits, and the ledger
        reopens with every read working."""
        config = FabricConfig(state_db=StateDbConfig(backend=backend))
        with closing(FabricNetwork(tmp_path, config=config)) as network:
            network.install(KeyValueChaincode())
            network.install(_EventingChaincode())
            gateway = network.gateway("writer")
            for timestamp, tagged in enumerate(TAGGED, start=1):
                with pytest.raises(ChaincodeError, match="how the codec stores bytes"):
                    gateway.submit_transaction("kv", "put", ["a", tagged], timestamp=timestamp)
                with pytest.raises(ChaincodeError, match="how the codec stores bytes"):
                    gateway.submit_transaction(
                        "eventing", "put", ["a", 1, {"p": tagged}], timestamp=timestamp
                    )
                gateway.flush()
                assert network.ledger.height == 0
            gateway.submit_transaction("kv", "put", ["b", {BYTES_TAG: 5, "x": 1}], timestamp=9)
            gateway.submit_transaction("kv", "put", ["c", b"\x00\xff"], timestamp=10)
            gateway.flush()
            assert network.ledger.height >= 1
        with closing(FabricNetwork(tmp_path, config=config)) as network:
            ledger = network.ledger
            assert ledger.get_state("a") is None
            assert ledger.get_state("b") == {BYTES_TAG: 5, "x": 1}
            assert ledger.get_state("c") == b"\x00\xff"
            assert [entry.value for entry in ledger.get_history_for_key("c")] == [b"\x00\xff"]
            ledger.verify_chain()
