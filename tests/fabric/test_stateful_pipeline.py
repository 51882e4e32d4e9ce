"""Stateful property test: the full transaction pipeline vs a model.

A hypothesis rule-based state machine drives random puts, deletes and
flushes through the real endorse/order/validate/commit pipeline,
checking after every step that the ledger's visible state matches a
plain dict model and that its chain verifies.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.common.config import BlockCuttingConfig, FabricConfig
from repro.fabric.network import FabricNetwork
from tests.helpers import KeyValueChaincode

KEYS = [f"key-{i}" for i in range(6)]
VALUES = st.one_of(
    st.integers(-100, 100), st.text(max_size=8), st.none(), st.booleans()
)


class PipelinePropertyMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="repro-stateful-")
        self.network = FabricNetwork(
            self.workdir,
            config=FabricConfig(block_cutting=BlockCuttingConfig(max_message_count=3)),
        )
        self.network.install(KeyValueChaincode())
        self.gateway = self.network.gateway("machine")
        self.model: dict = {}
        #: Writes submitted but possibly not yet committed (pending batch).
        self.pending: dict = {}
        self.timestamp = 0

    @initialize()
    def start(self) -> None:
        pass

    def _next_timestamp(self) -> int:
        self.timestamp += 1
        return self.timestamp

    @rule(key=st.sampled_from(KEYS), value=VALUES)
    def put(self, key, value) -> None:
        self.gateway.submit_transaction(
            "kv", "put", [key, value], timestamp=self._next_timestamp()
        )
        self.pending[key] = ("put", value)

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key) -> None:
        self.gateway.submit_transaction(
            "kv", "delete", [key], timestamp=self._next_timestamp()
        )
        self.pending[key] = ("delete", None)

    @rule()
    def flush(self) -> None:
        self.gateway.flush()
        for key, (op, value) in self.pending.items():
            if op == "put":
                self.model[key] = value
            else:
                self.model.pop(key, None)
        self.pending.clear()

    @invariant()
    def committed_state_matches_model(self) -> None:
        # Only committed (flushed) writes are visible; pending ones are
        # not, because blocks cut at batch boundaries may have applied a
        # *prefix* of pending writes -- so only check when nothing pends.
        if self.pending:
            return
        for key in KEYS:
            expected = self.model.get(key)
            assert self.network.ledger.get_state(key) == expected, key

    @invariant()
    def chain_verifies(self) -> None:
        self.network.ledger.verify_chain()

    def teardown(self) -> None:
        self.network.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


PipelinePropertyMachine.TestCase.settings = settings(max_examples=15, stateful_step_count=25)
TestPipelineProperties = PipelinePropertyMachine.TestCase
