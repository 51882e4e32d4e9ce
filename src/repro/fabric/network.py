"""Wiring: build a complete single-peer network in one call.

Mirrors the paper's experimental setup (Section IV-3): a single peer with
the ordering service enabled.  The orderer delivers cut blocks straight to
the peer's commit path, then to committing peers joined with
``add_peer`` and to block / chaincode-event listeners in the order they
were registered.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.common.config import FabricConfig
from repro.common.metrics import MetricsRegistry
from repro.fabric.chaincode import Chaincode
from repro.fabric.gateway import Gateway
from repro.fabric.identity import MSP
from repro.fabric.orderer import SoloOrderer
from repro.fabric.peer import Peer
from repro.faults.fs import REAL_FS, FileSystem


class FabricNetwork:
    """A single-peer Fabric network with a solo orderer.

    Example::

        network = FabricNetwork(tmp_path)
        network.install(MyChaincode())
        gateway = network.gateway("client-1")
        gateway.submit_transaction("my-cc", "put", ["k", {"v": 1}], timestamp=5)
        gateway.flush()
        assert network.peer.ledger.get_state("k") == {"v": 1}
    """

    def __init__(
        self,
        path: str | Path,
        config: Optional[FabricConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        verify_signatures: bool = True,
        fs: FileSystem = REAL_FS,
    ) -> None:
        self.config = config or FabricConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._path = Path(path)
        self._verify_signatures = verify_signatures
        self._fs = fs
        self.msp = MSP()
        peer_identity = self.msp.enroll("peer0")
        self.peer = Peer(
            self._path,
            identity=peer_identity,
            config=self.config,
            metrics=self.metrics,
            verify_signatures=verify_signatures,
            fs=fs,
        )
        self.peers = {"peer0": self.peer}
        # Resume the chain where the (possibly reopened) ledger left off:
        # on a fresh directory this is block 0 with the genesis hash.
        self.orderer = SoloOrderer(
            self.config.block_cutting,
            next_block_number=self.peer.ledger.height,
            previous_hash=self.peer.ledger.last_header_hash,
        )
        self.orderer.register_consumer(self.peer.commit)

    def add_peer(self, name: str) -> Peer:
        """Join a committing peer to the channel.

        The new peer gets its own ledger directory, catches up on every
        block already committed (Fabric's state transfer), then receives
        future blocks from the orderer like any other committer.  It
        verifies endorsements with the endorsing peer's check, since
        endorsement signatures are bound to ``peer0``'s identity.
        """
        if name in self.peers:
            raise ValueError(f"peer {name!r} already exists")
        identity = self.msp.enroll(name)
        peer = Peer(
            self._path / "peers" / name,
            identity=identity,
            config=self.config,
            metrics=MetricsRegistry(),
            verify_signatures=self._verify_signatures,
            signature_check=self.peer.endorser.verify_endorsement,
            fs=self._fs,
        )
        peer.sync_from(self.peer.ledger)
        self.orderer.register_consumer(peer.commit)
        self.peers[name] = peer
        return peer

    def install(self, chaincode: Chaincode) -> None:
        """Install a chaincode on the peer."""
        self.peer.install_chaincode(chaincode)

    def on_block(self, callback) -> None:
        """Register a block listener: called with every committed block.

        Listeners run *after* the peer's commit, so the block's
        per-transaction validation codes are already final.
        """
        self.orderer.register_consumer(callback)

    def on_chaincode_event(self, chaincode_name: str, callback) -> None:
        """Register a chaincode-event listener.

        ``callback(tx, event_name, payload)`` fires for every event set
        by a *valid* transaction of ``chaincode_name`` (events of
        invalidated transactions are dropped, as in Fabric).
        """
        from repro.fabric.block import VALID

        def deliver(block) -> None:
            for tx in block.transactions:
                if (
                    tx.validation_code == VALID
                    and tx.chaincode == chaincode_name
                    and tx.event_name
                ):
                    callback(tx, tx.event_name, tx.event_payload)

        self.orderer.register_consumer(deliver)

    def gateway(self, client_name: str = "client", **overrides) -> Gateway:
        """Open a gateway for ``client_name`` (enrolled on first use).

        Keyword ``overrides`` replace the config-derived retry settings
        for this one gateway -- e.g. ``max_retries`` or an injectable
        ``sleep`` so tests can observe backoff without waiting.
        """
        identity = self.msp.enroll(client_name)
        kwargs = {
            "max_retries": self.config.max_retries,
            "backoff_base": self.config.retry_backoff_base,
            "backoff_cap": self.config.retry_backoff_cap,
            "backoff_jitter": self.config.retry_backoff_jitter,
            "backoff_seed": self.config.retry_backoff_seed,
        }
        kwargs.update(overrides)
        return Gateway(
            peer=self.peer,
            orderer=self.orderer,
            identity=identity,
            **kwargs,
        )

    @property
    def ledger(self):
        """The peer's ledger (query entry point)."""
        return self.peer.ledger

    def close(self) -> None:
        self.orderer.flush()
        for peer in self.peers.values():
            peer.close()

    def __enter__(self) -> "FabricNetwork":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
