"""Wiring: build a complete single-peer network in one call.

Mirrors the paper's experimental setup (Section IV-3): a single peer with
the ordering service enabled.  The network *is* that peer: it owns the
ledger and the endorser, and the orderer delivers each cut block to
``Ledger.commit_block``, then to block listeners in the order they were
registered.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.common.config import FabricConfig
from repro.common.metrics import MetricsRegistry
from repro.fabric.chaincode import Chaincode
from repro.fabric.endorser import Endorser
from repro.fabric.gateway import Gateway
from repro.fabric.identity import MSP
from repro.fabric.ledger import Ledger
from repro.fabric.orderer import SoloOrderer
from repro.faults.fs import REAL_FS, FileSystem


class FabricNetwork:
    """A single-peer Fabric network with a solo orderer.

    Example::

        network = FabricNetwork(tmp_path)
        network.install(MyChaincode())
        gateway = network.gateway("client-1")
        gateway.submit_transaction("my-cc", "put", ["k", {"v": 1}], timestamp=5)
        gateway.flush()
        assert network.ledger.get_state("k") == {"v": 1}
    """

    def __init__(
        self,
        path: str | Path,
        config: Optional[FabricConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        fs: FileSystem = REAL_FS,
    ) -> None:
        self.config = config or FabricConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.msp = MSP()
        self.ledger = Ledger(path, config=self.config, metrics=self.metrics, fs=fs)
        self.endorser = Endorser(
            identity=self.msp.enroll("peer0"), state_db=self.ledger.state_db
        )
        # The ledger builds a bare MVCC validator; commit also checks each
        # transaction's endorsement signature.
        self.ledger.rewire_validator(self.endorser.verify_endorsement)
        # Resume the chain where the (possibly reopened) ledger left off:
        # on a fresh directory this is block 0 with the genesis hash.
        self.orderer = SoloOrderer(
            self.config.block_cutting,
            next_block_number=self.ledger.height,
            previous_hash=self.ledger.last_header_hash,
        )
        self.orderer.register_consumer(self.ledger.commit_block)

    def install(self, chaincode: Chaincode) -> None:
        """Install a chaincode on the peer."""
        self.endorser.install(chaincode)

    def on_block(self, callback) -> None:
        """Register a block listener: called with every committed block.

        Listeners run *after* the peer's commit, so the block's
        per-transaction validation codes are already final.
        """
        self.orderer.register_consumer(callback)

    def gateway(self, client_name: str = "client") -> Gateway:
        """Open a gateway for ``client_name`` (enrolled on first use)."""
        return Gateway(
            endorser=self.endorser,
            orderer=self.orderer,
            identity=self.msp.enroll(client_name),
        )

    def close(self) -> None:
        self.orderer.flush()
        self.ledger.close()
