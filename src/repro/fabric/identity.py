"""MSP-style identities for the simulated network.

Fabric is a *permissioned* platform: every proposal and endorsement is
signed by a member of a membership service provider (MSP).  The simulator
keeps a registry of identities with shared-secret keys; endorsers sign
responses and the committing peer verifies them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.fabric import crypto


@dataclass(frozen=True)
class Identity:
    """One network member (client, peer, or orderer)."""

    name: str
    msp_id: str
    secret: bytes = field(repr=False, default=b"")
    #: ``secret`` keyed once, so a signature does not re-key HMAC.
    _key: crypto.HmacKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", crypto.HmacKey(self.secret))

    def sign(self, payload: bytes) -> bytes:
        """HMAC-SHA256 signature of ``payload`` under this identity's secret."""
        return self._key.sign(payload)

    def verify(self, payload: bytes, signature: object) -> bool:
        """Whether ``signature`` is this identity's over ``payload``; one
        that is not ``bytes`` is not."""
        return self._key.verify(payload, signature)


class MSP:
    """A minimal membership service provider: a named identity registry."""

    def __init__(self, msp_id: str = "Org1MSP") -> None:
        self.msp_id = msp_id
        self._identities: dict[str, Identity] = {}

    def enroll(self, name: str) -> Identity:
        """Create (or return) the identity ``name`` with a fresh secret."""
        if name in self._identities:
            return self._identities[name]
        identity = Identity(name=name, msp_id=self.msp_id, secret=os.urandom(16))
        self._identities[name] = identity
        return identity
