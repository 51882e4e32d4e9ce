"""Deliberately nondeterministic chaincode (repro-lint test fixture).

Every ``# expect:`` comment marks a line the analyzer must flag.
"""

import os
import random
import time
import uuid
from datetime import datetime

from repro.fabric.chaincode import Chaincode


class BadChaincode(Chaincode):
    """Commits every determinism sin CHAIN001 knows about."""

    name = "bad"

    def invoke(self, stub, fn, args):
        now = time.time()  # expect: CHAIN001
        jitter = random.random()  # expect: CHAIN001
        region = os.environ["REGION"]  # expect: CHAIN001
        tx_tag = uuid.uuid4()  # expect: CHAIN001
        stamp = datetime.now()  # expect: CHAIN001
        keys = {"a", "b", "c"}
        for key in keys:  # expect: CHAIN001
            stub.put_state(key, now)  # expect: DET002
        return [now, jitter, region, str(tx_tag), str(stamp)]


class StillBad(BadChaincode):
    """Inherits Chaincode transitively; the rule must still activate."""

    name = "still-bad"

    def invoke(self, stub, fn, args):
        seen = set(args)
        for key in seen:  # expect: CHAIN001
            stub.del_state(key)  # expect: DET002
        return sorted(seen)


class CoinFlip(Chaincode):
    """Nondeterministic *control*, deterministic value: whether the write
    happens depends on a coin toss.  CHAIN001 flags the use; DET002's
    value taint has nothing to follow into ``put_state``."""

    name = "coin-flip"

    def invoke(self, stub, fn, args):
        if random.random() < 0.5:  # expect: CHAIN001
            stub.put_state(args[0], 1)
        return []
