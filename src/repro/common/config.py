"""Typed configuration objects for the ledger simulator and query models.

Configurations are frozen dataclasses validated at construction time so a
bad parameter fails loudly at setup instead of corrupting an experiment
half way through.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.common.errors import ConfigError

#: Environment variable controlling default benchmark scale (see DESIGN.md §5).
SCALE_ENV_VAR = "REPRO_SCALE"

#: Environment variable overriding the sanitizer's replayable seed: its
#: fuzzed interleavings and the ``repro san`` CLI default.  Recorded in
#: every report those runs emit, so a red run is replayable from its
#: artifact alone: ``REPRO_SEED=<seed from the artifact> <same command>``.
SEED_ENV_VAR = "REPRO_SEED"

#: Environment variable selecting the default state-db backend
#: (``memory`` or ``lsm``, see :data:`repro.storage.kv.BACKENDS`).  The
#: CI matrix runs the suite once with ``lsm`` so tier-1 also exercises
#: the durable backend.
STATEDB_ENV_VAR = "REPRO_STATEDB"


def default_statedb_backend() -> str:
    """State-db backend name from ``REPRO_STATEDB`` (default ``memory``).

    Validation happens in :class:`StateDbConfig`, so a typo'd variable
    fails loudly at config construction.
    """
    # An *empty* variable (e.g. an unset CI matrix cell) means default.
    return os.environ.get(STATEDB_ENV_VAR) or "memory"


def _require_positive(value: int | float, name: str) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class BlockCuttingConfig:
    """How the orderer cuts transactions into blocks.

    Mirrors Fabric's ``BatchSize`` orderer configuration.  The paper runs
    Fabric v1.0 with default settings, whose ``MaxMessageCount`` is 10.
    """

    max_message_count: int = 10
    max_batch_bytes: int = 512 * 1024
    #: Logical-time batch timeout: a block is cut when the oldest queued
    #: transaction is this much older (in logical time) than the newest.
    batch_timeout: int = 0

    def __post_init__(self) -> None:
        _require_positive(self.max_message_count, "max_message_count")
        _require_positive(self.max_batch_bytes, "max_batch_bytes")
        if self.batch_timeout < 0:
            raise ConfigError(
                f"batch_timeout must be non-negative, got {self.batch_timeout}"
            )


#: Valid values for the ``durability`` knobs: ``flush`` pushes writes to
#: the OS at sync points (survives a process kill); ``fsync`` additionally
#: calls ``os.fsync`` (survives power loss, slower).
DURABILITY_LEVELS = ("flush", "fsync")


def _require_durability(value: str) -> None:
    if value not in DURABILITY_LEVELS:
        raise ConfigError(
            f"durability must be one of {DURABILITY_LEVELS}, got {value!r}"
        )


@dataclass(frozen=True)
class StateDbConfig:
    """Backing store for the state database.

    ``backend`` is ``memory`` (the in-memory reference, no durability)
    or ``lsm`` (the LevelDB stand-in); the remaining fields configure
    the ``lsm`` store and mean nothing to ``memory``.
    """

    #: One of :data:`repro.storage.kv.BACKENDS`; defaults from
    #: ``REPRO_STATEDB``.
    backend: str = field(default_factory=default_statedb_backend)
    #: Memtable flush threshold for the LSM backend, in entries.
    memtable_limit: int = 8192
    #: Number of L0 SSTables that triggers a compaction.
    compaction_trigger: int = 6
    #: ``flush`` (default) or ``fsync``: whether WAL sync points and
    #: SSTable finalization call ``os.fsync`` so acknowledged writes
    #: survive power loss, not just a process kill.
    durability: str = "flush"

    def __post_init__(self) -> None:
        # Imported lazily: config must stay importable from anywhere
        # without a cycle through the storage layer.
        from repro.storage.kv import BACKENDS

        if self.backend not in BACKENDS:
            raise ConfigError(
                f"state-db backend must be one of {sorted(BACKENDS)}, "
                f"got {self.backend!r}"
            )
        _require_positive(self.memtable_limit, "memtable_limit")
        _require_positive(self.compaction_trigger, "compaction_trigger")
        _require_durability(self.durability)


@dataclass(frozen=True)
class BlockStoreConfig:
    """Ledger block file layout."""

    #: Block files roll over once they exceed this many bytes.
    max_file_bytes: int = 4 * 1024 * 1024
    #: Codec used to serialize blocks (``json`` or ``binary``).
    codec: str = "json"
    #: Decoded-block LRU cache capacity.  0 (the default) disables caching,
    #: matching the paper's cost model where every GHFK call pays its own
    #: block deserializations.
    cache_blocks: int = 0
    #: ``flush`` (default) or ``fsync``: whether the per-commit block file
    #: and block index sync calls ``os.fsync``.
    durability: str = "flush"

    def __post_init__(self) -> None:
        _require_positive(self.max_file_bytes, "max_file_bytes")
        if self.codec not in ("json", "binary"):
            raise ConfigError(
                f"block codec must be 'json' or 'binary', got {self.codec!r}"
            )
        if self.cache_blocks < 0:
            raise ConfigError(
                f"cache_blocks must be non-negative, got {self.cache_blocks}"
            )
        _require_durability(self.durability)


def require_only(value: object, only: object, name: str) -> None:
    """Reject every value of a one-value name but the one it still has."""
    if value != only or type(value) is not type(only):
        raise ConfigError(
            f"{name} accepts only {only!r}, got {value!r}: the mechanism it "
            "selected was measured, lost and is deleted (DESIGN.md §5)"
        )


@dataclass(frozen=True)
class QueryConfig:
    """Queries run one per-key fetch at a time, one block per GHFK step.

    Both names exist only because ``benchmarks/spine/harness.py`` spells
    them; the ``benchmark`` PR that drops its kwargs deletes this class.
    """

    workers: int = 1
    ghfk_prefetch: int = 1

    def __post_init__(self) -> None:
        require_only(self.workers, 1, "QueryConfig.workers")
        require_only(self.ghfk_prefetch, 1, "QueryConfig.ghfk_prefetch")


@dataclass(frozen=True)
class CommitConfig:
    """Blocks commit serially: validate, append, apply derived state.

    Both names exist only because ``benchmarks/spine/harness.py`` spells
    them; the ``benchmark`` PR that drops its kwargs deletes this class.
    """

    workers: int = 1
    pipeline: bool = False

    def __post_init__(self) -> None:
        require_only(self.workers, 1, "CommitConfig.workers")
        require_only(self.pipeline, False, "CommitConfig.pipeline")


@dataclass(frozen=True)
class FabricConfig:
    """Top-level configuration for a simulated Fabric network."""

    block_cutting: BlockCuttingConfig = field(default_factory=BlockCuttingConfig)
    state_db: StateDbConfig = field(default_factory=StateDbConfig)
    block_store: BlockStoreConfig = field(default_factory=BlockStoreConfig)
    query: QueryConfig = field(default_factory=QueryConfig)
    commit: CommitConfig = field(default_factory=CommitConfig)
    #: Channel name (cosmetic, appears in block headers).
    channel: str = "supply-chain"
    #: How many times a gateway re-endorses and resubmits a transaction
    #: that commits with ``MVCC_READ_CONFLICT``.  0 (the default) keeps
    #: Fabric's raw behaviour: the conflicted transaction stays in the
    #: block, invalidated, and the client sees it via the submit result.
    max_retries: int = 0
    #: Base delay (seconds) of the gateway's bounded exponential backoff
    #: between retries: attempt ``n`` sleeps ``base * 2**(n-1)``, capped
    #: at ``retry_backoff_cap``.
    retry_backoff_base: float = 0.01
    retry_backoff_cap: float = 0.5
    #: Jitter fraction of the backoff delay (0 = none).  Jitter is drawn
    #: from a ``random.Random(retry_backoff_seed)``, so the delay
    #: schedule is deterministic for a given seed -- retry tests replay
    #: exactly instead of being timing-flaky.
    retry_backoff_jitter: float = 0.0
    retry_backoff_seed: int = 0

    def __post_init__(self) -> None:
        if not self.channel:
            raise ConfigError("channel name must be non-empty")
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.retry_backoff_base < 0 or self.retry_backoff_cap < 0:
            raise ConfigError("retry backoff values must be non-negative")
        if not 0.0 <= self.retry_backoff_jitter < 1.0:
            raise ConfigError(
                f"retry_backoff_jitter must be in [0, 1), got "
                f"{self.retry_backoff_jitter}"
            )


def repro_seed(default: int) -> int:
    """The run's replay seed: ``REPRO_SEED`` when set, else ``default``.

    The sanitizer (fuzzed sessions, ``repro san``) resolves its seed
    through this one helper and records the resolved value in its
    output, so any failure is replayable by exporting the recorded seed
    and re-running the same command.
    """
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def default_scale() -> float:
    """Benchmark scale factor from ``REPRO_SCALE`` (default 0.1).

    At scale ``s``, per-key event counts and ``t_max`` are both multiplied
    by ``s`` so interval geometry (index interval length ``u``, query window
    width) scales consistently.  ``REPRO_SCALE=1`` reproduces the paper's
    full-size datasets.
    """
    raw = os.environ.get(SCALE_ENV_VAR, "0.1")
    try:
        scale = float(raw)
    except ValueError:
        raise ConfigError(f"{SCALE_ENV_VAR} must be a float, got {raw!r}") from None
    if scale <= 0 or scale > 1:
        raise ConfigError(f"{SCALE_ENV_VAR} must be in (0, 1], got {scale}")
    return scale
