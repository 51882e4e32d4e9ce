"""Span tracing installed from outside the program.

The spine times the layers of ``repro`` without editing them: each seam
below names a *public* callable, and :func:`install` replaces it with a
wrapper that records one span per call.  :func:`uninstall` puts the
originals back.  Untraced runs never import this module.

A span is ``(name, start, end, parent, root)``: ``parent`` is the span
that was open when this one started, ``root`` the outermost open span.
Self time is duration minus the part covered by child spans.  Spans live
in memory; :meth:`Recorder.end_round` folds a round into per-name totals
(scaled to the harness's reference speed, region by region) and, when
asked, keeps the raw spans for a JSON-lines dump.

To add a seam: append a :class:`Seam` to :data:`SEAMS` (``kind="iter"``
when the callable returns a lazy iterator whose work happens in
``__next__``), then derive a metric from its name in
``layers.round_values`` and declare it in ``spec.PER_LAYER`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``value(args, result) -> number`` accumulated per span name, so ratios
#: are measured where the work happens.
ValueHook = Callable[[tuple, Any], float]


@dataclass(frozen=True)
class Seam:
    span: str
    #: ``"package.module:Owner.attr"`` or ``"package.module:function"``.
    target: str
    #: ``call`` | ``iter`` (span wraps the call and every ``__next__``).
    kind: str = "call"
    #: Patch every direct subclass of the owner that defines the attribute.
    subclasses: bool = False
    value: Optional[ValueHook] = None


def _len_result(_args: tuple, result: Any) -> float:
    return len(result)


def _len_payload(args: tuple, _result: Any) -> float:
    return len(args[-1])


SEAMS: Tuple[Seam, ...] = (
    Seam("engine.run_join", "repro.temporal.engine:TemporalQueryEngine.run_join"),
    Seam("tqf.list_keys", "repro.temporal.tqf:TQFEngine.list_keys"),
    Seam("m1.list_keys", "repro.temporal.m1:M1QueryEngine.list_keys"),
    Seam("m2.list_keys", "repro.temporal.m2:M2QueryEngine.list_keys"),
    Seam("tqf.fetch_events", "repro.temporal.tqf:TQFEngine.fetch_events", value=_len_result),
    Seam("m1.fetch_events", "repro.temporal.m1:M1QueryEngine.fetch_events", value=_len_result),
    Seam("m2.fetch_events", "repro.temporal.m2:M2QueryEngine.fetch_events", value=_len_result),
    # The engine binds the join by name at import, so patch its reference.
    Seam("join.temporal_join", "repro.temporal.engine:temporal_join", value=_len_result),
    Seam("historydb.ghfk_iter", "repro.fabric.historydb:HistoryDB.get_history_for_key", kind="iter"),
    Seam("historydb.index_block", "repro.fabric.historydb:HistoryDB.index_block"),
    Seam("blockstore.get_block", "repro.fabric.blockstore:BlockStore.get_block"),
    Seam("blockstore.add_block", "repro.fabric.blockstore:BlockStore.add_block"),
    Seam("blockstore.sync", "repro.fabric.blockstore:BlockStore.sync"),
    Seam("blockfile.read", "repro.storage.blockfile:BlockFileManager.read"),
    Seam("blockfile.append", "repro.storage.blockfile:BlockFileManager.append", value=_len_payload),
    Seam("codec.decode", "repro.common.codec:Codec.decode", subclasses=True, value=_len_payload),
    Seam("codec.encode", "repro.common.codec:Codec.encode", subclasses=True, value=_len_result),
    Seam("block.from_dict", "repro.fabric.block:Block.from_dict",
         value=lambda _args, block: len(block.transactions)),
    Seam("block.to_dict", "repro.fabric.block:Block.to_dict"),
    Seam("gateway.submit", "repro.fabric.gateway:Gateway.submit_transaction"),
    Seam("gateway.flush", "repro.fabric.gateway:Gateway.flush"),
    Seam("endorser.endorse", "repro.fabric.endorser:Endorser.endorse"),
    Seam("orderer.cut", "repro.fabric.orderer:SoloOrderer.cut_block",
         value=lambda _args, block: 0 if block is None else 1),
    Seam("validator.validate_block", "repro.fabric.validator:Validator.validate_block"),
    Seam("ledger.commit_block", "repro.fabric.ledger:Ledger.commit_block"),
    Seam("ledger.verify_data_hash", "repro.fabric.block:Block.verify_data_hash"),
    Seam("statedb.get_state", "repro.fabric.statedb:StateDB.get_state"),
    Seam("statedb.range_scan", "repro.fabric.statedb:StateDB.get_state_by_range", kind="iter"),
    Seam("statedb.apply_write", "repro.fabric.statedb:StateDB.apply_write"),
    Seam("m1_indexer.run", "repro.temporal.m1:M1Indexer.run",
         value=lambda _args, report: report.indexes_written),
    Seam("m2_base.get_state_base", "repro.temporal.m2:BaseAccessAPI.get_state_base",
         value=lambda _args, result: result.probes),
    Seam("m2_base.ghfk_base", "repro.temporal.m2:BaseAccessAPI.ghfk_base", kind="iter"),
    Seam("network.open", "repro.fabric.network:FabricNetwork.__init__"),
    Seam("network.close", "repro.fabric.network:FabricNetwork.close"),
)


@dataclass
class NameTotals:
    """One span name's totals over a round."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    value: float = 0.0
    durations: List[float] = field(default_factory=list)


@dataclass
class RootTotals:
    """The root spans one timed operation opened over a round."""

    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


@dataclass
class RoundTotals:
    by_name: Dict[str, NameTotals]
    #: Per operation label: name -> [count, total_s, self_s].
    by_op: Dict[str, Dict[str, List[float]]]
    roots_by_op: Dict[str, RootTotals]

    def get(self, name: str) -> NameTotals:
        return self.by_name.get(name) or NameTotals()

    def coverage(self, op: Optional[str] = None) -> float:
        """Share of root-span time attributed to spans below the roots."""
        roots = list(self.roots_by_op.values()) if op is None else (
            [self.roots_by_op[op]] if op in self.roots_by_op else []
        )
        duration = sum(root.total_s for root in roots)
        if duration <= 0.0:
            return 0.0
        return 1.0 - sum(root.self_s for root in roots) / duration


class Recorder:
    """In-memory span store with one open-span stack (single-threaded)."""

    def __init__(self, keep_spans: bool = False) -> None:
        self._keep = keep_spans
        self._name_ids: Dict[str, int] = {}
        self._names: List[str] = []
        self._values: List[float] = []
        self._stack: List[int] = []
        #: Operation label stamped on every root span of the open region.
        self._op = ""
        #: While paused (the default) wrappers record nothing, so the
        #: benchmark's own untimed checks stay out of the trace.
        self._paused = True
        self.kept: List[dict] = []
        self._reset_arrays()

    def _reset_arrays(self) -> None:
        self._span_name: List[int] = []
        self._start: List[float] = []
        self._end: List[float] = []
        self._child: List[float] = []
        self._parent: List[int] = []
        self._root: List[int] = []
        self._root_op: Dict[int, str] = {}
        #: Per span, the speed factor of the timed region it was recorded in.
        self._scale: List[float] = []

    def intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self._names)
            self._name_ids[name] = name_id
            self._names.append(name)
            self._values.append(0.0)
        return name_id

    def begin_region(self, op: str) -> None:
        """Start recording; root spans opened from now on belong to ``op``."""
        self._op = op
        self._paused = False

    def pause(self) -> None:
        self._paused = True

    def scale_region(self, speed: float) -> None:
        """Scale every span recorded since the last call by ``speed``
        (the harness's reference-speed factor for that region)."""
        self._scale.extend([speed] * (len(self._span_name) - len(self._scale)))

    def open(self, name_id: int) -> int:
        if self._paused:
            return -1
        index = len(self._span_name)
        stack = self._stack
        if stack:
            parent = stack[-1]
            root = self._root[parent]
        else:
            parent = -1
            root = index
            self._root_op[index] = self._op
        self._span_name.append(name_id)
        self._parent.append(parent)
        self._root.append(root)
        self._child.append(0.0)
        self._end.append(0.0)
        stack.append(index)
        self._start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        end = perf_counter()
        if index < 0:
            return
        self._stack.pop()
        self._end[index] = end
        parent = self._parent[index]
        if parent >= 0:
            self._child[parent] += end - self._start[index]

    def add_value(self, name_id: int, amount: float) -> None:
        self._values[name_id] += amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (e.g. one base-call batch)."""
        index = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(index)

    def end_round(self) -> RoundTotals:
        """Fold every span recorded since the last call into totals."""
        if self._stack:
            raise RuntimeError("end_round() with spans still open")
        self.scale_region(1.0)  # spans of a region the harness never scaled
        by_name: Dict[str, NameTotals] = {}
        by_op: Dict[str, Dict[str, List[float]]] = {}
        roots_by_op: Dict[str, RootTotals] = {}
        names = self._names
        for index, name_id in enumerate(self._span_name):
            name = names[name_id]
            scale = self._scale[index]
            duration = (self._end[index] - self._start[index]) * scale
            self_s = duration - self._child[index] * scale
            totals = by_name.get(name)
            if totals is None:
                totals = by_name[name] = NameTotals()
            totals.count += 1
            totals.total_s += duration
            totals.self_s += self_s
            totals.durations.append(duration)
            op = self._root_op[self._root[index]]
            cell = by_op.setdefault(op, {}).setdefault(name, [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += duration
            cell[2] += self_s
            if self._parent[index] < 0:
                root = roots_by_op.setdefault(op, RootTotals())
                root.total_s += duration
                root.self_s += self_s
                root.durations.append(duration)
            if self._keep:
                self.kept.append({
                    "name": name, "start": self._start[index], "end": self._end[index],
                    "parent": self._parent[index], "root": self._root[index], "op": op,
                    "speed": scale,
                })
        for name, name_id in self._name_ids.items():
            if self._values[name_id]:
                by_name.setdefault(name, NameTotals()).value = self._values[name_id]
            self._values[name_id] = 0.0
        self._reset_arrays()
        return RoundTotals(by_name=by_name, by_op=by_op, roots_by_op=roots_by_op)

    def write_spans(self, path: str) -> None:
        """Dump kept spans as JSON lines (parent/root index within their round)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.kept:
                handle.write(json.dumps(span) + "\n")


class _SpanIterator:
    """Wraps a lazy iterator so each ``__next__`` is a span of its own."""

    __slots__ = ("_inner", "_recorder", "_name_id")

    def __init__(self, inner: Iterator[Any], recorder: Recorder, name_id: int) -> None:
        self._inner = inner
        self._recorder = recorder
        self._name_id = name_id

    def __iter__(self) -> "_SpanIterator":
        return self

    def __next__(self) -> Any:
        index = self._recorder.open(self._name_id)
        try:
            return next(self._inner)
        finally:
            self._recorder.close(index)


def _wrap(recorder: Recorder, seam: Seam, original: Callable[..., Any]) -> Callable[..., Any]:
    name_id = recorder.intern(seam.span)
    value = seam.value
    lazy = seam.kind == "iter"

    def traced(*args: Any, **kwargs: Any) -> Any:
        index = recorder.open(name_id)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if value is not None and index >= 0:
            recorder.add_value(name_id, value(args, result))
        if lazy:
            return _SpanIterator(iter(result), recorder, name_id)
        return result

    traced.__name__ = getattr(original, "__name__", seam.span)
    traced.__doc__ = getattr(original, "__doc__", None)
    return traced


@dataclass
class Installed:
    """What :func:`install` patched, and which seams it could not find."""

    patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)


def _owners(seam: Seam) -> List[Tuple[Any, str]]:
    """Resolve a seam to ``(owner, attribute)`` pairs; empty when gone."""
    module_name, _, path = seam.target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return []
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if seam.subclasses:
        return [(sub, attr) for sub in owner.__subclasses__() if attr in vars(sub)]
    return [(owner, attr)] if attr in vars(owner) else []


def install(recorder: Recorder) -> Installed:
    """Patch every resolvable seam; a vanished target is reported, not fatal."""
    installed = Installed()
    for seam in SEAMS:
        owners = _owners(seam)
        if not owners:
            installed.missing.append(seam.span)
            continue
        for owner, attr in owners:
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(_wrap(recorder, seam, raw.__func__))
            else:
                wrapped = _wrap(recorder, seam, raw)
            installed.patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
    return installed


def uninstall(installed: Installed) -> None:
    for owner, attr, raw in reversed(installed.patches):
        setattr(owner, attr, raw)
    installed.patches.clear()
