"""Opt-in shared-state instrumentation: ``@sanitize_shared``.

Classes whose instances are shared across threads declare their hot
attributes::

    @sanitize_shared("_values", "_sorted_keys")
    class MemStore: ...

Decoration only *registers* the class.  When a sanitizer session is
installed (:func:`instrument_all`), each registered class gets its
``__setattr__`` / ``__getattribute__`` swapped for instrumented
versions that report attribute rebinds and reads of the tracked names
to the active session; :func:`uninstrument_all` restores the originals,
so an idle process pays nothing.

Attribute-level events alone miss the most common sharing pattern in
this codebase: the attribute is a dict that is *mutated in place*
(``self._counters[name] += 1`` reads ``_counters`` but never rebinds
it).  So tracked dict/list values are transparently replaced with
:class:`TracedDict` / :class:`TracedList` proxies whose operations feed
the same shadow cell as the attribute itself, with read/write polarity
per operation -- an unlocked ``popitem`` and a locked ``__setitem__``
on the same dict become a checkable access pair.

``racy_ok`` names methods whose *reads* are deliberately unsynchronized
(diagnostic ``__repr__``-style paths); their read events are dropped so
the unmutated tree stays race-clean without weakening write checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

import weakref

from repro.sanitizer import runtime

ClassT = TypeVar("ClassT", bound=type)


@dataclass(frozen=True)
class SharedSpec:
    """What to watch on one registered class."""

    tracked: FrozenSet[str]
    racy_ok: FrozenSet[str]


#: Registered classes; instrumentation is installed/removed for all of
#: them together by the runtime lifecycle.
_REGISTRY: Dict[type, SharedSpec] = {}

#: Original ``(__setattr__, __getattribute__)`` per instrumented class;
#: ``None`` marks "was not defined in the class dict" (inherited).
_SAVED: Dict[type, Tuple[Optional[Any], Optional[Any]]] = {}

#: Whether instrumentation is currently installed.  Checked at
#: decoration time: a class whose module is first imported *while* a
#: session is live (e.g. a test importing ``LSMStore`` under the
#: ``REPRO_SAN=1`` leg) must be instrumented on the spot -- the
#: session's ``instrument_all`` already ran and will not run again.
_INSTALLED = False


def sanitize_shared(
    *tracked: str, racy_ok: Iterable[str] = ()
) -> Callable[[ClassT], ClassT]:
    """Class decorator: register ``tracked`` attributes for shadowing."""

    def decorate(cls: ClassT) -> ClassT:
        spec = SharedSpec(frozenset(tracked), frozenset(racy_ok))
        _REGISTRY[cls] = spec
        if _INSTALLED:
            _instrument_class(cls, spec)
        return cls

    return decorate


def registry() -> Dict[type, SharedSpec]:
    """The registered classes (read-only view for tooling/tests)."""
    return dict(_REGISTRY)


# -- traced containers --------------------------------------------------


class _ContainerMeta:
    """Shared-cell identity for a traced container (not a base class)."""

    __slots__ = ("owner_ref", "cls", "attr", "racy_ok")

    def __init__(self, owner: object, cls: str, attr: str, racy_ok: FrozenSet[str]) -> None:
        self.owner_ref = weakref.ref(owner)
        self.cls = cls
        self.attr = attr
        self.racy_ok = racy_ok

    def emit(self, op: str, is_write: bool) -> None:
        sanitizer = runtime.active()
        if sanitizer is None:
            return
        owner = self.owner_ref()
        if owner is None:
            return
        sanitizer.record(owner, self.cls, self.attr, op, is_write, self.racy_ok)


class TracedDict(dict):  # type: ignore[type-arg]
    """A ``dict`` whose operations feed the owner's shadow cell."""

    _san: Optional[_ContainerMeta] = None

    @staticmethod
    def wrap(
        value: Any, owner: object, cls: str, attr: str, racy_ok: FrozenSet[str]
    ) -> "TracedDict":
        traced = TracedDict(value)
        traced._san = _ContainerMeta(owner, cls, attr, racy_ok)
        return traced

    def _emit(self, op: str, is_write: bool) -> None:
        meta = self._san
        if meta is not None:
            meta.emit(op, is_write)

    # mutations ---------------------------------------------------------

    def __setitem__(self, key: Any, value: Any) -> None:
        self._emit("dict.setitem", True)
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        self._emit("dict.delitem", True)
        super().__delitem__(key)

    def pop(self, *args: Any) -> Any:
        self._emit("dict.pop", True)
        return super().pop(*args)

    def popitem(self) -> Tuple[Any, Any]:
        self._emit("dict.popitem", True)
        return super().popitem()

    def clear(self) -> None:
        self._emit("dict.clear", True)
        super().clear()

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._emit("dict.update", True)
        super().update(*args, **kwargs)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._emit("dict.setdefault", True)
        return super().setdefault(key, default)

    # reads -------------------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        self._emit("dict.getitem", False)
        return super().__getitem__(key)

    def get(self, key: Any, default: Any = None) -> Any:
        self._emit("dict.get", False)
        return super().get(key, default)

    def __contains__(self, key: Any) -> bool:
        self._emit("dict.contains", False)
        return super().__contains__(key)

    def __len__(self) -> int:
        self._emit("dict.len", False)
        return super().__len__()

    def __iter__(self) -> Iterator[Any]:
        self._emit("dict.iter", False)
        return super().__iter__()

    def keys(self) -> Any:
        self._emit("dict.keys", False)
        return super().keys()

    def values(self) -> Any:
        self._emit("dict.values", False)
        return super().values()

    def items(self) -> Any:
        self._emit("dict.items", False)
        return super().items()


class TracedList(list):  # type: ignore[type-arg]
    """A ``list`` whose operations feed the owner's shadow cell."""

    _san: Optional[_ContainerMeta] = None

    @staticmethod
    def wrap(
        value: Any, owner: object, cls: str, attr: str, racy_ok: FrozenSet[str]
    ) -> "TracedList":
        traced = TracedList(value)
        traced._san = _ContainerMeta(owner, cls, attr, racy_ok)
        return traced

    def _emit(self, op: str, is_write: bool) -> None:
        meta = self._san
        if meta is not None:
            meta.emit(op, is_write)

    # mutations ---------------------------------------------------------

    def append(self, item: Any) -> None:
        self._emit("list.append", True)
        super().append(item)

    def extend(self, items: Iterable[Any]) -> None:
        self._emit("list.extend", True)
        super().extend(items)

    def insert(self, index: int, item: Any) -> None:
        self._emit("list.insert", True)
        super().insert(index, item)

    def pop(self, index: int = -1) -> Any:
        self._emit("list.pop", True)
        return super().pop(index)

    def remove(self, item: Any) -> None:
        self._emit("list.remove", True)
        super().remove(item)

    def clear(self) -> None:
        self._emit("list.clear", True)
        super().clear()

    def __setitem__(self, index: Any, value: Any) -> None:
        self._emit("list.setitem", True)
        super().__setitem__(index, value)

    def __delitem__(self, index: Any) -> None:
        self._emit("list.delitem", True)
        super().__delitem__(index)

    # reads -------------------------------------------------------------

    def __getitem__(self, index: Any) -> Any:
        self._emit("list.getitem", False)
        return super().__getitem__(index)

    def __len__(self) -> int:
        self._emit("list.len", False)
        return super().__len__()

    def __iter__(self) -> Iterator[Any]:
        self._emit("list.iter", False)
        return super().__iter__()

    def __contains__(self, item: Any) -> bool:
        self._emit("list.contains", False)
        return super().__contains__(item)


def _wrap_value(
    value: Any, owner: object, cls: str, attr: str, racy_ok: FrozenSet[str]
) -> Any:
    """Replace plain dict/list values with traced proxies.

    Only exact builtin types are wrapped -- a user subclass carries
    behaviour a proxy copy would drop.
    """
    if type(value) is dict:
        return TracedDict.wrap(value, owner, cls, attr, racy_ok)
    if type(value) is list:
        return TracedList.wrap(value, owner, cls, attr, racy_ok)
    return value


# -- class instrumentation ---------------------------------------------


def _make_setattr(
    spec: SharedSpec, original: Callable[[Any, str, Any], None]
) -> Callable[[Any, str, Any], None]:
    tracked = spec.tracked
    racy_ok = spec.racy_ok

    def instrumented_setattr(self: Any, name: str, value: Any) -> None:
        if name in tracked:
            sanitizer = runtime.active()
            if sanitizer is not None:
                value = _wrap_value(
                    value, self, type(self).__name__, name, racy_ok
                )
                sanitizer.record(
                    self, type(self).__name__, name, "attr-write", True, racy_ok
                )
        original(self, name, value)

    return instrumented_setattr


def _make_getattribute(
    spec: SharedSpec, original: Callable[[Any, str], Any]
) -> Callable[[Any, str], Any]:
    tracked = spec.tracked
    racy_ok = spec.racy_ok

    def instrumented_getattribute(self: Any, name: str) -> Any:
        value = original(self, name)
        if name in tracked:
            sanitizer = runtime.active()
            if sanitizer is not None:
                # Objects built before the session started still hold
                # plain containers; adopt them into a traced proxy on
                # first sight (object.__setattr__ avoids a write event
                # for what is sanitizer bookkeeping, not program state).
                if type(value) in (dict, list):
                    value = _wrap_value(
                        value, self, type(self).__name__, name, racy_ok
                    )
                    object.__setattr__(self, name, value)
                sanitizer.record(
                    self, type(self).__name__, name, "attr-read", False, racy_ok
                )
        return value

    return instrumented_getattribute


def _instrument_class(cls: type, spec: SharedSpec) -> None:
    """Swap in instrumented methods on one class (idempotent)."""
    if cls in _SAVED:
        return
    _SAVED[cls] = (
        cls.__dict__.get("__setattr__"),
        cls.__dict__.get("__getattribute__"),
    )
    original_setattr = cls.__setattr__
    original_getattribute = cls.__getattribute__
    cls.__setattr__ = _make_setattr(spec, original_setattr)  # type: ignore[method-assign, assignment]
    cls.__getattribute__ = _make_getattribute(  # type: ignore[method-assign, assignment]
        spec, original_getattribute
    )


def instrument_all() -> None:
    """Swap in instrumented ``__setattr__``/``__getattribute__`` on every
    registered class (idempotent; called by the runtime on install)."""
    global _INSTALLED
    _INSTALLED = True
    for cls, spec in _REGISTRY.items():
        _instrument_class(cls, spec)


def uninstrument_all() -> None:
    """Restore the original methods saved by :func:`instrument_all`."""
    global _INSTALLED
    _INSTALLED = False
    for cls, (saved_setattr, saved_getattribute) in _SAVED.items():
        if saved_setattr is None:
            del cls.__setattr__  # type: ignore[misc]
        else:
            cls.__setattr__ = saved_setattr  # type: ignore[method-assign, assignment]
        if saved_getattribute is None:
            del cls.__getattribute__  # type: ignore[misc]
        else:
            cls.__getattribute__ = saved_getattribute  # type: ignore[method-assign, assignment]
    _SAVED.clear()
