"""Load the analyzed project's interval scheme code.

The symbolic verifier proves properties of the *project under
analysis*, not of whatever ``repro`` happens to be importable -- a
mutation-acceptance clone or a fixture tree must be judged on its own
bytes.  So the scheme file (``temporal/intervals.py``) is compiled and
executed from the project's
:class:`~repro.analysis.project.SourceFile` text into a fresh synthetic
module; its imports (``repro.common.errors``, ...) resolve normally.

A file that fails to execute is reported as a load note, never a crash:
the lint runner already surfaces syntax errors, and the verifier must
stay best-effort on trees it cannot run.
"""

from __future__ import annotations

import ast
import sys
import types
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.project import Project, SourceFile

#: Methods every interval *scheme* class must expose to be verified.
SCHEME_METHODS = (
    "interval_for",
    "previous_interval",
    "iter_intervals_overlapping",
    "partition_clipped",
)

#: Methods marking the interval value class itself.
INTERVAL_METHODS = ("contains", "overlaps", "intersection")

_LOAD_COUNTER = 0


@dataclass
class LoadedTemporal:
    """One project's executed scheme module plus source anchors."""

    intervals_file: SourceFile
    intervals_module: types.ModuleType
    #: (class name, method name) -> 1-based definition line.
    anchors: Dict[Tuple[str, str], int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def anchor(self, class_name: str, method: str) -> int:
        """The definition line of ``class.method`` (falls back to the
        class line, then line 1, so findings always anchor)."""
        return (
            self.anchors.get((class_name, method))
            or self.anchors.get((class_name, ""))
            or 1
        )

    def scheme_classes(self) -> List[type]:
        """Classes in the project's intervals module that implement the
        full scheme surface (the fixture trees define partial lookalikes
        that deliberately stay out of scope)."""
        return _classes_with(self.intervals_module, SCHEME_METHODS)

    def interval_class(self) -> Optional[type]:
        """The project's ``TimeInterval`` value class, if one is defined."""
        candidates = _classes_with(self.intervals_module, INTERVAL_METHODS)
        return candidates[0] if candidates else None


def _module_classes(module: types.ModuleType) -> List[type]:
    return [
        value
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]


def _classes_with(module: types.ModuleType, methods: Tuple[str, ...]) -> List[type]:
    return [
        cls
        for cls in _module_classes(module)
        if all(callable(getattr(cls, name, None)) for name in methods)
    ]


def _def_lines(source: SourceFile) -> Dict[Tuple[str, str], int]:
    """(class, method) -> def line; (class, "") -> class line."""
    table: Dict[Tuple[str, str], int] = {}
    if source.tree is None:
        return table
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        table[(node.name, "")] = node.lineno
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table[(node.name, item.name)] = item.lineno
    return table


def _exec_source(source: SourceFile) -> types.ModuleType:
    """Compile and run one project file into a fresh synthetic module."""
    global _LOAD_COUNTER
    _LOAD_COUNTER += 1
    module = types.ModuleType(f"_repro_symbolic_intervals_{_LOAD_COUNTER}")
    module.__file__ = str(source.path)
    code = compile(source.text, str(source.path), "exec")
    # The synthetic module must be importable by name while its body
    # runs: the dataclass machinery resolves string annotations through
    # ``sys.modules[cls.__module__].__dict__``.  Names are unique per
    # load, so registrations never collide; failed loads are removed.
    sys.modules[module.__name__] = module
    try:
        exec(code, module.__dict__)  # noqa: S102 -- the verifier's whole job
    except BaseException:
        sys.modules.pop(module.__name__, None)
        raise
    return module


def _scheme_files(project: Project) -> List[SourceFile]:
    """Every ``intervals.py`` at the project top level or in a
    ``temporal`` package."""
    found = []
    for source in project.files:
        if source.tree is None:
            continue
        parent, _, basename = source.relpath.rpartition("/")
        if basename == "intervals.py" and (
            parent.endswith("temporal") or parent == ""
        ):
            found.append(source)
    return found


def load_temporal(project: Project) -> List[LoadedTemporal]:
    """Execute every scheme file the project defines.

    Returns one :class:`LoadedTemporal` per file; a file that cannot
    execute yields an entry holding an empty module and a note (the
    runner reports unparsable files separately).
    """
    loaded: List[LoadedTemporal] = []
    for intervals_file in _scheme_files(project):
        try:
            intervals_module = _exec_source(intervals_file)
        except BaseException as exc:  # repro-lint: disable=ERR001 -- any project bug
            loaded.append(
                LoadedTemporal(
                    intervals_file=intervals_file,
                    intervals_module=types.ModuleType("_repro_symbolic_empty"),
                    notes=[
                        f"{intervals_file.relpath}: scheme module failed to "
                        f"execute ({type(exc).__name__}: {exc}); scheme "
                        "axioms not verified"
                    ],
                )
            )
            continue
        loaded.append(
            LoadedTemporal(
                intervals_file=intervals_file,
                intervals_module=intervals_module,
                anchors=_def_lines(intervals_file),
            )
        )
    return loaded
