"""The project-wide symbol table dataflow rules resolve names against.

One :class:`SymbolTable` indexes every analyzed file: modules by dotted
name, top-level functions, classes with their methods, and -- because
call resolution needs it -- three kinds of type information:

* class bases resolved *across files* through the import graph, so a
  ``Chaincode`` subclass two modules away from the base is still
  recognized;
* ``__init__`` attribute types inferred from parameter annotations
  (``self._gateway = gateway`` where ``gateway: Gateway``), direct
  construction (``self.ledger = Ledger(...)``) and annotated assignments;
* per-function local construction (``engine = M1QueryEngine(...)``).

Qualified names are dotted module paths (``repro.temporal.m1.M1Indexer.run``);
for trees not rooted at ``src/`` the path relative to the analysis root is
used, which keeps fixture projects self-consistent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.project import Project, SourceFile


def module_name_for(relpath: str) -> str:
    """Dotted module name of an analyzed file (``src/`` stripped)."""
    parts = relpath[: -len(".py")].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted path they import, module-wide.

    ``import time as t``        -> ``{"t": "time"}``
    ``from random import seed`` -> ``{"seed": "random.seed"}``
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def dotted_path(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a dotted path rooted at an import."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    qualname: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    source: SourceFile
    module: str
    class_qualname: Optional[str] = None

    @property
    def param_names(self) -> List[str]:
        """Positional-ish parameter names, ``self``/``cls`` excluded."""
        args = self.node.args  # type: ignore[attr-defined]
        names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        if self.class_qualname is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    @property
    def scope_name(self) -> str:
        """Display scope: the owning class's bare name, or the module."""
        if self.class_qualname is not None:
            return self.class_qualname.rsplit(".", 1)[-1]
        return self.module


@dataclass
class ClassInfo:
    """One analyzed class, with project-resolved bases and attr types."""

    qualname: str
    name: str
    node: ast.ClassDef
    source: SourceFile
    module: str
    #: Base names as written, resolved to dotted paths where importable.
    base_refs: List[str] = field(default_factory=list)
    #: Qualnames of bases that are classes in this project.
    base_qualnames: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qualname, inferred from ``__init__``.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One analyzed module and its import environment."""

    name: str
    source: SourceFile
    aliases: Dict[str, str]
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


class SymbolTable:
    """Modules, functions and classes of one project, fully indexed."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(project: Project) -> "SymbolTable":
        table = SymbolTable()
        for source in project.files:
            if source.tree is None:
                continue
            table._index_module(source)
        table._resolve_bases()
        for info in table.classes.values():
            table._infer_attr_types(info)
        return table

    def _index_module(self, source: SourceFile) -> None:
        module = ModuleInfo(
            name=module_name_for(source.relpath),
            source=source,
            aliases=import_aliases(source.tree),  # type: ignore[arg-type]
        )
        self.modules[module.name] = module
        for node in source.tree.body:  # type: ignore[union-attr]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module.name}.{node.name}",
                    name=node.name,
                    node=node,
                    source=source,
                    module=module.name,
                )
                module.functions[node.name] = info
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        refs: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                refs.append(module.aliases.get(base.id, f"{module.name}.{base.id}"))
            elif isinstance(base, ast.Attribute):
                dotted = dotted_path(base, module.aliases)
                refs.append(dotted if dotted is not None else base.attr)
        info = ClassInfo(
            qualname=qualname,
            name=node.name,
            node=node,
            source=module.source,
            module=module.name,
            base_refs=refs,
        )
        module.classes[node.name] = info
        self.classes[qualname] = info
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    qualname=f"{qualname}.{child.name}",
                    name=child.name,
                    node=child,
                    source=module.source,
                    module=module.name,
                    class_qualname=qualname,
                )
                info.methods[child.name] = method
                self.functions[method.qualname] = method

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            for ref in info.base_refs:
                resolved = self.resolve_class(ref)
                if resolved is not None:
                    info.base_qualnames.append(resolved.qualname)

    # -- attribute-type inference ----------------------------------------

    def _infer_attr_types(self, info: ClassInfo) -> None:
        init = info.methods.get("__init__")
        statements: List[ast.stmt] = []
        if init is not None:
            statements.extend(init.node.body)  # type: ignore[attr-defined]
        statements.extend(info.node.body)
        annotations: Dict[str, str] = {}
        if init is not None:
            module = self.modules[info.module]
            args = init.node.args  # type: ignore[attr-defined]
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                resolved = self._annotation_class(arg.annotation, module)
                if resolved is not None:
                    annotations[arg.arg] = resolved
        for statement in statements:
            for node in ast.walk(statement):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    if isinstance(target, ast.Attribute):
                        module = self.modules[info.module]
                        annotated = self._annotation_class(node.annotation, module)
                        if annotated is not None and self._is_self_attr(target):
                            info.attr_types[target.attr] = annotated
                if (
                    target is None
                    or not isinstance(target, ast.Attribute)
                    or not self._is_self_attr(target)
                ):
                    continue
                self._record_attr(info, target.attr, value, annotations)

    def _record_attr(
        self,
        info: ClassInfo,
        attr: str,
        value: Optional[ast.expr],
        annotations: Dict[str, str],
    ) -> None:
        if isinstance(value, ast.Name) and value.id in annotations:
            info.attr_types[attr] = annotations[value.id]
        elif isinstance(value, ast.Call):
            callee = self.constructed_class(value, self.modules[info.module])
            if callee is not None:
                info.attr_types[attr] = callee.qualname

    @staticmethod
    def _is_self_attr(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _annotation_class(
        self, annotation: Optional[ast.expr], module: ModuleInfo
    ) -> Optional[str]:
        """The project-class qualname an annotation names, if any.

        Unwraps ``Optional[X]`` / ``X | None`` / string annotations.
        """
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.slice
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            for side in (annotation.left, annotation.right):
                resolved = self._annotation_class(side, module)
                if resolved is not None:
                    return resolved
            return None
        ref: Optional[str] = None
        if isinstance(annotation, ast.Name):
            ref = module.aliases.get(annotation.id, f"{module.name}.{annotation.id}")
        elif isinstance(annotation, ast.Attribute):
            ref = dotted_path(annotation, module.aliases)
        if ref is None:
            return None
        resolved_class = self.resolve_class(ref)
        return resolved_class.qualname if resolved_class is not None else None

    def constructed_class(
        self, call: ast.Call, module: ModuleInfo
    ) -> Optional[ClassInfo]:
        """The project class a ``Name(...)`` / ``mod.Name(...)`` call builds."""
        ref: Optional[str] = None
        if isinstance(call.func, ast.Name):
            ref = module.aliases.get(call.func.id, f"{module.name}.{call.func.id}")
        elif isinstance(call.func, ast.Attribute):
            ref = dotted_path(call.func, module.aliases)
        return self.resolve_class(ref) if ref is not None else None

    # -- lookups ----------------------------------------------------------

    def resolve_class(self, ref: str) -> Optional[ClassInfo]:
        """The :class:`ClassInfo` a dotted reference names, if analyzed."""
        direct = self.classes.get(ref)
        if direct is not None:
            return direct
        # ``from repro.temporal import m1`` then ``m1.M1Indexer`` resolves
        # through the module segment.
        if "." in ref:
            module_part, _, member = ref.rpartition(".")
            module = self.modules.get(module_part)
            if module is not None:
                return module.classes.get(member)
        return None

    def resolve_function(self, ref: str) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a dotted reference names, if analyzed."""
        direct = self.functions.get(ref)
        if direct is not None:
            return direct
        if "." in ref:
            module_part, _, member = ref.rpartition(".")
            module = self.modules.get(module_part)
            if module is not None:
                return module.functions.get(member)
        return None

    def method_on(self, class_qualname: str, name: str) -> Optional[FunctionInfo]:
        """Method lookup with base-class (cross-file) resolution."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.base_qualnames)
        return None

    def mro_names(self, class_qualname: str) -> Set[str]:
        """Bare names of every (project-visible) ancestor, self included.

        Unresolvable bases contribute their written name, so a class whose
        base lives outside the analyzed tree still reports that name --
        how ``Chaincode`` subclasses are recognized even when only part of
        the tree is under analysis.
        """
        names: Set[str] = set()
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                names.add(current.rsplit(".", 1)[-1])
                continue
            names.add(info.name)
            stack.extend(info.base_qualnames)
            for ref in info.base_refs:
                if self.resolve_class(ref) is None:
                    names.add(ref.rsplit(".", 1)[-1])
        return names

    def chaincode_classes(self) -> List[ClassInfo]:
        """Every class that (transitively, across files) derives from a
        base named ``Chaincode``."""
        return [
            info
            for qualname, info in sorted(self.classes.items())
            if info.name != "Chaincode" and "Chaincode" in self.mro_names(qualname)
        ]
