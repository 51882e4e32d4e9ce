"""Call resolution over the project, with rules tuned for this codebase.

The graph is never materialized: the taint engine asks for one call
site's callee while it walks a function.  A call site resolves to at
most one analyzed function, through (in order): local names (module functions, ``from``-imports), ``self.method``
with cross-file base-class lookup, imported-module attributes
(``mod.func``), constructor calls (edge to ``__init__`` when present,
else to the class itself as a node), methods on ``self.<attr>`` whose
type was inferred from ``__init__``, methods on parameters with class
annotations, and methods on locals assigned from a constructor call.

Unresolvable calls (stdlib, builtins, duck-typed receivers) simply
produce no edge -- the graph under-approximates, which is the right
polarity for the taint engine (an unresolved callee falls back to
argument-union propagation there).
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from repro.analysis.dataflow.symbols import (
    ClassInfo,
    FunctionInfo,
    SymbolTable,
    dotted_path,
)


class CallGraph:
    """Resolves call sites to analyzed functions over a :class:`SymbolTable`."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table

    def resolve_call(
        self,
        caller: FunctionInfo,
        call: ast.Call,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Qualname of the analyzed function ``call`` invokes, if known."""
        table = self.table
        module = table.modules[caller.module]
        if local_types is None:
            local_types = _local_constructions(caller, table)
        func = call.func

        if isinstance(func, ast.Name):
            ref = module.aliases.get(func.id, f"{module.name}.{func.id}")
            resolved = table.resolve_function(ref)
            if resolved is not None:
                return resolved.qualname
            klass = table.resolve_class(ref)
            if klass is not None:
                return self._constructor_target(klass)
            return None

        if not isinstance(func, ast.Attribute):
            return None

        receiver = func.value
        # self.method() / cls.method()
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in ("self", "cls")
            and caller.class_qualname is not None
        ):
            method = table.method_on(caller.class_qualname, func.attr)
            if method is not None:
                return method.qualname
            return None
        # self.<attr>.method() through inferred attribute types
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and caller.class_qualname is not None
        ):
            owner = table.classes.get(caller.class_qualname)
            attr_type = (owner.attr_types.get(receiver.attr) if owner else None)
            if attr_type is not None:
                method = table.method_on(attr_type, func.attr)
                if method is not None:
                    return method.qualname
            return None
        if isinstance(receiver, ast.Name):
            # parameter or local with a known class type
            class_qualname = local_types.get(receiver.id)
            if class_qualname is not None:
                method = table.method_on(class_qualname, func.attr)
                if method is not None:
                    return method.qualname
            # imported module / imported class attribute
            dotted = dotted_path(func, module.aliases)
            if dotted is not None:
                resolved = table.resolve_function(dotted)
                if resolved is not None:
                    return resolved.qualname
                klass = table.resolve_class(dotted)
                if klass is not None:
                    return self._constructor_target(klass)
            return None
        # deeper attribute chains: resolve through imports only
        dotted = dotted_path(func, module.aliases)
        if dotted is not None:
            resolved = table.resolve_function(dotted)
            if resolved is not None:
                return resolved.qualname
        return None

    def _constructor_target(self, klass: ClassInfo) -> str:
        init = self.table.method_on(klass.qualname, "__init__")
        return init.qualname if init is not None else klass.qualname


def _local_constructions(info: FunctionInfo, table: SymbolTable) -> Dict[str, str]:
    """Name -> class qualname for annotated params and constructor locals."""
    module = table.modules[info.module]
    types: Dict[str, str] = {}
    args = info.node.args  # type: ignore[attr-defined]
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        resolved = table._annotation_class(arg.annotation, module)
        if resolved is not None:
            types[arg.arg] = resolved
    for node in ast.walk(info.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            constructed = table.constructed_class(node.value, module)
            if constructed is not None:
                types[node.targets[0].id] = constructed.qualname
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
        ):
            resolved = table._annotation_class(node.annotation, module)
            if resolved is not None:
                types[node.target.id] = resolved
    return types
