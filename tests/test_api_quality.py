"""Meta-tests on API quality: docstring coverage and import hygiene.

These keep the "documented public API" deliverable honest as the code
grows: every public module, class, and function in the library must carry
a docstring, and every module must import cleanly on its own.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        yield name, member


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_cleanly(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"


#: Conventional method names whose behaviour is fully specified by their
#: class docstring and the shared interface (documenting "close() closes"
#: everywhere would be noise).
CONVENTIONAL_METHODS = {
    "close", "sync", "reset", "flush", "render", "main",
    "to_dict", "from_dict", "to_value", "from_value", "to_bytes", "from_bytes",
    "encode", "decode", "sign", "verify", "get", "put", "delete", "scan",
    "install", "installed", "invoke", "commit", "endorse", "submit",
    "counter", "timer", "snapshot", "start", "stop",
    "add_read", "add_write", "add_delete", "key_count", "state_count",
    "run_join", "items", "sample", "plan", "query",
    "list_keys", "fetch_events", "load", "run",
}


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, member in public_members(module):
        if inspect.isclass(member) or inspect.isfunction(member):
            if not inspect.getdoc(member):
                undocumented.append(name)
        if inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue
                if method_name in CONVENTIONAL_METHODS:
                    continue
                if inspect.isfunction(method) and not inspect.getdoc(method):
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module_name}: missing docstrings on {sorted(undocumented)}"
    )


def imported_names(module_name):
    """Every module (and ``module.name``) that ``module_name`` imports,
    at module level or inside a function."""
    module = importlib.import_module(module_name)
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    return imported


#: What starts a second thread, process or event loop.
CONCURRENCY_MODULES = ("threading", "_thread", "concurrent.futures", "multiprocessing", "asyncio")


def test_no_module_imports_a_concurrency_primitive():
    """The contract is one thread per ledger: nothing in the package
    starts a thread, a process or an event loop, and nothing locks.  A
    module that needs one changes the contract first (DESIGN.md §6)."""
    offending = {}
    for module_name in MODULES:
        found = sorted(
            name
            for name in imported_names(module_name)
            if any(
                name == banned or name.startswith(banned + ".")
                for banned in CONCURRENCY_MODULES
            )
        )
        if found:
            offending[module_name] = found
    assert not offending, (
        f"{offending}: the package runs one thread per ledger; see DESIGN.md §6 "
        "before adding a thread, a process, an event loop or a lock"
    )


#: What reads the peer's clock, entropy or environment.
ENVIRONMENT_MODULES = ("os", "time", "random", "uuid", "datetime", "secrets")


def test_no_chaincode_module_reads_its_environment():
    """Every endorsing peer must compute the same write set from the
    same proposal.  A chaincode that reads a clock, a random source or
    an environment variable (even only to decide *whether* to write) is
    endorsed differently on two peers, and a single-peer test never sees
    it.  Inputs reach a chaincode through its arguments and the stub."""
    offending = {}
    for module_name in ("repro.fabric.chaincode", "repro.temporal.chaincodes"):
        found = sorted(
            name
            for name in imported_names(module_name)
            if any(
                name == banned or name.startswith(banned + ".")
                for banned in ENVIRONMENT_MODULES
            )
        )
        if found:
            offending[module_name] = found
    assert not offending


#: The environment variables the package reads: the replay seed of a
#: randomized sweep and the state-db backend (the CI matrix runs tier-1 on
#: ``lsm`` through it).  Everything else is an argument or a flag.
ENVIRONMENT_VARIABLES = {"REPRO_SEED", "REPRO_STATEDB"}


def environment_reads(module_name):
    """The variable each ``os.environ`` / ``os.getenv`` use in
    ``module_name`` reads: a string literal or a module-level string
    constant, else ``None`` (a use whose variable cannot be read off)."""
    tree = ast.parse(inspect.getsource(importlib.import_module(module_name)))
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def variable(expr):
        if isinstance(expr, ast.Constant):
            return expr.value
        return constants.get(expr.id) if isinstance(expr, ast.Name) else None

    reads = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name not in ("environ", "getenv") or isinstance(parents.get(node), ast.alias):
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Attribute) and parent.attr == "get":
            parent = parents.get(parent)
        if isinstance(parent, ast.Call) and parent.args:
            reads.append(variable(parent.args[0]))
        elif isinstance(parent, ast.Subscript):
            reads.append(variable(parent.slice))
        else:
            reads.append(None)
    return reads


def test_the_package_reads_only_its_two_environment_variables():
    """A setting the environment changes is a second way to set it, and
    one a test, a benchmark or a reader of the command line cannot see:
    the package reads ``REPRO_SEED`` and ``REPRO_STATEDB`` and nothing
    else (the dataset scales are arguments, ``--scale`` /
    ``--entity-scale`` on the command line)."""
    read = {}
    for module_name in MODULES:
        for variable in environment_reads(module_name):
            read.setdefault(variable, set()).add(module_name)
    assert set(read) == ENVIRONMENT_VARIABLES, read


def test_package_exposes_version():
    assert repro.__version__


def test_no_module_shadows_stdlib_badly():
    """Modules named after stdlib ones (inspect, trace) must still leave
    the stdlib importable from within the package."""
    from repro.fabric import inspect as fabric_inspect
    import inspect as std_inspect

    assert fabric_inspect.__name__ == "repro.fabric.inspect"
    assert std_inspect.signature  # stdlib remains intact


#: ``gc`` calls that change when or whether the collector runs.
COLLECTOR_SETTINGS = ("disable", "freeze", "set_threshold")


def test_no_module_changes_the_collectors_schedule():
    """The package measures the garbage collector's pauses
    (``QueryStats.gc_seconds``) and leaves its schedule to the
    interpreter: a module that disabled, froze or retuned it would change
    what every measurement around it means."""
    offending = sorted(
        f"{module_name}: gc.{node.attr}"
        for module_name in MODULES
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(module_name))))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "gc"
        and node.attr in COLLECTOR_SETTINGS
    )
    assert not offending, offending
