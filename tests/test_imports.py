"""Every name a module of src/linwave imports is used in that module, no
module reads a private name of another, and every public definition is named
by the library or the benchmark."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "linwave"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set:
    """Every Name read in the module, including those inside string
    (forward-reference) annotations."""
    trees = [tree] + [
        ast.parse(a.value, mode="eval") for a in _annotations(tree)
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def _imported_names(tree) -> dict:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_private_cross_module_reads():
    """No module of src/linwave reads a private name (module._name, or
    `from .module import _name`) of another linwave module."""
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif _is_private(alias.name):
                        reads.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
        reads += [
            f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _is_private(node.attr)
        ]
    assert not reads, f"private names read across modules: {reads}"


def _strings(path, calls_to=None) -> set:
    """String constants of a module; with calls_to, only the first
    argument of calls to a method of that name (cfg.get("key"))."""
    tree = ast.parse(path.read_text(), filename=str(path))
    if calls_to is None:
        nodes = ast.walk(tree)
    else:
        nodes = [node.args[0] for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == calls_to and node.args]
    return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_config_key_and_operator_kind_has_a_library_reader():
    """Every key of config.SCHEMA is read (cfg.get) by a module of
    src/linwave other than config.py, and every kind of
    spacetime.OPERATOR_KINDS is named by one other than spacetime.py: a
    value that only tests set is a dead knob."""
    from linwave import config, spacetime

    others = {home: [p for p in SRC.glob("*.py") if p.name != home]
              for home in ("config.py", "spacetime.py")}
    read = set().union(*(_strings(p, "get") for p in others["config.py"]))
    named = set().union(*(_strings(p) for p in others["spacetime.py"]))
    unread = set(config.SCHEMA) - read
    assert not unread, f"config keys no module reads: {unread}"
    unnamed = set(spacetime.OPERATOR_KINDS) - named
    assert not unnamed, f"operator kinds no module names: {unnamed}"


PERFBENCH = SRC.parents[1] / "perfbench"

# Public definitions that no module of src/linwave and no file of perfbench/
# names, kept on purpose.
UNNAMED_PUBLIC = {
    "kernel_basis": "criterion 5's kernel count, library API",
    "assemble_mode_operator": "the per-k ModeOperator, until ROADMAP items 1 and 8",
}


def _named(path) -> set:
    """Every name a file reads, imports or gives as an attribute or a string
    (the benchmark tracer names the functions it wraps by string, a method
    as "Class.method", so each part of a dotted name counts)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def _public_definitions(path) -> set:
    """The public top-level functions and classes of a module, and the
    public methods (properties included) of its public classes."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.add(node.name)
            if isinstance(node, ast.ClassDef):
                out |= {f.name for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    return out


def test_every_public_definition_is_named_by_the_library_or_the_benchmark():
    """Every public top-level function or class of src/linwave, and every
    public method of a public class, is named by some module of src/linwave
    other than at its own definition, or by a file under perfbench/, apart
    from UNNAMED_PUBLIC: a helper that only tests call does not belong in
    src/."""
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    named = set().union(*map(_named, paths))
    public = set().union(*map(_public_definitions, sorted(SRC.glob("*.py"))))
    unnamed = public - named
    assert unnamed == set(UNNAMED_PUBLIC), (
        f"public definitions nothing names: {sorted(unnamed - set(UNNAMED_PUBLIC))}; "
        f"allowed but named or gone: {sorted(set(UNNAMED_PUBLIC) - unnamed)}")
