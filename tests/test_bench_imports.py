"""The benchmark under bench/ imports the package by name, patches some
of its globals and reads config fields; every such name has to exist,
or bench/run.py breaks when code moves inside the package or a field
leaves ExperimentConfig."""

import ast
import dataclasses
import importlib
import pathlib

import pytest

from monosplit.experiments import ExperimentConfig

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def resolve(module, name):
    """The object ``from module import name`` binds, submodules included."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def package_bindings(tree):
    """(local name, object) for each name a ``from monosplit... import``
    or ``import monosplit...`` binds; raises if a target does not
    resolve."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "monosplit":
            for alias in node.names:
                yield alias.asname or alias.name, \
                    resolve(node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "monosplit":
                    module = importlib.import_module(alias.name)
                    yield (alias.asname, module) if alias.asname else \
                        (top, importlib.import_module(top))


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")),
                         ids=lambda path: path.name)
def test_bench_package_imports_resolve(path):
    list(package_bindings(parse(path)))


def test_bench_patched_globals_exist():
    tree = parse(BENCH / "cli_traced.py")
    bound = dict(package_bindings(tree))
    patched = [(target.value.id, target.attr)
               for node in ast.walk(tree) if isinstance(node, ast.Assign)
               for target in node.targets
               if isinstance(target, ast.Attribute)
               and isinstance(target.value, ast.Name)
               and target.value.id in bound]
    assert len(patched) >= 6
    for owner, attr in patched:
        assert hasattr(bound[owner], attr), f"{owner}.{attr}"


def is_config(node):
    """Whether node is ``cfg``, ``self.cfg`` or ``self.cfgs[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "cfgs" and \
            isinstance(node.value, ast.Name) and node.value.id == "self"
    if isinstance(node, ast.Attribute):
        return node.attr == "cfg" and isinstance(node.value, ast.Name) and \
            node.value.id == "self"
    return isinstance(node, ast.Name) and node.id == "cfg"


def config_field_uses(tree):
    """Each field name read or assigned on a config, and each keyword of
    ``dataclasses.replace(config, ...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_config(node.value):
            yield node.attr
        elif isinstance(node, ast.Call) and node.args and \
                is_config(node.args[0]) and "replace" in (
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None)):
            yield from (kw.arg for kw in node.keywords)


def test_bench_config_fields_exist():
    # A dataclass without slots accepts ``cfg.k = ...`` for a field it no
    # longer has, so a removed field would pass silently unread.
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    used = {(path.name, name) for path in sorted(BENCH.glob("*.py"))
            for name in config_field_uses(parse(path))}
    assert used
    assert [use for use in sorted(used) if use[1] not in known] == []
