"""The benchmark under bench/ imports the package by name and patches some
of its globals; every such name has to exist, or bench/run.py breaks
when code moves inside the package."""

import ast
import importlib
import pathlib

import pytest

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
