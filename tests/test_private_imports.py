"""The package's modules reach into each other's private names only
where listed here, so a new such import is an edit to this set, made in
plain view."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "monosplit"

ALLOWED = {
    ("primal_dual", "splitting", "_drive"),
    ("primal_dual", "splitting", "_forward"),
    ("primal_dual", "splitting", "_norm"),
    ("primal_dual", "splitting", "_reflected_target"),
}


def private_imports(path):
    """(importer, module, name) for each ``from .module import _name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {(path.stem, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.name.startswith("_")}


def test_private_imports_between_modules_are_the_listed_ones():
    found = set().union(*(private_imports(path)
                          for path in SRC.glob("*.py")))
    assert found == ALLOWED


def test_the_lasso_forward_module_imports_nothing_from_the_package():
    # _partner owns the lasso design's layout, split and partner whole; an
    # import from the package there would spread them over two modules
    # again.
    tree = ast.parse((SRC / "_partner.py").read_text())
    imports = [(node.level, node.module) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    imports += [(0, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    assert [(level, module) for level, module in imports
            if level or module.split(".")[0] == "monosplit"] == []
