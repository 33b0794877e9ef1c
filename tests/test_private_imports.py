"""The package's modules reach into each other's private names only
where listed here, so a new such import is an edit to this set, made in
plain view."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "monosplit"

ALLOWED = {
    ("_partner", "operators", "_placed_copy"),
    ("operators", "_partner", "_MAX_ENTRIES"),
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
