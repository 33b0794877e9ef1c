"""The rule for a scalar argument (a real number, not a bool, finite as a
float, within its bound) is written once, in stepsize.real_arg and
int_arg, so a new hand-written copy of it is an edit to this set, made
in plain view."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "monosplit"

# (module, function) that may name numbers.Real or numbers.Integral: the
# two rules and nothing else.
ALLOWED = {
    ("stepsize", "real_arg"),
    ("stepsize", "int_arg"),
}


def number_type_uses(path):
    """(module, function) for each use of numbers.Real or
    numbers.Integral in the module at path, and for each import from
    ``numbers``, which would let a copy name the types unqualified."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "numbers"
                and node.attr in ("Real", "Integral")) \
                or (isinstance(node, ast.ImportFrom)
                    and node.module == "numbers"):
            found.add((path.stem, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_the_scalar_rules_name_number_types():
    found = set().union(*(number_type_uses(path)
                          for path in SRC.glob("*.py")))
    assert found == ALLOWED
