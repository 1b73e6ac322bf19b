"""Every public top-level function and class of ``src/phototact`` is used by other code in ``src/``.

An entry point that no verb, phase or module calls is a second
implementation of something the package already does, and the tests that
check it check the wrong path.  The walk reads the ASTs of the package's
modules: a name counts as used where another module, or its own module
outside the definition, reads it as a name or an attribute.  The
re-exports in ``__init__.py`` do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phototact"

# Criterion 4's gradient check (tests/test_acceptance.py) differentiates the model in float64 through these two;
# the package itself infers and trains through other code.
TEST_ONLY = {"calibration.mlp_forward", "calibration.input_gradient"}


def parsed_modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def public_definitions(modules):
    """``{"module.name": node}`` of every top-level function and class whose name has no leading underscore."""
    return {f"{module}.{node.name}": node for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def is_used(qualified, definition, modules):
    own_module, name = qualified.split(".")
    for module, tree in modules.items():
        inside = set(ast.walk(definition)) if module == own_module else set()
        for node in ast.walk(tree):
            read = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if read == name and node not in inside:
                return True
    return False


def unused_public_names(modules):
    return {q for q, node in public_definitions(modules).items() if not is_used(q, node, modules)}


def test_every_public_definition_is_used_in_the_package():
    assert sorted(unused_public_names(parsed_modules()) - TEST_ONLY) == []


def test_the_test_only_names_are_public_and_unused():
    """A name on the exception list that the package starts to use, or that is gone, comes off the list."""
    modules = parsed_modules()
    assert TEST_ONLY <= set(public_definitions(modules))
    assert TEST_ONLY <= unused_public_names(modules)
