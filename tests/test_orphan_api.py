"""Every top-level function and class of ``src/phototact`` is used by other code in ``src/``, every constant of
``defaults`` is read by another module, and every defaulted parameter of a public function is passed by some call
and left at its default by another.

An entry point that no verb, phase or module calls is a second
implementation of something the package already does, and the tests that
check it check the wrong path; a private helper that nothing calls any more
is dead code that only its tests keep alive, and so is a constant that
nothing reads.  A parameter that every caller leaves at its default is a
setting that nothing sets, and one that every caller passes is a default
that only the tests use.  The walk reads the ASTs of the package's
modules: a name counts as used where another module, or its own module
outside the definition, reads it as a name or an attribute, and a call
passes a parameter of every function of the called name.  The re-exports in
``__init__.py`` do not count.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phototact"

# Criterion 4's gradient check (tests/test_acceptance.py) differentiates the model in float64 through these two;
# the package itself infers and trains through other code.
TEST_ONLY = {"calibration.mlp_forward", "calibration.input_gradient"}
# The benchmark's characterize workload (perfbench/workloads.py) binds these with functools.partial to cut the grid.
OUTSIDE_CALLERS = [("characterization.characterize", ["forces", "steps"])]


def parsed_modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def definitions(modules, private):
    """``{"module.name": node}`` of every top-level function and class whose name has a leading underscore or not."""
    return {f"{module}.{node.name}": node for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private}


def is_used(qualified, definition, modules):
    own_module, name = qualified.split(".")
    for module, tree in modules.items():
        inside = set(ast.walk(definition)) if module == own_module else set()
        for node in ast.walk(tree):
            read = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if read == name and node not in inside:
                return True
    return False


def unused_names(modules, private=False):
    return {q for q, node in definitions(modules, private).items() if not is_used(q, node, modules)}


def unread_constants(modules):
    """The top-level names assigned in ``defaults`` that no other module reads."""
    others = {module: tree for module, tree in modules.items() if module != "defaults"}
    assigned = {target.id: node for node in modules["defaults"].body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)}
    return {name for name, node in assigned.items() if not is_used(f"defaults.{name}", node, others)}


def called_name(func):
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def calls_by_name(modules):
    """``{name: [(positional arguments, keyword names), ...]}`` of every call in the package, keyed by the called name.

    ``submit(f, ...)`` and ``partial(f, ...)`` count as calls of ``f`` with the arguments after it.
    """
    calls = defaultdict(list)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name, args = called_name(node.func), node.args
                if name in ("submit", "partial") and args:
                    name, args = called_name(args[0]), args[1:]
                calls[name].append((args, {keyword.arg for keyword in node.keywords}))
    return calls


def passes(call, parameter, position):
    """Whether ``call`` passes ``parameter``, by keyword or, when ``position`` is not None, at that position."""
    args, keywords = call
    return parameter in keywords or (position is not None and len(args) > position)


def defaulted_parameters(modules, keep):
    """``[("module.function", [parameter, ...]), ...]``: the defaulted parameters of public functions that ``keep``
    selects, given one flag per package call of the function's name: whether that call passes the parameter."""
    calls = calls_by_name(modules)
    found = []
    for qualified, node in definitions(modules, private=False).items():
        if isinstance(node, ast.ClassDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        defaulted = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
        defaulted += [(arg.arg, None) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if default is not None]
        kept = [name for name, position in defaulted
                if keep([passes(call, name, position) for call in calls[node.name]])]
        if kept:
            found.append((qualified, kept))
    return found


def unpassed_parameters(modules):
    """The defaulted parameters that no call in the package passes."""
    return defaulted_parameters(modules, lambda passed: not any(passed))


def always_passed_parameters(modules):
    """The defaulted parameters that every call in the package passes, of functions the package calls."""
    return defaulted_parameters(modules, lambda passed: bool(passed) and all(passed))


def test_every_defaults_constant_is_read_by_another_module():
    assert sorted(unread_constants(parsed_modules())) == []


def test_every_public_definition_is_used_in_the_package():
    assert sorted(unused_names(parsed_modules()) - TEST_ONLY) == []


def test_every_private_definition_is_used_in_the_package():
    assert sorted(unused_names(parsed_modules(), private=True)) == []


def test_the_test_only_names_are_public_and_unused():
    """A name on the exception list that the package starts to use, or that is gone, comes off the list."""
    modules = parsed_modules()
    assert TEST_ONLY <= set(definitions(modules, private=False))
    assert TEST_ONLY <= unused_names(modules)


def test_every_defaulted_parameter_is_passed_in_the_package():
    """A default that every caller keeps is a constant, and its parameter a knob that nothing turns.

    An exception on the list that the package starts to pass comes off it.
    """
    assert unpassed_parameters(parsed_modules()) == OUTSIDE_CALLERS


def test_no_defaulted_parameter_is_passed_by_every_call():
    """A default that every call in the package overrides is used only by tests, which then run a value that the
    package states again elsewhere (a CLI flag or a config dataclass) and can drift from it."""
    assert always_passed_parameters(parsed_modules()) == []
