"""Every Philox stream tag of ``src/phototact`` is distinct.

``phantom.rng_stream(seed, stream)`` keys a random stream by its seed and a
tag, so two modules that share a tag draw the same numbers from the same
seed.  The tags are the module-level ``STREAM_*`` and ``_STREAM_*``
constants; the walk reads them from the ASTs of the package's modules.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phototact"


def parsed_modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def stream_tags():
    """``{tag value: ["module.NAME", ...]}`` of every module-level stream tag in the package."""
    tags = defaultdict(list)
    for module, tree in parsed_modules().items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(
                node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.lstrip("_").startswith("STREAM_"):
                    tags[ast.literal_eval(node.value)].append(f"{module}.{target.id}")
    return tags


def called(call):
    """The name of the function a call node calls: ``f`` of ``f(...)`` and of ``module.f(...)``."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_every_stream_tag_is_distinct():
    assert {value: names for value, names in stream_tags().items() if len(names) > 1} == {}


def test_every_stream_is_keyed_by_a_tag():
    """A stream keyed by a literal or by another name would escape the distinctness check.

    ``sub_seeds`` passes its own ``stream`` parameter on to ``rng_stream``.
    """
    names = {name.split(".")[1] for names in stream_tags().values() for name in names}
    keys = [node.args[1] for tree in parsed_modules().values() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and called(node) in ("rng_stream", "sub_seeds")]
    assert len(keys) >= len(names)
    assert [ast.unparse(key) for key in keys if not (isinstance(key, ast.Name) and key.id in names | {"stream"})] == []
