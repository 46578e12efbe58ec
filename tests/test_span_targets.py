"""The benchmark's tracer can find every function it times.

`perfbench/spans.py` patches each `TARGETS` entry through
`vars(owner)[attr]`, so a deleted or renamed function breaks
`perfbench/run.py --trace 1` with a KeyError.  The file is parsed, not
imported: nothing under perfbench/ runs or is written.
"""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_span_target_is_an_attribute_of_its_owner():
    targets = span_targets()
    assert len(targets) > 20
    missing = []
    for module, path, span in targets:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{span} ({module}.{path})")
    assert not missing, f"span targets missing from llct: {missing}"
