"""The traced benchmark run wraps lfta functions by name; every name must resolve."""

import ast
import importlib
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_entries():
    """SPANS and COUNTERS read from the source of spans.py, without running it or its harness."""
    tree = ast.parse(SPANS_FILE.read_text(encoding="utf-8"))
    lists = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTERS")
    }
    return lists["SPANS"] + lists["COUNTERS"]


def test_every_traced_name_resolves_as_the_wrapper_looks_it_up():
    entries = _traced_entries()
    assert len(entries) == len(set(entries)) > 0
    for module_name, path in entries:
        module = importlib.import_module(f"lfta.{module_name}")
        if "." in path:  # a method, which `_wrap` reads from the class's own namespace
            cls_name, method = path.split(".")
            assert callable(vars(getattr(module, cls_name)).get(method)), f"lfta.{module_name}.{path}"
        else:
            assert callable(getattr(module, path, None)), f"lfta.{module_name}.{path}"
