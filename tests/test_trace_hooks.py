"""The traced benchmark run wraps lfta functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(SPANS_FILE.parent))  # spans.py imports its sibling harness.py
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, path in spans.SPANS + spans.COUNTERS:
        module = importlib.import_module(f"lfta.{module_name}")
        owner, _, name = path.rpartition(".")
        # methods are looked up in the class's own namespace, as the tracer does
        namespace = vars(getattr(module, owner)) if owner else vars(module)
        assert callable(namespace.get(name)), f"lfta.{module_name}.{path} does not resolve"
