"""Lattice guards stand only where a proof needs them; each one is listed here with its reason.

A guard is a call of `require_chain` or `require_distributive`, bare or as an
attribute, or a raise of `NotAChainError`, `NonDistributiveLatticeError` or
`ZeroNotIrreducibleError`.  A procedure that needs no guard of its own
reaches one through what it calls (`normalize` through `max_values`), so a
new guard has to name the proof that needs it.  `oracle.py` is the
independent reference and is not scanned.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lfta"

GUARD_CALLS = {"require_chain", "require_distributive"}
GUARD_ERRORS = {"NotAChainError", "NonDistributiveLatticeError", "ZeroNotIrreducibleError"}

# (module, qualified function) of each guard allowed, and why
ALLOWED = {
    ("chain", "require_chain"),  # the chain guard itself
    ("recognizers", "GeneralLNdtRecognizer.require_distributive"),  # the distributivity guard itself
    ("chain", "max_values"),  # a best degree per state needs a total order
    # the path-closure criterion is proved on chains; deterministic input is answered before the gate, on any lattice
    ("chain", "is_dt_recognizable"),
    ("recognizers", "general_to_simple"),  # pushing a weight into a join needs distributivity
    # keeping the nonzero weights gives the support only when nonzero degrees meet above zero
    ("transforms", "support_dt"),
}


def _name(node):
    """The called or raised name: `f` of `f(...)`, `m.f(...)`, `E` or `E(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _guards(module, tree):
    found = set()
    stack = [(node, ()) for node in tree.body]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call) and _name(node) in GUARD_CALLS:
            found.add((module, ".".join(scope)))
        elif isinstance(node, ast.Raise) and node.exc is not None and _name(node.exc) in GUARD_ERRORS:
            found.add((module, ".".join(scope)))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def test_only_the_listed_procedures_guard_the_lattice():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "oracle.py":
            found |= _guards(path.stem, ast.parse(path.read_text(), filename=str(path)))
    assert found == ALLOWED
