"""Constructions build through the unchecked `_built` constructors; the checked ones take input from outside.

A call counts when it names one of the checked constructors, bare or as an
attribute (`DtAlgebra(...)`, `automata.DtAlgebra(...)`); `DtAlgebra._built(...)`
does not.  A new construction that calls a checked constructor fails here,
so it starts on the unchecked path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lfta"

CHECKED = {"DtAlgebra", "NdtAlgebra", "LDtRecognizer", "LNdtRecognizer", "DtRecognizer", "NdtRecognizer"}

# modules whose every call reads input from outside lfta, and why
ALLOWED_MODULES = {
    "workspace": "recognizers read from workspace text",
    "fixtures": "hand-written example recognizers",
}

# (module, qualified function) of each other call site allowed, and why
ALLOWED = {
    ("recognizers", "from_finite_language"),  # a caller's support mapping; the public checks complete its rows
}


def _checked_calls(module, tree):
    found = set()
    stack = [(node, ()) for node in tree.body]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in CHECKED:
                found.add((module, ".".join(scope)))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def test_only_input_from_outside_calls_the_checked_constructors():
    assert all((SRC / f"{module}.py").exists() for module in ALLOWED_MODULES)
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem not in ALLOWED_MODULES:
            found |= _checked_calls(path.stem, ast.parse(path.read_text(), filename=str(path)))
    assert found == ALLOWED
