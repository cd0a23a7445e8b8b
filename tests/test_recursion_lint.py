"""Tree walks run on an explicit stack; the few functions that still call themselves are listed here.

A function counts as recursive when its body calls it by name, as
`self.<name>`, or, for `__call__`, as `self(...)`, or when it reads its own
bare name without binding that name itself, as in `map(<name>, ...)`.
`oracle.py` is the independent reference and is not scanned.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lfta"

# (module, qualified name) of each function allowed to call itself, and why
ALLOWED = {
    ("terms", "parse_tree.node"),  # the CLI's entry point; deep inputs fail here before they cost memory
    ("automata", "state_token"),  # recurses on the nesting of constructed state names
    ("automata", "_sorted_repr"),  # recurses on the nesting of constructed states, as state_token does
}


def _bound_names(function):
    """The names a function binds: its parameters and every name stored anywhere in its body."""
    names = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
    return names | {n.id for n in ast.walk(function) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _self_calls(module, tree):
    found = set()
    stack = [(node, ()) for node in tree.body]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
            names = {node.name, "self"} if node.name == "__call__" else {node.name}
            if node.name not in _bound_names(node) and any(
                isinstance(n, ast.Name) and n.id == node.name and isinstance(n.ctx, ast.Load) for n in ast.walk(node)
            ):
                found.add((module, ".".join(scope)))
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                by_name = isinstance(func, ast.Name) and func.id in names
                by_self = (
                    isinstance(func, ast.Attribute)
                    and func.attr == node.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                )
                if by_name or by_self:
                    found.add((module, ".".join(scope)))
                    break
        elif isinstance(node, ast.ClassDef):
            scope = scope + (node.name,)
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def test_only_the_listed_functions_recurse():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "oracle.py":
            found |= _self_calls(path.stem, ast.parse(path.read_text(), filename=str(path)))
    assert found == ALLOWED
