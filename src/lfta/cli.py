"""Command-line front end.

Loads one or more workspace files, runs a command against the named objects
and prints a deterministic line-oriented report.  Decision commands exit 0
for yes and 1 for no; any error exits 2 with a message on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import chain as chain_ops
from . import decide, oracle, paths, transforms
from .errors import FuzzyTreeError, UnknownCommandError
from .recognizers import LDtRecognizer, LNdtRecognizer, dt_to_ndt
from .terms import delta as tree_paths
from .terms import HOLE, parse_context, parse_path, parse_tree
from .workspace import (
    Workspace,
    load,
    serialize_alphabet,
    serialize_lattice,
    serialize_recognizer,
)

YES, NO = ("yes", 0), ("no", 1)


def _decision(flag):
    return YES if flag else NO


def _fuzzy(ws, name, kinds=(LDtRecognizer, LNdtRecognizer)):
    rec = ws.recognizer(name)
    if not isinstance(rec, kinds):
        wanted = " or ".join(k.__name__ for k in kinds)
        raise UnknownCommandError(f"{name!r} is not a {wanted}")
    return rec


def _ndt_view(rec):
    return dt_to_ndt(rec) if isinstance(rec, LDtRecognizer) else rec


def _tree_arg(ws, rec, text):
    t = ws.trees[text][1] if text in ws.trees else parse_tree(text)
    rec.algebra.alphabet.validate_tree(t)
    return t


def _path_arg(rec, text):
    r = parse_path(text)
    rec.algebra.alphabet.validate_path(r)
    return r


def _context_arg(rec, text):
    c = parse_context(text)
    rec.algebra.alphabet.validate_tree(c.tree, extra_leaves=(HOLE,))
    return c


def _render_recognizer(ws, name, rec):
    """Recognizer as workspace blocks, with any lattice/alphabet it introduces."""
    blocks = []
    alphabet_known = any(a == rec.algebra.alphabet for a in ws.alphabets.values())
    lattice = getattr(rec, "lattice", None)
    if lattice is not None and not any(l == lattice for l in ws.lattices.values()):
        blocks.append(serialize_lattice(ws.name_of_lattice(lattice), lattice))
    alphabet_name = ws.name_of_alphabet(rec.algebra.alphabet)
    if not alphabet_known:
        blocks.append(serialize_alphabet(alphabet_name, rec.algebra.alphabet))
    lattice_name = ws.name_of_lattice(lattice) if lattice is not None else None
    blocks.append(serialize_recognizer(name, rec, lattice_name, alphabet_name))
    return "\n".join(blocks)


def run(command, args, ws, budget=decide.DEFAULT_BUDGET):
    """Execute one command; returns (report text, exit code).

    `--as NAME` anywhere in `args` names the recognizer a command writes and
    is no operand.
    """
    name = None
    if "--as" in args:
        at = args.index("--as")
        name, args = args[at + 1], args[:at] + args[at + 2 :]
    if command == "eval":
        rec = _fuzzy(ws, args[0])
        t = _tree_arg(ws, rec, args[1])
        return str(rec.degree(t)), 0
    if command == "eval-path":
        rec = _fuzzy(ws, args[0])
        r = _path_arg(rec, args[1])
        if isinstance(rec, LDtRecognizer):
            return str(paths.path_degree(rec, r)), 0
        return str(chain_ops.path_degree_ndt(rec, r)), 0
    if command == "delta":
        alphabet = ws.alphabet(args[0])
        t = parse_tree(args[1])
        alphabet.validate_tree(t)
        return "\n".join(str(r) for r in tree_paths(t)), 0
    if command == "paths":
        rec = _fuzzy(ws, args[0], (LDtRecognizer,))
        t = _tree_arg(ws, rec, args[1])
        lines = [f"{r} : {paths.path_degree(rec, r)}" for r in tree_paths(t)]
        return "\n".join(lines), 0
    if command == "transform":
        return _transform(args, ws, name or "out")
    if command == "decide":
        return _decide(args, ws, budget)
    if command == "normalize":
        rec = _fuzzy(ws, args[0])
        result = (
            chain_ops.normalize_dt(rec)
            if isinstance(rec, LDtRecognizer)
            else chain_ops.normalize(rec)
        )
        return _render_recognizer(ws, name or f"{args[0]}_norm", result), 0
    if command == "subset":
        rec = _fuzzy(ws, args[0], (LNdtRecognizer,))
        return _render_recognizer(ws, name or f"{args[0]}_subset", chain_ops.subset_recognizer(rec)), 0
    if command == "path-closure":
        rec = _ndt_view(_fuzzy(ws, args[0]))
        result = chain_ops.path_closure_recognizer(rec)
        return _render_recognizer(ws, name or f"{args[0]}_closure", result), 0
    if command == "level-set":
        rec = _fuzzy(ws, args[0], (LDtRecognizer,))
        value = args[1]
        result = decide.level_set(rec, value)
        report = _render_recognizer(ws, name or f"{args[0]}_level", result)
        if not decide.level_in_domain(rec, value):
            report = f"# warning: {value} is outside the attainable meet-closure; empty recognizer\n" + report
        return report, 0
    if command == "range":
        rec = _fuzzy(ws, args[0], (LDtRecognizer,))
        values = decide.value_range(rec, budget)
        ordered = [e for e in rec.lattice.elements if e in values]
        return "\n".join(ordered), 0
    if command == "pump":
        rec = _fuzzy(ws, args[0], (LDtRecognizer,))
        t = _tree_arg(ws, rec, args[1])
        d = decide.pump_decompose(rec, t)
        return f"prefix {d.prefix}\nloop {d.loop}\nsuffix {d.suffix}", 0
    if command == "witness":
        rec = _fuzzy(ws, args[0], (LNdtRecognizer,))
        r = _path_arg(rec, args[1])
        normalized = chain_ops.normalize(rec)
        t = chain_ops.witness_tree(normalized, r)
        return str(t), 0
    if command == "oracle-eval":
        rec = _fuzzy(ws, args[0])
        t = _tree_arg(ws, rec, args[1])
        return str(oracle.eval_reference(rec, t)), 0
    raise UnknownCommandError(f"unknown command {command!r}")


def _transform(args, ws, name):
    sub, rest = args[0], args[1:]
    if sub == "intersect":
        result = transforms.intersect(_fuzzy(ws, rest[0], (LDtRecognizer,)), _fuzzy(ws, rest[1], (LDtRecognizer,)))
    elif sub == "topcat":
        result = transforms.top_concat(rest[0], [_fuzzy(ws, n, (LDtRecognizer,)) for n in rest[1:]])
    elif sub == "quotient":
        rec = _fuzzy(ws, rest[0], (LDtRecognizer,))
        result = transforms.context_quotient(rec, _context_arg(rec, rest[1]))
    elif sub == "embed":
        rec = _fuzzy(ws, rest[0], (LDtRecognizer,))
        result = transforms.context_embed(rec, _context_arg(rec, rest[1]))
    elif sub == "invhom":
        result = transforms.inverse_hom(_fuzzy(ws, rest[0], (LDtRecognizer,)), ws.hom(rest[1]))
    elif sub == "image":
        result = transforms.alphabetic_image(_fuzzy(ws, rest[0], (LDtRecognizer,)), ws.hom(rest[1]))
    elif sub == "scalar":
        result = transforms.scalar(_fuzzy(ws, rest[0], (LDtRecognizer,)), rest[1])
    elif sub == "cut":
        result = transforms.cut(_fuzzy(ws, rest[0], (LDtRecognizer,)), rest[1])
    elif sub == "lattice-map":
        result = transforms.map_values(_fuzzy(ws, rest[0], (LDtRecognizer,)), ws.morphism(rest[1]))
    elif sub == "product":
        left, right = _fuzzy(ws, rest[0]), _fuzzy(ws, rest[1])
        if isinstance(left, LDtRecognizer) and isinstance(right, LDtRecognizer):
            result = transforms.product_dt(left, right).recognizer
        else:
            result = transforms.parallel_product(_ndt_view(left), _ndt_view(right)).recognizer
    else:
        raise UnknownCommandError(f"unknown transform {sub!r}")
    return _render_recognizer(ws, name, result), 0


def _decide(args, ws, budget):
    sub, rest = args[0], args[1:]
    unary = {
        "empty": decide.is_empty_support,
        "finite": decide.is_finite_support,
        "constant": decide.is_constant,
        "crisp": decide.is_crisp,
    }
    if sub in unary:
        return _decision(unary[sub](_fuzzy(ws, rest[0], (LDtRecognizer,)), budget))
    if sub in ("included", "equal", "disjoint"):
        cmp = decide.compare(
            _fuzzy(ws, rest[0], (LDtRecognizer,)), _fuzzy(ws, rest[1], (LDtRecognizer,)), budget
        )
        return _decision({"included": cmp.included, "equal": cmp.equivalent, "disjoint": cmp.disjoint}[sub])
    if sub == "ndt-equal":
        left = _ndt_view(_fuzzy(ws, rest[0]))
        right = _ndt_view(_fuzzy(ws, rest[1]))
        return _decision(decide.ndt_equivalent(left, right, budget))
    if sub == "dt-recognizable":
        rec = _ndt_view(_fuzzy(ws, rest[0]))
        return _decision(chain_ops.is_dt_recognizable(rec, budget))
    raise UnknownCommandError(f"unknown decision {sub!r}")


_PARSER = argparse.ArgumentParser(
    prog="lfta",
    description="Lattice-valued fuzzy top-down tree automata toolbox.",
)
_PARSER.add_argument("-f", "--file", action="append", help="workspace file (repeatable)")
_PARSER.add_argument("--budget", type=int, default=decide.DEFAULT_BUDGET, help="guard for enumerations and fixpoints")
_PARSER.add_argument("command", help="command to run")
_PARSER.add_argument("args", nargs=argparse.REMAINDER, help="command arguments")


def main(argv=None):
    ns = _PARSER.parse_args(argv)
    try:
        ws = load(ns.file) if ns.file else Workspace()
        report, code = run(ns.command, ns.args, ws, ns.budget)
    except FuzzyTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IndexError, KeyError) as exc:
        print(f"error: bad or missing argument ({exc})", file=sys.stderr)
        return 2
    if report:
        print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
