"""Spans and counters around lfta's public functions, installed from outside.

The traced run wraps the functions below and rebinds every name in every
`lfta` module that refers to them, so nested calls become child spans (for
example `chain.is_dt_recognizable` -> `decide.ndt_compare`).  Hot methods get
counters instead of spans.  A span's self time is its duration minus the time
its child spans cover.  Nothing inside `src/lfta` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from harness import Timeout, states_out

# (module, attribute path) wrapped with a span.  Recursive functions are left
# out: a wrapper frame per level would move their recursion limit.
SPANS = [
    ("lattice", "Lattice.__init__"),
    ("lattice", "Lattice.meet_all"),
    ("lattice", "Lattice.join_all"),
    ("lattice", "Lattice.meet_closure"),
    ("lattice", "Lattice.sublattice_closure"),
    ("lattice", "Lattice.is_chain"),
    ("lattice", "Lattice.is_distributive"),
    ("lattice", "product"),
    ("terms", "parse_tree"),
    ("terms", "parse_path"),
    ("terms", "parse_context"),
    ("terms", "delta"),
    ("terms", "context_at"),
    ("recognizers", "LDtRecognizer.degree_map"),
    ("recognizers", "LDtRecognizer.degree_by_paths"),
    ("recognizers", "LNdtRecognizer.degree_map"),
    ("recognizers", "GeneralLNdtRecognizer.degree_map"),
    ("recognizers", "general_to_simple"),
    ("recognizers", "dt_to_ndt"),
    ("automata", "subset_algebra"),
    ("automata", "NdtRecognizer.nonempty"),
    ("transforms", "intersect"),
    ("transforms", "product_dt"),
    ("transforms", "inverse_hom"),
    ("transforms", "context_quotient"),
    ("transforms", "context_embed"),
    ("transforms", "scalar"),
    ("decide", "value_range"),
    ("decide", "is_finite_support"),
    ("decide", "compare"),
    ("decide", "pump_decompose"),
    ("decide", "ndt_compare"),
    ("decide", "level_set"),
    ("decide", "level_preimage_nonempty"),
    ("chain", "max_values"),
    ("chain", "is_normalized"),
    ("chain", "normalize"),
    ("chain", "normalize_dt"),
    ("chain", "subset_recognizer"),
    ("chain", "path_closure_recognizer"),
    ("chain", "is_dt_recognizable"),
    ("chain", "witness_tree"),
    ("paths", "degree_via_path_language"),
    ("workspace", "load_text"),
    ("workspace", "serialize"),
    ("cli", "main"),
]

# (module, attribute path) wrapped with a call counter only.
COUNTERS = [
    ("lattice", "Lattice.meet"),
    ("lattice", "Lattice.join"),
    ("lattice", "Lattice.leq"),
    ("terms", "Tree.__init__"),
    ("terms", "Tree.__eq__"),
    ("terms", "PathWord.__lt__"),
    ("automata", "DtAlgebra.leaf_run"),
    ("paths", "path_degree"),
]

KEEP_SPANS = 20_000  # spans kept whole for the span file; aggregates see every span


class Tracer:
    """Aggregates spans as they close; keeps the first KEEP_SPANS whole."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, start, child seconds, id]
        self.spans = []  # closed spans: (id, parent id, name, start, end)
        self.next_id = 0
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.timeouts = Counter()
        self.states_out = Counter()
        self.bytes = Counter()
        self.raised = Counter()

    def open(self, name):
        self.next_id += 1
        self.stack.append([name, self.clock(), 0.0, self.next_id])

    def close(self):
        name, start, child, span_id = self.stack.pop()
        end = self.clock()
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent, name, start, end))

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Timeout:
                self.timeouts[name] += 1
                raise
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                self.close()
            n = states_out(result)
            if n is not None:
                self.states_out[name] += n
            if name == "workspace.load_text":
                self.bytes["parsed"] += len(args[0])
            elif name == "workspace.serialize":
                self.bytes["written"] += len(result)
            elif name == "cli.main" and result == 2:
                self.counts["cli.main.exit_2"] += 1
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def module_self(self, module):
        prefix = module + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def module_states_out(self, module):
        prefix = module + "."
        return sum(v for k, v in self.states_out.items() if k.startswith(prefix))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _rebind(original, replacement):
    """Point every name in every lfta module that refers to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "lfta" or name.startswith("lfta."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _wrap(tracer, module_name, path, make):
    module = importlib.import_module(f"lfta.{module_name}")
    name = f"{module_name}.{path}"
    if "." in path:
        cls_name, method = path.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make(name, vars(cls)[method]))
    else:
        original = getattr(module, path)
        _rebind(original, make(name, original))


def install(tracer):
    """Wrap every target; the process stays traced until it exits."""
    for module_name, path in SPANS:
        _wrap(tracer, module_name, path, tracer.span)
    for module_name, path in COUNTERS:
        _wrap(tracer, module_name, path, tracer.counter)


def layer_metrics(tracer):
    """The per-layer metrics, by name, as (value, unit)."""
    t, s, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    return {
        "lattice.meet_calls": (counts["lattice.Lattice.meet"], "count"),
        "lattice.join_calls": (counts["lattice.Lattice.join"], "count"),
        "lattice.leq_calls": (counts["lattice.Lattice.leq"], "count"),
        "lattice.self_s": (tracer.module_self("lattice"), "s"),
        "lattice.is_distributive_calls": (calls["lattice.Lattice.is_distributive"], "count"),
        "terms.pathword_lt_calls": (counts["terms.PathWord.__lt__"], "count"),
        "terms.delta_calls": (calls["terms.delta"], "count"),
        "terms.delta.self_s": (s["terms.delta"], "s"),
        "terms.trees_built": (counts["terms.Tree.__init__"], "count"),
        "terms.tree_eq_calls": (counts["terms.Tree.__eq__"], "count"),
        "terms.parse_tree.self_s": (s["terms.parse_tree"], "s"),
        "terms.self_s": (tracer.module_self("terms"), "s"),
        "recognizers.degree_map.dt_s": (t["recognizers.LDtRecognizer.degree_map"], "s"),
        "recognizers.degree_map.ndt_s": (t["recognizers.LNdtRecognizer.degree_map"], "s"),
        "recognizers.degree_map.general_s": (t["recognizers.GeneralLNdtRecognizer.degree_map"], "s"),
        "recognizers.general_to_simple.self_s": (s["recognizers.general_to_simple"], "s"),
        "recognizers.general_to_simple.states_out": (tracer.states_out["recognizers.general_to_simple"], "states"),
        "automata.subset_algebra.self_s": (s["automata.subset_algebra"], "s"),
        "automata.subset_algebra.states_out": (tracer.states_out["automata.subset_algebra"], "states"),
        "automata.leaf_run_calls": (counts["automata.DtAlgebra.leaf_run"], "count"),
        "automata.nonempty.self_s": (s["automata.NdtRecognizer.nonempty"], "s"),
        "transforms.self_s": (tracer.module_self("transforms"), "s"),
        "transforms.states_out": (tracer.module_states_out("transforms"), "states"),
        "transforms.inverse_hom.self_s": (s["transforms.inverse_hom"], "s"),
        "decide.value_range.self_s": (s["decide.value_range"], "s"),
        "decide.compare.self_s": (s["decide.compare"], "s"),
        "decide.compare.timeouts": (tracer.timeouts["decide.compare"], "count"),
        "decide.is_finite_support.self_s": (s["decide.is_finite_support"], "s"),
        "decide.is_finite_support.timeouts": (tracer.timeouts["decide.is_finite_support"], "count"),
        "decide.pump_decompose.self_s": (s["decide.pump_decompose"], "s"),
        "decide.level_set.self_s": (s["decide.level_set"], "s"),
        "decide.level_set.states_out": (tracer.states_out["decide.level_set"], "states"),
        "decide.ndt_compare.self_s": (s["decide.ndt_compare"], "s"),
        "decide.ndt_compare.timeouts": (tracer.timeouts["decide.ndt_compare"], "count"),
        "chain.is_dt_recognizable.self_s": (s["chain.is_dt_recognizable"], "s"),
        "chain.is_dt_recognizable.timeouts": (tracer.timeouts["chain.is_dt_recognizable"], "count"),
        "chain.max_values.self_s": (s["chain.max_values"], "s"),
        "chain.normalize.self_s": (s["chain.normalize"], "s"),
        "chain.normalize.states_out": (tracer.states_out["chain.normalize"], "states"),
        "chain.subset_recognizer.self_s": (s["chain.subset_recognizer"], "s"),
        "chain.subset_recognizer.states_out": (tracer.states_out["chain.subset_recognizer"], "states"),
        "chain.witness_tree.self_s": (s["chain.witness_tree"], "s"),
        "paths.degree_via_path_language.self_s": (s["paths.degree_via_path_language"], "s"),
        "paths.path_degree_calls": (counts["paths.path_degree"], "count"),
        "workspace.load_text.self_s": (s["workspace.load_text"], "s"),
        "workspace.bytes_parsed": (tracer.bytes["parsed"], "B"),
        "workspace.serialize.self_s": (s["workspace.serialize"], "s"),
        "workspace.bytes_written": (tracer.bytes["written"], "B"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main.self_s": (s["cli.main"], "s"),
        "cli.main.exit_2": (counts["cli.main.exit_2"], "count"),
        "cli.main.uncaught": (tracer.raised["cli.main"], "count"),
    }
