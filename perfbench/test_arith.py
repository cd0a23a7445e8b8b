"""Tests of the benchmark's own arithmetic.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_arith.py
"""

from __future__ import annotations

import math
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import harness  # noqa: E402
from spans import Tracer  # noqa: E402


def test_tail_percentile_leaves_at_least_ten_beyond():
    assert harness.tail_percentile(10) is None
    assert harness.tail_percentile(40) == 75.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(199) == 90.0
    assert harness.tail_percentile(200) == 95.0
    assert harness.tail_percentile(999) == 95.0
    assert harness.tail_percentile(1000) == 99.0
    for n in range(40, 3000, 7):
        p = harness.tail_percentile(n)
        assert n - harness.rank_of(p, n) >= harness.TAIL_MIN_BEYOND
        higher = [q for q in harness.PERCENTILES if q > p]
        assert all(n - harness.rank_of(q, n) < harness.TAIL_MIN_BEYOND for q in higher)


def test_latency_summary_reports_tail_and_samples_beyond():
    latencies = [i / 1000 for i in range(1, 201)]  # 1 ms .. 200 ms
    s = harness.latency_summary(latencies)
    assert s["n"] == 200 and s["tail_p"] == 95.0 and s["beyond"] == 10
    assert s["p50"] == 0.1 and s["tail"] == 0.19


def test_failures_rank_beyond_every_percentile():
    latencies = [0.5, None, 0.1, 0.3, None]
    assert harness.ranked(latencies) == [0.1, 0.3, 0.5, math.inf, math.inf]
    assert harness.percentile(latencies, 40.0) == 0.3
    assert harness.percentile(latencies, 50.0) == 0.5
    assert harness.percentile(latencies, 75.0) == math.inf
    # a failure outranks even a latency larger than any limit
    assert harness.percentile([1e9, None], 50.0) == 1e9
    many = [0.001] * 95 + [None] * 5
    s = harness.latency_summary(many)
    assert s["tail_p"] == 90.0 and s["tail"] == 0.001 and s["failed"] == 5
    s = harness.latency_summary([0.001] * 85 + [None] * 15)
    assert s["tail"] == math.inf


def test_self_time_subtracts_nested_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def at(t):
        now[0] = t

    at(0.0); tracer.open("a")
    at(1.0); tracer.open("b")
    at(2.0); tracer.open("c")
    at(4.0); tracer.close()   # c: 2..4
    at(5.0); tracer.close()   # b: 1..5, child 2
    at(6.0); tracer.open("c")
    at(7.0); tracer.close()   # c: 6..7
    at(10.0); tracer.close()  # a: 0..10, children 4 + 1
    assert tracer.total == {"a": 10.0, "b": 4.0, "c": 3.0}
    assert tracer.self_time == {"a": 5.0, "b": 2.0, "c": 3.0}
    assert tracer.calls == {"a": 1, "b": 1, "c": 2}
    parents = {span_id: parent for span_id, parent, _, _, _ in tracer.spans}
    names = {span_id: name for span_id, _, name, _, _ in tracer.spans}
    assert sorted((names[s], names.get(p)) for s, p in parents.items()) == [
        ("a", None), ("b", "a"), ("c", "a"), ("c", "b")]


def test_span_wrapper_counts_timeouts_and_states():
    tracer = Tracer()

    def stopped():
        raise harness.Timeout()

    wrapped = tracer.span("decide.compare", stopped)
    try:
        wrapped()
    except harness.Timeout:
        pass
    assert tracer.timeouts["decide.compare"] == 1 and tracer.calls["decide.compare"] == 1 and not tracer.stack


def _population(module_name, seed):
    import importlib

    module = importlib.import_module(module_name)
    ops = module.build(seed)
    return ops, [(op.proc, op.kind, op.states, op.lattice, op.alphabet, op.work) for op in ops]


def _results(ops, count):
    return [harness.attempt(op.fn, 5.0)[0] for op in ops[:count]]


def test_same_seed_same_population():
    for module_name, probe in (("eval_batch", 6), ("decide_dt", 6), ("decide_ndt", 6), ("cli_roundtrip", 6)):
        ops_a, shape_a = _population(module_name, 7)
        ops_b, shape_b = _population(module_name, 7)
        assert shape_a == shape_b, module_name
        first_a, first_b = _results(ops_a, probe), _results(ops_b, probe)
        assert first_a == first_b, module_name


def test_other_seed_other_population():
    ops_a, _ = _population("eval_batch", 7)
    ops_b, _ = _population("eval_batch", 8)
    assert _results(ops_a, 4) != _results(ops_b, 4)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")


def test_operation_latency_is_the_median_of_its_samples():
    m = harness.Measurement([None, None])
    m.samples = [[0.003, 0.001, 0.009, 0.002, 0.004], [0.001]]
    m.error = [None, "timeout"]
    assert m.latency(0) == 0.003
    assert m.latency(1) is None
