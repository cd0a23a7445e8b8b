"""Timing arithmetic shared by every workload.

One caller, one thread, closed loop: each operation starts only after the
previous one has returned.  Operations are stopped at a per-instance
wall-clock limit enforced with `signal.setitimer` on the main thread; a stopped
or raising operation is a failure, and failures rank beyond every latency
percentile.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

# Candidate tail percentiles, lowest first; the tail is the highest one that
# still leaves at least TAIL_MIN_BEYOND samples beyond it.
PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


class Timeout(BaseException):
    """Raised inside an operation when its wall-clock limit expires.

    A BaseException, so no `except Exception` in the program under test can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise Timeout()


class Op:
    """One operation of a workload.

    `proc` names the procedure or command (detail rows and failure counts),
    `kind` the end-to-end bucket it feeds, `work` how many units (trees,
    bytes) one call processes; None means the states of the recognizer the
    call constructs.  `fn` takes no arguments and returns the
    result; `check(result)` returns None when the result is right, else a
    message.  It runs outside every timed region.
    """

    __slots__ = ("proc", "kind", "states", "lattice", "alphabet", "work", "fn", "check")

    def __init__(self, proc, kind, fn, check=None, states="-", lattice="-", alphabet="-", work=1):
        self.proc = proc
        self.kind = kind
        self.fn = fn
        self.check = check
        self.states = states
        self.lattice = lattice
        self.alphabet = alphabet
        self.work = work


def attempt(fn, limit):
    """Run `fn` under the wall-clock limit: (result, error name or None, seconds)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Timeout:
        return None, "timeout", time.perf_counter() - start
    except RecursionError:
        return None, "RecursionError", time.perf_counter() - start
    except Exception as exc:  # any other raise is a failed operation, counted by type
        return None, type(exc).__name__, time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    return result, None, time.perf_counter() - start


class Measurement:
    """Per-operation samples from repeated passes over one population."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.first = [None] * len(ops)
        self.error = [None] * len(ops)
        self.passes = 0

    def latency(self, i):
        """Median seconds of operation i over the passes, or None when it failed.

        The median, not the fastest sample: over repeated runs of the same
        inputs, the quartile distance of op_p50_ms was 14-46% of its median
        when built from the fastest of 10-20 samples, 2-7% from the median.
        """
        if self.error[i] is not None:
            return None
        return statistics.median(self.samples[i])

    def failures(self):
        return sum(e is not None for e in self.error)


def measure(ops, seconds, limit, passes=None):
    """Closed loop over `ops` until `seconds` have passed, or for exactly `passes` passes.

    The first pass always completes, so every operation has a result to
    check; later passes stop at the deadline.  An operation that fails is not
    run again: its failure stands for the run.
    """
    m = Measurement(ops)
    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(ops):
            if m.error[i] is not None:
                continue
            if m.passes and passes is None and time.perf_counter() >= deadline:
                return m
            result, error, elapsed = attempt(op.fn, limit)
            if error is not None:
                m.error[i] = error
                continue
            m.samples[i].append(elapsed)
            if m.passes == 0:
                m.first[i] = result
        m.passes += 1
        if m.passes == passes or (passes is None and time.perf_counter() >= deadline):
            return m


def rank_of(p, n):
    """1-based nearest-rank position of percentile p among n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n):
    """Highest candidate percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Returns None when n is too small for any candidate.
    """
    best = None
    for p in PERCENTILES:
        if n - rank_of(p, n) >= TAIL_MIN_BEYOND:
            best = p
    return best


def ranked(latencies):
    """Latencies sorted ascending, failures (None) placed beyond every value."""
    ok = sorted(x for x in latencies if x is not None)
    return ok + [math.inf] * (len(latencies) - len(ok))


def percentile(latencies, p):
    """Nearest-rank percentile; inf when the rank falls on a failure."""
    order = ranked(latencies)
    return order[rank_of(p, len(order)) - 1]


def latency_summary(latencies):
    """p50 and tail of per-operation latencies, failures ranked last."""
    n = len(latencies)
    tail_p = tail_percentile(n)
    return {
        "n": n,
        "failed": sum(x is None for x in latencies),
        "p50": percentile(latencies, 50.0),
        "tail_p": tail_p,
        "tail": percentile(latencies, tail_p) if tail_p is not None else math.inf,
        "beyond": n - rank_of(tail_p, n) if tail_p is not None else 0,
    }


def states_out(result):
    """State count of a constructed recognizer or algebra, else None."""
    rec = getattr(result, "recognizer", result)
    algebra = getattr(rec, "algebra", rec)
    states = getattr(algebra, "states", None)
    return len(states) if isinstance(states, tuple) else None


def work_done(m, kinds):
    """(work units, seconds) summed over the successful operations of the given kinds."""
    work = seconds = 0.0
    for i, op in enumerate(m.ops):
        if op.kind in kinds and m.error[i] is None:
            work += op.work if op.work is not None else states_out(m.first[i])
            seconds += m.latency(i)
    return work, seconds


def verdict_construct_metrics(m):
    """The decide workloads' own metrics: verdict latency, construction rate and size."""
    verdicts = latency_summary([m.latency(i) for i, op in enumerate(m.ops) if op.kind == "verdict"])
    states, seconds = work_done(m, ("construct",))
    built = sum(1 for i, op in enumerate(m.ops) if op.kind == "construct" and m.error[i] is None)
    return {
        "verdict_p50_ms": (verdicts["p50"] * 1e3, "ms"),
        f"verdict_tail_ms(p{verdicts['tail_p']:g})": (verdicts["tail"] * 1e3, "ms"),
        "construct_ops_per_s": (built / seconds, "ops/s"),
        "construct_states_out": (states, "states"),
    }
