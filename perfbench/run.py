#!/usr/bin/env python3
"""The lfta benchmark: one seeded workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload eval-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics from a traced pass.  `--workload all` runs the four workloads one
after another, each in its own process.  Every answer is checked outside the
timed regions; a wrong answer makes the exit code 1.  The last line of
standard output is one JSON object.  Detail rows (one per operation) go to
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = {
    "eval-batch": "eval_batch",
    "decide-dt": "decide_dt",
    "decide-ndt": "decide_ndt",
    "cli-roundtrip": "cli_roundtrip",
}
DEFAULT_SEED = 1
RUN_SECONDS = 20  # run_seconds in BENCHMARK.json
LIMIT_S = 1.0  # per-operation wall-clock limit
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 5, 2.0  # setup_s is the median of these repeats
RELOADED = ("gen", "checks") + tuple(WORKLOADS.values())

# The end-to-end metrics every untraced run prints, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
}


def _purge():
    for name in list(sys.modules):
        if name == "lfta" or name.startswith("lfta.") or name in RELOADED:
            del sys.modules[name]


def setup(module_name, seed):
    """Import the program and build the inputs, at least SETUP_MIN_REPEATS times
    and for at least SETUP_MIN_SECONDS; keep the last build."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        # drop the previous build first, so builds never overlap in memory
        module = ops = None
        _purge()
        gc.collect()
        start = time.perf_counter()
        module = importlib.import_module(module_name)
        ops = module.build(seed)
        times.append(time.perf_counter() - start)
    gc.collect()  # the timed loop does not pay for the garbage of the build
    return module, ops, statistics.median(times), len(times)


def run_checks(m):
    """Check the first-pass answer of every operation that did not fail."""
    wrong = []
    for i, op in enumerate(m.ops):
        if m.error[i] is not None or op.check is None:
            continue
        try:
            message = op.check(m.first[i])
        except Exception as exc:  # a check that raises is a wrong answer, never a skipped one
            message = f"check raised {type(exc).__name__}: {exc}"
        if message is not None:
            wrong.append(f"{op.proc} [{op.lattice} {op.alphabet} {op.states}]: {message}")
    return wrong


def write_rows(m, path):
    """One detail row per operation: seconds, or '>limit' / the error it raised."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("procedure\tkind\tstates\tlattice\talphabet\twork\tseconds\n")
        for i, op in enumerate(m.ops):
            if m.error[i] is None:
                value = f"{m.latency(i):.6f}"
            else:
                value = f">{LIMIT_S:g}" if m.error[i] == "timeout" else m.error[i]
            handle.write(f"{op.proc}\t{op.kind}\t{op.states}\t{op.lattice}\t{op.alphabet}\t{op.work}\t{value}\n")


def failure_counts(m):
    counts = {}
    for i, op in enumerate(m.ops):
        if m.error[i] is not None:
            key = f"{op.proc}:{m.error[i]}"
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def scaling_lines(m):
    """Median seconds per procedure and state count, failures shown as counts."""
    groups = {}
    for i, op in enumerate(m.ops):
        groups.setdefault((op.proc, op.states), []).append(m.latency(i))
    lines = []
    for (proc, states), values in sorted(groups.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        ok = [v for v in values if v is not None]
        median = f"{statistics.median(ok) * 1e3:.3f}ms" if ok else "-"
        lines.append(f"scaling {proc} states={states} n={len(values)} median={median} failed={len(values) - len(ok)}")
    return lines


def e2e_metrics(module, m, setup_s, peak_rss_mb):
    import harness

    latencies = [m.latency(i) for i, op in enumerate(m.ops) if op.kind in module.LATENCY_KINDS]
    summary = harness.latency_summary(latencies)
    work, seconds = harness.work_done(m, module.WORK_KINDS)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1.0 - m.failures() / len(m.ops),
        # a percentile that falls on a failed operation reads as the limit
        "op_p50_ms": min(summary["p50"], LIMIT_S) * 1e3,
        "op_tail_ms": min(summary["tail"], LIMIT_S) * 1e3,
        "work_per_s": work / seconds,
    }
    return values, summary


def run_one(args):
    from harness import measure

    module_name = WORKLOADS[args.workload]
    module, ops, setup_s, setups = setup(module_name, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(f"workload {args.workload} seed {args.seed} ops {len(ops)} limit {LIMIT_S:g}s "
          f"setup_s {setup_s:.4f} (median of {setups})")

    if args.trace:
        from spans import Tracer, install, layer_metrics

        # two untraced passes: the first is checked, the second (warm) is the
        # baseline that the traced pass is compared with
        m = measure(ops, 0.0, LIMIT_S, passes=2)
        wrong = run_checks(m)
        tracer = Tracer()
        install(tracer)
        traced = measure(ops, 0.0, LIMIT_S, passes=1)
        both = [i for i in range(len(ops)) if m.error[i] is None and traced.error[i] is None]
        untraced_s = sum(m.samples[i][-1] for i in both)
        traced_s = sum(traced.latency(i) for i in both)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics(tracer).items()}
        metrics["trace_overhead"] = {"value": traced_s / untraced_s, "unit": "ratio"}
        tracer.write_spans(stem + "-spans.jsonl")
        write_rows(traced, stem + "-rows.tsv")
        result_m = traced
    else:
        m = measure(ops, args.seconds, LIMIT_S)
        # the peak of set-up and timed work, before the checks add their own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        start = time.perf_counter()
        wrong = run_checks(m)
        print(f"checks {len(ops)} answers in {time.perf_counter() - start:.2f}s, {len(wrong)} wrong")
        values, summary = e2e_metrics(module, m, setup_s, peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        print(
            f"passes {m.passes} latency ops {summary['n']} tail p{summary['tail_p']:g} "
            f"{min(summary['tail'], LIMIT_S) * 1e3:.6g} ms ({summary['beyond']} samples beyond it, "
            f"{summary['failed']} failed)"
        )
        for name, (value, unit) in module.named_metrics(m).items():
            print(f"named {name} {value:.6g} {unit}")
        write_rows(m, stem + "-rows.tsv")
        result_m = m

    for line in scaling_lines(result_m):
        print(line)
    for key, count in failure_counts(result_m).items():
        print(f"failures {key} {count}")
    for message in wrong:
        print(f"WRONG {message}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": result_m.failures(), "metrics": metrics}))
    return 1 if wrong else 0


def run_all(args):
    """Each workload in its own process, one after another."""
    results, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()) or 1,
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lfta", "__init__.py")):
        print(f"error: no lfta sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
