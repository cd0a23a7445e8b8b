"""cli-roundtrip: generated workspace files driven through in-process `lfta.cli.main`.

The only workload whose time goes to text parsing, `Tree` construction and
serialization (writes) rather than evaluation (reads), so a change that pays
at construction to save at evaluation (hash-consing) shows its cost here and
its benefit in eval-batch.  Interpreter start-up is left out on purpose: it
would swamp the program.  Spines of height 10^3, 10^4 and 10^5 go to `eval`,
`paths` and `pump`; at the parent commit they raise RecursionError.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import checks
import gen
from harness import Op, latency_summary, work_done
from lfta import chain, cli, decide, oracle, paths, terms, workspace
from lfta.lattice import LatticeMorphism

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench_out")
LATTICE_NAMES = {"b2": "B2", "diamond": "M2", "chain4": "C4", "chain8": "C8"}
CHAINS = ("B2", "C4", "C8")
ALPHABET_NAMES = {"f2": "Pair", "f2g1": "Mixed"}
DEEP_HEIGHTS = (10**3, 10**4, 10**5)
# (file, DT recognizers, NDT recognizers, their states, named trees, 2-state NDTs,
# stride).  Every command loads its file, so files of different sizes would
# split the command latencies into clusters with the median in the gap
# between two of them; the three files are alike in size (about 8 kB) and
# differ in their seeded contents.  Commands go to every stride-th DT and NDT
# recognizer, starting at the file's position in FILES, so that together the
# files give commands to every lattice and every size, and a pass stays short
# enough to be repeated many times in a run.  There are just under 200
# commands: the tail is then p90, with about ten successful commands beyond
# it besides the nine deep-spine failures.
FILES = (
    ("ws1", 8, 2, (4, 6, 8, 12), 12, 6, 2),
    ("ws2", 8, 2, (4, 6, 8, 12), 12, 6, 2),
    ("ws3", 8, 2, (4, 6, 8, 12), 12, 6, 2),
)
TINY_STATES = 2  # NDTs that path-closure and witness run on through the CLI
DELTAS = 7  # delta commands per alphabet and file
SAMPLE = 24

LATENCY_KINDS = ("cli",)
WORK_KINDS = ("roundtrip",)


def _workspace(rng, lats, alphs, spec):
    """A generated workspace and, per recognizer, (lattice name, alphabet name, states).

    Lattices, alphabets and state counts go round-robin, so a file's size and
    make-up do not depend on the seed; the seed draws the wiring and weights.
    """
    n_dt, n_ndt, sizes, n_trees, n_tiny, _ = spec
    ws = workspace.Workspace()
    for key, name in LATTICE_NAMES.items():
        ws.add_lattice(name, lats[key])
    for key, name in ALPHABET_NAMES.items():
        ws.add_alphabet(name, alphs[key])
    info = {}
    lattice_names, alphabet_names = list(LATTICE_NAMES.values()), list(ALPHABET_NAMES.values())

    def add(name, rec, lname, aname, n):
        ws.add_recognizer(name, rec)
        info[name] = (lname, aname, n)

    for i in range(n_dt):
        lname, aname, n = lattice_names[i % 4], alphabet_names[(i + i // 4) % 2], sizes[i % len(sizes)]
        add(f"D{i}", gen.random_dt(rng, ws.lattice(lname), ws.alphabet(aname), n), lname, aname, n)
    for i in range(n_ndt):
        lname, aname, n = CHAINS[i % 3], alphabet_names[i % 2], sizes[i % len(sizes)]
        add(f"N{i}", gen.random_ndt(rng, ws.lattice(lname), ws.alphabet(aname), n), lname, aname, n)
    for i in range(n_tiny):
        lname, aname = CHAINS[i % 3], alphabet_names[i % 2]
        rec = gen.random_ndt(rng, ws.lattice(lname), ws.alphabet(aname), TINY_STATES, choices=1, extra=1)
        add(f"S{i}", rec, lname, aname, TINY_STATES)
    for i in range(n_trees):
        aname = alphabet_names[i % 2]
        ws.add_tree(f"T{i}", aname, gen.random_tree(rng, ws.alphabet(aname), 6))
    for kind, h in gen.homs(ws.alphabet("Mixed")).items():
        ws.add_hom(f"H_{kind}", h)
    c4, b2 = ws.lattice("C4"), ws.lattice("B2")
    ws.add_morphism("TopOnly", LatticeMorphism(c4, b2, {e: "1" if e == c4.top else "0" for e in c4.elements}))
    return ws, info


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def unary_spine_text(height):
    return "g(" * height + "x" + ")" * height


def spine_degree(rec, height):
    """DT degree of the unary spine g^height(x), walked without recursion."""
    state = rec.initial
    for _ in range(height):
        (state,) = rec.algebra.step("g", state)
    return rec.weights["x"][state]


def _spine_height(text):
    inner = text.strip()
    height = 0
    while inner.startswith("g(") and inner.endswith(")"):
        inner, height = inner[2:-1], height + 1
    return height if inner in ("x", "@") else None


class _File:
    """One generated workspace file with the objects the checks need."""

    def __init__(self, rng, seed, name, lats, alphs, spec, pools, offset):
        ws, self.info = _workspace(rng, lats, alphs, spec)
        self.text = workspace.serialize(ws)
        self.path = os.path.join(OUT_DIR, f"cli-seed{seed}-{name}.lfta")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(self.text)
        self.ws = workspace.load_text(self.text)
        self.samples = {a: rng.sample(pools[key], SAMPLE) for key, a in ALPHABET_NAMES.items()}
        self.name = name
        self.stride, self.offset = spec[-1], offset

    def rec(self, name):
        return self.ws.recognizer(name)

    def sample(self, rec_name):
        return self.samples[self.info[rec_name][1]]


def _lines(text):
    return text.strip().split("\n") if text.strip() else []


def _output_check(expected_code, expected_lines=None):
    def check(result):
        code, out = result
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if expected_lines is not None and _lines(out) != expected_lines():
            return f"output {out.strip()[:80]!r} differs from the expected report"
        return None

    return check


def _reload_check(f, out_name, expected):
    """The output reloads with the file, re-serializes stably and evaluates as expected."""

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        ws2 = workspace.load_text(f.text + "\n" + out)
        if workspace.load_text(workspace.serialize(ws2)) != ws2:
            return "re-serialized workspace does not load back equal"
        return expected(ws2.recognizer(out_name))

    return check


def _pump_check(rec, text):
    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        parts = dict(line.split(" ", 1) for line in _lines(out))
        prefix, loop, suffix = parts["prefix"], parts["loop"], parts["suffix"]
        if prefix.replace("@", loop.replace("@", suffix)) != text:
            return "prefix . loop . suffix does not rebuild the tree"
        a, b, c = _spine_height(prefix), _spine_height(loop), _spine_height(suffix)
        if a is not None and b is not None and c is not None:
            want = spine_degree(rec, a + b + c)
            if any(spine_degree(rec, a + k * b + c) != want for k in (0, 2)):
                return "pumping changes the degree"
            return None
        t = terms.parse_tree(text)
        d = (terms.parse_context(prefix), terms.parse_context(loop), terms.parse_tree(suffix))
        want = oracle.eval_reference(rec, t)
        for k in (0, 2):
            u = d[2]
            for _ in range(k):
                u = d[1].fill(u)
            if oracle.eval_reference(rec, d[0].fill(u)) != want:
                return "pumping changes the degree"
        return None

    return check


def build(seed):
    rng = random.Random(seed)
    lats, alphs = gen.lattices(), gen.alphabets()
    pools = {key: [t for t in gen.pool(alphs[key]) if t.height <= 3] for key in ALPHABET_NAMES}
    os.makedirs(OUT_DIR, exist_ok=True)
    files = [_File(rng, seed, spec[0], lats, alphs, spec[1:], pools, k) for k, spec in enumerate(FILES)]
    ops = []
    for f in files:
        ops += _file_ops(rng, f)
    ops += _deep_ops(files[0])
    return ops


def _cmd(f, proc, argv, check, states="-", lattice="-", alphabet="-"):
    argv = ["-f", f.path] + argv
    return Op(proc, "cli", lambda: _run_cli(argv), check, states, lattice, alphabet)


def _roundtrip_op(f, kind, argv):
    """load_text + serialize of the file with one transform output appended."""
    code, out = _run_cli(["-f", f.path] + argv)
    if code != 0:
        raise RuntimeError(f"setup transform {argv} exited {code}")
    text = f.text + "\n" + out
    written = workspace.serialize(workspace.load_text(text))
    return Op(f"roundtrip.{kind}", "roundtrip", lambda: workspace.serialize(workspace.load_text(text)),
              lambda got: None if got == written else "serialization is not stable", lattice=f.name,
              work=len(text) + len(written))


def _file_ops(rng, f):
    ops, produced = [], []  # produced: argv of every command that prints a new recognizer

    def cmd(proc, name, argv, check):
        lname, aname, n = f.info[name]
        ops.append(_cmd(f, proc, argv, check, n, lname, aname))
        if "--as" in argv:
            produced.append(argv)

    dts = [n for n in f.info if n.startswith("D")]
    for name in dts[f.offset::f.stride]:
        _dt_commands(rng, f, name, dts, cmd)
    for name in f.info:
        if name.startswith("N") and int(name[1:]) % f.stride == f.offset % f.stride:
            _ndt_commands(rng, f, name, cmd)
        elif name.startswith("S"):
            _tiny_commands(rng, f, name, cmd)
    for aname in [a for a in ALPHABET_NAMES.values() for _ in range(DELTAS)]:
        t = gen.random_tree(rng, f.ws.alphabet(aname), 5)
        ops.append(_cmd(f, "delta", ["delta", aname, str(t)],
                        _output_check(0, lambda t=t: [str(p) for p in terms.delta(t)]), alphabet=aname))
    # one roundtrip per kind of output; product outputs are left out, their
    # serialization time is the product lattice's cover relation
    first = {}
    for argv in produced:
        first.setdefault(argv[1] if argv[0] == "transform" else argv[0], argv)
    first.pop("product", None)
    ops += [_roundtrip_op(f, kind, argv) for kind, argv in first.items()]
    return ops


def _dt_commands(rng, f, name, dts, cmd):
    rec, (lname, aname, n) = f.rec(name), f.info[name]
    lat, alph, sample = rec.lattice, f.ws.alphabet(aname), f.sample(name)
    ref = checks.ref
    named = [t for t in f.ws.trees if f.ws.trees[t][0] == aname]
    tname = rng.choice(named) if named else None
    t = f.ws.tree(tname) if tname else gen.random_tree(rng, alph, 4)
    targ = tname or str(t)
    path = rng.choice(terms.delta(t))
    cmd("eval", name, ["eval", name, targ], _output_check(0, lambda: [oracle.eval_reference(rec, t)]))
    cmd("eval-path", name, ["eval-path", name, str(path)], _output_check(0, lambda: [paths.path_degree(rec, path)]))
    cmd("paths", name, ["paths", name, targ],
        _output_check(0, lambda: [f"{p} : {paths.path_degree(rec, p)}" for p in terms.delta(t)]))
    cmd("range", name, ["range", name], _output_check(0, lambda: [e for e in lat.elements if e in decide.value_range(rec)]))
    forms = ("empty", "constant", "crisp", "finite") if n <= 8 else ("empty", "constant", "crisp")
    form = forms[int(name[1:]) % len(forms)]
    api = {"empty": decide.is_empty_support, "constant": decide.is_constant, "crisp": decide.is_crisp,
           "finite": decide.is_finite_support}[form]
    cmd(f"decide {form}", name, ["decide", form, name], lambda res: _output_check(0 if api(rec) else 1)(res))
    c = rng.choice(lat.elements)
    cmd("transform scalar", name, ["transform", "scalar", name, c, "--as", "Out"],
        _reload_check(f, "Out", lambda new: checks.pointwise(new, sample, lambda u: lat.meet(c, ref(rec, [u])[u]),
                                                             "scalar")))
    d = rng.choice(sorted(rec.final_weight_closure(), key=lat.elements.index))
    cmd("level-set", name, ["level-set", name, d, "--as", "Out"],
        _reload_check(f, "Out", lambda new: next((f"level set wrong at {u}" for u, v in ref(rec, sample).items()
                                                  if new.accepts(u) != (v == d)), None)))
    if aname == "Mixed":
        kind = rng.choice(("alphabetic", "deleting", "duplicating"))
        h = f.ws.hom(f"H_{kind}")
        cmd("transform invhom", name, ["transform", "invhom", name, f"H_{kind}", "--as", "Out"],
            _reload_check(f, "Out", lambda new: checks.pointwise(new, sample, lambda u: ref(rec, [h(u)])[h(u)],
                                                                 "invhom")))
    partners = [m for m in dts if m != name and f.info[m][:2] == (lname, aname) and f.info[m][2] * n <= 64]
    if partners:
        other = rng.choice(partners)
        orec = f.rec(other)
        cmd("transform intersect", name, ["transform", "intersect", name, other, "--as", "Out"],
            _reload_check(f, "Out", lambda new: checks.pointwise(
                new, sample, lambda u: lat.meet(ref(rec, [u])[u], ref(orec, [u])[u]), "intersect")))
        cmd("transform product", name, ["transform", "product", name, other, "--as", "Out"],
            _reload_check(f, "Out", lambda new: checks.pointwise(
                new, sample, lambda u: checks.pair(ref(rec, [u])[u], ref(orec, [u])[u]), "product")))
        if f.info[other][2] * n <= 16:
            rel = rng.choice(("included", "equal", "disjoint"))
            field = {"included": "included", "equal": "equivalent", "disjoint": "disjoint"}[rel]
            cmd(f"decide {rel}", name, ["decide", rel, name, other],
                lambda res: _output_check(0 if getattr(decide.compare(rec, orec), field) else 1)(res))
    if lname in CHAINS:
        cmd("normalize", name, ["normalize", name, "--as", "Out"],
            _reload_check(f, "Out", lambda new: checks.same_map(ref(new, sample), ref(rec, sample), "normalize")))
    if aname == "Mixed" and n <= 8:
        text = unary_spine_text(decide.height_bound(rec) + 1)
        cmd("pump", name, ["pump", name, text], _pump_check(rec, text))


def _ndt_commands(rng, f, name, cmd):
    rec, aname, sample = f.rec(name), f.info[name][1], f.sample(name)
    t = gen.random_tree(rng, f.ws.alphabet(aname), 4)
    path = rng.choice(terms.delta(t))
    cmd("eval", name, ["eval", name, str(t)], _output_check(0, lambda: [oracle.eval_reference(rec, t)]))
    cmd("eval-path", name, ["eval-path", name, str(path)], _output_check(0, lambda: [chain.path_degree_ndt(rec, path)]))
    cmd("subset", name, ["subset", name, "--as", "Out"],
        _reload_check(f, "Out", lambda new: next((f"subset path degree differs at {p}" for u in sample
                                                  for p in terms.delta(u)
                                                  if paths.path_degree(new, p) != chain.path_degree_ndt(rec, p)), None)))
    cmd("normalize", name, ["normalize", name, "--as", "Out"],
        _reload_check(f, "Out", lambda new: checks.same_map(checks.ref(new, sample), checks.ref(rec, sample),
                                                            "normalize")))


def _tiny_commands(rng, f, name, cmd):
    """Path closure and the witness construction on a 2-state NDT.

    The NDT deciders are left to decide-ndt: their cost varies by orders of
    magnitude between random instances, and here they would set the tail.
    """
    rec = f.rec(name)
    path = rng.choice(terms.delta(gen.random_tree(rng, rec.alphabet, 3)))

    def witness_check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        w = terms.parse_tree(out.strip())
        if path not in terms.delta(w):
            return f"witness {w} lacks the path {path}"
        if oracle.eval_reference(rec, w) != chain.path_degree_ndt(chain.normalize(rec), path):
            return f"witness {w} does not score the path degree"
        return None

    lat, sample = rec.lattice, f.sample(name)
    cmd("path-closure", name, ["path-closure", name, "--as", "Out"],
        _reload_check(f, "Out", lambda new: next((f"closure below the language at {u}" for u in sample
                                                  if not lat.leq(checks.ref(rec, [u])[u], checks.ref(new, [u])[u])),
                                                 None)))
    cmd("witness", name, ["witness", name, str(path)], witness_check)


def _deep_ops(f):
    """eval, paths and pump on unary spines of height 10^3, 10^4 and 10^5."""
    name = next(n for n in f.info if n.startswith("D") and f.info[n][1] == "Mixed")
    rec = f.rec(name)
    ops = []
    for height in DEEP_HEIGHTS:
        text = unary_spine_text(height)
        want = spine_degree(rec, height)
        ops.append(_cmd(f, "eval.deep", ["eval", name, text], _output_check(0, lambda w=want: [w]), height))
        ops.append(_cmd(f, "paths.deep", ["paths", name, text],
                        _output_check(0, lambda h=height, w=want: [" ".join(["g.1"] * h + ["x"]) + f" : {w}"]), height))
        ops.append(_cmd(f, "pump.deep", ["pump", name, text], _pump_check(rec, text), height))
    return ops


def named_metrics(m):
    cmds = latency_summary([m.latency(i) for i, op in enumerate(m.ops) if op.kind == "cli"])
    written, seconds = work_done(m, ("roundtrip",))
    return {
        "cli_cmd_p50_ms": (cmds["p50"] * 1e3, "ms"),
        f"cli_cmd_tail_ms(p{cmds['tail_p']:g})": (cmds["tail"] * 1e3, "ms"),
        "roundtrip_bytes_per_s": (written / seconds, "B/s"),
    }
