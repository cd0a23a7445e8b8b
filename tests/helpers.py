"""Seeded random generators shared by the property and acceptance tests.

Also the earlier DT deciders, by height layers and by pairs of lattice
values, kept as verdict references for the cut and cycle-test versions in
`lfta.decide`, and the evaluation kernel without its absorbing
short-circuits, kept as the reference for `lfta.automata._evaluate`,
the crisp NDT acceptance walk, kept as the reference for
`lfta.automata.NdtRecognizer.accepts`, the saturation loop over (value,
witness) items, kept as the reference for the values-only one in
`lfta.automata.saturate`, the character-at-a-time workspace tokenizer,
kept as the reference for the regular-expression one in `lfta.workspace`,
the lattice construction that scans the bounds of every pair, the
distributivity test over all triples and the join-irreducibles found by
joining everything below each element, kept as references for the bit-row
tables, the join-irreducible test and the lower-cover count in
`lfta.lattice`, the NDT
equivalence that saturates every joint vector over the states before it
scans them, kept as the reference for the block quotient in
`lfta.decide.ndt_compare`, the path witness walk that rescores the
rest of the path at every step, kept as the reference for the backward pass
in `lfta.chain.witness_tree`, and the DT-recognizability test that compares
every input with its path closure, kept as the reference for the
deterministic answer of `lfta.chain.is_dt_recognizable`.

`stdout_under_hash_seed` runs a script in a fresh interpreter, for the tests
that check an output does not follow string hashing.
"""

import os
import random
import subprocess
import sys
from itertools import product as iproduct
from math import prod

from lfta import chain as chain_ops
from lfta import decide, fixtures
from lfta.automata import Budget, DtAlgebra, NdtAlgebra, saturate
from lfta.errors import CycleInOrderError, ForeignElementError, MissingBoundError, NotALatticeError
from lfta.lattice import validate
from lfta.recognizers import (
    GeneralLNdtRecognizer,
    LDtRecognizer,
    LNdtRecognizer,
    check_same_alphabet,
    check_same_lattice,
    dt_to_ndt,
)
from lfta.terms import PathWord, Tree
from lfta.transforms import _dt_product_algebra


def lattice_menu():
    return [fixtures.b2(), fixtures.diamond(), fixtures.chain4()]


def m3():
    """Three atoms between 0 and 1: modular but not distributive."""
    return validate(["0", "a", "b", "c", "1"], [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


def n5():
    """The pentagon 0 < a < b < 1 with c beside a and b: not modular."""
    return validate(["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


def random_dt(rng, lattice, alphabet, max_states=4):
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = {
        f: {a: tuple(rng.choice(states) for _ in range(m)) for a in states}
        for f, m in alphabet.symbols
    }
    weights = {
        x: {a: rng.choice(lattice.elements) for a in states} for x in alphabet.leaves
    }
    return LDtRecognizer(lattice, DtAlgebra(alphabet, states, transitions), rng.choice(states), weights)


def random_ndt(rng, lattice, alphabet, max_states=4, max_choices=2):
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = {}
    for f, m in alphabet.symbols:
        rows = {}
        for a in states:
            k = rng.randint(0, max_choices)
            rows[a] = [tuple(rng.choice(states) for _ in range(m)) for _ in range(k)]
        transitions[f] = rows
    weights = {
        x: {a: rng.choice(lattice.elements) for a in states} for x in alphabet.leaves
    }
    initial = [a for a in states if rng.random() < 0.6] or [states[0]]
    return LNdtRecognizer(lattice, NdtAlgebra(alphabet, states, transitions), initial, weights)


def random_general(rng, lattice, alphabet, max_states=3, max_choices=3):
    """Random transition and initial weights, top and bottom included."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = {
        f: {
            (a, tuple(rng.choice(states) for _ in range(m))): rng.choice(lattice.elements)
            for a in states
            for _ in range(rng.randint(1, max_choices))
        }
        for f, m in alphabet.symbols
    }
    initial = {a: rng.choice(lattice.elements) for a in states}
    weights = {
        x: {a: rng.choice(lattice.elements) for a in states} for x in alphabet.leaves
    }
    return GeneralLNdtRecognizer(lattice, alphabet, states, transitions, initial, weights)


def random_tree(rng, alphabet, height):
    if height == 0 or (height > 0 and rng.random() < 0.25):
        return Tree(rng.choice(alphabet.leaves))
    f, m = rng.choice(alphabet.symbols)
    return Tree(f, [random_tree(rng, alphabet, height - 1) for _ in range(m)])


def spine_tree(alphabet, height, filler=None):
    """A tree of exactly the requested height along its leftmost path."""
    filler = filler or alphabet.leaves[0]
    t = Tree(filler)
    f, m = alphabet.symbols[0]
    for _ in range(height):
        t = Tree(f, [t] + [Tree(filler)] * (m - 1))
    return t


def spine_degrees(lattice, alphabet, weights, options, states, height):
    """Each state's degree of `spine_tree(alphabet, height)`, one level at a
    time: the reference for spines too deep for the oracle's recursion.

    `options(a)` lists the (child tuple, weight) pairs of the spine's symbol
    at state `a`; the spine goes down the first child, and every other child
    is the filler leaf.
    """
    row = weights[alphabet.leaves[0]]
    vector = dict(row)
    for _ in range(height):
        vector = {
            a: lattice.join_all(
                [lattice.bottom]
                + [lattice.meet_all([c, vector[tup[0]]] + [row[b] for b in tup[1:]]) for tup, c in options(a)]
            )
            for a in states
        }
    return vector


def caterpillar(rng, alphabet, height):
    """A spine of `height` random symbols with random side subtrees of height <= 3."""
    t = random_tree(rng, alphabet, 2)
    for _ in range(height - t.height):
        f, m = rng.choice(alphabet.symbols)
        slot = rng.randrange(m)
        t = Tree(f, [t if i == slot else random_tree(rng, alphabet, 3) for i in range(m)])
    return t


_raw_children = Tree.children.__get__  # the slot itself, read without counting


class CountingTree(Tree):
    """A tree whose nodes count, in `asked`, how often their children are read.

    Both evaluation kernels read a node's children once per (subtree, state)
    visit, memo hits and leaves included.  Equality reads them uncounted,
    so a memo lookup that compares two equal subtrees adds nothing; a
    caller hashes the trees before it counts, since a first hash reads
    every node's children once.
    """

    __slots__ = ()
    asked = 0

    @property
    def children(self):
        CountingTree.asked += 1
        return _raw_children(self)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Tree) and self.symbol == other.symbol and _raw_children(self) == _raw_children(other)
        )

    __hash__ = Tree.__hash__


def counting_copy(t):
    return CountingTree(t.symbol, [counting_copy(c) for c in t.children])


def seeded(n):
    return random.Random(n)


# -- verdict references ---------------------------------------------------


def is_finite_support_by_height_layers(rec):
    """Whether only finitely many trees score above bottom.

    The support is infinite exactly when some tree taller than the height
    bound scores a nonzero degree (it pumps up); any such witness pumps down
    into the window (bound, 2*(bound+1)], so an exact-height scan of that
    window decides the question.
    """
    lat = rec.lattice
    bound = decide.height_bound(rec)
    cumulative = {a: set() for a in rec.algebra.states}
    exact = {a: set() for a in rec.algebra.states}
    for x in rec.alphabet.leaves:
        for a in rec.algebra.states:
            exact[a].add(rec.weights[x][a])
    for h in range(1, 2 * (bound + 1) + 1):
        for a in rec.algebra.states:
            cumulative[a] |= exact[a]
        fresh = {a: set() for a in rec.algebra.states}
        for f, m in rec.alphabet.symbols:
            for a in rec.algebra.states:
                targets = rec.algebra.step(f, a)
                for j in range(m):  # child j realizes the previous height exactly
                    pools = [exact[b] if i == j else cumulative[b] for i, b in enumerate(targets)]
                    for combo in iproduct(*pools):
                        fresh[a].add(lat.meet_all(combo))
        exact = fresh
        if h > bound and any(v != lat.bottom for v in exact[rec.initial]):
            return False
    return True


def compare_by_value_pairs(f_rec, g_rec):
    """Inclusion, equivalence and disjointness of two DT recognizers.

    Runs the attainable-pair fixpoint over the product automaton; the set it
    computes is the exact range of simultaneous degree pairs, so each verdict
    comes with a witness tree when it is negative.
    """
    check_same_alphabet(f_rec, g_rec)
    check_same_lattice(f_rec, g_rec)
    lat = f_rec.lattice
    algebra = _dt_product_algebra(f_rec, g_rec)
    leaf_value = lambda x, ab: (f_rec.weights[x][ab[0]], g_rec.weights[x][ab[1]])
    pairs = list(iproduct(lat.elements, repeat=2))
    meet = {p: {q: (lat.meet(p[0], q[0]), lat.meet(p[1], q[1])) for q in pairs} for p in pairs}
    start = (f_rec.initial, g_rec.initial)
    included, equivalent, disjoint = True, True, True
    inc_w = eq_w = dis_w = None
    for ab, (u, v), witness in decide._attainable(algebra, leaf_value, meet):
        if ab != start:
            continue
        if included and not lat.leq(u, v):
            included, inc_w = False, witness
        if equivalent and u != v:
            equivalent, eq_w = False, witness
        if disjoint and lat.meet(u, v) != lat.bottom:
            disjoint, dis_w = False, witness
    return decide.Comparison(included, equivalent, disjoint, inc_w, eq_w, dis_w)


def ndt_compare_by_state_vectors(nf, ng, budget=None):
    """`lfta.decide.ndt_compare` as it was before its block quotient: every
    joint vector over the states of `nf` then `ng` is saturated first, with
    the checked lattice operations, and then scanned for the first one whose
    initial joins differ.  `budget` is a limit or None."""
    lat = nf.lattice
    named = [("L", nf, a) for a in nf.algebra.states] + [("R", ng, b) for b in ng.algebra.states]
    position = {(side, a): i for i, (side, _, a) in enumerate(named)}

    def vector_for(f, children):
        out = []
        for side, rec, a in named:
            acc = lat.bottom
            for tup in rec.algebra.choices(f, a):
                value = lat.top
                for child, b in zip(children, tup):
                    value = lat.meet(value, child[position[(side, b)]])
                acc = lat.join(acc, value)
            out.append(acc)
        return tuple(out)

    seeds = [(None, tuple(rec.weights[x][a] for _, rec, a in named), Tree(x)) for x in nf.alphabet.leaves]
    rules = [
        (None, f, (None,) * m, lambda children, f=f: vector_for(f, children)) for f, m in nf.alphabet.symbols
    ]
    facts = list(saturate(seeds, rules, Budget(budget)))
    for _, vector, witness in facts:
        left = lat.join_all([lat.bottom] + [vector[position[("L", a)]] for a in nf.initial])
        right = lat.join_all([lat.bottom] + [vector[position[("R", b)]] for b in ng.initial])
        if left != right:
            return False, witness
    return True, None


def is_dt_recognizable_by_closure(rec, budget=decide.DEFAULT_BUDGET):
    """`lfta.chain.is_dt_recognizable` as it was before its deterministic
    answer: every input, deterministic or not, is normalized and compared
    with the subset recognizer of its normal form."""
    chain_ops.require_chain(rec.lattice)
    normalized = chain_ops.normalize(rec)
    closure = chain_ops.subset_recognizer(normalized)
    return decide.ndt_compare(dt_to_ndt(closure), normalized, budget)[0]


def witness_tree_by_rescans(rec, path):
    """`lfta.chain.witness_tree` as it was before its backward pass: each
    step scores every choice by `path_degree_ndt` over the rest of the path,
    which takes time quadratic in the path length."""
    lat = rec.lattice
    table = chain_ops.max_values(rec)
    filler = Tree(rec.alphabet.leaves[0])
    descending = bool(rec.initial)
    if descending:
        a = chain_ops._argmax(
            lat, sorted(rec.initial, key=repr), lambda b: chain_ops.path_degree_ndt(rec, path, start=b)
        )
    steps = []
    for k, (f, i) in enumerate(path.letters):
        choices = rec.algebra.choices(f, a) if descending else ()
        if choices:
            rest = PathWord(path.letters[k + 1 :], path.leaf)
            tup = chain_ops._argmax(
                lat, sorted(choices, key=repr), lambda c: chain_ops.path_degree_ndt(rec, rest, start=c[i - 1])
            )
            steps.append((f, i, [table.witnesses[b] for b in tup]))
            a = tup[i - 1]
        else:
            descending = False
            steps.append((f, i, [filler] * rec.alphabet.arity(f)))
    t = Tree(path.leaf)
    for f, i, children in reversed(steps):
        children[i - 1] = t
        t = Tree(f, children)
    return t


# -- evaluation reference ---------------------------------------------------


def eager_evaluate(lattice, weights, options, roots, trees):
    """`automata._evaluate` as it was before its absorbing short-circuits,
    its explicit stack and its memo rows: every child of every choice, and
    every choice and root, is evaluated, by recursion, with one memo entry
    per (subtree, state) pair.  It reads a node's children once per visit,
    as the kernel does."""
    meet, join, bottom = lattice._meet, lattice._join, lattice.bottom
    memo, built = {}, {}

    def degree(node, state):
        children = node.children
        if not children:
            return weights[node.symbol][state]
        key = (node, state)
        got = memo.get(key)
        if got is None:
            got = bottom
            pair = (node.symbol, state)
            listed = built.get(pair)
            if listed is None:
                listed = built[pair] = options(*pair)
            for tup, c in listed:
                for child, b in zip(children, tup):
                    c = meet[c][degree(child, b)]
                got = join[got][c]
            memo[key] = got
        return got

    out = {}
    for t in trees:
        got = bottom
        for a, c in roots:
            got = join[got][meet[c][degree(t, a)]]
        out[t] = got
    return out


def accepting_states(rec, t):
    """All states from which the crisp NDT recognizer `rec` accepts `t`: the
    bottom-up walk `NdtRecognizer.accepts` used before it ran on the kernel."""
    memo = {}

    def states_of(node):
        got = memo.get(node)
        if got is not None:
            return got
        if node.is_leaf:
            result = rec.final[node.symbol]
        else:
            child_states = [states_of(c) for c in node.children]
            result = frozenset(
                a
                for a in rec.algebra.states
                if any(
                    all(b in cs for b, cs in zip(tup, child_states))
                    for tup in rec.algebra.choices(node.symbol, a)
                )
            )
        memo[node] = result
        return result

    return states_of(t)


# -- saturation reference ---------------------------------------------------


def saturate_by_items(seeds, rules, budget=None):
    """`lfta.automata.saturate` as it was before its rounds looped over values
    only: the pools hold (value, witness) items, `combine` gets a list of
    values, and every combination unpacks its items."""
    known = {}
    for slot, value, tree in seeds:
        row = known.setdefault(slot, {})
        if value not in row:
            row[value] = tree
            yield slot, value, tree
    for head, _, body, _ in rules:
        for slot in (head, *body):
            known.setdefault(slot, {})
    if budget is None:
        budget = Budget()
    before = {slot: 0 for slot in known}
    while True:
        old, new, cur = {}, {}, {}
        for slot, row in known.items():
            cur[slot] = items = list(row.items())
            old[slot], new[slot] = items[: before[slot]], items[before[slot] :]
        if not any(new.values()):
            return
        for head, symbol, body, combine in rules:
            row = known[head]
            for j, slot in enumerate(body):
                if not new[slot]:
                    continue
                pools = [old[b] for b in body[:j]] + [new[slot]] + [cur[b] for b in body[j + 1 :]]
                budget.spend(prod(map(len, pools)))
                for combo in iproduct(*pools):
                    value = combine([v for v, _ in combo])
                    if value not in row:
                        row[value] = witness = Tree(symbol, [w for _, w in combo])
                        yield head, value, witness
        before = {slot: len(items) for slot, items in cur.items()}


# -- tokenizer reference ----------------------------------------------------


def tokenize_by_characters(text):
    """`lfta.workspace.tokenize` as it was before it used a regular expression:
    (token, line, column) triples from one pass over the characters."""
    specials = "{};:"
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in specials:
            tokens.append((ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < len(text) and text[i] not in " \t\r\n#" + specials:
                i += 1
                col += 1
            tokens.append((text[start:i], line, start_col))
    return tokens


# -- lattice references -----------------------------------------------------


def lattice_by_scan(elements, order_pairs):
    """`lfta.lattice.Lattice` construction as it was before its bit rows:
    returns (leq, bottom, top, meet, join), with `leq` the list of boolean
    rows, after scanning the lower and upper bounds of every pair (O(n^4)).
    Raises the errors `Lattice` raises, with the same messages."""
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise NotALatticeError("duplicate element ids")
    if not elements:
        raise MissingBoundError("empty carrier")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in order_pairs:
        if a not in index or b not in index:
            raise ForeignElementError(f"order mentions unknown element {a if a not in index else b!r}")
        leq[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise CycleInOrderError(f"elements {elements[i]!r} and {elements[j]!r} order each other")
    bottoms = [e for e in elements if all(leq[index[e]][j] for j in range(n))]
    tops = [e for e in elements if all(leq[j][index[e]] for j in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise MissingBoundError("no unique bottom/top element")
    if bottoms[0] == tops[0]:
        raise MissingBoundError("trivial lattice: bottom equals top")
    meet = {a: {} for a in elements}
    join = {a: {} for a in elements}
    for i in range(n):
        for j in range(n):
            lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
            glb = [k for k in lower if all(leq[m][k] for m in lower)]
            upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
            lub = [k for k in upper if all(leq[k][m] for m in upper)]
            if len(glb) != 1 or len(lub) != 1:
                pair = (elements[i], elements[j])
                raise NotALatticeError(f"pair {pair} lacks a unique meet or join")
            meet[elements[i]][elements[j]] = elements[glb[0]]
            join[elements[i]][elements[j]] = elements[lub[0]]
    return leq, bottoms[0], tops[0], meet, join


def is_distributive_by_triples(lattice):
    """Whether a meet (b join c) equals (a meet b) join (a meet c) for every triple."""
    meet, join, es = lattice._meet, lattice._join, lattice.elements
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]] for a in es for b in es for c in es)


def join_irreducibles_by_joins(lattice):
    """The elements other than bottom that are not the join of the elements
    strictly below them, in declaration order."""
    leq, join = lattice._leq, lattice._join
    found = []
    for i, e in enumerate(lattice.elements):
        below = lattice.bottom
        for k, x in enumerate(lattice.elements):
            if k != i and leq[k][i]:
                below = join[below][x]
        if below != e:
            found.append(e)
    return tuple(found)


def stdout_under_hash_seed(hash_seed, script):
    """The standard output of `script`, run from the repository root by a fresh
    interpreter with PYTHONHASHSEED fixed and the test modules importable."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [tests_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=os.path.dirname(tests_dir),
        env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout
