"""Lattice-valued top-down tree recognizers and their evaluation semantics.

A deterministic recognizer meets the final weights found at the frontier of
its single run.  A nondeterministic one scores an inner node by the join,
over its choices, of the meet of the children's degrees; that is the join
over all runs only on a distributive lattice.  The general
nondeterministic form additionally weights transitions and initial states and
can always be rewritten into the simple form when the lattice is distributive.
"""

from __future__ import annotations

from .automata import NdtAlgebra, _check_initial, _check_initial_set, _check_states, _evaluate, _sorted_repr, explore
from .errors import (
    AlphabetMismatchError,
    LatticeMismatchError,
    NonDistributiveLatticeError,
    ValidationError,
)
from .terms import HOLE


def _check_weights(lattice, alphabet, states, weights):
    for x in weights:
        if not alphabet.is_leaf(x):
            raise ValidationError(f"unknown leaf {x!r}")
    table = {}
    state_set = set(states)
    for x in alphabet.leaves:
        row = dict(weights.get(x, {}))
        for a, v in row.items():
            if a not in state_set:
                raise ValidationError(f"final weight for unknown state {a!r}")
            lattice.check(v)
        for a in states:
            row.setdefault(a, lattice.bottom)
        table[x] = row
    return table


class _WeightedRecognizer:
    """An algebra, its start and its final weights: what the DT and NDT recognizers share.

    A start is one state: `degree` and `degree_map` read `start=None` as the
    initial state, or the initial set of an NDT recognizer.  The public
    constructor checks input from outside: the subclass checks its kind of
    initial argument with `_checked_initial`, and every final weight is
    checked against the lattice and the states.  Constructions build
    through `_built` instead, from values they took from checked
    recognizers or out of the lattice tables.
    """

    __slots__ = ("lattice", "algebra", "initial", "weights")

    def __init__(self, lattice, algebra, initial, weights):
        self.lattice = lattice
        self.algebra = algebra
        self.initial = self._checked_initial(algebra, initial)
        self.weights = _check_weights(lattice, algebra.alphabet, algebra.states, weights)

    @classmethod
    def _built(cls, lattice, algebra, initial, weights):
        """A recognizer over values that lfta built and checked itself, stored unchecked.

        `initial` is in stored form (one state, or a frozenset of states for
        an NDT recognizer), and `weights` holds a row for every leaf with a
        lattice element for every state.
        """
        self = object.__new__(cls)
        self.lattice, self.algebra, self.initial, self.weights = lattice, algebra, initial, weights
        return self

    @property
    def alphabet(self):
        return self.algebra.alphabet

    def degree(self, t, start=None):
        """The acceptance degree of `t` from the state `start` (default: the initial state or states)."""
        return self.degree_map((t,), start)[t]

    def final_weights(self):
        """All weights appearing in the final table."""
        return frozenset(v for row in self.weights.values() for v in row.values())

    def final_weight_closure(self):
        """Meet-closure of the final weights; every degree lands in it."""
        return self.lattice.meet_closure(self.final_weights())


class LDtRecognizer(_WeightedRecognizer):
    """Deterministic recognizer assigning each tree a lattice degree.

    The degree of a tree is the meet of the final weights of the leaf/state
    pairs its unique run produces; a leaf alone scores its own weight at the
    initial state.
    """

    __slots__ = ()
    _checked_initial = staticmethod(_check_initial)

    def degree_map(self, trees, start=None):
        """Degrees of many trees sharing one memo; useful for enumerations."""
        a = self.initial if start is None else start
        top, step = self.lattice.top, self.algebra.step
        options = lambda f, b: ((step(f, b), top),)
        return _evaluate(self.lattice, self.weights, options, ((a, top),), trees)

    def degree_by_paths(self, t, start=None):
        """Same degree computed from the run frontier instead of the recursion.

        The meet table is read unchecked: the weights were validated at
        construction.
        """
        a = self.initial if start is None else start
        meet, weights, got = self.lattice._meet, self.weights, self.lattice.top
        for x, b in self.algebra.leaf_run(t, a):
            got = meet[got][weights[x][b]]
        return got

    def context_degree(self, start, context):
        """Degree contributed by the non-hole leaves plus the state at the hole.

        A bare hole contributes the top element (empty meet) and leaves the
        state unchanged.
        """
        meet, weights, value, end = self.lattice._meet, self.weights, self.lattice.top, None
        for x, b in self.algebra.leaf_run(context.tree, start):
            if x == HOLE:
                end = b
            else:
                value = meet[value][weights[x][b]]
        return value, end


class LNdtRecognizer(_WeightedRecognizer):
    """Nondeterministic recognizer: at each node, the join over its choices of
    the meet of the children's degrees (the join over runs when the lattice
    is distributive)."""

    __slots__ = ()
    _checked_initial = staticmethod(_check_initial_set)

    def state_degrees(self, t):
        """The vector of degrees of `t` from every state."""
        return {a: self.degree(t, a) for a in self.algebra.states}

    def degree_map(self, trees, start=None):
        """Degrees of many trees from the state `start`, or joined over the initial set."""
        top, choices = self.lattice.top, self.algebra.choices
        options = lambda f, a: [(tup, top) for tup in choices(f, a)]
        roots = [(a, top) for a in (self.initial if start is None else (start,))]
        return _evaluate(self.lattice, self.weights, options, roots, trees)


class GeneralLNdtRecognizer:
    """Nondeterministic recognizer with weighted transitions and initial states.

    Transition weights are stored sparsely; missing entries weigh bottom.
    Evaluation takes any lattice; only `general_to_simple` needs a
    distributive one.
    """

    __slots__ = ("lattice", "alphabet", "states", "transition_weights", "initial_weights", "weights", "_by_source")

    def __init__(self, lattice, alphabet, states, transition_weights, initial_weights, weights):
        states, state_set = _check_states(states)
        for f in transition_weights:
            alphabet.arity(f)  # rejects a key that is no symbol of the alphabet
        table = {}
        for f, m in alphabet.symbols:
            rows = {}
            for key, v in transition_weights.get(f, {}).items():
                state, tup = key[0], tuple(key[1])
                if state not in state_set or not set(tup) <= state_set or len(tup) != m:
                    raise ValidationError(f"bad weighted transition for {f!r}: {key!r}")
                lattice.check(v)
                rows[(state, tup)] = v
            table[f] = rows
        for a in initial_weights:
            if a not in state_set:
                raise ValidationError(f"initial weight for unknown state {a!r}")
        initial_table = {}
        for a in states:
            v = initial_weights.get(a, lattice.bottom)
            lattice.check(v)
            initial_table[a] = v
        self.lattice = lattice
        self.alphabet = alphabet
        self.states = states
        self.transition_weights = table
        self._by_source = {}
        for f, rows in table.items():
            grouped = self._by_source[f] = {}
            for (state, tup), v in rows.items():
                grouped.setdefault(state, []).append((tup, v))
        self.initial_weights = initial_table
        self.weights = _check_weights(lattice, alphabet, states, weights)

    def require_distributive(self):
        if not self.lattice.is_distributive():
            raise NonDistributiveLatticeError("general recognizers need a distributive lattice")

    def _options(self, f, a):
        """The (child tuple, weight) pairs of the transitions of `f` at `a`, in table order."""
        return self._by_source[f].get(a, ())

    def degree(self, t):
        return self.degree_map((t,))[t]

    def degree_map(self, trees):
        bottom = self.lattice.bottom
        roots = [(a, c) for a, c in self.initial_weights.items() if c != bottom]
        return _evaluate(self.lattice, self.weights, self._options, roots, trees)


# -- conversions ----------------------------------------------------------

def dt_to_ndt(rec):
    """View a deterministic recognizer as a singleton-transition NDT one."""
    transitions = {
        f: {a: (rec.algebra.step(f, a),) for a in rec.algebra.states}
        for f, _ in rec.alphabet.symbols
    }
    algebra = NdtAlgebra._built(rec.alphabet, rec.algebra.states, transitions)
    return LNdtRecognizer._built(rec.lattice, algebra, frozenset([rec.initial]), rec.weights)


def _capped_construction(rec, initial, options):
    """NDT recognizer over the (state, cap) pairs reachable from `initial`.

    `options(f, a)` lists (child tuple, weight) pairs for the transitions of
    `f` at `a`; every child inherits the meet of its parent's cap with that
    weight, and a leaf scores its weight in `rec` capped by the state's cap.
    Caps and weights are lattice elements already checked at construction,
    so the meet table is read unchecked.  A row keeps the order of
    `options`, and needs no deduplication: distinct child tuples stay
    distinct once capped.  With no initial state the language is constantly
    bottom, and one state without choices, capped at bottom, recognizes it.
    """
    lat = rec.lattice
    meet = lat._meet
    if not initial:
        dead = ("dead", lat.bottom)
        algebra = NdtAlgebra._built(rec.alphabet, [dead], {f: {dead: ()} for f, _ in rec.alphabet.symbols})
        weights = {x: {dead: lat.bottom} for x in rec.alphabet.leaves}
        return LNdtRecognizer._built(lat, algebra, initial, weights)

    def expand(f, state):
        a, d = state
        row = []
        for tup, c in options(f, a):
            shared = meet[d][c]
            row.append(tuple((b, shared) for b in tup))
        return tuple(row), [child for target in row for child in target]

    reached, transitions = explore(rec.alphabet, initial, expand)
    states = sorted(reached, key=_sorted_repr)
    weights = {
        x: {(a, d): meet[rec.weights[x][a]][d] for (a, d) in states}
        for x in rec.alphabet.leaves
    }
    algebra = NdtAlgebra._built(rec.alphabet, states, transitions)
    return LNdtRecognizer._built(lat, algebra, initial, weights)


def general_to_simple(rec):
    """Push transition and initial weights into states.

    States of the result are (state, accumulated weight) pairs; only pairs
    reachable from the weighted initial set are materialized.
    """
    rec.require_distributive()
    initial = frozenset((a, rec.initial_weights[a]) for a in rec.states)
    return _capped_construction(rec, initial, rec._options)


def from_finite_language(lattice, alphabet, support):
    """An NDT recognizer for a finite-support fuzzy language.

    One component per support tree: its states are the positions of the tree,
    transitions follow the shape, and every frontier weight is the tree's
    degree, so exactly that tree evaluates to its degree from the component
    root and everything else to bottom.
    """
    states = []
    transitions = {f: {} for f, _ in alphabet.symbols}
    weights = {x: {} for x in alphabet.leaves}
    roots = []
    for n, (t, value) in enumerate(sorted(support.items(), key=lambda kv: str(kv[0]))):
        if value == lattice.bottom:
            continue
        lattice.check(value)
        alphabet.validate_tree(t)
        roots.append(f"t{n}")
        stack = [(t, f"t{n}")]  # states are listed parents first, children left to right
        while stack:
            node, state = stack.pop()
            states.append(state)
            if node.children:
                child_states = tuple(f"{state}.{i}" for i in range(1, len(node.children) + 1))
                transitions[node.symbol][state] = (child_states,)
                stack.extend(reversed(list(zip(node.children, child_states))))
            else:
                weights[node.symbol][state] = value
    if not states:
        states = ["dead"]
    algebra = NdtAlgebra(alphabet, states, transitions)
    return LNdtRecognizer(lattice, algebra, roots, weights)


def check_same_alphabet(*recs):
    first = recs[0].alphabet
    for r in recs[1:]:
        if r.alphabet != first:
            raise AlphabetMismatchError("recognizers use different alphabets")


def check_same_lattice(*recs):
    first = recs[0].lattice
    for r in recs[1:]:
        if r.lattice != first:
            raise LatticeMismatchError("recognizers use different lattices")
