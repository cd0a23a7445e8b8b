"""Chain-valued recognizers: normalization, subset construction, path closure.

Over a totally ordered lattice each state has a well-defined best degree
M(a); a recognizer is normalized when sibling states under every transition
share that best degree.  Normalized recognizers make the subset construction
compute the fuzzy path closure, which yields the decision procedure for
deterministic recognizability.  Path degrees and the subset construction
only join final weights over the states a path reaches: any lattice will do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .automata import DtAlgebra, subset_algebra
from .decide import DEFAULT_BUDGET, ndt_compare
from .errors import NotAChainError, NotNormalizedError
from .paths import path_degree
from .recognizers import LDtRecognizer, _capped_construction, dt_to_ndt
from .terms import Tree


def require_chain(lattice):
    if not lattice.is_chain():
        raise NotAChainError("operation needs a totally ordered lattice")


def _argmax(lat, items, value_of):
    """First item with the greatest value under the lattice order, read off the join table."""
    join, best_item, best_value = lat._join, None, None
    for item in items:
        v = value_of(item)
        if best_value is None or (join[best_value][v] == v and v != best_value):
            best_item, best_value = item, v
    return best_item


@dataclass
class MaxTable:
    """Best attainable degree per state, with a tree attaining each."""

    values: dict
    witnesses: dict

    def __getitem__(self, state):
        return self.values[state]


def max_values(rec):
    """Fixpoint of the best-degree iteration, with attaining witness trees.

    Round k knows the best degree over trees of height <= k; the iteration
    stabilizes within (number of states) * (number of distinct weights)
    rounds, which is asserted.  The lattice tables are read unchecked: the
    weights were validated at construction, and every later value comes out
    of the tables.
    """
    require_chain(rec.lattice)
    lat = rec.lattice
    meet, join, top = lat._meet, lat._join, lat.top
    values, witnesses = {}, {}
    for a in rec.algebra.states:
        best_leaf = _argmax(lat, rec.alphabet.leaves, lambda x: rec.weights[x][a])
        values[a] = rec.weights[best_leaf][a]
        witnesses[a] = Tree(best_leaf)
    # one round more than the bound: the last round only confirms that nothing changed
    cap = len(rec.algebra.states) * max(1, len(rec.final_weights())) + 1
    for _ in range(cap):
        changed = False
        for f, _ in rec.alphabet.symbols:
            for a in rec.algebra.states:
                for tup in rec.algebra.choices(f, a):
                    candidate = top
                    for b in tup:
                        candidate = meet[candidate][values[b]]
                    if join[candidate][values[a]] != values[a]:
                        values[a] = candidate
                        witnesses[a] = Tree(f, [witnesses[b] for b in tup])
                        changed = True
        if not changed:
            return MaxTable(values, witnesses)
    raise AssertionError("best-degree iteration failed to stabilize within its cap")


def is_normalized(rec):
    """Whether sibling states under every transition share the same best degree."""
    return _is_normalized(rec, max_values(rec))


def _is_normalized(rec, table):
    """`is_normalized` against the best-degree table `max_values(rec)` the caller holds."""
    for f, _ in rec.alphabet.symbols:
        for a in rec.algebra.states:
            for tup in rec.algebra.choices(f, a):
                if len({table[b] for b in tup}) > 1:
                    return False
    return True


def is_normalized_dt(rec):
    return is_normalized(dt_to_ndt(rec))


def normalize(rec):
    """An equivalent normalized recognizer.

    States pair an original state with a degree cap; each transition caps its
    children by the least best-degree among the siblings, which equalizes
    their best degrees without changing any tree's overall degree.  Only
    states reachable from the new initial set are kept; with no initial
    state the result is one state that scores bottom.
    """
    meet, top = rec.lattice._meet, rec.lattice.top
    table = max_values(rec)
    initial = frozenset((a, table[a]) for a in rec.initial)

    def options(f, a):  # the best degrees come out of the lattice tables, so the caps read them unchecked
        return [(tup, reduce(lambda u, b: meet[u][table[b]], tup, top)) for tup in rec.algebra.choices(f, a)]

    return _capped_construction(rec, initial, options)


def normalize_dt(rec):
    """Deterministic normalization; the construction stays deterministic."""
    normalized = normalize(dt_to_ndt(rec))
    transitions = {}
    for f, _ in rec.alphabet.symbols:
        rows = {}
        for state in normalized.algebra.states:
            choices = normalized.algebra.choices(f, state)
            assert len(choices) == 1, "normalization must keep deterministic inputs deterministic"
            rows[state] = choices[0]
        transitions[f] = rows
    algebra = DtAlgebra._built(rec.alphabet, normalized.algebra.states, transitions)
    (start,) = normalized.initial
    return LDtRecognizer._built(rec.lattice, algebra, start, normalized.weights)


def path_degree_ndt(rec, path):
    """Best final weight over all states the path can lead to from an initial state (0 if none)."""
    join, best = rec.lattice._join, rec.lattice.bottom  # the weights were validated at construction
    for a in rec.initial:
        for b in rec.algebra.path_states(a, path.letters):
            best = join[best][rec.weights[path.leaf][b]]
    return best


def subset_recognizer(rec):
    """Deterministic recognizer over reachable state sets, finals joined.

    Shares the original's path language: the set of states reachable along a
    path determines the best weight the original could realize there.
    """
    lat = rec.lattice
    join = lat._join  # the weights were validated at construction
    algebra = subset_algebra(rec.algebra, starts=[rec.initial])
    weights = {}
    for x in rec.alphabet.leaves:
        row, weight = {}, rec.weights[x]
        for subset in algebra.states:
            best = lat.bottom
            for a in subset:
                best = join[best][weight[a]]
            row[subset] = best
        weights[x] = row
    return LDtRecognizer._built(lat, algebra, frozenset(rec.initial), weights)


def path_closure_recognizer(rec):
    """Deterministic recognizer of the fuzzy path closure of the language."""
    return subset_recognizer(normalize(rec))


def is_dt_recognizable(rec, budget=DEFAULT_BUDGET):
    """Whether the recognized language is deterministically recognizable.

    A recognizer with at most one initial state and at most one choice per
    symbol and state is its own answer: with a sink state whose leaf
    weights are all bottom standing in for the missing choices (and for a
    missing initial state, whose language is constantly bottom) it is a DT
    recognizer, and no combination is spent.  The sink argument holds on
    any lattice.  Otherwise the answer is whether the language equals its
    own path closure, i.e. whether the subset recognizer of a normalized
    form is equivalent to it, a criterion proved on chains.
    """
    if len(rec.initial) <= 1 and all(
        len(choices) <= 1 for table in rec.algebra.transitions.values() for choices in table.values()
    ):
        return True
    require_chain(rec.lattice)
    normalized = normalize(rec)
    closure = subset_recognizer(normalized)
    return ndt_compare(dt_to_ndt(closure), normalized, budget)[0]


def witness_tree(rec, path):
    """A tree containing the path whose degree equals the path's degree.

    Follows the transition choices that realize the path's best weight and
    pads the side branches with trees attaining each sibling's best degree;
    normalization makes those pads score no worse than the path branch.
    Once no choice is left, the rest of the path is padded with the first
    leaf.  One backward pass over the path first gives, for each position
    and state, the best weight the rest of the path reaches from there (the
    `path_degree_ndt` of that suffix), so the walk down reads each choice's
    score instead of rescoring the suffix.
    """
    table = max_values(rec)
    if not _is_normalized(rec, table):
        raise NotNormalizedError("witness construction needs a normalized recognizer")
    lat = rec.lattice
    join, bottom = lat._join, lat.bottom
    filler = Tree(rec.alphabet.leaves[0])
    letters, choices = path.letters, rec.algebra.choices
    best = [None] * len(letters) + [rec.weights[path.leaf]]
    for k in range(len(letters) - 1, -1, -1):
        (f, i), below, row = letters[k], best[k + 1], {}
        for a in rec.algebra.states:
            value = bottom
            for tup in choices(f, a):
                value = join[value][below[tup[i - 1]]]
            row[a] = value
        best[k] = row
    descending = bool(rec.initial)
    if descending:
        a = _argmax(lat, sorted(rec.initial, key=repr), best[0].__getitem__)
    steps = []  # (symbol, path slot, children) from the root down
    for k, (f, i) in enumerate(letters):
        options = choices(f, a) if descending else ()
        if options:
            below = best[k + 1]
            tup = _argmax(lat, sorted(options, key=repr), lambda c: below[c[i - 1]])
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


def path_image_normalized(rec, path):
    """Best degree over all trees containing the path, for normalized DT input.

    For a normalized deterministic recognizer this supremum is realized and
    equals the path degree itself.
    """
    if not is_normalized_dt(rec):
        raise NotNormalizedError("path image shortcut needs a normalized recognizer")
    return path_degree(rec, path)
