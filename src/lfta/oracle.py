"""Brute-force reference semantics at desk scale.

Everything here is deliberately written by literal unfolding of the defining
recursions, never by calling the production evaluators, so the two code paths
can check each other.  Exponential behavior is acceptable and guarded by
budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

from .errors import AlphabetMismatchError, BudgetExceededError, LatticeMismatchError
from .recognizers import GeneralLNdtRecognizer, LDtRecognizer, LNdtRecognizer
from .terms import PathWord, Tree, delta


def enum_trees(alphabet, max_height, budget=10**6):
    """All trees of height <= max_height, in a fixed generation order."""
    if max_height < 0:
        return []
    layers = [[Tree(x) for x in alphabet.leaves]]
    total = len(layers[0])
    for h in range(1, max_height + 1):
        below = [t for layer in layers for t in layer]
        fresh = []
        for f, m in alphabet.symbols:
            for combo in iproduct(below, repeat=m):
                if max(c.height for c in combo) == h - 1:
                    fresh.append(Tree(f, combo))
                    total += 1
                    if total > budget:
                        raise BudgetExceededError(f"more than {budget} trees below height {max_height}")
        layers.append(fresh)
    return [t for layer in layers for t in layer]


class FiniteFuzzyLanguage:
    """A fuzzy tree language with finite support; everything else weighs 0."""

    __slots__ = ("lattice", "alphabet", "support")

    def __init__(self, lattice, alphabet, support):
        table = {}
        for t, v in support.items():
            lattice.check(v)
            if v != lattice.bottom:
                alphabet.validate_tree(t)
                table[t] = v
        self.lattice = lattice
        self.alphabet = alphabet
        self.support = table

    def value(self, t):
        return self.support.get(t, self.lattice.bottom)

    __call__ = value

    def trees(self):
        return sorted(self.support, key=str)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteFuzzyLanguage)
            and self.lattice == other.lattice
            and self.support == other.support
        )

    def __hash__(self):
        return hash(frozenset(self.support.items()))

    def __repr__(self):
        inner = ", ".join(f"{t}/{v}" for t, v in sorted(self.support.items(), key=lambda kv: str(kv[0])))
        return "{" + inner + "}"


def characteristic(lattice, alphabet, trees):
    """The crisp language valuing exactly the given trees at top."""
    return FiniteFuzzyLanguage(lattice, alphabet, {t: lattice.top for t in trees})


def _check_compatible(phi, psi):
    if phi.lattice != psi.lattice:
        raise LatticeMismatchError("languages over different lattices")
    if phi.alphabet != psi.alphabet:
        raise AlphabetMismatchError("languages over different alphabets")


def union(phi, psi):
    _check_compatible(phi, psi)
    table = dict(phi.support)
    for t, v in psi.support.items():
        table[t] = phi.lattice.join(table.get(t, phi.lattice.bottom), v)
    return FiniteFuzzyLanguage(phi.lattice, phi.alphabet, table)


def intersection(phi, psi):
    _check_compatible(phi, psi)
    table = {t: phi.lattice.meet(v, psi.value(t)) for t, v in phi.support.items()}
    return FiniteFuzzyLanguage(phi.lattice, phi.alphabet, table)


def scalar(phi, c):
    phi.lattice.check(c)
    return FiniteFuzzyLanguage(
        phi.lattice, phi.alphabet, {t: phi.lattice.meet(c, v) for t, v in phi.support.items()}
    )


def map_values(phi, morphism):
    return FiniteFuzzyLanguage(
        morphism.target, phi.alphabet, {t: morphism(v) for t, v in phi.support.items()}
    )


# -- path operators -------------------------------------------------------

def path_image(phi):
    """Join of the language over all trees containing each path.

    Exact for finite supports: trees outside the support contribute bottom.
    Returns a map defaulting to bottom off its keys.
    """
    out = {}
    for t, v in phi.support.items():
        for r in delta(t):
            out[r] = phi.lattice.join(out.get(r, phi.lattice.bottom), v)
    return out


def value_from_paths(lattice, path_values, t, default=None):
    """Meet of the path map over all paths of `t` (the inverse operator)."""
    default = lattice.bottom if default is None else default
    acc = lattice.top
    for r in delta(t):
        acc = lattice.meet(acc, path_values.get(r, default))
    return acc


def path_closure_crisp(alphabet, trees, height_bound):
    """All trees of height <= bound whose every path occurs in the given set.

    Works on the path-set directly: a node is admissible when each child can
    realize the corresponding residual path set, so no global enumeration of
    the tree space is needed.
    """
    allowed = frozenset(p for t in trees for p in delta(t))

    @lru_cache(maxsize=None)
    def realize(paths, bound):
        found = []
        for x in alphabet.leaves:
            if PathWord((), x) in paths:
                found.append(Tree(x))
        if bound == 0:
            return tuple(found)
        for f, m in alphabet.symbols:
            residuals = []
            for i in range(1, m + 1):
                residuals.append(
                    frozenset(PathWord(p.letters[1:], p.leaf) for p in paths if p.letters[:1] == ((f, i),))
                )
            if any(not r for r in residuals):
                continue
            options = [realize(r, bound - 1) for r in residuals]
            if any(not o for o in options):
                continue
            for combo in iproduct(*options):
                found.append(Tree(f, combo))
        return tuple(found)

    result = realize(allowed, height_bound)
    realize.cache_clear()
    return set(result)


def fuzzy_path_closure(phi, max_height, budget=10**6):
    """The path closure of `phi`, restricted to trees of height <= max_height.

    Values are exact per tree; only the domain is bounded.  Only trees whose
    every path occurs in the support can score above bottom, so candidates
    come from the crisp path-closure generator rather than full enumeration.
    """
    lam = path_image(phi)
    candidates = path_closure_crisp(phi.alphabet, phi.support, max_height)
    table = {}
    for t in candidates:
        table[t] = value_from_paths(phi.lattice, lam, t)
    return FiniteFuzzyLanguage(phi.lattice, phi.alphabet, table)


def is_path_closed(phi):
    """Whether `phi` equals its own path closure (exact for finite supports).

    Any tree scoring above bottom in the closure has all paths inside the
    support's path set and is no taller than the support, so comparing on
    those candidates decides the question.
    """
    if not phi.support:
        return True
    hmax = max(t.height for t in phi.support)
    return fuzzy_path_closure(phi, hmax) == phi


# -- substitution operators ------------------------------------------------

def _leaf_positions(t, leaf):
    if t.is_leaf:
        return [()] if t.symbol == leaf else []
    out = []
    for i, c in enumerate(t.children):
        out.extend((i,) + p for p in _leaf_positions(c, leaf))
    return out


def _replace_positions(t, assignment):
    def go(node, pos):
        if pos in assignment:
            return assignment[pos]
        if node.is_leaf:
            return node
        return Tree(node.symbol, [go(c, pos + (i,)) for i, c in enumerate(node.children)])

    return go(t, ())


def x_product(phi, psi, leaf):
    """Substitute trees of `phi` for the given leaf throughout trees of `psi`.

    Each occurrence is filled independently; a filled tree scores the meet of
    the fillers' degrees with the template's degree, joined over all ways of
    producing the same result.
    """
    _check_compatible(phi, psi)
    lat = phi.lattice
    table = {}
    for template, template_value in psi.support.items():
        spots = _leaf_positions(template, leaf)
        fillers = sorted(phi.support, key=str)
        if spots and not fillers:
            continue
        for combo in iproduct(fillers, repeat=len(spots)):
            t = _replace_positions(template, dict(zip(spots, combo)))
            v = template_value
            for filler in combo:
                v = lat.meet(v, phi.support[filler])
            table[t] = lat.join(table.get(t, lat.bottom), v)
    return FiniteFuzzyLanguage(lat, phi.alphabet, table)


@dataclass
class IterationResult:
    language: FiniteFuzzyLanguage
    stabilized: bool
    steps: int


def x_iteration(phi, leaf, k_max, budget=10**5):
    """Iterated substitution at a leaf, truncated at `k_max` rounds.

    Starts from the unit language {leaf/top} and alternates substitution with
    pointwise union; reports whether the support reached a fixpoint.
    """
    lat = phi.lattice
    current = FiniteFuzzyLanguage(lat, phi.alphabet, {Tree(leaf): lat.top})
    steps = 0
    for _ in range(k_max):
        nxt = union(x_product(current, phi, leaf), current)
        steps += 1
        if len(nxt.support) > budget:
            raise BudgetExceededError("iteration support exceeded budget")
        if nxt == current:
            return IterationResult(current, True, steps)
        current = nxt
    return IterationResult(current, False, steps)


def _restrict_height(phi, max_height):
    table = {t: v for t, v in phi.support.items() if t.height <= max_height}
    return FiniteFuzzyLanguage(phi.lattice, phi.alphabet, table)


def x_iteration_window(phi, leaf, max_height, k_max, budget=10**5):
    """The iterated substitution restricted to trees of height <= max_height.

    A window tree's degree only ever reads the degrees of its own subtrees,
    so restricting after every round computes the exact restriction of the
    full (possibly infinite-support) iteration; stabilization of the window
    is genuine stabilization of that restriction.
    """
    lat = phi.lattice
    current = _restrict_height(
        FiniteFuzzyLanguage(lat, phi.alphabet, {Tree(leaf): lat.top}), max_height
    )
    steps = 0
    for _ in range(k_max):
        nxt = _restrict_height(union(x_product(current, phi, leaf), current), max_height)
        steps += 1
        if len(nxt.support) > budget:
            raise BudgetExceededError("windowed iteration exceeded budget")
        if nxt == current:
            return IterationResult(current, True, steps)
        current = nxt
    return IterationResult(current, False, steps)


def subalgebra_degree(phi, t):
    """Degree of `t` in the least fuzzy subalgebra containing `phi`."""
    if t.is_leaf:
        return phi.value(t)
    lat = phi.lattice
    children = [subalgebra_degree(phi, c) for c in t.children]
    return lat.join(phi.value(t), lat.meet_all(children))


# -- independent recognizer evaluation --------------------------------------

def eval_reference(rec, t):
    """Reference degree of `t` under any recognizer kind.

    Re-implements the defining recursions by literal unfolding; shares no
    code with the production evaluators.
    """
    if isinstance(rec, LDtRecognizer):
        return _ref_dt(rec, t, rec.initial)
    if isinstance(rec, LNdtRecognizer):
        values = [_ref_ndt(rec, t, a) for a in sorted(rec.initial, key=repr)]
        acc = rec.lattice.bottom
        for v in values:
            acc = rec.lattice.join(acc, v)
        return acc
    if isinstance(rec, GeneralLNdtRecognizer):
        acc = rec.lattice.bottom
        for a in rec.states:
            acc = rec.lattice.join(acc, rec.lattice.meet(rec.initial_weights[a], _ref_general(rec, t, a)))
        return acc
    raise TypeError(f"no reference semantics for {type(rec).__name__}")


def _ref_dt(rec, t, state):
    if t.is_leaf:
        return rec.weights[t.symbol][state]
    targets = rec.algebra.step(t.symbol, state)
    value = rec.lattice.top
    for child, target in zip(t.children, targets):
        value = rec.lattice.meet(value, _ref_dt(rec, child, target))
    return value

def _ref_ndt(rec, t, state):
    if t.is_leaf:
        return rec.weights[t.symbol][state]
    best = rec.lattice.bottom
    for tup in rec.algebra.choices(t.symbol, state):
        value = rec.lattice.top
        for child, target in zip(t.children, tup):
            value = rec.lattice.meet(value, _ref_ndt(rec, child, target))
        best = rec.lattice.join(best, value)
    return best

def _ref_general(rec, t, state):
    if t.is_leaf:
        return rec.weights[t.symbol][state]
    best = rec.lattice.bottom
    table = rec.transition_weights[t.symbol]
    for (source, tup), c in table.items():
        if source != state:
            continue
        value = c
        for child, target in zip(t.children, tup):
            value = rec.lattice.meet(value, _ref_general(rec, child, target))
        best = rec.lattice.join(best, value)
    return best


def eval_reference_map(rec, trees):
    """Reference degrees for many trees, memoized on distinct subtrees."""
    if isinstance(rec, LDtRecognizer):
        memo = {}

        def dt(node, state):
            if node.is_leaf:
                return rec.weights[node.symbol][state]
            key = (node, state)
            if key not in memo:
                targets = rec.algebra.step(node.symbol, state)
                value = rec.lattice.top
                for child, target in zip(node.children, targets):
                    value = rec.lattice.meet(value, dt(child, target))
                memo[key] = value
            return memo[key]

        return {t: dt(t, rec.initial) for t in trees}
    if isinstance(rec, LNdtRecognizer):
        memo = {}

        def ndt(node, state):
            if node.is_leaf:
                return rec.weights[node.symbol][state]
            key = (node, state)
            if key not in memo:
                best = rec.lattice.bottom
                for tup in rec.algebra.choices(node.symbol, state):
                    value = rec.lattice.top
                    for child, target in zip(node.children, tup):
                        value = rec.lattice.meet(value, ndt(child, target))
                    best = rec.lattice.join(best, value)
                memo[key] = best
            return memo[key]

        out = {}
        for t in trees:
            acc = rec.lattice.bottom
            for a in sorted(rec.initial, key=repr):
                acc = rec.lattice.join(acc, ndt(t, a))
            out[t] = acc
        return out
    return {t: eval_reference(rec, t) for t in trees}
