"""Constructions that build new recognizers out of old ones.

Each function realizes a pointwise equation on the recognized languages
(intersection is pointwise meet, a scalar bounds every degree, a context
quotient pre-composes with a context, and so on).  The tests check every
construction against the brute-force oracle on bounded tree enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import lattice as lat
from .automata import DtAlgebra, DtRecognizer, NdtAlgebra, _sorted_repr, explore, state_token
from .errors import ArityMismatchError, ValidationError, ZeroNotIrreducibleError
from .recognizers import (
    LDtRecognizer,
    LNdtRecognizer,
    check_same_alphabet,
    check_same_lattice,
)
from .terms import HOLE

DEAD = ("dead",)
ROOT = ("root",)


@dataclass
class PairedRecognizer:
    """A recognizer over a product lattice, with links to its two factors."""

    recognizer: object
    left: object
    right: object

    @property
    def lattice(self):
        return self.recognizer.lattice


def parallel_product(nf, ng):
    """Runs two NDT recognizers side by side; degrees are value pairs.

    A row pairs every choice of `nf` with every choice of `ng`; two factor
    rows without repeats give a product row without repeats.
    """
    check_same_alphabet(nf, ng)
    check_same_lattice(nf, ng)
    product_lattice = lat.product(nf.lattice, ng.lattice)
    states = [(a, b) for a in nf.algebra.states for b in ng.algebra.states]
    transitions = {}
    for f, m in nf.alphabet.symbols:
        rows = {}
        for a, b in states:
            rows[(a, b)] = tuple(
                tuple(zip(ta, tb))
                for ta in nf.algebra.choices(f, a)
                for tb in ng.algebra.choices(f, b)
            )
        transitions[f] = rows
    algebra = NdtAlgebra._built(nf.alphabet, states, transitions)
    weights = {
        x: {(a, b): lat.pair_id(nf.weights[x][a], ng.weights[x][b]) for a, b in states}
        for x in nf.alphabet.leaves
    }
    initial = frozenset((a, b) for a in nf.initial for b in ng.initial)
    rec = LNdtRecognizer._built(product_lattice, algebra, initial, weights)
    return PairedRecognizer(rec, nf, ng)


def _dt_product(f_rec, g_rec, lattice, combine):
    """Two DTs run side by side over all state pairs; a leaf at a pair weighs
    `combine` of the two weights, in `lattice`."""
    check_same_alphabet(f_rec, g_rec)
    check_same_lattice(f_rec, g_rec)
    states = [(a, b) for a in f_rec.algebra.states for b in g_rec.algebra.states]
    step_f, step_g = f_rec.algebra.step, g_rec.algebra.step
    transitions = {}
    for f, _ in f_rec.alphabet.symbols:
        transitions[f] = {(a, b): tuple(zip(step_f(f, a), step_g(f, b))) for a, b in states}
    algebra = DtAlgebra._built(f_rec.alphabet, states, transitions)
    weights = {
        x: {(a, b): combine(f_rec.weights[x][a], g_rec.weights[x][b]) for a, b in algebra.states}
        for x in f_rec.alphabet.leaves
    }
    return LDtRecognizer._built(lattice, algebra, (f_rec.initial, g_rec.initial), weights)


def product_dt(f_rec, g_rec):
    """Deterministic parallel product; componentwise degrees."""
    product_lattice = lat.product(f_rec.lattice, g_rec.lattice)
    return PairedRecognizer(_dt_product(f_rec, g_rec, product_lattice, lat.pair_id), f_rec, g_rec)


def intersect(f_rec, g_rec):
    """Pointwise meet of two deterministic recognizers."""
    meet = f_rec.lattice._meet  # the weights were validated at construction
    return _dt_product(f_rec, g_rec, f_rec.lattice, lambda u, v: meet[u][v])


def top_concat(symbol, parts):
    """Scores f(t1..tm) by meeting the parts' degrees; 0 on other roots."""
    check_same_alphabet(*parts)
    check_same_lattice(*parts)
    first = parts[0]
    arity = first.alphabet.arity(symbol)
    if arity != len(parts):
        raise ArityMismatchError(f"{symbol!r} expects {arity} parts, got {len(parts)}")
    states = [ROOT, DEAD]
    tag = lambda i, a: ("arm", i, a)
    for i, part in enumerate(parts):
        states.extend(tag(i, a) for a in part.algebra.states)
    transitions = {}
    for g, m in first.alphabet.symbols:
        rows = {DEAD: (DEAD,) * m}
        if g == symbol:
            rows[ROOT] = tuple(tag(i, part.initial) for i, part in enumerate(parts))
        else:
            rows[ROOT] = (DEAD,) * m
        for i, part in enumerate(parts):
            for a in part.algebra.states:
                rows[tag(i, a)] = tuple(tag(i, b) for b in part.algebra.step(g, a))
        transitions[g] = rows
    algebra = DtAlgebra._built(first.alphabet, states, transitions)
    weights = {}
    for x in first.alphabet.leaves:
        row = {ROOT: first.lattice.bottom, DEAD: first.lattice.bottom}
        for i, part in enumerate(parts):
            for a in part.algebra.states:
                row[tag(i, a)] = part.weights[x][a]
        weights[x] = row
    return LDtRecognizer._built(first.lattice, algebra, ROOT, weights)


def _reweighted(rec, lattice, initial, rewrite):
    """`rec`'s algebra started at `initial`, over `lattice`, with each final
    weight `v` rewritten to `rewrite(v)`, an element of `lattice`."""
    weights = {x: {a: rewrite(row[a]) for a in rec.algebra.states} for x, row in rec.weights.items()}
    return LDtRecognizer._built(lattice, rec.algebra, initial, weights)


def context_quotient(rec, context):
    """Recognizer of t -> degree of context(t); the context is pre-applied.

    Start at the state the context drives the automaton to, and fold the
    context's own frontier contribution into every final weight.
    """
    value, end = rec.context_degree(rec.initial, context)
    met = rec.lattice._meet[value]  # the meet table's row of `value`, which comes out of the checked weights
    return _reweighted(rec, rec.lattice, end, met.__getitem__)


def _fresh(state, taken):
    """`state`, wrapped in one-element tuples until its token is not in `taken`, which it joins.

    `taken` starts as the tokens of the input's states.  Equal states render
    alike, so a fresh token makes a fresh state, and one that a workspace
    file can still tell apart from the input's states once reloaded.
    """
    token = state_token(state)
    while token in taken:
        state = (state,)
        token = state_token(state)
    taken.add(token)
    return state


def context_embed(rec, context):
    """Recognizer scoring context(s) as the original scores s, 0 elsewhere.

    States are the original ones plus one per distinct context subtree (the
    hole is identified with the original initial state) plus a sink.  The new
    part checks the input against the context shape, giving the context's own
    leaves weight 1 so only the plugged subtree contributes.
    """
    shape = context.tree
    if shape.is_leaf:  # bare hole: context(s) = s
        return LDtRecognizer._built(rec.lattice, rec.algebra, rec.initial, rec.weights)

    taken = set(map(state_token, rec.algebra.states))
    ctx = {  # each context subtree but the hole, and its state
        s: _fresh(("ctx", s), taken)
        for s in sorted(shape.subtrees(), key=lambda s: _sorted_repr(("ctx", s)))
        if not (s.is_leaf and s.symbol == HOLE)
    }
    dead = _fresh(DEAD, taken)
    states = list(rec.algebra.states) + list(ctx.values()) + [dead]
    transitions = {}
    for f, m in rec.alphabet.symbols:
        rows = {dead: (dead,) * m}
        for a in rec.algebra.states:
            rows[a] = rec.algebra.step(f, a)
        for s, state in ctx.items():
            if not s.is_leaf and s.symbol == f:
                rows[state] = tuple(ctx.get(c, rec.initial) for c in s.children)
            else:
                rows[state] = (dead,) * m
        transitions[f] = rows
    algebra = DtAlgebra._built(rec.alphabet, states, transitions)
    weights = {}
    for x in rec.alphabet.leaves:
        row = {dead: rec.lattice.bottom}
        for a in rec.algebra.states:
            row[a] = rec.weights[x][a]
        for s, state in ctx.items():
            matches = s.is_leaf and s.symbol == x
            row[state] = rec.lattice.top if matches else rec.lattice.bottom
        weights[x] = row
    return LDtRecognizer._built(rec.lattice, algebra, ctx[shape], weights)


def inverse_hom(rec, hom):
    """Recognizer of t -> degree of h(t), for any tree homomorphism h.

    Tracks the set of states the original automaton can hold at the current
    node's image together with the weight already collected from frontier
    symbols produced by the homomorphism; only reachable pairs materialize.
    """
    if hom.target != rec.alphabet:
        raise ValidationError("homomorphism target must match the recognizer alphabet")
    lat_ = rec.lattice
    top = lat_.top
    meet = lambda u, v: lat_._meet[u][v]  # every value comes out of the checked weights

    def expand(f, state):
        states_here, d = state
        image = hom.symbol_images[f]
        pairs = set()
        for a in states_here:
            pairs |= rec.algebra.leaf_run(image, a)
        shared = reduce(meet, [rec.weights[y][b] for y, b in pairs if rec.alphabet.is_leaf(y)], d)
        row = tuple(
            (frozenset(b for y, b in pairs if y == f"${i}"), shared)
            for i in range(1, hom.source.arity(f) + 1)
        )
        return row, row

    start = (frozenset([rec.initial]), top)
    reached, transitions = explore(hom.source, [start], expand)
    states = sorted(reached, key=_sorted_repr)
    images = [hom.leaf_images[x] for x in hom.source.leaves]
    from_state = {a: rec.degree_map(images, start=a) for a in set().union(*(s for s, _ in states))}
    weights = {}
    for x in hom.source.leaves:
        image = hom.leaf_images[x]
        row = {}
        for state in states:
            states_here, d = state
            row[state] = reduce(meet, [from_state[a][image] for a in states_here], d)
        weights[x] = row
    algebra = DtAlgebra._built(hom.source, states, transitions)
    return LDtRecognizer._built(lat_, algebra, start, weights)


def alphabetic_image(rec, hom):
    """Relabel a recognizer along an injective alphabetic homomorphism."""
    hom.require_alphabetic()
    hom.require_injective()
    if hom.source != rec.alphabet:
        raise ValidationError("homomorphism source must match the recognizer alphabet")
    target = hom.target
    preimage_symbol = {hom.symbol_images[f].symbol: f for f, _ in hom.source.symbols}
    preimage_leaf = {hom.leaf_images[x].symbol: x for x in hom.source.leaves}
    dead = _fresh(DEAD, set(map(state_token, rec.algebra.states)))
    states = list(rec.algebra.states) + [dead]
    transitions = {}
    for g, m in target.symbols:
        rows = {dead: (dead,) * m}
        f = preimage_symbol.get(g)
        for a in rec.algebra.states:
            rows[a] = rec.algebra.step(f, a) if f is not None else (dead,) * m
        transitions[g] = rows
    algebra = DtAlgebra._built(target, states, transitions)
    weights = {}
    for y in target.leaves:
        x = preimage_leaf.get(y)
        row = {dead: rec.lattice.bottom}
        for a in rec.algebra.states:
            row[a] = rec.weights[x][a] if x is not None else rec.lattice.bottom
        weights[y] = row
    return LDtRecognizer._built(rec.lattice, algebra, rec.initial, weights)


def scalar(rec, c):
    """Bound every degree by `c` (pointwise meet with a constant)."""
    rec.lattice.check(c)
    return _reweighted(rec, rec.lattice, rec.initial, rec.lattice._meet[c].__getitem__)


def _crisp_by(rec, test):
    """Crisp recognizer on `rec`'s algebra and start; a state is final at a leaf whose weight there passes `test`."""
    final = {
        x: frozenset(a for a in rec.algebra.states if test(rec.weights[x][a]))
        for x in rec.alphabet.leaves
    }
    return DtRecognizer._built(rec.algebra, rec.initial, final)


def cut(rec, c):
    """Crisp recognizer of the trees whose degree is at least `c`."""
    rec.lattice.check(c)
    up = {e for e in rec.lattice.elements if rec.lattice.leq(c, e)}
    return _crisp_by(rec, up.__contains__)


def characteristic_dt(crisp, lattice):
    """The fuzzy recognizer valuing the crisp recognizer's language at top."""
    weights = {
        x: {
            a: lattice.top if a in crisp.final[x] else lattice.bottom
            for a in crisp.algebra.states
        }
        for x in crisp.algebra.alphabet.leaves
    }
    return LDtRecognizer._built(lattice, crisp.algebra, crisp.initial, weights)


def support_dt(rec):
    """Crisp recognizer of the support; needs meets of nonzeros to stay nonzero."""
    if not rec.lattice.zero_meet_irreducible():
        raise ZeroNotIrreducibleError("two nonzero degrees can meet at 0 in this lattice")
    return _crisp_by(rec, lambda v: v != rec.lattice.bottom)


def map_values(rec, morphism):
    """Push every degree through a meet-preserving lattice map."""
    if morphism.source != rec.lattice:
        raise ValidationError("morphism source must match the recognizer lattice")
    # the mapping was checked at construction, and the weights are elements of its source
    return _reweighted(rec, morphism.target, rec.initial, morphism.mapping.__getitem__)
