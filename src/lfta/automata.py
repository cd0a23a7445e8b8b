"""Crisp deterministic and nondeterministic top-down tree automata.

A DT algebra sends a state down every child slot of a symbol; an NDT algebra
offers a set of such child-state tuples.  Both kinds are immutable after
construction.  States may be any hashable values; constructions elsewhere use
tuples and frozensets internally and render them to tokens on serialization.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import product as iproduct
from math import prod

from .errors import BudgetExceededError, ValidationError
from .lattice import chain
from .terms import Tree, _fold


def _check_states(states):
    """The state list as a tuple, and its set; rejects a repeated state and an empty list."""
    states = tuple(states)
    state_set = set(states)
    if len(state_set) != len(states):
        raise ValidationError("duplicate state")
    if not states:
        raise ValidationError("empty state set")
    return states, state_set


def _check_targets(f, m, a, tup, state_set):
    """The child tuple `tup` of `f` at `a` as a tuple, with one listed state per child slot."""
    tup = tuple(tup)
    if len(tup) != m:
        raise ValidationError(f"transition {f!r}/{a!r} must have {m} targets")
    for b in tup:
        if b not in state_set:
            raise ValidationError(f"unknown target state {b!r}")
    return tup


class _Algebra:
    """An alphabet, its states and a row per symbol and state; `_checked_row` is the subclass's row check."""

    __slots__ = ("alphabet", "states", "transitions")

    def __init__(self, alphabet, states, transitions):
        states, state_set = _check_states(states)
        for f in transitions:
            alphabet.arity(f)  # rejects a key that is no symbol of the alphabet
        checked_row, table = self._checked_row, {}
        for f, m in alphabet.symbols:
            rows = transitions.get(f, {})
            table[f] = {a: checked_row(f, m, a, rows, state_set) for a in states}
        self.alphabet = alphabet
        self.states = states
        self.transitions = table

    @classmethod
    def _built(cls, alphabet, states, transitions):
        """An algebra over tables that lfta built and checked itself, stored unchecked.

        `states` lists distinct states, at least one, and `transitions` is a
        complete `{symbol: {state: row}}` table over them, in the stored form
        of `cls`: the rows hold only listed states, with one target per child
        slot.
        """
        self = object.__new__(cls)
        self.alphabet, self.states, self.transitions = alphabet, tuple(states), transitions
        return self


class DtAlgebra(_Algebra):
    """Finite deterministic top-down algebra: state -> tuple of child states."""

    __slots__ = ()

    @staticmethod
    def _checked_row(f, m, a, rows, state_set):
        """A row is a tuple of child states."""
        if a not in rows:
            raise ValidationError(f"missing transition for {f!r} from state {a!r}")
        return _check_targets(f, m, a, rows[a], state_set)

    def step(self, symbol, state):
        return self.transitions[symbol][state]

    def run(self, t, state):
        """The run tree: `t` with every node annotated by the state held there."""
        transitions = self.transitions

        def children(item):
            node, a = item
            return tuple(zip(node.children, transitions[node.symbol][a])) if node.children else ()

        return _fold((t, state), children, lambda item, kids: Tree((item[0].symbol, item[1]), kids))

    def leaf_run(self, t, state):
        """The set of (leaf symbol, state) pairs at the frontier of the run.

        One pass over `t` with an explicit stack, so deep trees need no
        recursion.
        """
        transitions, out = self.transitions, set()
        stack = [(t, state)]
        while stack:
            node, a = stack.pop()
            if node.children:
                stack.extend(zip(node.children, transitions[node.symbol][a]))
            else:
                out.add((node.symbol, a))
        return frozenset(out)

    def path_state(self, state, letters):
        """The state reached by descending along the given path letters."""
        transitions = self.transitions
        for f, i in letters:
            state = transitions[f][state][i - 1]
        return state


class NdtAlgebra(_Algebra):
    """Finite nondeterministic top-down algebra: state -> set of child tuples."""

    __slots__ = ()

    @staticmethod
    def _checked_row(f, m, a, rows, state_set):
        """A row is a tuple of distinct child tuples, in the order a construction made them."""
        choices = [_check_targets(f, m, a, tup, state_set) for tup in rows.get(a, ())]
        # input from outside lfta is deduplicated and sorted by text, so its order does not
        # depend on hashing (one choice is its own order); `_built` keeps a construction's order
        return tuple(sorted(set(choices), key=repr)) if len(choices) > 1 else tuple(choices)

    def choices(self, symbol, state):
        return self.transitions[symbol][state]

    def path_states(self, start, letters):
        """All states reachable from the state `start` at the end of the given path letters."""
        current = {start}
        for f, i in letters:
            nxt = set()
            for a in current:
                for tup in self.choices(f, a):
                    nxt.add(tup[i - 1])
            current = nxt
        return frozenset(current)


def _evaluate(lattice, weights, options, roots, trees):
    """Each tree's degree: the join, over the (state, weight) pairs in `roots`,
    of the weight met with the tree's degree from that state.

    A leaf's degree from a state is its final weight there.  An inner node's
    is the join, over the (child tuple, weight) pairs `options(symbol,
    state)` lists, of the weight met with the children's degrees from the
    tuple's states.  Top-down, in one loop over an explicit stack, so trees
    of any height need no recursion.  A frame holds an inner node's
    children, its memo row, its state, its option list, the index of the
    next option, the option in hand with the index of its next child and its
    running meet, and the join of the options done.  A leaf child's weight,
    and a child already in the memo, are read in place; any other child
    pushes the frame and starts its own.  Each tree is the one child of a
    frame above it whose options are the roots, and whose join is stored in
    the result under the tree.  The memo holds one row `{state: degree}` per
    subtree, for this call only, so only the pairs reachable from the roots
    are evaluated, a subtree is looked up once per visit whatever its
    state, and each option list is built once.  A value enters the memo
    only when its frame completes.  Bottom absorbs meets and top absorbs
    joins, so an option stops at its first child once its meet is bottom,
    and a join stops at the first option (or root) that brings it to top:
    the skipped children and options cannot change the value.  The lattice
    tables are read unchecked: the weights were validated at construction.
    """
    meet, join, bottom, top = lattice._meet, lattice._join, lattice.bottom, lattice.top
    memo, built, out = {}, {}, {}
    above = [((a,), c) for a, c in roots]  # the options of the frame above each tree
    for t in trees:
        # the frame above `t`, whose memo row is the result; `stack` holds the frames that wait
        children, row, state, listed, stack = (t,), out, t, above, []
        got, k, i = bottom, 1, 0
        tup, c = listed[0] if listed else ((), bottom)
        while True:
            if c != bottom and i < len(tup):
                child, b = children[i], tup[i]
                i += 1
                kids = child.children
                if not kids:
                    c = meet[c][weights[child.symbol][b]]
                    continue
                below = memo.get(child)
                if below is None:
                    below = memo[child] = {}
                else:
                    value = below.get(b)
                    if value is not None:
                        c = meet[c][value]
                        continue
                # a new frame for `child`, whose memo row lacks `b`, with its first option in
                # hand; with none, an empty option of meet bottom stands in
                stack.append((children, row, state, listed, k, tup, i, c, got))
                pair = (child.symbol, b)
                listed = built.get(pair)
                if listed is None:
                    listed = built[pair] = options(*pair)
                children, row, state = kids, below, b
                got, k, i = bottom, 1, 0
                tup, c = listed[0] if listed else ((), bottom)
                continue
            # the option in hand is done
            got = join[got][c]
            if got != top and k < len(listed):
                tup, c = listed[k]
                k += 1
                i = 0
                continue
            row[state] = value = got
            if not stack:
                break
            children, row, state, listed, k, tup, i, c, got = stack.pop()
            c = meet[c][value]
    return out


def explore(alphabet, initial, expand):
    """The states reachable from `initial`, breadth first, with their rows.

    `expand(f, state)` returns the row of symbol `f` at `state` and the
    states that row leads to.  Returns the states in discovery order, each
    listed once, and `{symbol: {state: row}}` over them.
    """
    seen = dict.fromkeys(initial)  # insertion-ordered: discovery order
    queue = deque(seen)
    transitions = {f: {} for f, _ in alphabet.symbols}
    while queue:
        state = queue.popleft()
        for f, _ in alphabet.symbols:
            row, successors = expand(f, state)
            transitions[f][state] = row
            for successor in successors:
                if successor not in seen:
                    seen[successor] = None
                    queue.append(successor)
    return list(seen), transitions


def _sorted_repr(value):
    """`repr`, except that frozenset members are written in sorted order.

    A frozenset's own repr follows string hashing; this one does not, and it
    equals `repr` wherever every frozenset has at most one member.  It is the
    one key by which every construction that sorts its states sorts them.
    """
    if isinstance(value, frozenset):
        return f"frozenset({{{', '.join(sorted(map(_sorted_repr, value)))}}})" if value else "frozenset()"
    text = repr(value)
    if type(value) is not tuple or "frozenset(" not in text:  # a tuple without frozensets is its repr
        return text
    inner = ", ".join(map(_sorted_repr, value))
    return f"({inner},)" if len(value) == 1 else f"({inner})"


_NOT_IN_NAME = re.compile(r"[\s{};:=<#]")  # what a state name may not hold in a workspace file


def state_token(state):
    """Deterministic token for a (possibly structured) state name.

    The name a workspace file gives the state; `transforms._fresh` keeps
    the states a construction adds apart from the input's by it too.
    """
    if isinstance(state, frozenset):
        return "[" + ",".join(sorted(state_token(e) for e in state)) + "]"
    if isinstance(state, tuple):
        return "(" + ",".join(state_token(e) for e in state) + ")"
    if isinstance(state, Tree):
        return str(state)
    return _NOT_IN_NAME.sub("_", str(state))


def subset_algebra(algebra, starts):
    """The deterministic algebra over state sets simulating all runs at once.

    Materializes only the subsets reachable from `starts`, in discovery order.
    """

    def expand(f, subset):
        row = tuple(
            frozenset(tup[i] for a in subset for tup in algebra.choices(f, a))
            for i in range(algebra.alphabet.arity(f))
        )
        return row, row

    states, transitions = explore(algebra.alphabet, map(frozenset, starts), expand)
    return DtAlgebra._built(algebra.alphabet, states, transitions)


def refine(leaf_rows, rows):
    """The coarsest stable partition of the states 0..n-1 (forward bisimulation).

    `leaf_rows[i]` is state `i`'s row of leaf weights, and `rows[i]` holds,
    per symbol, its choices as tuples of state numbers.  The first blocks
    group states by leaf row.  Each round splits a block by one signature
    per symbol: the set of the state's choices written in blocks.  A row of
    one choice signs as its tuple, and so does a row whose choices all fall
    on one block tuple, so no frozenset is built for it and equal sets sign
    alike; a row of no choices signs as the empty tuple.  A round refines
    the one before it, so it is stable once the number of blocks stays put.

    Returns each state's block; blocks are numbered in the order of their
    first states.
    """
    ids = {}
    block = [ids.setdefault(row, len(ids)) for row in leaf_rows]
    columns = list(zip(*rows))  # per symbol, every state's choices
    while True:
        count, ids, get = len(ids), {}, block.__getitem__
        signatures = [
            [tuple(map(get, c[0])) if len(c) == 1 else _set_signature(c, get) if c else () for c in column]
            for column in columns
        ]
        block = [ids.setdefault(key, len(ids)) for key in zip(block, *signatures)]
        if len(ids) == count:
            return block


def _set_signature(choices, block_of):
    """The set of several choices written in blocks, or its one tuple if they all fall on one."""
    signature = frozenset([tuple(map(block_of, tup)) for tup in choices])
    if len(signature) == 1:
        (signature,) = signature
    return signature


class Budget:
    """A number of rule combinations that a decision may try, spent in batches."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit=None):
        self.limit, self.spent = limit, 0

    def spend(self, combinations):
        """Count a batch before it is tried; raises BudgetExceededError once past the limit."""
        self.spent += combinations
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceededError(f"the budget of {self.limit} rule combinations ran out")


def saturate(seeds, rules, budget=None):
    """Least fixpoint of bottom-up tree rules, with one witness tree per fact.

    A fact is a (slot, value) pair; `seeds` lists (slot, value, tree) triples.
    A rule (head, symbol, body, combine) derives (head, combine(values)) from
    a tuple of one known value per body slot, witnessed by `symbol` over the
    body values' witnesses.  Rounds are semi-naive: body position j takes the
    last round's new values, earlier positions the values known before that
    round and later positions every value known at the start of this one, so
    each combination is tried once.  The rounds loop over values only: a
    fact's witness never changes once stored, so it is looked up, and the
    new tree built, only when a combination gives a new fact.  Facts live in
    insertion-ordered dicts, never sets, so the discovery order does not
    depend on string hashing.  Yields each new fact as (slot, value,
    witness) when it is found, so a caller that has seen enough stops the
    fixpoint by not asking for more.  Each batch of rule combinations is
    charged to `budget` (a `Budget`, which several fixpoints of one decision
    may draw on in turn, or None for no limit) before it is tried, so
    BudgetExceededError bounds the facts and the number of `combine` calls,
    not the cost of one call.
    """
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
            cur[slot] = values = list(row)
            old[slot], new[slot] = values[: before[slot]], values[before[slot] :]
        if not any(new.values()):
            return
        for head, symbol, body, combine in rules:
            row = known[head]
            for j, slot in enumerate(body):
                if not new[slot]:
                    continue
                pools = [old[b] for b in body[:j]] + [new[slot]] + [cur[b] for b in body[j + 1 :]]
                budget.spend(prod(map(len, pools)))
                for values in iproduct(*pools):
                    value = combine(values)
                    if value not in row:
                        row[value] = witness = Tree(symbol, [known[b][v] for b, v in zip(body, values)])
                        yield head, value, witness
        before = {slot: len(values) for slot, values in cur.items()}


_B2 = chain(["0", "1"])  # crisp acceptance is a degree over the two-element chain


def _check_initial(algebra, initial):
    """`initial`, which must be one of the algebra's states."""
    if initial not in set(algebra.states):
        raise ValidationError(f"unknown initial state {initial!r}")
    return initial


def _check_initial_set(algebra, initial):
    """`initial` as a frozenset, which must hold only the algebra's states."""
    initial = frozenset(initial)
    if not initial <= set(algebra.states):
        raise ValidationError("unknown initial state")
    return initial


def _check_finals(algebra, final):
    """The final state set of each leaf, checked against the algebra's states."""
    for x in final:
        if not algebra.alphabet.is_leaf(x):
            raise ValidationError(f"unknown leaf {x!r}")
    table = {}
    state_set = set(algebra.states)
    for x in algebra.alphabet.leaves:
        chosen = frozenset(final.get(x, ()))
        if not chosen <= state_set:
            raise ValidationError(f"final set for {x!r} mentions unknown states")
        table[x] = chosen
    return table


class _CrispRecognizer:
    """An algebra, its start and its final state sets; `_checked_initial` is the subclass's start check."""

    __slots__ = ("algebra", "initial", "final")

    def __init__(self, algebra, initial, final):
        self.algebra = algebra
        self.initial = self._checked_initial(algebra, initial)
        self.final = _check_finals(algebra, final)

    @classmethod
    def _built(cls, algebra, initial, final):
        """A crisp recognizer over values that lfta built and checked itself, stored unchecked.

        `initial` is in the stored form of `cls` (one state, or a frozenset of
        states), and `final` holds a frozenset of the algebra's states for
        every leaf.
        """
        self = object.__new__(cls)
        self.algebra, self.initial, self.final = algebra, initial, final
        return self


class DtRecognizer(_CrispRecognizer):
    """Crisp deterministic recognizer: accepted iff every frontier pair is final."""

    __slots__ = ()
    _checked_initial = staticmethod(_check_initial)

    def accepts(self, t):
        return all(b in self.final[x] for x, b in self.algebra.leaf_run(t, self.initial))


class NdtRecognizer(_CrispRecognizer):
    """Crisp nondeterministic recognizer over an NDT algebra."""

    __slots__ = ()
    _checked_initial = staticmethod(_check_initial_set)

    def accepts(self, t):
        """Whether some run from an initial state ends in final states only: the
        degree over the two-element chain with weight 1 on the final states."""
        states, choices = self.algebra.states, self.algebra.choices
        weights = {x: {a: "1" if a in chosen else "0" for a in states} for x, chosen in self.final.items()}
        options = lambda f, a: [(tup, "1") for tup in choices(f, a)]
        return _evaluate(_B2, weights, options, [(a, "1") for a in self.initial], (t,))[t] == "1"

    def nonempty(self):
        """Whether some tree is accepted: saturates the productive states until an initial one appears."""
        alphabet = self.algebra.alphabet
        seeds = [
            (a, True, Tree(x)) for x in alphabet.leaves for a in self.algebra.states if a in self.final[x]
        ]
        rules = [
            (a, f, tup, all)
            for f, _ in alphabet.symbols
            for a in self.algebra.states
            for tup in self.algebra.choices(f, a)
        ]
        return any(a in self.initial for a, _, _ in saturate(seeds, rules))
