"""Counterexample-to-induction generation, exact or from random draws.

A CTI of the candidate Ind is a state of Ind with a successor outside Ind,
recorded by its code, a state's identity, with that step as its witness.
``_ctis`` finds them among a stream of Ind's codes, keeping each code's
first firing, in firing order, out of Ind; it serves every batch and the
induction check's consecution. A batch stays codes: ``Ctis`` keeps each
CTI's code and step, and builds a CTI's state and witness only when it is
read, which selection and the inference loop never do. When Ind has at most
``n_ctis`` codes the batch is exact: all of Ind in code order, with no rng
draw. Otherwise it steps those of ``n_ctis`` uniform draws of a code, drawn
with exactly ``random_state``'s rng calls, that land in Ind.

A firing's guard, the change a firing makes to a code (a successor is code
plus delta) and a conjunct's body under one binding of its leading
``forall`` prefix each depend on a few leaves, scalar variables or map
entries, so each is kept in a table over their digits, filled on first
use; a conjunct is the AND of its bindings' tables, or one table of its own
where that is no larger or theirs would pass the limit together. Ind's
codes are found by a search over leaf digits that cuts a branch at the
first such table to fail, so its cost follows Ind, not the whole space, and
that stops past ``n_ctis``. An inference keeps one ``WalkTable`` for its
searches; ``compute_reach`` and ``check_induction`` each make their own.
"""
from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Sequence

from .evaluator import Compiled, Transition, compile_expr, firings, successors
# The engine calls neither fingerprint nor random_state; bench/child.py counts them here.
from .instance import (  # noqa: F401
    Instance, State, StateCodec, fingerprint, random_state, state_codec,
)
from .syntax import (And, BoundRef, Expr, MapIndex, MapLit, Protocol, Quant, Record,
                     StateRef, canonicalize, children)

DEFAULT_LIMIT = 1_000_000  # default bound on states enumerated or reached and on a table's entries


class CTI(Record):
    state: State
    code: int
    step: Transition  # to a state outside Ind


class CtiBatch(Record, frozen=False):
    """The CTIs found, the codes drawn (for an exact batch, Ind's codes) and
    how many of those are in Ind."""

    ctis: Ctis
    samples_attempted: int
    starts: int

    def __len__(self) -> int:
        return len(self.ctis)


def conjuncts_of(e: Expr) -> list[Expr]:
    """e's top-level And arguments, flattened recursively."""
    return [c for a in e.args for c in conjuncts_of(a)] if isinstance(e, And) else [e]


def _leaves(e: Expr, codec: StateCodec, binding: dict[str, str],
            shadowed: frozenset[str] = frozenset()) -> set[int]:
    """The leaves that evaluating e may read under an action's binding:
    ``m[p]`` for a parameter p that nothing in e rebinds reads one, any other
    index all of m's and what it reads, any other variable all of its own."""
    if isinstance(e, StateRef):
        return set(codec.var_leaves[e.name].values())
    if isinstance(e, MapIndex):
        key = e.key
        if isinstance(key, BoundRef) and key.name in binding and key.name not in shadowed:
            return {codec.var_leaves[e.mapping.name][binding[key.name]]}
        return _leaves(e.mapping, codec, binding) | _leaves(key, codec, binding, shadowed)
    if isinstance(e, (Quant, MapLit)):
        shadowed = shadowed | {e.var}
    return set().union(*[_leaves(c, codec, binding, shadowed) for c in children(e)])


class Verdicts:
    """A predicate's verdict on each state code of one instance under a binding
    ``env`` of its free variables: a conjunct body's under one binding of the
    conjunct's leading ``forall`` prefix, a whole closed conjunct's under none,
    or a firing's guard's under the firing's binding.

    The verdict depends only on the leaves the predicate reads under ``env``,
    so it is kept per projection of the code onto their digits: ``table[p]``
    is 0 while unknown, else 1 for false and 2 for true, filled the first
    time a code with that projection is asked about by evaluating the
    predicate on the code's state, of which only the variables it reads are
    built. ``holds`` makes the check for a caller to keep, the hot path of
    CTI batches and searches: a closure over the table, the projection and
    ``evaluate``. The object does not keep it, so no reference cycle holds
    the table once its last user is gone. With more than ``limit``
    projections there is no table, and each call evaluates.
    """

    def __init__(self, expr: Expr, f: Compiled, env: dict, codec: StateCodec, limit: int):
        self.expr = expr
        self.f, self.env = f, env
        self.codec, self.leaves = codec, _leaves(expr, codec, env)
        self.read = [i for i, leaves in enumerate(codec.var_leaves.values())
                     if not self.leaves.isdisjoint(leaves.values())]
        count, self.project = codec.projection(self.leaves)
        self.table = bytearray(count) if count <= limit else None

    def evaluate(self, code: int) -> bool:
        return self.f(self.codec.build(code, self.read), self.env) is True

    @property
    def holds(self):
        table, project, evaluate = self.table, self.project, self.evaluate
        if table is None:
            return evaluate

        def holds(code: int) -> bool:
            p = project(code)
            v = table[p]
            if not v:
                v = table[p] = 2 if evaluate(code) else 1
            return v == 2
        return holds


def _all(checks: list):
    """holds(code): whether every check holds of the code."""
    def holds(code: int) -> bool:
        for check in checks:
            if not check(code):
                return False
        return True
    return holds


class Conjunct:
    """A closed conjunct's verdict on each state code: the AND of ``parts``,
    its canonical body's ``Verdicts`` per binding of its leading ``forall``
    prefix, or the one ``Verdicts`` of the whole conjunct where those tables
    would hold at least as many entries as its own, or more than the limit
    together.
    """

    def __init__(self, expr: Expr, parts: list[Verdicts]):
        self.expr = expr  # kept alive, so its id names no other expression
        self.parts = parts
        self.checks = [p.holds for p in parts]
        self.holds = _all(self.checks)


class WalkTable:
    """What a search, or an inference's run of searches, keeps about one instance.

    ``verdict(conjunct)`` is each conjunct's ``Conjunct``, by identity, and
    ``good(conjuncts)`` is their conjunction, the AND of all their parts.
    Each firing has a ``Verdicts`` of its guard and a table of deltas over
    the leaves its updates read or may write, filled on a miss by applying
    it to the code's state; past ``limit`` entries it has none, and applies
    on every call. ``inside(conjuncts, bound)`` lists the codes of their
    conjunction, up to bound of them, by a search over leaf digits, pruned by
    the parts' tables.
    ``transition`` builds a CTI's step by a firing from a code to a state.
    """

    def __init__(self, protocol: Protocol, instance: Instance, limit: int = DEFAULT_LIMIT) -> None:
        self.space = (protocol, instance)
        self.limit = limit
        codec = self.codec = state_codec(protocol, instance)
        self.fs = firings(protocol, instance)
        self.guards = []  # each firing's Verdicts.holds
        self.deltas: list = []  # each firing's (project, {projection: delta} or None)
        decls = {decl.name: decl for decl in protocol.actions}
        for guard, env, (name, _, _, _) in self.fs:
            decl = decls[name]
            self.guards.append(Verdicts(decl.guard, guard, env, codec, limit).holds)
            key = set()
            for u in decl.updates:
                lhs = StateRef(u.target)
                lhs = lhs if u.index is None else MapIndex(lhs, u.index)  # what it may write
                key |= _leaves(lhs, codec, env) | _leaves(u.rhs, codec, env)
            count, project = codec.projection(key)
            self.deltas.append((project, {} if count <= limit else None))
        self.verdicts: dict[int, Conjunct] = {}

    def verdict(self, conjunct: Expr) -> Conjunct:
        """The conjunct's ``Conjunct``, compiled from its canonical form on first use."""
        v = self.verdicts.get(id(conjunct))
        if v is None:
            v = self.verdicts[id(conjunct)] = Conjunct(conjunct, self._parts(conjunct))
        return v

    def _parts(self, conjunct: Expr) -> list[Verdicts]:
        """Verdicts of the canonical body per binding of the leading forall
        prefix, if their entries add up to less than the whole's and to at
        most the limit; else the one Verdicts of the whole."""
        instance, codec = self.space[1], self.codec
        whole = body = canonicalize(conjunct)
        names, domains = [], []
        while isinstance(body, Quant) and body.kind == "forall":
            names.append(body.var)
            domains.append(instance.domain(body.sort))
            body = body.body
        envs = [dict(zip(names, combo)) for combo in itertools.product(*domains)]

        def entries(e: Expr, env: dict) -> int:
            return codec.projection(_leaves(e, codec, env))[0]
        total = sum([entries(body, env) for env in envs])
        if total >= entries(whole, {}) or total > self.limit:
            body, envs = whole, [{}]
        f = compile_expr(body, instance, codec.schema)
        return [Verdicts(body, f, env, codec, self.limit) for env in envs]

    def good(self, conjuncts: list[Expr]):
        """good(code): whether the code's state satisfies every conjunct."""
        return _all([check for c in conjuncts for check in self.verdict(c).checks])

    def enabled(self, code: int) -> list[int]:
        return [i for i, holds in enumerate(self.guards) if holds(code)]

    def successor(self, code: int, i: int) -> int:
        project, deltas = self.deltas[i]
        p = project(code)
        d = deltas.get(p) if deltas is not None else None
        if d is None:
            _, apply, _, env = self.fs[i][2]
            d = self.codec.encode(apply(self.codec.build(code), env)) - code
            if deltas is not None:
                deltas[p] = d
        return code + d

    def transition(self, pre: int, i: int, post: State) -> Transition:
        name, _, binding, _ = self.fs[i][2]
        return Transition(name, binding, pre, post)

    def inside(self, conjuncts: list[Expr], bound: int | None = None) -> list[int] | None:
        """The codes that satisfy every conjunct, ascending, or None once more
        than bound are found, by a depth-first search that sets leaves most
        significant first, digits ascending, and cuts a branch at the first
        part to fail once its leaves, all it reads, are set. The leaves up to
        each place a part is due are set as one run, judged lazily."""
        bound = self.codec.size if bound is None else min(bound, self.codec.size)
        leaves, weights = self.codec.leaves, self.codec.leaf_weights
        parts = [p for c in conjuncts for p in self.verdict(c).parts]
        due = [[p.holds for p in parts if max(p.leaves, default=-1) == j]
               for j in range(-1, len(leaves))]  # due[j + 1]: once leaf j is set
        runs, count = [(1, 1, _all(due[0]))], 1  # (weight of its last leaf, codes, check)
        for j, (r, _) in enumerate(leaves):
            count *= r
            if due[j + 1] or j + 1 == len(leaves):
                runs.append((weights[j], count, _all(due[j + 1])))
                count = 1
        found, stack = [], [iter([0])]  # per run set so far, the codes yet to try
        while stack:
            code = next(stack[-1], None)
            if code is None:
                stack.pop()
                continue
            w, n, check = runs[len(stack) - 1]
            codes = filter(check, range(code, code + n * w, w))
            if len(stack) < len(runs):
                stack.append(codes)
                continue
            found += itertools.islice(codes, bound + 1 - len(found))
            if len(found) > bound:
                return None
        return found


class Ctis(Sequence):
    """A batch's CTIs as their ``codes``, in the order found, and each
    code's step ``(firing, successor code)`` out of Ind.

    ``len`` builds nothing. An item is the ``CTI`` of its code, its state and
    step decoded when it is read; ``subset`` keeps some of the codes.
    """

    def __init__(self, table: WalkTable, codes: list[int], steps: dict[int, tuple[int, int]]):
        self.codes, self.codec = codes, table.codec
        self._table, self._steps = table, steps

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self.codes)))]
        decode, code = self.codec.decode, self.codes[k]
        i, d = self._steps[code]
        return CTI(decode(code), code, self._table.transition(code, i, decode(d)))

    def subset(self, ks: Iterable[int]) -> Ctis:
        return Ctis(self._table, [self.codes[k] for k in ks], self._steps)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def _ctis(table: WalkTable, codes: Iterable[int], good, cap: int) -> dict[int, tuple[int, int]]:
    """Each CTI among ``codes``, codes of Ind, with its first firing, in
    firing order, to a successor outside Ind, as ``{code: (firing,
    successor)}`` in the order of ``codes``, stopping at cap CTIs;
    ``good(code)`` tells whether a code is in Ind. A code met twice is kept
    once."""
    guards, successor = list(enumerate(table.guards)), table.successor
    steps: dict[int, tuple[int, int]] = {}
    for c in codes:
        for i, guard in guards:
            if guard(c) and not good(d := successor(c, i)):
                steps[c] = (i, d)
                break
        if len(steps) >= cap:
            break
    return steps


def _sampled(table: WalkTable, good, n: int, cap: int, rng: random.Random) -> CtiBatch:
    """The CTIs among up to n uniformly drawn codes, of those in Ind, drawn
    only while fewer than cap are found."""
    random_code, counts = table.codec.random_code, [0, 0]  # draws, and those in Ind

    def draws():
        for _ in range(n):
            counts[0] += 1
            code = random_code(rng)
            if good(code):
                counts[1] += 1
                yield code
    steps = _ctis(table, draws(), good, cap)
    return CtiBatch(Ctis(table, list(steps), steps), *counts)


def generate_ctis(
    protocol: Protocol,
    instance: Instance,
    ind: Expr,
    n_ctis: int,
    cap: int,
    rng: random.Random,
    table: WalkTable | None = None,
) -> CtiBatch:
    """At most cap distinct CTIs of ind: the exact set in code order when ind
    has at most n_ctis codes, else those among n_ctis random draws.

    Deterministic given the rng: the batch and the rng's next draw depend only
    on its state on entry, and an exact batch draws nothing. ``table`` is an
    inference's table for this protocol and instance; without one, a fresh
    table serves this call alone.
    """
    if cap < 1:
        raise ValueError("CTI cap must be at least 1")
    if table is None or table.space != (protocol, instance):
        table = WalkTable(protocol, instance)
    conjuncts = conjuncts_of(ind)
    inside = table.inside(conjuncts, n_ctis)
    if inside is None:
        return _sampled(table, table.good(conjuncts), n_ctis, cap, rng)
    steps = _ctis(table, inside, set(inside).__contains__, cap)
    return CtiBatch(Ctis(table, list(steps), steps), len(inside), len(inside))


def replay_witness_diagnosis(
    cti: CTI, protocol: Protocol, instance: Instance, ind: Expr
) -> str | None:
    """None when the CTI's state satisfies the predicate and its step is one
    of ``successors`` of that state to a state that does not; else names
    what fails."""
    if state_codec(protocol, instance).encode(cti.state) != cti.code:
        return "stored code does not match the state"
    ind_f = compile_expr(ind, instance, cti.state.schema)
    if ind_f(cti.state, {}) is not True:
        return "state does not satisfy the predicate"
    if cti.step.pre_code != cti.code:
        return "pre-state code mismatch"
    if cti.step not in successors(cti.state, protocol, instance):
        return "not a transition of the protocol from the state"
    if ind_f(cti.step.post, {}) is True:
        return "post-state still satisfies the predicate"
    return None


def replay_witness(cti: CTI, protocol: Protocol, instance: Instance, ind: Expr) -> bool:
    """True iff the recorded step replays exactly and leaves the predicate."""
    return replay_witness_diagnosis(cti, protocol, instance, ind) is None
