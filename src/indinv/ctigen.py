"""Counterexample-to-induction generation, exact or by randomized simulation.

A CTI of the candidate Ind is a state of Ind with a path of at most
``depth`` steps through Ind to a state outside it, recorded by its code, a
state's identity, with such a path as its witness, whose steps carry their
pre-states' codes. A batch stays codes: ``Ctis`` keeps each CTI's code and
each code's next step, and builds a CTI's state and witness only when it is
read, which selection and the inference loop never do. When Ind has at most
as many codes as the call has walks, the batch is exact: every CTI at its
shortest depth, found from Ind's codes, each stepped once, with no rng
draw. Otherwise walks start from sampled codes of Ind, drawn with exactly
``random_state``'s rng calls, and take uniformly random enabled
transitions; a walk that leaves Ind at step k makes CTIs of its k earlier
codes.

A firing's guard, the change a firing makes to a code (a successor is code
plus delta) and a conjunct's body under one binding of its leading
``forall`` prefix each depend on a few leaves, scalar variables or map
entries, so each is kept in a table over their digits, filled on first
use; a conjunct is the AND of its bindings' tables, or one table of its own
where that is no larger or theirs would pass the limit together. Ind's
codes are found by a search over leaf digits that cuts a branch at the
first such table to fail, so its cost follows Ind, not the whole space, and
that stops past the walk count. An inference keeps one ``WalkTable`` for
its searches; ``compute_reach`` and ``check_induction`` each make their own.
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
    witness: tuple[Transition, ...]
    depth_to_violation: int

    def __post_init__(self):
        assert self.depth_to_violation == len(self.witness) >= 1


class CtiBatch(Record, frozen=False):
    """The CTIs found, the walks started (for an exact batch, the Ind codes
    examined) and how many of those started inside Ind."""

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
    walks and searches: a closure over the table, the projection and
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
    ``transition`` builds the witness step of a firing from a code to a state.
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
    code's step ``(firing, next code)`` along its witness, which ends at the
    first code without one, outside Ind; a CTI's depth is its length.

    ``len`` builds nothing. An item is the ``CTI`` of its code, its state and
    witness decoded when it is read; ``subset`` keeps some of the codes.
    """

    def __init__(self, table: WalkTable, codes: list[int], steps: dict[int, tuple[int, int]]):
        self.codes, self.codec = codes, table.codec
        self._table, self._steps = table, steps

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self.codes)))]
        decode, steps = self.codec.decode, self._steps
        code = c = self.codes[k]
        witness = []
        while c in steps:
            i, d = steps[c]
            witness.append(self._table.transition(c, i, decode(d)))
            c = d
        return CTI(decode(code), code, tuple(witness), len(witness))

    def subset(self, ks: Iterable[int]) -> Ctis:
        return Ctis(self._table, [self.codes[k] for k in ks], self._steps)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def _exact_ctis(table: WalkTable, inside: list[int], depth: int, cap: int) -> CtiBatch:
    """The first cap, in code order, of Ind's codes ``inside`` with a path of
    at most depth steps through Ind to a code outside it.

    Pass k finds the codes whose shortest such path has k steps, each by its
    first firing out of Ind (k = 1), else into a code found before; the
    passes stop at depth or at the first that finds none. Pass 1 steps each
    code once, judging guards only up to its first firing out of Ind, and
    keeps the enabled (firing, successor) pairs of the codes it leaves open;
    the later passes only look those up.
    """
    ok = set(inside)
    guards, successor = list(enumerate(table.guards)), table.successor
    found: dict[int, tuple[int, int]] = {}  # code -> (firing, successor)
    moves: dict[int, list[tuple[int, int]]] = {}  # open code -> its (firing, successor)s
    for c in inside:
        pairs = []
        for i, guard in guards:
            if not guard(c):
                continue
            d = successor(c, i)
            if d not in ok:
                found[c] = (i, d)
                break
            pairs.append((i, d))
        else:
            moves[c] = pairs
    for _ in range(2, depth + 1):
        added = {}
        for c, pairs in moves.items():
            for i, d in pairs:
                if d in found:
                    added[c] = (i, d)
                    break
        if not added:
            break
        found.update(added)
        for c in added:
            del moves[c]
    return CtiBatch(Ctis(table, sorted(found)[:cap], found), len(inside), len(inside))


def _sample_walks(table: WalkTable, good, budget: int, depth: int, cap: int,
                  rng: random.Random) -> CtiBatch:
    """At most cap CTIs from up to budget walks of up to depth uniformly
    random enabled firings, each from a uniformly drawn code of Ind. A walk
    that leaves Ind at step k adds its first k codes that no walk added
    before, in walk order; a code keeps the step of the walk that left Ind
    soonest after it."""
    random_code, moves, step = table.codec.random_code, table.enabled, table.successor
    codes: list[int] = []
    steps: dict[int, tuple[int, int]] = {}  # code -> (firing, next code)
    out: dict[int, int] = {}  # code -> the fewest steps a walk took from it out of ind
    attempts = starts = 0
    for _ in range(budget):
        if len(codes) >= cap:
            break
        attempts += 1
        key = random_code(rng)
        if not good(key):  # the draw does not satisfy ind
            continue
        starts += 1
        path = [key]
        taken: list[int] = []
        for _step in range(depth):
            choices = moves(key)
            if not choices:
                break
            i = choices[rng.randrange(len(choices))]
            key = step(key, i)
            path.append(key)
            taken.append(i)
            if good(key):
                continue
            # codes path[0..k-1] all satisfy ind; those new to out are CTIs up
            # to the cap, and reaching the cap ends the batch
            k = len(taken)
            codes += [c for c in dict.fromkeys(path[:k]) if c not in out][:cap - len(codes)]
            # backward, so out strictly falls along every witness: none cycles
            for j in range(k - 1, -1, -1):
                if k - j < out.get(path[j], k + 1):
                    steps[path[j]], out[path[j]] = (taken[j], path[j + 1]), k - j
            break
    return CtiBatch(Ctis(table, codes, steps), attempts, starts)


def generate_ctis(
    protocol: Protocol,
    instance: Instance,
    ind: Expr,
    n_ctis: int,
    depth: int,
    cap: int,
    rng: random.Random,
    table: WalkTable | None = None,
) -> CtiBatch:
    """At most cap distinct CTIs of ind, each with a witness of at most depth
    steps: the exact set in code order when ind has at most n_ctis codes,
    else those of up to n_ctis sampled walks.

    Deterministic given the rng: the batch and the rng's next draw depend only
    on its state on entry, and an exact batch draws nothing. ``table`` is an
    inference's table for this protocol and instance; without one, a fresh
    table serves this call alone.
    """
    if depth < 1:
        raise ValueError("walk depth must be at least 1")
    if cap < 1:
        raise ValueError("CTI cap must be at least 1")
    if table is None or table.space != (protocol, instance):
        table = WalkTable(protocol, instance)
    conjuncts = conjuncts_of(ind)
    inside = table.inside(conjuncts, n_ctis)
    if inside is not None:
        return _exact_ctis(table, inside, depth, cap)
    return _sample_walks(table, table.good(conjuncts), n_ctis, depth, cap, rng)


def replay_witness_diagnosis(
    cti: CTI, protocol: Protocol, instance: Instance, ind: Expr
) -> str | None:
    """None when every witness step is one of ``successors`` of its pre-state
    and only the last leaves the predicate; else names the failing step."""
    encode = state_codec(protocol, instance).encode
    if encode(cti.state) != cti.code:
        return "step 0: stored code does not match the start state"
    ind_f = compile_expr(ind, instance, cti.state.schema)
    if ind_f(cti.state, {}) is not True:
        return "step 0: start state does not satisfy the predicate"
    cur = cti.state
    last = len(cti.witness) - 1
    for i, t in enumerate(cti.witness):
        if encode(cur) != t.pre_code:
            return f"step {i}: pre-state code mismatch"
        if t not in successors(cur, protocol, instance):
            return f"step {i}: not a transition of the protocol from the pre-state"
        if i == last:
            if ind_f(t.post, {}) is True:
                return f"step {i}: final state still satisfies the predicate"
        elif ind_f(t.post, {}) is not True:
            return f"step {i}: intermediate state violates the predicate"
        cur = t.post
    return None


def replay_witness(cti: CTI, protocol: Protocol, instance: Instance, ind: Expr) -> bool:
    """True iff the recorded witness replays exactly and ends in violation."""
    return replay_witness_diagnosis(cti, protocol, instance, ind) is None
