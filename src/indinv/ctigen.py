"""Counterexample-to-induction generation, exact or by randomized simulation.

A CTI of the candidate Ind is a state of Ind with a path of at most
``depth`` steps through Ind to a state outside it, recorded by its code, a
state's identity, with such a path as its witness, whose steps carry their
pre-states' codes. When the instance has no more states than the call has
walks, the batch is exact: every CTI at its shortest depth, found from
Ind's verdict on every code, with no rng draw. Otherwise a sampled start
state that satisfies Ind is walked forward by uniformly random enabled
transitions; if the walk leaves Ind at step k, all k earlier states are CTIs.

Both run over state codes, drawn with exactly ``random_state``'s rng calls,
and build a state only to report a CTI. A firing's guard, the change a
firing makes to a code (a successor is code plus delta) and a conjunct's
body under one binding of its leading ``forall`` prefix each depend on a
few leaves, scalar variables or map entries, so each is kept in a table
over their digits, filled on first use; a conjunct is the AND of its
bindings' tables, or one table of its own where that is no larger or
theirs would pass the limit together. An inference keeps one ``WalkTable``
for its searches; ``compute_reach`` and ``check_induction`` each make one
of their own.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass

from .evaluator import Compiled, Transition, compile_expr, firings, successors
# The engine calls neither fingerprint nor random_state; bench/child.py counts them here.
from .instance import (  # noqa: F401
    Instance, State, StateCodec, fingerprint, random_state, state_codec,
)
from .syntax import (And, BoundRef, Expr, MapIndex, MapLit, Protocol, Quant, StateRef,
                     canonicalize, children)

DEFAULT_LIMIT = 1_000_000  # default bound on states enumerated or reached and on a table's entries


@dataclass(frozen=True)
class CTI:
    state: State
    code: int
    witness: tuple[Transition, ...]
    depth_to_violation: int

    def __post_init__(self):
        assert self.depth_to_violation == len(self.witness) >= 1


@dataclass
class CtiBatch:
    """The CTIs found, the walks started (for an exact batch, the Ind codes
    examined) and how many of those started inside Ind."""

    ctis: list[CTI]
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
    built. With more than ``limit`` projections there is no table, and each
    call evaluates. ``column()`` computes every code's verdict, once per
    projection.
    """

    def __init__(self, expr: Expr, f: Compiled, env: dict, codec: StateCodec, limit: int):
        self.expr = expr
        self.f, self.env = f, env
        self.codec, self.leaves = codec, _leaves(expr, codec, env)
        self.read = [i for i, leaves in enumerate(codec.var_leaves.values())
                     if not self.leaves.isdisjoint(leaves.values())]
        count, self.project = codec.projection(self.leaves)
        self.table = bytearray(count) if count <= limit else None
        if self.table is None:
            self.holds = self.evaluate

    def evaluate(self, code: int) -> bool:
        return self.f(self.codec.build(code, self.read), self.env) is True

    def holds(self, code: int) -> bool:
        p = self.project(code)
        v = self.table[p]
        if not v:
            v = self.table[p] = 2 if self.evaluate(code) else 1
        return v == 2

    def column(self) -> int:
        """An int whose little-endian byte k is 1 if code k satisfies the
        predicate, else 0; so the AND of columns is their conjunction's."""
        return int.from_bytes(self.codec.column(self.leaves, self.holds), "little")


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
    together. Only ``column``, the AND of the parts' columns, is kept.
    """

    def __init__(self, expr: Expr, parts: list[Verdicts]):
        self.expr = expr  # kept alive, so its id names no other expression
        self.parts = parts
        self.checks = [p.holds for p in parts]
        self.holds = _all(self.checks)

    @functools.cached_property
    def column(self) -> int:
        return functools.reduce(operator.and_, (p.column() for p in self.parts))


class WalkTable:
    """What a search, or an inference's run of searches, keeps about one instance.

    ``verdict(conjunct)`` is each conjunct's ``Conjunct``, by identity, and
    ``good(conjuncts)`` is their conjunction, the AND of all their parts.
    Each firing has a ``Verdicts`` of its guard and a table of deltas over
    the leaves its updates read or may write, filled on a miss by applying
    it to the code's state; past ``limit`` entries it has none, and applies
    on every call. ``narrow`` ANDs the columns of an ind's conjuncts into
    its verdict on every code.
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

    def narrow(self, ind: Expr) -> bytes:
        """The verdicts of ind, one byte per code."""
        ok = functools.reduce(operator.and_, [self.verdict(c).column for c in conjuncts_of(ind)])
        return ok.to_bytes(self.codec.size, "little")


def _exact_ctis(table: WalkTable, ind: Expr, depth: int, cap: int) -> CtiBatch:
    """The first cap, in code order, of the codes of ind with a path of at
    most depth steps through ind to a code outside it, started from each of
    ind's codes.

    Pass k finds the codes whose shortest such path has k steps, each by its
    first firing out of ind (k = 1), else into a code found before; the
    passes stop at depth or at the first that finds none.
    """
    ok = table.narrow(ind)
    inside = list(itertools.compress(range(len(ok)), ok))
    enabled, successor = table.enabled, table.successor
    found: dict[int, tuple[int, int, int]] = {}  # code -> (depth, firing, successor)
    rest = inside
    for k in range(1, depth + 1):
        hits = (lambda d: not ok[d]) if k == 1 else found.__contains__
        added = {}
        for c in rest:
            for i in enabled(c):
                d = successor(c, i)
                if hits(d):
                    added[c] = (k, i, d)
                    break
        if not added:
            break
        found.update(added)
        rest = [c for c in rest if c not in added]

    state = functools.cache(table.codec.decode)

    def witness(c: int) -> tuple[Transition, ...]:
        steps = []
        while c in found:
            _, i, d = found[c]
            steps.append(table.transition(c, i, state(d)))
            c = d
        return tuple(steps)
    ctis = [CTI(state(c), c, witness(c), found[c][0]) for c in sorted(found)[:cap]]
    return CtiBatch(ctis, len(inside), len(inside))


def _sample_walks(table: WalkTable, good, budget: int, depth: int, cap: int,
                  rng: random.Random) -> CtiBatch:
    codec, random_code = table.codec, table.codec.random_code
    moves, step = table.enabled, table.successor
    ctis: list[CTI] = []
    seen: set = set()
    attempts = starts = 0
    for _ in range(budget):
        if len(ctis) >= cap:
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
            # keys path[0..k-1] all satisfy ind; each unseen one becomes a
            # CTI, marked seen as it is scanned since a walk may revisit it
            k = len(taken)
            fresh = []
            for j in range(k):
                if path[j] not in seen:
                    seen.add(path[j])
                    fresh.append(j)
                    if len(ctis) + len(fresh) >= cap:
                        break
            if fresh:
                first = fresh[0]
                states = [codec.decode(key) for key in path[first:]]
                walk = [table.transition(pre, i, post)
                        for i, pre, post in zip(taken[first:], path[first:-1], states[1:])]
                for j in fresh:
                    ctis.append(CTI(states[j - first], path[j], tuple(walk[j - first:]), k - j))
            break
    return CtiBatch(ctis, attempts, starts)


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
    steps: the exact set in code order when the instance has at most n_ctis
    states, else those of up to n_ctis sampled walks.

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
    if table.codec.size <= n_ctis:
        return _exact_ctis(table, ind, depth, cap)
    good = table.good(conjuncts_of(ind))
    return _sample_walks(table, good, n_ctis, depth, cap, rng)


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
