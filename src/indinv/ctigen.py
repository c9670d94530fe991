"""Counterexample-to-induction generation by randomized simulation.

A sampled start state that satisfies the current candidate is walked forward
by uniformly random enabled transitions. If the walk hits a violating state
at step k, every earlier state on the walk satisfies the candidate by
construction, so all of them are counterexamples to induction; each is
recorded with its witness suffix.

Every draw is a state code, made with exactly ``random_state``'s rng calls,
and is rejected by per-conjunct verdict tables before any state is built.
When the instance has no more states than the call has walks, a walk's keys
are codes and it reads per-code verdicts, so each conjunct is evaluated at
most once per state; otherwise its keys are ``State``s and each later visit
evaluates afresh. Both make the same rng calls and give the same batch.
An inference keeps one ``WalkTable`` with all these tables for its searches.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .evaluator import Transition, apply_action, compile_expr, evaluate, firings
from .instance import (  # noqa: F401 (bench/child.py counts random_state calls here)
    Instance, State, StateCodec, fingerprint, random_state, state_codec, state_space_size,
)
from .syntax import And, Expr, Protocol, reads


@dataclass(frozen=True)
class CTI:
    state: State
    fingerprint: int
    witness: tuple[Transition, ...]
    depth_to_violation: int

    def __post_init__(self):
        assert self.depth_to_violation == len(self.witness) >= 1


@dataclass
class CtiBatch:
    ctis: list[CTI]
    samples_attempted: int

    def __len__(self) -> int:
        return len(self.ctis)

    def fingerprints(self) -> set[int]:
        return {c.fingerprint for c in self.ctis}


def _enabled(fs):
    """enabled(s): the indices of the firings whose guard holds in s."""
    guards = [(i, guard, env) for i, (guard, env, _) in enumerate(fs)]
    return lambda s: [i for i, guard, env in guards if guard(s, env) is True]


def conjuncts_of(e: Expr) -> list[Expr]:
    """e's top-level And arguments, flattened recursively."""
    return [c for a in e.args for c in conjuncts_of(a)] if isinstance(e, And) else [e]


class Verdicts:
    """One conjunct's verdict on each state code of one instance.

    The verdict depends only on the variables the conjunct reads, so it is
    kept per projection of the code onto their digits: ``table[p]`` is 0
    while unknown, else 1 for false and 2 for true. An entry is filled the
    first time a code with that projection is asked about, by evaluating the
    conjunct once on that code's state, of which only the variables it reads
    are built, without interning. A conjunct with more than ``limit``
    projections has no table and is evaluated on every call.
    """

    def __init__(self, conjunct: Expr, codec: StateCodec, instance: Instance, limit: int):
        self.conjunct = conjunct  # kept alive, so its id names no other conjunct
        self.f = compile_expr(conjunct, instance, codec.schema)
        names = reads(conjunct)
        self.read = [i for i, n in enumerate(codec.schema.names) if n in names]
        self.build = codec.build
        count, self.project = codec.projection(names)
        self.table = bytearray(count) if count <= limit else None
        if self.table is None:
            self.holds = self.evaluate

    def evaluate(self, code: int) -> bool:
        return self.f(self.build(code, self.read), {}) is True

    def holds(self, code: int) -> bool:
        p = self.project(code)
        v = self.table[p]
        if not v:
            v = self.table[p] = 2 if self.evaluate(code) else 1
        return v == 2


class WalkTable:
    """What an inference keeps about one instance across its CTI searches.

    ``verdicts`` holds each conjunct's ``Verdicts``, by identity; ``infer``
    passes the same conjunct objects every round. Walks over codes also read
    ``ok``: ``ok[code]`` is 1 iff the state satisfies each conjunct of the
    last ind. An ind whose conjuncts extend the last one's (the same objects,
    then more) narrows ``ok`` by the new ones only, where it is still 1; any
    other ind recomputes it. Enabled firings and successor codes do not
    depend on ind, so each is computed once, when first needed, and kept.
    These per-code parts are allocated on first use.
    """

    def __init__(self, protocol: Protocol, instance: Instance, limit: int = 1_000_000) -> None:
        self.space = (protocol, instance)
        self.limit = limit
        self.codec = state_codec(protocol, instance)
        self.fs = firings(protocol, instance)
        self.enabled = _enabled(self.fs)
        self.verdicts: dict[int, Verdicts] = {}
        self.conjuncts: list[Expr] = []  # none yet, so ok is all 1
        self.ok: bytearray | None = None
        self.interned: dict = {}
        self.succ: dict[int, int] = {}  # code * len(fs) + firing -> successor code

    def holds_of(self, conjunct: Expr):
        """The conjunct's ``Verdicts.holds``, made on first use."""
        if id(conjunct) not in self.verdicts:
            self.verdicts[id(conjunct)] = Verdicts(conjunct, self.codec, self.space[1], self.limit)
        return self.verdicts[id(conjunct)].holds

    def moves(self, c: int) -> tuple[int, ...]:
        m = self.moves_at[c]
        if m is None:
            m = tuple(self.enabled(self.codec.decode(c)))
            m = self.moves_at[c] = self.interned.setdefault(m, m)
        return m

    def apply(self, s: State, i: int) -> State:
        _, apply, _, env = self.fs[i][2]
        return apply(s, env)

    def step(self, c: int, i: int) -> int:
        key = c * len(self.fs) + i
        d = self.succ.get(key)
        if d is None:
            d = self.succ[key] = self.codec.encode(self.apply(self.codec.decode(c), i))
        return d

    def narrow(self, ind: Expr) -> None:
        """Make ``ok`` the verdicts of ind."""
        if self.ok is None:
            self.ok, self.moves_at = bytearray(b"\x01") * self.codec.size, [None] * self.codec.size
        new, old, ok = conjuncts_of(ind), self.conjuncts, self.ok
        if len(old) > len(new) or any(a is not b for a, b in zip(old, new)):
            ok[:] = b"\x01" * len(ok)
            old = []
        for holds in map(self.holds_of, new[len(old):]):
            for k in range(len(ok)):
                if ok[k] and not holds(k):
                    ok[k] = 0
        self.conjuncts = new

    def closed(self, ind: Expr) -> bool:
        """Whether every enabled step from a state satisfying ind keeps it;
        then no walk can leave ind, and a search would find no CTI."""
        self.narrow(ind)
        ok, moves, step = self.ok, self.moves, self.step
        return all(ok[step(c, i)] for c in range(len(ok)) if ok[c] for i in moves(c))

    def walker(self, ind: Expr):
        """(start, good, moves, step, state, fingerprint) over state codes."""
        self.narrow(ind)
        codec, ok = self.codec, self.ok

        def start(rng):
            c = codec.random_code(rng)
            return c if ok[c] else None
        return start, ok.__getitem__, self.moves, self.step, codec.decode, codec.fingerprint

    def state_walker(self, ind: Expr):
        """(start, good, moves, step, state, fingerprint) over States: a drawn
        code is checked conjunct by conjunct before any state exists; an
        accepted one is built once, and every later visit evaluates ind."""
        random_code, build = self.codec.random_code, self.codec.build
        checks = [self.holds_of(c) for c in conjuncts_of(ind)]
        ind_f = compile_expr(ind, self.space[1], self.codec.schema)

        def start(rng):
            c = random_code(rng)
            for holds in checks:
                if not holds(c):
                    return None
            return build(c)
        return start, lambda s: ind_f(s, {}) is True, self.enabled, self.apply, lambda s: s, \
            fingerprint


def _sample_walks(fs, walker, budget: int, depth: int, cap: int,
                  rng: random.Random) -> tuple[list[CTI], int]:
    start, good, moves, step, state, key_fingerprint = walker
    ctis: list[CTI] = []
    seen: set = set()
    attempts = 0
    for _ in range(budget):
        if len(ctis) >= cap:
            break
        attempts += 1
        key = start(rng)
        if key is None:  # the draw does not satisfy ind
            continue
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
                states = [state(key) for key in path[first:]]
                fps = [key_fingerprint(key) for key in path[first:-1]]
                walk = [Transition(fs[i][2][0], fs[i][2][2], fp, post)
                        for i, fp, post in zip(taken[first:], fps, states[1:])]
                for j in fresh:
                    ctis.append(CTI(states[j - first], fps[j - first], tuple(walk[j - first:]), k - j))
            break
    return ctis, attempts


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
    """Sample up to n_ctis start states and collect at most cap distinct CTIs.

    Deterministic given the rng: the batch and the rng's next draw depend only
    on its state on entry. ``table`` is an inference's table for this protocol
    and instance, used when the walks run over codes; without one, a fresh
    table serves this call alone.
    """
    if depth < 1:
        raise ValueError("walk depth must be at least 1")
    if cap < 1:
        raise ValueError("CTI cap must be at least 1")
    if table is None or table.space != (protocol, instance):
        table = WalkTable(protocol, instance)
    small = state_space_size(protocol, instance) <= n_ctis
    walker = table.walker(ind) if small else table.state_walker(ind)
    ctis, attempts = _sample_walks(table.fs, walker, n_ctis, depth, cap, rng)
    return CtiBatch(ctis, attempts)


def replay_witness_diagnosis(
    cti: CTI, protocol: Protocol, instance: Instance, ind: Expr
) -> str | None:
    """None when the witness re-executes exactly; else names the failing step."""
    if fingerprint(cti.state) != cti.fingerprint:
        return "step 0: stored fingerprint does not match the start state"
    ind_f = compile_expr(ind, instance, cti.state.schema)
    if ind_f(cti.state, {}) is not True:
        return "step 0: start state does not satisfy the predicate"
    if len(cti.witness) != cti.depth_to_violation:
        return "step 0: depth does not match the witness length"
    cur = cti.state
    last = len(cti.witness) - 1
    for i, t in enumerate(cti.witness):
        try:
            action = protocol.action(t.action)
        except KeyError:
            return f"step {i}: unknown action {t.action}"
        if tuple(n for n, _ in t.binding) != tuple(n for n, _ in action.params):
            return f"step {i}: binding does not match the parameters of {t.action}"
        env = dict(t.binding)
        if fingerprint(cur) != t.pre_fingerprint:
            return f"step {i}: pre-state fingerprint mismatch"
        if evaluate(action.guard, cur, env, instance) is not True:
            return f"step {i}: guard of {t.action} does not hold"
        post = apply_action(cur, action, env, protocol, instance)
        if post != t.post:
            return f"step {i}: post-state mismatch"
        if i == last:
            if ind_f(post, {}) is True:
                return f"step {i}: final state still satisfies the predicate"
        else:
            if ind_f(post, {}) is not True:
                return f"step {i}: intermediate state violates the predicate"
        cur = post
    return None


def replay_witness(cti: CTI, protocol: Protocol, instance: Instance, ind: Expr) -> bool:
    """True iff the recorded witness replays exactly and ends in violation."""
    return replay_witness_diagnosis(cti, protocol, instance, ind) is None
