"""Counterexample-to-induction generation by randomized simulation.

A sampled start state that satisfies the current candidate is walked forward
by uniformly random enabled transitions. If the walk hits a violating state
at step k, every earlier state on the walk satisfies the candidate by
construction, so all of them are counterexamples to induction; each is
recorded with its witness suffix.

A walk runs over keys. When the instance has no more states than the call
has walks, a key is the state's code, its index in ``enumerate_states``
order, and the walk reads a ``WalkTable`` that an inference keeps for all
its searches, so each conjunct is evaluated once per state. Otherwise a key
is the ``State`` itself and every visit evaluates afresh. Both walkers make
the same rng calls and give the same batch; states and fingerprints are
built only for the CTIs a walk adds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .evaluator import Transition, apply_action, compile_expr, evaluate, firings
from .instance import (
    Instance, State, enumerate_states, fingerprint, random_state, state_codec, state_schema,
    state_space_size,
)
from .syntax import And, Expr, Protocol


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


def _state_walker(protocol: Protocol, instance: Instance, ind: Expr, fs):
    """(draw, good, moves, step, state, fingerprint) over keys that are States."""
    ind_f = compile_expr(ind, instance, state_schema(protocol))

    def step(s, i):
        _, apply, _, env = fs[i][2]
        return apply(s, env)
    return (lambda rng: random_state(protocol, instance, rng), lambda s: ind_f(s, {}) is True,
            _enabled(fs), step, lambda s: s, fingerprint)


def conjuncts_of(e: Expr) -> list[Expr]:
    """e's top-level And arguments, flattened recursively."""
    return [c for a in e.args for c in conjuncts_of(a)] if isinstance(e, And) else [e]


class WalkTable:
    """Per-code tables over every state of an instance, kept for one inference.

    ``ok[code]`` is 1 iff the state satisfies each conjunct of the last ind,
    computed for every code in code order. An ind whose conjuncts extend the
    last one's (the same ``Expr`` objects, by identity, then more) evaluates
    only the new ones, and only where ``ok`` is still 1; any other ind
    recomputes ``ok``. Enabled firings and successor codes do not depend on
    ind, so each is computed once, when first needed, and kept.
    """

    def __init__(self, protocol: Protocol, instance: Instance) -> None:
        self.space = (protocol, instance)
        self.codec = state_codec(protocol, instance)
        self.fs = firings(protocol, instance)
        self.enabled = _enabled(self.fs)
        size = state_space_size(protocol, instance)
        self.conjuncts: list[Expr] = []  # none yet, so ok is all 1
        self.ok = bytearray(b"\x01") * size
        self.moves_at: list = [None] * size
        self.interned: dict = {}
        self.succ: dict[int, int] = {}  # code * len(fs) + firing -> successor code

    def moves(self, c: int) -> tuple[int, ...]:
        m = self.moves_at[c]
        if m is None:
            m = tuple(self.enabled(self.codec.decode(c)))
            m = self.moves_at[c] = self.interned.setdefault(m, m)
        return m

    def step(self, c: int, i: int) -> int:
        key = c * len(self.fs) + i
        d = self.succ.get(key)
        if d is None:
            _, apply, _, env = self.fs[i][2]
            d = self.succ[key] = self.codec.encode(apply(self.codec.decode(c), env))
        return d

    def narrow(self, ind: Expr) -> None:
        """Make ``ok`` the verdicts of ind."""
        new, old, ok = conjuncts_of(ind), self.conjuncts, self.ok
        if len(old) > len(new) or any(a is not b for a, b in zip(old, new)):
            ok[:] = b"\x01" * len(ok)
            old = []
        fresh = [compile_expr(c, self.space[1], self.codec.schema) for c in new[len(old):]]
        if fresh:
            for k, s in enumerate(enumerate_states(*self.space)):
                if ok[k] and not all(f(s, {}) is True for f in fresh):
                    ok[k] = 0
        self.conjuncts = new

    def closed(self, ind: Expr) -> bool:
        """Whether every enabled step from a state satisfying ind keeps it;
        then no walk can leave ind, and a search would find no CTI."""
        self.narrow(ind)
        ok, moves, step = self.ok, self.moves, self.step
        return all(ok[step(c, i)] for c in range(len(ok)) if ok[c] for i in moves(c))

    def walker(self, ind: Expr):
        """(draw, good, moves, step, state, fingerprint) over state codes."""
        self.narrow(ind)
        codec = self.codec
        return (codec.random_code, self.ok.__getitem__, self.moves, self.step, codec.decode,
                codec.fingerprint)


def _sample_walks(fs, walker, budget: int, depth: int, cap: int,
                  rng: random.Random) -> tuple[list[CTI], int]:
    draw, good, moves, step, state, key_fingerprint = walker
    ctis: list[CTI] = []
    seen: set = set()
    attempts = 0
    for _ in range(budget):
        if len(ctis) >= cap:
            break
        attempts += 1
        key = draw(rng)
        if not good(key):
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
    fs = firings(protocol, instance)
    if state_space_size(protocol, instance) <= n_ctis:
        if table is None or table.space != (protocol, instance):
            table = WalkTable(protocol, instance)
        walker = table.walker(ind)
    else:
        walker = _state_walker(protocol, instance, ind, fs)
    ctis, attempts = _sample_walks(fs, walker, n_ctis, depth, cap, rng)
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
