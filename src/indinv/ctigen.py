"""Counterexample-to-induction generation by randomized simulation.

A sampled start state that satisfies the current candidate is walked forward
by uniformly random enabled transitions. If the walk hits a violating state
at step k, every earlier state on the walk satisfies the candidate by
construction, so all of them are counterexamples to induction; each is
recorded with its witness suffix.

A walk runs over keys. When the instance has no more states than the call
has walks, a key is the state's code, its index in ``enumerate_states``
order, and each distinct state's verdict, enabled firings and successor
codes are computed once per call in tables no larger than the draws.
Otherwise a key is the ``State`` itself and every visit evaluates afresh.
Both walkers make the same rng calls and give the same batch; states and
fingerprints are built only for the CTIs a walk adds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .evaluator import Compiled, Transition, apply_action, compile_expr, evaluate, firings
from .instance import (
    Instance, State, fingerprint, random_state, state_codec, state_schema, state_space_size,
)
from .syntax import Expr, Protocol


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


def _state_walker(protocol: Protocol, instance: Instance, ind: Compiled, fs):
    """(draw, good, moves, step, state) over keys that are States."""
    def step(s, i):
        _, apply, _, env = fs[i][2]
        return apply(s, env)
    return (lambda rng: random_state(protocol, instance, rng), lambda s: ind(s, {}) is True,
            _enabled(fs), step, lambda s: s)


def _code_walker(protocol: Protocol, instance: Instance, ind: Compiled, fs):
    """(draw, good, moves, step, state) over state codes; each distinct
    state's verdict, enabled firings and successors are computed once."""
    codec = state_codec(protocol, instance)
    decode, encode = codec.decode, codec.encode
    size, nf, enabled = state_space_size(protocol, instance), len(fs), _enabled(fs)
    verdicts = bytearray(size)  # 0 unknown, 1 satisfies ind, 2 violates it
    moves_at: list = [None] * size
    interned: dict = {}
    succ: dict[int, int] = {}  # code * len(fs) + firing -> successor code

    def good(c):
        if not verdicts[c]:
            verdicts[c] = 1 if ind(decode(c), {}) is True else 2
        return verdicts[c] == 1

    def moves(c):
        m = moves_at[c]
        if m is None:
            m = tuple(enabled(decode(c)))
            m = moves_at[c] = interned.setdefault(m, m)
        return m

    def step(c, i):
        d = succ.get(c * nf + i)
        if d is None:
            _, apply, _, env = fs[i][2]
            d = succ[c * nf + i] = encode(apply(decode(c), env))
        return d

    return codec.random_code, good, moves, step, decode


def _sample_walks(protocol: Protocol, instance: Instance, ind: Compiled, budget: int,
                  depth: int, cap: int, rng: random.Random, walker) -> tuple[list[CTI], int]:
    fs = firings(protocol, instance)
    draw, good, moves, step, state = walker(protocol, instance, ind, fs)
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
                fps = [fingerprint(s) for s in states[:-1]]
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
) -> CtiBatch:
    """Sample up to n_ctis start states and collect at most cap distinct CTIs.

    Deterministic given the rng: the batch and the rng's next draw depend only
    on its state on entry.
    """
    if depth < 1:
        raise ValueError("walk depth must be at least 1")
    if cap < 1:
        raise ValueError("CTI cap must be at least 1")
    ind_f = compile_expr(ind, instance, state_schema(protocol))
    walker = _code_walker if state_space_size(protocol, instance) <= n_ctis else _state_walker
    ctis, attempts = _sample_walks(protocol, instance, ind_f, n_ctis, depth, cap, rng, walker)
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
