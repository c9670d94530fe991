"""Counterexample-to-induction generation by randomized simulation.

A sampled start state that satisfies the current candidate is walked forward
by uniformly random enabled transitions. If the walk hits a violating state
at step k, every earlier state on the walk satisfies the candidate by
construction, so all of them are counterexamples to induction; each is
recorded with its witness suffix.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .evaluator import (
    Binding,
    Compiled,
    Transition,
    apply_action,
    compile_expr,
    enabled,
    evaluate,
)
from .instance import Instance, State, fingerprint, random_state, state_schema
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


def _sample_walks(
    protocol: Protocol,
    instance: Instance,
    ind: Compiled,
    budget: int,
    depth: int,
    cap: int,
    rng: random.Random,
) -> tuple[list[CTI], int]:
    ctis: list[CTI] = []
    seen: set[int] = set()
    attempts = 0
    for _ in range(budget):
        if len(ctis) >= cap:
            break
        attempts += 1
        s0 = random_state(protocol, instance, rng)
        if ind(s0, {}) is not True:
            continue
        path = [s0]
        steps: list[tuple[str, Binding]] = []
        for _step in range(depth):
            choices = enabled(path[-1], protocol, instance)
            if not choices:
                break
            name, apply, binding, env = choices[rng.randrange(len(choices))]
            path.append(apply(path[-1], env))
            steps.append((name, binding))
            if ind(path[-1], {}) is not True:
                # states path[0..k-1] all satisfy ind; each becomes a CTI
                k = len(steps)
                fps = [fingerprint(s) for s in path[:k]]
                walk = tuple(
                    Transition(action, bound, fps[i], path[i + 1])
                    for i, (action, bound) in enumerate(steps)
                )
                for j in range(k):
                    if fps[j] in seen:
                        continue
                    seen.add(fps[j])
                    ctis.append(CTI(path[j], fps[j], walk[j:], k - j))
                    if len(ctis) >= cap:
                        break
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
    ctis, attempts = _sample_walks(protocol, instance, ind_f, n_ctis, depth, cap, rng)
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
