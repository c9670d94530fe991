"""Counterexample-to-induction generation by randomized simulation.

A sampled start state that satisfies the current candidate is walked forward
by uniformly random enabled transitions. If the walk hits a violating state
at step k, every earlier state on the walk satisfies the candidate by
construction, so all of them are counterexamples to induction; each is
recorded by its code, a state's identity, with its witness suffix, whose
steps carry their pre-states' codes.

Every walk runs over state codes. A draw is a code, made with exactly
``random_state``'s rng calls, and is rejected by per-conjunct verdict tables
before any state is built. When the instance has no more states than the call
has walks, a walk reads per-code tables of verdicts, enabled firings and
successors, each computed at most once per state; otherwise each visit decodes
its code once. Both give the same batch. An inference keeps one ``WalkTable``
for its searches; ``check_induction`` makes one of its own and shares its scan.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .evaluator import Transition, apply_action, compile_expr, evaluate, firings
# The engine calls neither fingerprint nor random_state; bench/child.py counts them here.
from .instance import (  # noqa: F401
    Instance, State, StateCodec, fingerprint, random_state, state_codec,
)
from .syntax import And, Expr, Protocol, reads


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
    ctis: list[CTI]
    samples_attempted: int

    def __len__(self) -> int:
        return len(self.ctis)


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
    """What a search, or an inference's run of searches, keeps about one instance.

    ``verdicts`` holds each conjunct's ``Verdicts`` by identity, and
    ``good(conjuncts)`` is their conjunction. ``enabled`` and ``successor``
    work on a visited code's state, decoded once per visit through a
    one-entry cache. Dense searches read per-code tables instead: ``ok``, the
    verdicts of the last ind, recomputed for each new ind object, and the
    enabled firings and successor codes, each computed once when first needed.
    ``leaving`` is the one scan for a step out of ``good``, shared by
    ``closed`` and ``check_induction``.
    """

    def __init__(self, protocol: Protocol, instance: Instance, limit: int = 1_000_000) -> None:
        self.space = (protocol, instance)
        self.limit = limit
        self.codec = state_codec(protocol, instance)
        self.fs = firings(protocol, instance)
        self.guards = [(i, guard, env) for i, (guard, env, _) in enumerate(self.fs)]
        self.verdicts: dict[int, Verdicts] = {}
        self.held: tuple = (None, None)  # (code, its state)
        self.ind: Expr | None = None
        self.ok: bytearray | None = None
        self.interned: dict = {}
        self.moves_at: dict[int, tuple[int, ...]] = {}
        self.succ: dict[int, int] = {}  # code * len(fs) + firing -> successor code

    def holds_of(self, conjunct: Expr):
        """The conjunct's ``Verdicts.holds``, made on first use."""
        if id(conjunct) not in self.verdicts:
            self.verdicts[id(conjunct)] = Verdicts(conjunct, self.codec, self.space[1], self.limit)
        return self.verdicts[id(conjunct)].holds

    def good(self, conjuncts: list[Expr]):
        """good(code): whether the code's state satisfies every conjunct."""
        checks = [self.holds_of(c) for c in conjuncts]

        def good(code: int) -> bool:
            for holds in checks:
                if not holds(code):
                    return False
            return True
        return good

    def state(self, code: int) -> State:
        if self.held[0] != code:
            self.held = (code, self.codec.decode(code))
        return self.held[1]

    def enabled(self, code: int) -> list[int]:
        s = self.state(code)
        return [i for i, guard, env in self.guards if guard(s, env) is True]

    def successor(self, code: int, i: int) -> int:
        _, apply, _, env = self.fs[i][2]
        return self.codec.encode(apply(self.state(code), env))

    def moves(self, c: int) -> tuple[int, ...]:
        m = self.moves_at.get(c)
        if m is None:
            m = tuple(self.enabled(c))
            m = self.moves_at[c] = self.interned.setdefault(m, m)
        return m

    def step(self, c: int, i: int) -> int:
        key = c * len(self.fs) + i
        d = self.succ.get(key)
        if d is None:
            d = self.succ[key] = self.successor(c, i)
        return d

    def narrow(self, ind: Expr) -> None:
        """Make ``ok`` the verdicts of ind."""
        if ind is not self.ind:
            self.ind = ind
            self.ok = bytearray(map(self.good(conjuncts_of(ind)), range(self.codec.size)))

    @staticmethod
    def leaving(good, moves, step, codes):
        """The first (code, firing, successor) over codes, then firings, of a
        step from a good code to one that is not; None if there is none."""
        for c in codes:
            if good(c):
                for i in moves(c):
                    d = step(c, i)
                    if not good(d):
                        return c, i, d
        return None

    def closed(self, ind: Expr) -> bool:
        """Whether every enabled step from a state satisfying ind keeps it;
        then no walk can leave ind, and a search would find no CTI."""
        self.narrow(ind)
        return self.leaving(self.ok.__getitem__, self.moves, self.step, range(len(self.ok))) is None

    def walker(self, ind: Expr, dense: bool):
        """(start, good, moves, step) over state codes: dense reads the
        per-code tables, else each visit works on its state."""
        if dense:
            self.narrow(ind)
            good, moves, step = self.ok.__getitem__, self.moves, self.step
        else:
            good, moves, step = self.good(conjuncts_of(ind)), self.enabled, self.successor
        random_code = self.codec.random_code

        def start(rng):
            c = random_code(rng)
            return c if good(c) else None
        return start, good, moves, step


def _sample_walks(fs, codec: StateCodec, walker, budget: int, depth: int, cap: int,
                  rng: random.Random) -> tuple[list[CTI], int]:
    start, good, moves, step = walker
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
                states = [codec.decode(key) for key in path[first:]]
                walk = [Transition(fs[i][2][0], fs[i][2][2], pre, post)
                        for i, pre, post in zip(taken[first:], path[first:-1], states[1:])]
                for j in fresh:
                    ctis.append(CTI(states[j - first], path[j], tuple(walk[j - first:]), k - j))
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
    and instance; without one, a fresh table serves this call alone.
    """
    if depth < 1:
        raise ValueError("walk depth must be at least 1")
    if cap < 1:
        raise ValueError("CTI cap must be at least 1")
    if table is None or table.space != (protocol, instance):
        table = WalkTable(protocol, instance)
    walker = table.walker(ind, table.codec.size <= n_ctis)
    ctis, attempts = _sample_walks(table.fs, table.codec, walker, n_ctis, depth, cap, rng)
    return CtiBatch(ctis, attempts)


def replay_witness_diagnosis(
    cti: CTI, protocol: Protocol, instance: Instance, ind: Expr
) -> str | None:
    """None when the witness re-executes exactly; else names the failing step."""
    encode = state_codec(protocol, instance).encode
    if encode(cti.state) != cti.code:
        return "step 0: stored code does not match the start state"
    ind_f = compile_expr(ind, instance, cti.state.schema)
    if ind_f(cti.state, {}) is not True:
        return "step 0: start state does not satisfy the predicate"
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
        if encode(cur) != t.pre_code:
            return f"step {i}: pre-state code mismatch"
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
