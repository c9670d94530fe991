from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from indinv import ctigen
from indinv.ctigen import generate_ctis, replay_witness, replay_witness_diagnosis
from indinv.evaluator import Transition, compile_expr, firings, holds
from indinv.infer import check_induction, conjunction
from indinv.instance import (
    MapV, State, fingerprint, parse_instance, random_state, state_codec, state_schema,
    state_space_size,
)
from indinv.parser import parse_expression, parse_protocol
from indinv.syntax import And, to_str

from . import oracles

A1_TEXT = "forall s: Server. forall c: Client. locked[s] -> ~(s in held[c])"


def _state(protocol, locked, held):
    schema = state_schema(protocol)
    return State(
        schema,
        (
            MapV(tuple(sorted(locked.items()))),
            MapV(tuple(sorted((k, frozenset(v)) for k, v in held.items()))),
        ),
    )


def _batch(lockserver, ind, n=4000, depth=3, cap=10000, seed=0):
    protocol, _, instance = lockserver
    return generate_ctis(protocol, instance, ind, n, depth, cap, random.Random(seed))


def test_known_one_step_cti_is_recorded(lockserver):
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=20000, depth=1)
    target = _state(protocol, {"s1": True, "s2": True}, {"c1": {"s1"}, "c2": set()})
    assert fingerprint(target) in batch.fingerprints()


def test_inductive_candidate_yields_empty_batch(lockserver):
    protocol, _, instance = lockserver
    ind = And((protocol.safety, parse_expression(A1_TEXT, protocol)))
    batch = _batch(lockserver, ind, n=5000)
    assert len(batch) == 0
    assert batch.samples_attempted == 5000


def test_zero_budget(lockserver):
    protocol, _, instance = lockserver
    batch = _batch(lockserver, protocol.safety, n=0)
    assert len(batch) == 0
    assert batch.samples_attempted == 0


def test_all_ctis_satisfy_ind_and_replay(lockserver):
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=3000)
    assert len(batch) > 0
    for cti in batch.ctis:
        assert holds(safe, cti.state, instance)
        assert replay_witness(cti, protocol, instance, safe)


def test_no_duplicate_fingerprints(lockserver):
    batch = _batch(lockserver, lockserver[0].safety, n=5000)
    fps = [c.fingerprint for c in batch.ctis]
    assert len(fps) == len(set(fps))


def test_cap_bounds_batch_size(lockserver):
    batch = _batch(lockserver, lockserver[0].safety, n=20000, cap=3)
    assert len(batch) == 3


def test_witness_depths_within_walk_depth(lockserver):
    batch = _batch(lockserver, lockserver[0].safety, n=3000, depth=3)
    assert all(1 <= c.depth_to_violation <= 3 for c in batch.ctis)
    assert all(len(c.witness) == c.depth_to_violation for c in batch.ctis)


def test_tampered_witness_post_state_detected(lockserver):
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=3000)
    cti = batch.ctis[0]
    bad_state = _state(protocol, {"s1": True, "s2": True}, {"c1": set(), "c2": set()})
    last = replace(cti.witness[-1], post=bad_state)
    tampered = replace(cti, witness=cti.witness[:-1] + (last,))
    diag = replay_witness_diagnosis(tampered, protocol, instance, safe)
    assert diag is not None
    assert f"step {len(cti.witness) - 1}" in diag
    assert not replay_witness(tampered, protocol, instance, safe)


def test_start_state_violating_ind_detected(lockserver):
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=3000)
    cti = batch.ctis[0]
    violating = _state(protocol, {"s1": False, "s2": False}, {"c1": {"s1"}, "c2": {"s1"}})
    tampered = replace(cti, state=violating, fingerprint=fingerprint(violating))
    diag = replay_witness_diagnosis(tampered, protocol, instance, safe)
    assert diag is not None
    assert "step 0" in diag


def test_deterministic_at_one_worker(lockserver):
    a = _batch(lockserver, lockserver[0].safety, seed=9)
    b = _batch(lockserver, lockserver[0].safety, seed=9)
    assert [c.fingerprint for c in a.ctis] == [c.fingerprint for c in b.ctis]
    assert a.samples_attempted == b.samples_attempted


def test_worker_batches_are_valid(lockserver):
    # every CTI of a larger batch, at every depth, replays exactly
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=20000, seed=4)
    assert {c.depth_to_violation for c in batch.ctis} == {1, 2, 3}
    for cti in batch.ctis:
        assert replay_witness(cti, protocol, instance, safe)


def test_depth1_batch_matches_exhaustive_oracle_at_modest_budget(lockserver):
    # the full 50k-budget equality runs in the acceptance suite
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=20000, depth=1)
    oracle = oracles.o_cti_depth1(protocol, instance, safe)
    generated = {oracles.freeze_state(c.state) for c in batch.ctis}
    assert generated <= oracle
    assert len(oracle - generated) <= 1  # tiny budget slack; equality at 50k


def test_invalid_depth_and_cap_rejected(lockserver):
    protocol, _, instance = lockserver
    with pytest.raises(ValueError):
        generate_ctis(protocol, instance, protocol.safety, 10, 0, 10, random.Random(0))
    with pytest.raises(ValueError):
        generate_ctis(protocol, instance, protocol.safety, 10, 1, 0, random.Random(0))


def _stream_digest(batch, rng) -> str:
    """Digest of a batch in order, plus the next draw of the rng it consumed."""
    h = hashlib.sha256()
    for c in batch.ctis:
        steps = " ".join(
            "%s(%s)" % (t.action, ",".join(f"{p}={el}" for p, el in t.binding))
            for t in c.witness
        )
        h.update(f"{c.fingerprint:016x} {c.depth_to_violation} {steps}\n".encode())
    h.update(f"samples={batch.samples_attempted} next={rng.getrandbits(64)}".encode())
    return h.hexdigest()[:16]


# A change here means CTI generation consumes the random stream differently,
# and every result file changes with it. The lockserver and election digests
# were computed at commit 3859043, with the tree-walking interpreter that
# preceded the closure compiler and built every successor of a walk state; the
# other four at commit ecc8221, before walks ran over state codes or verdict
# tables. At a budget of 3000 walks, consensus (8 states), twophase (64) and
# lockserver (64) take the state-code walker, and declock (8192), election
# (32768) and lockserver 4x4 (1,048,576) the State walker, which rejects draws
# by the safety's verdict table: 8 entries over declock's has_lock, 8 over
# election's leader, 65,536 over lockserver 4x4's held. Consensus and
# twophase find no CTI, so their digests pin the number of walks and the
# rng's next draw.
PINNED_STREAMS = {
    "lockserver": (None, "3f2c680b37576330"),
    "election": (None, "7248c6f1ed21b25e"),
    "consensus": (None, "34a60a51c16a5452"),
    "twophase": (None, "fcbe53ca23a3cd39"),
    "declock": (None, "70c24f6d811f00a9"),
    "lockserver-4x4": ("Server=s1,s2,s3,s4 Client=c1,c2,c3,c4", "e6fe1b34f9c623a9"),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_cti_stream_is_pinned(all_benchmarks, name):
    inst_text, digest = PINNED_STREAMS[name]
    protocol, _, instance = all_benchmarks[name.split("-")[0]]
    if inst_text is not None:
        instance = parse_instance(inst_text, protocol)
    rng = random.Random(2024)
    batch = generate_ctis(protocol, instance, protocol.safety, 3000, 3, 10000, rng)
    assert len(batch) > 0 or name in ("consensus", "twophase")
    assert _stream_digest(batch, rng) == digest


def _walk(protocol, instance, walker, budget, depth, cap, seed):
    """(ctis, attempts, rng's next draw) of one walker."""
    rng = random.Random(seed)
    ctis, attempts = ctigen._sample_walks(
        firings(protocol, instance), walker, budget, depth, cap, rng
    )
    return ctis, attempts, rng.getrandbits(64)


def _reference_walks(protocol, instance, ind, budget, depth, cap, rng):
    """The State walk as it was before codes and verdict tables, written out
    in full: draw random_state, evaluate the compiled ind at every visit."""
    fs = firings(protocol, instance)
    ind_f = compile_expr(ind, instance, state_schema(protocol))
    ctis, seen, attempts = [], set(), 0
    for _ in range(budget):
        if len(ctis) >= cap:
            break
        attempts += 1
        s = random_state(protocol, instance, rng)
        if ind_f(s, {}) is not True:
            continue
        path, taken = [s], []
        for _step in range(depth):
            choices = [i for i, (guard, env, _) in enumerate(fs) if guard(s, env) is True]
            if not choices:
                break
            i = choices[rng.randrange(len(choices))]
            _, apply, _, env = fs[i][2]
            s = apply(s, env)
            path.append(s)
            taken.append(i)
            if ind_f(s, {}) is True:
                continue
            k = len(taken)
            for j in range(k):
                if path[j] in seen:
                    continue
                seen.add(path[j])
                walk = tuple(Transition(fs[t][2][0], fs[t][2][2], fingerprint(pre), post)
                             for t, pre, post in zip(taken[j:], path[j:k], path[j + 1:]))
                ctis.append(ctigen.CTI(path[j], fingerprint(path[j]), walk, k - j))
                if len(ctis) >= cap:
                    break
            break
    return ctis, attempts


def _walkers(protocol, instance, ind, budget, depth, cap, seed, limit=1_000_000):
    """(ctis, attempts, rng's next draw) of the reference walk, then of a
    fresh table's State walker and code walker."""
    rng = random.Random(seed)
    reference = (*_reference_walks(protocol, instance, ind, budget, depth, cap, rng),
                 rng.getrandbits(64))
    tables = [ctigen.WalkTable(protocol, instance, limit) for _ in range(2)]
    return [reference] + [
        _walk(protocol, instance, w, budget, depth, cap, seed)
        for w in (tables[0].state_walker(ind), tables[1].walker(ind))
    ]


@pytest.mark.parametrize("cap", [5, 10000])
def test_code_walker_matches_state_walker(small_benchmarks, cap):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        for seed in (0, 1, 2):
            reference, by_state, by_code = _walkers(
                protocol, instance, protocol.safety, 600, 3, cap, seed
            )
            assert by_code == by_state == reference, (name, seed)
            found += len(by_code[0])
    assert found > 0


# Two states satisfy ~bad, k=a and k=b; Go and Back move between them and
# Crash violates from a. A walk a -> b -> a -> crash visits a twice.
REVISIT_PROTO = """
var k : enum {a, b}
var bad : bool
init k = a
init bad = false
action Go() { require k = a; k := b; }
action Back() { require k = b; k := a; }
action Crash() { require k = a; bad := true; }
safety S: ~bad
"""


def test_walk_that_revisits_a_state_records_it_once():
    protocol = parse_protocol(REVISIT_PROTO)
    instance = parse_instance("", protocol)
    revisits = 0
    for seed in range(20):
        reference, by_state, by_code = _walkers(
            protocol, instance, protocol.safety, 40, 3, 100, seed
        )
        assert by_code == by_state == reference
        ctis = by_code[0]
        assert sorted(c.state.value("k") for c in ctis) == ["a", "b"]
        for c in ctis:
            revisits += any(t.post == c.state for t in c.witness)
            assert replay_witness(c, protocol, instance, protocol.safety)
    assert revisits > 0


# Each bundled benchmark's conjuncts at seed 7 with the CLI defaults, safety
# first. Lemmas are closed formulas over the sorts, so they also apply to
# the small instances.
SEED7_CONJUNCTS = {
    "lockserver": [
        "forall s: Server. forall c: Client. ~(s in held[c]) \\/ ~locked[s]",
    ],
    "consensus": [],
    "twophase": [],
    "declock": [
        "forall a: Node. forall b: Node. forall c: Node. forall d: Node. "
        "~(c in transfer[d]) \\/ ~has_lock[a]",
        "forall a: Node. forall b: Node. forall c: Node. forall d: Node. "
        "started \\/ ~(a in transfer[b])",
        "forall a: Node. forall b: Node. forall c: Node. forall d: Node. started \\/ ~has_lock[a]",
        "forall a: Node. forall b: Node. forall c: Node. forall d: Node. "
        "a = c \\/ ~(a in transfer[b]) \\/ ~(c in transfer[d])",
        "forall a: Node. forall b: Node. forall c: Node. forall d: Node. "
        "b = d \\/ ~(a in transfer[b]) \\/ ~(c in transfer[d])",
    ],
    "election": [
        "forall u: Node. forall v: Node. forall w: Node. voted[u] \\/ ~(u in votes[v])",
        "forall u: Node. forall v: Node. forall w: Node. maj(votes[u], Node) \\/ ~leader[u]",
        "forall u: Node. forall v: Node. forall w: Node. "
        "v = w \\/ ~(u in votes[v]) \\/ ~(u in votes[w])",
    ],
}


def _ind_sequence(name, protocol):
    """The inds of an inference that picks the seed-7 lemmas in order: the
    same conjunct objects each round, as ``infer`` passes them."""
    conjuncts = [protocol.safety]
    inds = [conjunction(conjuncts)]
    for text in SEED7_CONJUNCTS[name]:
        conjuncts.append(parse_expression(text, protocol))
        inds.append(conjunction(list(conjuncts)))
    return inds


def _verdicts(protocol, instance, ind):
    codec = state_codec(protocol, instance)
    f = compile_expr(ind, instance, state_schema(protocol))
    size = state_space_size(protocol, instance)
    return bytes(f(codec.decode(k), {}) is True for k in range(size))


@pytest.mark.parametrize("cap", [5, 10000])
def test_shared_table_matches_fresh_table_and_state_walker(small_benchmarks, cap):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        inds = _ind_sequence(name, protocol)
        assert len(inds) == len(SEED7_CONJUNCTS[name]) + 1
        for seed in (0, 1, 2):
            shared = ctigen.WalkTable(protocol, instance)
            for ind in inds:
                by_shared = _walk(protocol, instance, shared.walker(ind), 600, 3, cap, seed)
                assert bytes(shared.ok) == _verdicts(protocol, instance, ind), (name, seed)
                by_shared_state = _walk(protocol, instance, shared.state_walker(ind),
                                        600, 3, cap, seed)
                reference, by_state, by_fresh = _walkers(protocol, instance, ind, 600, 3, cap, seed)
                assert by_shared == by_shared_state == by_fresh == by_state == reference, (
                    name, seed, to_str(ind))
                found += len(by_shared[0])
    assert found > 0


def test_table_resets_on_an_ind_that_does_not_extend_the_last(lockserver):
    protocol, _, instance = lockserver
    safety = protocol.safety
    a = parse_expression(A1_TEXT, protocol)
    a_again = parse_expression(A1_TEXT, protocol)  # equal text, another object
    b = parse_expression("forall s: Server. locked[s]", protocol)
    table = ctigen.WalkTable(protocol, instance)
    for ind in (
        safety, And((safety, a)), a, And((a, b)), b, And((safety, a)), And((safety, a_again)),
        And((safety, b)), And((And((safety, a)), b)), And((safety, a, b)), safety,
    ):
        table.narrow(ind)
        assert bytes(table.ok) == _verdicts(protocol, instance, ind), to_str(ind)


def test_generate_ctis_builds_a_table_for_another_instance(small_benchmarks):
    lock_p, _, lock_i = small_benchmarks["lockserver"]
    elect_p, _, elect_i = small_benchmarks["election"]
    table = ctigen.WalkTable(lock_p, lock_i)
    shared = generate_ctis(elect_p, elect_i, elect_p.safety, 600, 3, 100, random.Random(4),
                           table=table)
    fresh = generate_ctis(elect_p, elect_i, elect_p.safety, 600, 3, 100, random.Random(4))
    assert shared == fresh and len(fresh) > 0


def test_closure_agrees_with_the_induction_checks(all_benchmarks, small_benchmarks):
    # the oracle enumerates election and declock's default instances in
    # 4-12 s per conjunct set, so there it runs on the small instances
    for name, (protocol, _, instance) in all_benchmarks.items():
        small = small_benchmarks[name][2]
        oracle_instances = [small] if name in ("election", "declock") else [small, instance]
        inds = _ind_sequence(name, protocol)
        for ind in (inds[0], inds[-1]):
            conjuncts = ctigen.conjuncts_of(ind)
            closed = ctigen.WalkTable(protocol, instance).closed(ind)
            report = check_induction(protocol, instance, conjuncts)
            assert report.mode == "exhaustive"
            assert closed == report.consecution_ok, (name, to_str(ind))
            for inst in oracle_instances:
                _, consecution, _ = oracles.o_check_induction(protocol, inst, conjuncts)
                assert ctigen.WalkTable(protocol, inst).closed(ind) == consecution, name
        assert closed, name  # each seed-7 result is inductive on its instance


# -- verdict tables -----------------------------------------------------------

LOCKSERVER_4X4 = "Server=s1,s2,s3,s4 Client=c1,c2,c3,c4"


def _conjuncts(name, protocol):
    return [protocol.safety] + [parse_expression(t, protocol) for t in SEED7_CONJUNCTS[name]]


def _check_verdicts(protocol, instance, conjunct, codes, limit=1_000_000):
    """A fresh Verdicts of conjunct, after asserting on each code in turn that
    it equals the compiled conjunct on the decoded state, and on every 97th
    that this equals the oracle."""
    codec = state_codec(protocol, instance)
    verdicts = ctigen.Verdicts(conjunct, codec, instance, limit)
    f = compile_expr(conjunct, instance, codec.schema)
    for n, k in enumerate(codes):
        expected = f(codec.decode(k), {}) is True
        assert verdicts.holds(k) == expected, (to_str(conjunct), k)
        if n % 97 == 0:
            assign = oracles.assign_from_state(codec.decode(k))
            assert oracles.o_holds(conjunct, assign, instance) == expected
    return verdicts


def test_verdict_tables_equal_direct_evaluation(all_benchmarks):
    for name, (protocol, _, instance) in all_benchmarks.items():
        size = state_space_size(protocol, instance)
        for c in _conjuncts(name, protocol):
            verdicts = _check_verdicts(protocol, instance, c, range(size))
            # every projection is some code's, so no entry is left unknown
            assert verdicts.table is not None and all(verdicts.table), (name, to_str(c))
            if name == "election" and c is protocol.safety:
                assert len(verdicts.table) == 8  # safety reads leader alone


def test_verdict_tables_equal_direct_evaluation_on_random_codes(lockserver):
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    rng = random.Random(5)
    codes = [state_codec(protocol, instance).random_code(rng) for _ in range(5000)]
    for c in _conjuncts("lockserver", protocol):
        # the lemma reads both variables, 2^20 projections: over the default
        # limit, so the limit here is raised to give it a table as well. Each
        # code is asked twice, so that filled entries are read back.
        assert _check_verdicts(protocol, instance, c, codes * 2, limit=2**20).table is not None
    safe, lemma = [ctigen.Verdicts(c, state_codec(protocol, instance), instance, 1_000_000)
                   for c in _conjuncts("lockserver", protocol)]
    assert len(safe.table) == 2**16 and lemma.table is None


def test_a_table_of_another_instance_is_never_used(lockserver):
    protocol, _, small = lockserver
    big = parse_instance(LOCKSERVER_4X4, protocol)
    table = ctigen.WalkTable(protocol, small)
    for n in (3000, 30):  # the code walker, then the State walker, on 2x2
        generate_ctis(protocol, small, protocol.safety, n, 3, 10000, random.Random(1),
                      table=table)
    assert table.verdicts[id(protocol.safety)].table is not None
    shared = generate_ctis(protocol, big, protocol.safety, 3000, 3, 10000, random.Random(3),
                           table=table)
    fresh = generate_ctis(protocol, big, protocol.safety, 3000, 3, 10000, random.Random(3))
    reference = _reference_walks(protocol, big, protocol.safety, 3000, 3, 10000,
                                 random.Random(3))
    assert shared == fresh and (fresh.ctis, fresh.samples_attempted) == reference
    assert len(fresh) > 0


def test_a_conjunct_over_the_limit_is_evaluated_directly(small_benchmarks):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        table = ctigen.WalkTable(protocol, instance, limit=1)
        for ind in _ind_sequence(name, protocol):
            table.narrow(ind)
            assert bytes(table.ok) == _verdicts(protocol, instance, ind), name
            for seed in (0, 1):
                reference, by_state, by_code = _walkers(
                    protocol, instance, ind, 600, 3, 10000, seed, limit=1
                )
                assert by_code == by_state == reference, (name, seed, to_str(ind))
                found += len(reference[0])
        assert [v.table for v in table.verdicts.values()] == [None] * len(table.verdicts)
    assert found > 0


def test_a_sparse_search_builds_rejected_draws_without_interning(lockserver):
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    codec = state_codec(protocol, instance)
    before = [len(d) for d in codec.interned]
    batch = generate_ctis(protocol, instance, protocol.safety, 3000, 3, 10000, random.Random(2))
    assert batch.samples_attempted == 3000 and len(batch) > 0
    assert state_codec(protocol, instance) is codec
    assert [len(d) for d in codec.interned] == before
