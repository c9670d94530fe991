from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from indinv import ctigen
from indinv.ctigen import generate_ctis, replay_witness, replay_witness_diagnosis
from indinv.evaluator import Transition, compile_expr, firings, holds, successors
from indinv.infer import check_induction, conjunction
from indinv.instance import (
    MapV, State, fingerprint, parse_instance, random_state, state_codec, state_schema,
)
from indinv.parser import parse_expression, parse_protocol
from indinv.syntax import (And, BoundRef, MapIndex, Not, Quant, StateRef, Update, canonicalize,
                           to_str)

from . import oracles
from .oracles import replace, state_space_size

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
    """A batch on lockserver 2x2: with n at least its 64 states, the exact set."""
    protocol, _, instance = lockserver
    return generate_ctis(protocol, instance, ind, n, depth, cap, random.Random(seed))


LOCKSERVER_4X4 = "Server=s1,s2,s3,s4 Client=c1,c2,c3,c4"


def _walks(table, ind, budget, depth, cap, rng):
    """The sparse walker's batch of ind on the table, however few codes ind has."""
    good = table.good(ctigen.conjuncts_of(ind))
    return ctigen._sample_walks(table, good, budget, depth, cap, rng)


def _walk_batch(lockserver, ind, n=4000, depth=3, cap=10000, seed=0):
    """n sampled walks on lockserver 4x4."""
    protocol = lockserver[0]
    table = ctigen.WalkTable(protocol, parse_instance(LOCKSERVER_4X4, protocol))
    return _walks(table, ind, n, depth, cap, random.Random(seed))


def _o_size(protocol, instance, ind):
    """The oracle's count of the states satisfying ind."""
    return sum(oracles.o_holds(ind, a, instance) for a in oracles.o_enumerate(protocol, instance))


def test_known_one_step_cti_is_recorded(lockserver):
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=20000, depth=1)
    target = _state(protocol, {"s1": True, "s2": True}, {"c1": {"s1"}, "c2": set()})
    assert state_codec(protocol, instance).encode(target) in {c.code for c in batch.ctis}


def test_inductive_candidate_yields_empty_batch(lockserver):
    protocol, _, instance = lockserver
    ind = And((protocol.safety, parse_expression(A1_TEXT, protocol)))
    walked = _walk_batch(lockserver, ind, n=5000)
    assert len(walked) == 0
    assert walked.samples_attempted == 5000
    assert 0 < walked.starts < 5000  # a quarter of the codes are in ind
    exact = _batch(lockserver, ind, n=5000)
    assert len(exact) == 0
    # an exact batch counts the codes of ind it examined, and starts from each
    assert exact.samples_attempted == exact.starts == _o_size(protocol, instance, ind) == 16


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


def test_no_duplicate_codes(lockserver):
    for make in (_batch, _walk_batch):
        batch = make(lockserver, lockserver[0].safety, n=5000)
        codes = [c.code for c in batch.ctis]
        assert len(codes) == len(set(codes)) > 0, make


def test_cap_bounds_batch_size(lockserver):
    for make in (_batch, _walk_batch):
        batch = make(lockserver, lockserver[0].safety, n=20000, cap=3)
        assert len(batch) == 3, make


def test_exact_cap_keeps_the_first_ctis_in_code_order(lockserver):
    whole = _batch(lockserver, lockserver[0].safety, n=64)
    capped = _batch(lockserver, lockserver[0].safety, n=64, cap=3)
    assert [c.code for c in whole.ctis] == sorted(c.code for c in whole.ctis)
    assert capped.ctis == whole.ctis[:3] and len(whole) > 3
    assert capped.samples_attempted == whole.samples_attempted


def test_witness_depths_within_walk_depth(lockserver):
    for make in (_batch, _walk_batch):
        batch = make(lockserver, lockserver[0].safety, n=3000, depth=3)
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
    tampered = replace(cti, state=violating, code=state_codec(protocol, instance).encode(violating))
    diag = replay_witness_diagnosis(tampered, protocol, instance, safe)
    assert diag is not None
    assert "step 0" in diag


def _deep_cti(lockserver):
    """A walk's CTI of safety whose witness has at least two steps, and its
    replay; on lockserver 2x2 every exact CTI of safety is one step deep."""
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    batch = _walk_batch(lockserver, protocol.safety, n=20000, seed=4)
    cti = next(c for c in batch.ctis if c.depth_to_violation >= 2)
    return cti, lambda c: replay_witness_diagnosis(c, protocol, instance, protocol.safety)


def test_witness_steps_carry_their_pre_state_codes(lockserver):
    protocol = lockserver[0]
    encode = state_codec(protocol, parse_instance(LOCKSERVER_4X4, protocol)).encode
    cti, replay = _deep_cti(lockserver)
    pres = [cti.state] + [t.post for t in cti.witness[:-1]]
    assert cti.code == encode(cti.state)
    assert [t.pre_code for t in cti.witness] == [encode(s) for s in pres]
    assert replay(cti) is None


def test_tampered_code_detected(lockserver):
    cti, replay = _deep_cti(lockserver)
    tampered = replace(cti, code=cti.code + 1)
    assert replay(tampered) == "step 0: stored code does not match the start state"


def test_tampered_pre_code_at_step_one_detected(lockserver):
    cti, replay = _deep_cti(lockserver)
    step = replace(cti.witness[1], pre_code=cti.witness[1].pre_code + 1)
    tampered = replace(cti, witness=(cti.witness[0], step, *cti.witness[2:]))
    assert replay(tampered) == "step 1: pre-state code mismatch"


def test_deterministic_at_one_worker(lockserver):
    for make in (_batch, _walk_batch):
        a = make(lockserver, lockserver[0].safety, seed=9)
        b = make(lockserver, lockserver[0].safety, seed=9)
        assert [c.code for c in a.ctis] == [c.code for c in b.ctis]
        assert a.samples_attempted == b.samples_attempted


def test_worker_batches_are_valid(lockserver):
    # every CTI of a larger batch of walks, at every depth, replays exactly
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    safe = protocol.safety
    batch = _walk_batch(lockserver, safe, n=20000, seed=4)
    assert {c.depth_to_violation for c in batch.ctis} == {1, 2, 3}
    for cti in batch.ctis:
        assert replay_witness(cti, protocol, instance, safe)


def test_depth1_batch_matches_exhaustive_oracle_at_modest_budget(lockserver):
    # the exact batch is the oracle's set; walks at a modest budget miss at
    # most one of its CTIs
    protocol, _, instance = lockserver
    safe = protocol.safety
    oracle = oracles.o_cti_depth1(protocol, instance, safe)
    exact = _batch(lockserver, safe, n=20000, depth=1)
    assert {oracles.freeze_state(c.state) for c in exact.ctis} == oracle
    ctis, _, _ = _walk(protocol, instance, ctigen.WalkTable(protocol, instance), safe,
                       20000, 1, 10000, 0)
    generated = {oracles.freeze_state(c.state) for c in ctis}
    assert generated <= oracle
    assert len(oracle - generated) <= 1  # tiny budget slack


def test_invalid_depth_and_cap_rejected(lockserver):
    protocol, _, instance = lockserver
    with pytest.raises(ValueError):
        generate_ctis(protocol, instance, protocol.safety, 10, 0, 10, random.Random(0))
    with pytest.raises(ValueError):
        generate_ctis(protocol, instance, protocol.safety, 10, 1, 0, random.Random(0))


def _stream_digest(batch, rng) -> str:
    """Digest of a batch in order, plus the next draw of the rng it consumed.
    Each CTI enters by the public fingerprint of its state, the number CTIs
    carried before a state's code became its identity."""
    h = hashlib.sha256()
    for c in batch.ctis:
        steps = " ".join(
            "%s(%s)" % (t.action, ",".join(f"{p}={el}" for p, el in t.binding))
            for t in c.witness
        )
        h.update(f"{fingerprint(c.state):016x} {c.depth_to_violation} {steps}\n".encode())
    h.update(f"samples={batch.samples_attempted} next={rng.getrandbits(64)}".encode())
    return h.hexdigest()[:16]


# A change here means CTI generation consumes the random stream differently,
# or finds other CTIs, and result files change with it. At a budget of 3000
# walks, consensus (8 states), twophase (64) and lockserver (64) get the
# exact CTI set, which draws nothing: their digests pin the set in code
# order, its count of safety's codes and the untouched rng's next draw, and
# were recomputed when the exact set replaced the dense walker's walks.
# Consensus and twophase have no CTI. Declock (4096 codes of safety),
# election (16,384) and lockserver 4x4 (10,000) take the sparse walker,
# which rejects draws by the safety's verdict table (8 entries over
# declock's has_lock, 8 over election's leader, 65,536 over lockserver
# 4x4's held) and steps by each firing's guard and delta tables. The
# lockserver 4x4 digest was computed at commit ecc8221, before walks ran
# over state codes or verdict tables. The declock and election digests were
# recomputed when a walked CTI came to keep the step of the walk that left
# Ind soonest after it, not the rest of the walk that found it: some
# witnesses got shorter, while the codes, their order, the attempts and the
# next draw stayed as before.
PINNED_STREAMS = {
    "lockserver": (None, "7545b10bfb6f5017"),
    "election": (None, "d2f10c4a836ae4df"),
    "consensus": (None, "a6d45c882e03b3e8"),
    "twophase": (None, "e60058a1be939d4b"),
    "declock": (None, "16e0048a572e170a"),
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
    if state_space_size(protocol, instance) <= 3000:  # an exact batch draws nothing
        assert rng.getstate() == random.Random(2024).getstate()
    assert _stream_digest(batch, rng) == digest


def _walk(protocol, instance, table, ind, budget, depth, cap, seed):
    """(ctis, attempts, rng's next draw) of the sparse walker on a table."""
    rng = random.Random(seed)
    batch = _walks(table, ind, budget, depth, cap, rng)
    return batch.ctis, batch.samples_attempted, rng.getrandbits(64)


def _reference_walks(protocol, instance, ind, budget, depth, cap, rng):
    """The State walk as it was before codes and verdict tables, written out
    in full: draw random_state, evaluate the compiled ind at every visit."""
    fs = firings(protocol, instance)
    encode = state_codec(protocol, instance).encode
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
                walk = tuple(Transition(fs[t][2][0], fs[t][2][2], encode(pre), post)
                             for t, pre, post in zip(taken[j:], path[j:k], path[j + 1:]))
                ctis.append(ctigen.CTI(path[j], encode(path[j]), walk, k - j))
                if len(ctis) >= cap:
                    break
            break
    return ctis, attempts


def _walkers(protocol, instance, ind, budget, depth, cap, seed, limit=1_000_000):
    """(ctis, attempts, rng's next draw) of a fresh table's sparse walker,
    after asserting that the reference walk has the same CTI codes in the
    same order, attempts and next draw, and that each of the walker's
    witnesses replays, within depth steps and no longer than the
    reference's, which is the rest of the walk that found its CTI."""
    rng = random.Random(seed)
    reference, attempts = _reference_walks(protocol, instance, ind, budget, depth, cap, rng)
    table = ctigen.WalkTable(protocol, instance, limit)
    walked = _walk(protocol, instance, table, ind, budget, depth, cap, seed)
    ctis, *rest = walked
    assert (ctis.codes, *rest) == ([c.code for c in reference], attempts, rng.getrandbits(64))
    for cti, ref in zip(ctis, reference):
        assert len(cti.witness) <= min(depth, len(ref.witness)), cti.code
        assert replay_witness(cti, protocol, instance, ind), cti.code
    return walked


@pytest.mark.parametrize("cap", [5, 10000])
def test_code_walker_matches_state_walker(small_benchmarks, cap):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        for seed in (0, 1, 2):
            ctis = _walkers(protocol, instance, protocol.safety, 600, 3, cap, seed)[0]
            found += len(ctis)
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
    # each state is a CTI once, and keeps its shortest way out: a by Crash,
    # b by Back then Crash, even where the walk that found them revisited a
    protocol = parse_protocol(REVISIT_PROTO)
    instance = parse_instance("", protocol)
    revisits = 0
    for seed in range(20):
        ctis = _walkers(protocol, instance, protocol.safety, 40, 3, 100, seed)[0]
        assert {c.state.value("k"): [t.action for t in c.witness] for c in ctis} == \
            {"a": ["Crash"], "b": ["Back", "Crash"]}
        reference, _ = _reference_walks(protocol, instance, protocol.safety, 40, 3, 100,
                                        random.Random(seed))
        revisits += any(t.post == c.state for c in reference for t in c.witness)
    assert revisits > 0


# Each bundled benchmark's conjuncts at seed 7 with the CLI defaults, safety
# first. Lemmas are closed formulas over the sorts, so they also apply to
# the small instances. Each stays under the whole template prefix, as result
# files printed it before lemmas dropped their unread quantifiers, so that
# conjuncts with vacuous quantifiers stay covered.
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


def _filter(protocol, instance, ind):
    """The codes of ind by a plain filter over every code."""
    codec = state_codec(protocol, instance)
    f = compile_expr(ind, instance, state_schema(protocol))
    size = state_space_size(protocol, instance)
    return [k for k in range(size) if f(codec.decode(k), {}) is True]


def _inside(table, ind):
    return table.inside(ctigen.conjuncts_of(ind))


@pytest.mark.parametrize("cap", [5, 10000])
def test_shared_table_matches_fresh_table_and_state_walker(small_benchmarks, cap):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        inds = _ind_sequence(name, protocol)
        assert len(inds) == len(SEED7_CONJUNCTS[name]) + 1
        for seed in (0, 1, 2):
            shared = ctigen.WalkTable(protocol, instance)
            for ind in inds:
                assert _inside(shared, ind) == _filter(protocol, instance, ind), (name, seed)
                exact = generate_ctis(protocol, instance, ind, 600, 3, cap, random.Random(seed),
                                      table=shared)
                assert exact == generate_ctis(protocol, instance, ind, 600, 3, cap,
                                              random.Random(seed))
                by_shared = _walk(protocol, instance, shared, ind, 600, 3, cap, seed)
                by_fresh = _walkers(protocol, instance, ind, 600, 3, cap, seed)
                assert by_shared == by_fresh, (name, seed, to_str(ind))
                found += len(by_shared[0]) + len(exact)
    assert found > 0


def test_the_kind_of_batch_follows_the_codes_of_ind(small_benchmarks):
    # exact, drawing nothing, when ind has at most n_ctis codes, whatever
    # the size of the space; n_ctis walks when it has one more
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        table = ctigen.WalkTable(protocol, instance)
        for ind in _ind_sequence(name, protocol):
            n = len(_filter(protocol, instance, ind))
            rng = random.Random(5)
            exact = generate_ctis(protocol, instance, ind, n, 3, 10**6, rng, table=table)
            assert exact == _exact(protocol, instance, ind, 3) and exact.samples_attempted == n
            assert rng.getstate() == random.Random(5).getstate()
            walked = generate_ctis(protocol, instance, ind, n - 1, 3, 10**6, random.Random(5),
                                   table=table)
            assert walked == _walks(table, ind, n - 1, 3, 10**6, random.Random(5)), name
            assert walked.samples_attempted == n - 1
            found += len(exact) + len(walked)
    assert found > 0


def test_a_bounded_search_stops_inside_a_run(all_benchmarks, monkeypatch):
    # election n=5's safety reads only leader, its last 5 of 15 leaves, so
    # its search is one run of 2^35 codes, of which 6 in 32 pass; bounded
    # at 50,000 it judges about 270,000 of them, not the whole run
    protocol = all_benchmarks["election"][0]
    instance = parse_instance("Node=n1,n2,n3,n4,n5", protocol)
    judged = [0]
    make = ctigen._all

    def counting(checks):
        check = make(checks)
        return lambda code: judged.__setitem__(0, judged[0] + 1) or check(code)

    monkeypatch.setattr(ctigen, "_all", counting)
    table = ctigen.WalkTable(protocol, instance)
    assert table.codec.size == 2**35
    assert table.inside([protocol.safety], 50_000) is None
    assert 50_001 < judged[0] < 500_000
    rng = random.Random(0)
    batch = generate_ctis(protocol, instance, protocol.safety, 50_000, 3, 10, rng, table=table)
    assert batch.samples_attempted < 50_000 and len(batch) == 10  # walked to the cap


def test_search_follows_an_ind_that_does_not_extend_the_last(lockserver):
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
        assert _inside(table, ind) == _filter(protocol, instance, ind), to_str(ind)


def test_generate_ctis_builds_a_table_for_another_instance(small_benchmarks):
    lock_p, _, lock_i = small_benchmarks["lockserver"]
    elect_p, _, elect_i = small_benchmarks["election"]
    table = ctigen.WalkTable(lock_p, lock_i)
    shared = generate_ctis(elect_p, elect_i, elect_p.safety, 600, 3, 100, random.Random(4),
                           table=table)
    fresh = generate_ctis(elect_p, elect_i, elect_p.safety, 600, 3, 100, random.Random(4))
    assert shared == fresh and len(fresh) > 0


def _exact(protocol, instance, ind, depth, cap=10**6, table=None):
    """The uncapped exact batch, after asserting that it drew nothing."""
    rng = random.Random(0)
    size = state_space_size(protocol, instance)
    batch = generate_ctis(protocol, instance, ind, size, depth, cap, rng, table=table)
    assert rng.getstate() == random.Random(0).getstate()
    return batch


def test_closure_agrees_with_the_induction_checks(all_benchmarks, small_benchmarks):
    # the oracle enumerates election and declock's default instances in
    # 4-12 s per conjunct set, so there it runs on the small instances
    for name, (protocol, _, instance) in all_benchmarks.items():
        small = small_benchmarks[name][2]
        oracle_instances = [small] if name in ("election", "declock") else [small, instance]
        inds = _ind_sequence(name, protocol)
        for ind in (inds[0], inds[-1]):
            conjuncts = ctigen.conjuncts_of(ind)
            # ind is closed under steps iff its depth-1 exact batch is empty
            closed = len(_exact(protocol, instance, ind, 1)) == 0
            report = check_induction(protocol, instance, conjuncts)
            assert report.mode == "exhaustive"
            assert closed == report.consecution_ok, (name, to_str(ind))
            for inst in oracle_instances:
                _, consecution, _ = oracles.o_check_induction(protocol, inst, conjuncts)
                assert (len(_exact(protocol, inst, ind, 1)) == 0) == consecution, name
        assert closed, name  # each seed-7 result is inductive on its instance


# -- exact CTI sets -------------------------------------------------------------


def _exact_pairs(batch):
    return {oracles.freeze_state(c.state): c.depth_to_violation for c in batch.ctis}


def _assert_first_firing_witnesses(protocol, instance, ind, batch, layers):
    """Each CTI replays, and each step is the first firing, in firing order,
    out of ind (last step) or into the oracle's previous layer."""
    for cti in batch.ctis:
        assert replay_witness(cti, protocol, instance, ind)
        state = cti.state
        for t in cti.witness:
            k = layers[oracles.freeze_state(state)]
            first = next((name, combo) for name, combo, post in oracles.o_successors(
                protocol, instance, oracles.assign_from_state(state))
                if layers.get(oracles.o_freeze(post), 0) == k - 1
                and (k > 1 or not oracles.o_holds(ind, post, instance)))
            assert (t.action, tuple(el for _, el in t.binding)) == first
            state = t.post


def test_exact_batches_equal_the_oracle(small_benchmarks):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        for ind in _ind_sequence(name, protocol):
            for depth in (1, 2, 3):
                layers = oracles.o_ctis(protocol, instance, ind, depth)
                batch = _exact(protocol, instance, ind, depth)
                assert _exact_pairs(batch) == layers, (name, depth, to_str(ind))
                assert batch.samples_attempted == _o_size(protocol, instance, ind)
                _assert_first_firing_witnesses(protocol, instance, ind, batch, layers)
                found += len(batch)
    assert found > 0


def test_sparse_walks_find_exact_ctis_at_no_smaller_depth(small_benchmarks):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        size = state_space_size(protocol, instance)
        table = ctigen.WalkTable(protocol, instance)
        for ind in _ind_sequence(name, protocol):
            exact = _exact_pairs(_exact(protocol, instance, ind, 3))
            for seed in (0, 1):
                walked = _walks(table, ind, size - 1, 3, 10000, random.Random(seed))
                assert walked.samples_attempted == size - 1 or len(walked) == 10000
                for cti in walked.ctis:
                    assert exact[oracles.freeze_state(cti.state)] <= cti.depth_to_violation
                found += len(walked)
    assert found > 0


def _counter_protocol(bits):
    """A binary counter over bits b0..b{bits-1} whose safety fails at its top
    bit: the state of value v is 2^(bits-1) - v increments from violating."""
    lines = [f"var b{j} : bool" for j in range(bits)]
    lines += [f"init b{j} = false" for j in range(bits)]
    for j in range(bits):
        guard = " /\\ ".join([f"b{m}" for m in range(j)] + [f"~b{j}"])
        updates = " ".join([f"b{m} := false;" for m in range(j)] + [f"b{j} := true;"])
        lines.append(f"action Inc{j}() {{ require {guard}; {updates} }}")
    lines.append(f"safety S: ~b{bits - 1}")
    return parse_protocol("\n".join(lines))


def test_exact_batch_holds_any_depth():
    # past 255 steps: the top bit of 9 is 256 increments away from zero
    protocol = _counter_protocol(9)
    instance = parse_instance("", protocol)
    layers = oracles.o_ctis(protocol, instance, protocol.safety, 300)
    batch = _exact(protocol, instance, protocol.safety, 300)
    assert _exact_pairs(batch) == layers
    assert sorted(layers.values()) == list(range(1, 257))
    _assert_first_firing_witnesses(protocol, instance, protocol.safety, batch, layers)
    shallow = _exact(protocol, instance, protocol.safety, 255)
    assert _exact_pairs(shallow) == {s: k for s, k in layers.items() if k <= 255}


def _eager_exact(protocol, instance, ind, depth, cap):
    """The exact CTIs built whole, without the tables: a plain filter lists
    ind's codes, and pass k steps each open code by ``successors`` of its
    decoded state to the first post-state outside ind (k = 1) or found
    before."""
    codec = state_codec(protocol, instance)
    inside = _filter(protocol, instance, ind)
    ok = set(inside)
    found = {}  # code -> (depth, transition, next code)
    for k in range(1, depth + 1):
        added = {}
        for c in inside:
            if c in found:
                continue
            for t in successors(codec.decode(c), protocol, instance):
                d = codec.encode(t.post)
                if (d not in ok) if k == 1 else (d in found):
                    added[c] = (k, t, d)
                    break
        found.update(added)
    ctis = []
    for c in sorted(found)[:cap]:
        witness, d = [], c
        while d in found:
            witness.append(found[d][1])
            d = found[d][2]
        ctis.append(ctigen.CTI(codec.decode(c), c, tuple(witness), found[c][0]))
    return ctis


@pytest.mark.parametrize("cap", [7, 10**6])
def test_exact_items_equal_an_eager_construction(small_benchmarks, cap):
    # an exact batch keeps codes and steps; its items, by index, slice,
    # iteration or subset, are the CTIs an eager construction builds
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        for ind in _ind_sequence(name, protocol):
            batch = _exact(protocol, instance, ind, 3, cap)
            eager = _eager_exact(protocol, instance, ind, 3, cap)
            assert isinstance(batch.ctis, ctigen.Ctis)
            assert len(batch.ctis) == len(eager) and batch.ctis.codes == [c.code for c in eager]
            assert list(batch.ctis) == eager and batch.ctis == eager, (name, to_str(ind))
            if eager:
                assert batch.ctis[-1] == eager[-1] and batch.ctis[1::2] == eager[1::2]
                assert batch.ctis.subset([0, len(eager) - 1]) == [eager[0], eager[-1]]
            for cti in batch.ctis:
                assert replay_witness(cti, protocol, instance, ind), (name, cti.code)
            found += len(eager)
    assert found > 0


def _spied_inference(monkeypatch, protocol, grammar, instance, config):
    """The result of an inference, its batches, and the CTIs built and codes
    decoded while it ran."""
    from indinv.infer import infer_inductive_invariant
    from indinv.instance import StateCodec

    built, decoded, batches = [], [], []
    post_init, decode = ctigen.CTI.__post_init__, StateCodec.decode
    monkeypatch.setattr(ctigen.CTI, "__post_init__", lambda c: built.append(c) or post_init(c))
    monkeypatch.setattr(StateCodec, "decode",
                        lambda codec, code: decoded.append(code) or decode(codec, code))

    def spy(*args, **kwargs):
        batches.append(generate_ctis(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr("indinv.infer.generate_ctis", spy)
    result = infer_inductive_invariant(protocol, instance, grammar, config)
    return result, batches, built, decoded


def test_an_exact_inference_builds_no_cti(all_benchmarks, monkeypatch):
    # every batch stays codes: selection scores the CTIs' codes, the loop
    # counts the eliminated ones and safety is judged on the reachable codes,
    # so no CTI is built and no code decoded. Election's default instance has
    # no more states than n_ctis, so every batch is exact.
    from indinv.infer import InferenceConfig

    protocol, grammar, instance = all_benchmarks["election"]
    result, batches, built, decoded = _spied_inference(
        monkeypatch, protocol, grammar, instance, InferenceConfig(seed=7))
    assert result.succeeded and result.ctis_eliminated > 0
    assert all(b.samples_attempted == b.starts for b in batches)  # Ind's codes, all exact
    assert len(batches) == 4 and not batches[-1].ctis and built == []
    assert decoded == [] and batches[0].ctis.codes
    first = batches[0].ctis
    assert len(first) == 10000 and built == []  # the cap, counted without building
    for k in (0, len(first) // 2, -1):
        cti = first[k]
        assert cti.code == first.codes[k]
        assert replay_witness(cti, protocol, instance, protocol.safety)
    assert len(built) == 3

    # on lockserver 4x4 at n_ctis 5000, safety's 10,000 codes are walked and
    # the invariant's 1296 are exact; neither kind builds a CTI
    protocol, grammar, _ = all_benchmarks["lockserver"]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    monkeypatch.undo()
    result, batches, built, decoded = _spied_inference(
        monkeypatch, protocol, grammar, instance, InferenceConfig(seed=7, n_ctis=5000))
    assert result.succeeded and len(result.conjuncts) == 2
    walked, exact = batches
    assert walked.samples_attempted == 5000 and 0 < walked.starts < 5000 and walked.ctis
    assert exact.samples_attempted == exact.starts == 1296 and not exact.ctis
    assert built == [] and decoded == []
    for cti in walked.ctis[:50]:
        assert replay_witness(cti, protocol, instance, protocol.safety)


def _count_evaluations(monkeypatch) -> Counter:
    """Counts, by Verdicts object, the evaluations of its predicate from now on."""
    calls = Counter()
    evaluate = ctigen.Verdicts.evaluate
    monkeypatch.setattr(ctigen.Verdicts, "evaluate",
                        lambda v, code: calls.update([v]) or evaluate(v, code))
    return calls


def test_each_conjunct_part_is_evaluated_once_per_projection(all_benchmarks, monkeypatch):
    # a new ind costs the tables of its new conjuncts alone: across a
    # sequence of exact searches and leaf searches, each conjunct's body is
    # evaluated at least once under each binding it is split by, and at most
    # once per projection of the leaves it reads there; with or without
    # verdict tables, the leaf search lists the codes a plain filter does
    calls = _count_evaluations(monkeypatch)
    for name, (protocol, _, instance) in all_benchmarks.items():
        codec = state_codec(protocol, instance)
        inds = _ind_sequence(name, protocol)
        filtered = [_filter(protocol, instance, ind) for ind in inds]
        for limit in (1_000_000, 1):
            calls.clear()
            table = ctigen.WalkTable(protocol, instance, limit)
            for ind, codes in zip(inds, filtered):
                if limit > 1:
                    _exact(protocol, instance, ind, 3, table=table)
                assert _inside(table, ind) == codes, (name, limit)
            if limit == 1:
                continue
            for c in ctigen.conjuncts_of(inds[-1]):
                for v in table.verdict(c).parts:
                    assert 0 < calls[v] <= codec.projection(v.leaves)[0], \
                        (name, limit, to_str(c), v.env)


# -- firing tables --------------------------------------------------------------


def _assert_firing_tables_equal_successors(protocol, instance, codes, limit=1_000_000):
    table = ctigen.WalkTable(protocol, instance, limit)
    codec, fs = table.codec, table.fs
    for k in codes:
        expected = [(t.action, t.binding, codec.encode(t.post))
                    for t in successors(codec.decode(k), protocol, instance)]
        got = [(fs[i][2][0], fs[i][2][2], table.successor(k, i)) for i in table.enabled(k)]
        assert got == expected, k
    return table


def test_firing_tables_equal_successors_on_every_code(all_benchmarks, small_benchmarks):
    lock_p = all_benchmarks["lockserver"][0]
    cases = {name: (p, inst) for name, (p, _, inst) in all_benchmarks.items()}
    cases["lockserver-3x3"] = (lock_p, parse_instance("Server=s1,s2,s3 Client=c1,c2,c3", lock_p))
    for name, (protocol, instance) in cases.items():
        table = _assert_firing_tables_equal_successors(
            protocol, instance, range(state_space_size(protocol, instance)))
        # a firing's tables are over the few leaves it touches, never a whole map
        assert all(deltas is not None and len(deltas) <= 64 for _, deltas in table.deltas), name
    for name, (protocol, _, instance) in small_benchmarks.items():
        # past the limit, a firing is computed directly
        table = _assert_firing_tables_equal_successors(
            protocol, instance, range(state_space_size(protocol, instance)), limit=1)
        assert [deltas for _, deltas in table.deltas] == [None] * len(table.fs), name


# An element-valued map entry as a map key in a guard and an update index,
# and a 3-label enum. After parsing, since the parser rejects both, Copy gets
# the whole-map update ``mark := flag``, and Scan's guard a quantifier that
# rebinds the parameter's name: inside it, ``flag[p]`` reads every entry of
# flag, not Scan's own.
LEAF_PROTO = """
sort Node

var flag : map<Node> -> bool
var mark : map<Node> -> bool
var ptr : map<Node> -> Node
var mode : enum {idle, wait, done}

init flag = [forall n: Node. false]
init mark = [forall n: Node. false]
init ptr = [forall n: Node. n]
init mode = idle

action Point(p: Node, q: Node) {
    require ~flag[ptr[p]] /\\ mode != done;
    flag[ptr[p]] := true;
    ptr[p] := q;
    mode := wait;
}

action Copy() {
    require mode = wait;
    mode := done;
}

action Scan(p: Node) {
    require mark[p];
    flag[p] := false;
    mode := idle;
}

safety S: forall n: Node. mark[n] -> flag[n]
"""


def _leaf_protocol():
    protocol = parse_protocol(LEAF_PROTO)
    point, copy, scan = protocol.actions
    copy = replace(copy, updates=(Update("mark", None, StateRef("flag")),) + copy.updates)
    some_unflagged = Quant("exists", "p", "Node", Not(MapIndex(StateRef("flag"), BoundRef("p"))))
    scan = replace(scan, guard=And((scan.guard, some_unflagged)))
    return replace(protocol, actions=(point, copy, scan))


def test_firing_tables_follow_leaves_keys_and_shadowing():
    protocol = _leaf_protocol()
    found = 0
    for inst_text in ("Node=n1,n2", "Node=n1,n2,n3"):
        instance = parse_instance(inst_text, protocol)
        codec = state_codec(protocol, instance)
        table = _assert_firing_tables_equal_successors(protocol, instance, range(codec.size))
        fired = set()
        for k in range(0, codec.size, 1 if codec.size < 1000 else 7):
            # the oracle's successors, written apart from the engine
            state = codec.decode(k)
            assert sorted(
                (fs[2][0], tuple(el for _, el in fs[2][2]), table.successor(k, i))
                for i, fs in ((i, table.fs[i]) for i in table.enabled(k))
            ) == sorted(
                (name, combo, codec.encode(oracles.state_from_assign(protocol, instance, post)))
                for name, combo, post in oracles.o_successors(
                    protocol, instance, oracles.assign_from_state(state))
            ), k
            fired.update(table.fs[i][2][0] for i in table.enabled(k))
        assert fired == {"Point", "Copy", "Scan"}
        for seed in range(4):
            found += len(_walkers(protocol, instance, protocol.safety, 600, 3, 10000, seed)[0])
    assert found > 0


# -- verdict tables -----------------------------------------------------------


def _conjuncts(name, protocol):
    return [protocol.safety] + [parse_expression(t, protocol) for t in SEED7_CONJUNCTS[name]]


def _check_verdicts(protocol, instance, conjunct, codes, limit=1_000_000):
    """A fresh Conjunct of conjunct, after asserting on each code in turn that
    it equals the compiled conjunct on the decoded state, and each of its
    parts the compiled part under the part's binding, and on every 97th that
    the conjunct's verdict equals the oracle."""
    codec = state_codec(protocol, instance)
    verdicts = ctigen.WalkTable(protocol, instance, limit).verdict(conjunct)
    f = compile_expr(conjunct, instance, codec.schema)
    parts = [(v, compile_expr(v.expr, instance, codec.schema)) for v in verdicts.parts]
    for n, k in enumerate(codes):
        state = codec.decode(k)
        expected = f(state, {}) is True
        assert verdicts.holds(k) == expected, (to_str(conjunct), k)
        for v, g in parts:
            assert v.holds(k) == (g(state, v.env) is True), (to_str(conjunct), v.env, k)
        if n % 97 == 0:
            assign = oracles.assign_from_state(state)
            assert oracles.o_holds(conjunct, assign, instance) == expected
    return verdicts


def test_verdict_tables_equal_direct_evaluation(all_benchmarks):
    for name, (protocol, _, instance) in all_benchmarks.items():
        size = state_space_size(protocol, instance)
        for c in _conjuncts(name, protocol):
            verdicts = _check_verdicts(protocol, instance, c, range(size))
            # every projection is some code's, so no entry is left unknown
            assert all(v.table is not None and all(v.table) for v in verdicts.parts), \
                (name, to_str(c))
            if name == "election" and c is protocol.safety:
                # safety reads leader alone: one table of its 8 values, not
                # 3 + 6 tables of 2 and 4 entries by binding of m and n
                assert [len(v.table) for v in verdicts.parts] == [8]
                assert verdicts.parts[0].expr == canonicalize(c)
        if name == "election":
            # the first two lemmas split by their bindings of u, v and of u
            table = ctigen.WalkTable(protocol, instance)
            assert [len(table.verdict(c).parts) for c in _conjuncts(name, protocol)] == \
                [1, 9, 3, 1]


def test_verdict_tables_equal_direct_evaluation_on_random_codes(lockserver):
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    rng = random.Random(5)
    codes = [state_codec(protocol, instance).random_code(rng) for _ in range(5000)]
    # Each code is asked twice, so that filled entries are read back.
    safe, lemma = [_check_verdicts(protocol, instance, c, codes * 2)
                   for c in _conjuncts("lockserver", protocol)]
    # Whole, safety would have 2^16 entries and the lemma 2^20, over the
    # default limit. By binding, both have tables at that limit: safety's
    # are over held[ci] and held[cj], one leaf on the 4 diagonal bindings,
    # and the lemma's over locked[s] and held[c].
    sizes = sorted(len(v.table) for v in safe.parts)
    assert sizes == [16] * 4 + [256] * 12 and sum(sizes) == 3136
    assert [len(v.table) for v in lemma.parts] == [32] * 16


def _body(conjunct):
    """The conjunct's canonical form without its leading forall prefix."""
    e = canonicalize(conjunct)
    while isinstance(e, Quant) and e.kind == "forall":
        e = e.body
    return e


def test_a_sampled_search_and_check_evaluate_each_body_once_per_entry(lockserver, monkeypatch):
    # on lockserver 4x4 the invariant's 1296 codes are past the walk budget
    # and the space is past the default limit, so the search walks and the
    # check samples; each conjunct's body is evaluated at most once per entry
    # of its table under each binding, in the search and in the check, each
    # of which has tables of its own
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    conjuncts = _conjuncts("lockserver", protocol)
    calls = _count_evaluations(monkeypatch)
    batch = generate_ctis(protocol, instance, conjunction(conjuncts), 1000, 3, 10000,
                          random.Random(7))
    assert len(batch) == 0 and batch.samples_attempted == 1000
    searched = set(calls)
    report = check_induction(protocol, instance, conjuncts)
    assert report.mode == "sampled" and report.passed and report.inside > 0
    bodies = {to_str(_body(c)) for c in conjuncts}
    for verdicts in (searched, set(calls) - searched):
        assert bodies <= {to_str(v.expr) for v in verdicts}
    for v, n in calls.items():
        assert v.table is not None and n <= len(v.table), (to_str(v.expr), v.env)
    assert sum(n for v, n in calls.items() if to_str(v.expr) in bodies) <= 2 * (3136 + 512)


def test_a_table_of_another_instance_is_never_used(lockserver):
    protocol, _, small = lockserver
    big = parse_instance(LOCKSERVER_4X4, protocol)
    table = ctigen.WalkTable(protocol, small)
    for n in (3000, 30):  # the exact set, then the sparse walker, on 2x2
        generate_ctis(protocol, small, protocol.safety, n, 3, 10000, random.Random(1),
                      table=table)
    assert all(v.table is not None for v in table.verdicts[id(protocol.safety)].parts)
    shared = generate_ctis(protocol, big, protocol.safety, 3000, 3, 10000, random.Random(3),
                           table=table)
    fresh = generate_ctis(protocol, big, protocol.safety, 3000, 3, 10000, random.Random(3))
    reference, attempts = _reference_walks(protocol, big, protocol.safety, 3000, 3, 10000,
                                           random.Random(3))
    assert shared == fresh and fresh.samples_attempted == attempts == 3000
    assert fresh.ctis.codes == [c.code for c in reference] and len(fresh) > 0


def test_a_conjunct_over_the_limit_is_evaluated_directly(small_benchmarks):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        table = ctigen.WalkTable(protocol, instance, limit=1)
        for ind in _ind_sequence(name, protocol):
            assert _inside(table, ind) == _filter(protocol, instance, ind), name
            exact = _exact(protocol, instance, ind, 3, table=table)
            assert exact == _exact(protocol, instance, ind, 3), name
            for seed in (0, 1):
                by_code = _walkers(protocol, instance, ind, 600, 3, 10000, seed, limit=1)
                found += len(by_code[0]) + len(exact)
        tables = [v.table for c in table.verdicts.values() for v in c.parts]
        assert tables and tables == [None] * len(tables), name
    assert found > 0


def test_parts_over_the_limit_together_keep_the_whole_conjunct(lockserver):
    # the limit bounds a conjunct's parts together, not each part: at 100,
    # each of the lemma's 16 tables of 32 entries fits but their 512 do not,
    # so the lemma is one Verdicts of the whole, which has no table either
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    rng = random.Random(11)
    codes = [state_codec(protocol, instance).random_code(rng) for _ in range(2000)]
    safe, lemma = _conjuncts("lockserver", protocol)
    for limit, split in ((100, False), (512, True)):
        verdicts = _check_verdicts(protocol, instance, lemma, codes, limit)
        if split:
            assert [len(v.table) for v in verdicts.parts] == [32] * 16
        else:
            assert len(verdicts.parts) == 1 and verdicts.parts[0].table is None
            assert verdicts.parts[0].expr == canonicalize(lemma)
        # safety's parts hold 3136 entries together, over both limits
        verdicts = _check_verdicts(protocol, instance, safe, codes, limit)
        assert len(verdicts.parts) == 1 and verdicts.parts[0].table is None


def test_a_sparse_search_builds_rejected_draws_without_interning(lockserver, monkeypatch):
    # a sparse search decodes only the states of its CTIs and of their
    # witnesses; a draw that fails safety is rejected by the verdict table
    # and never decoded
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    codec = state_codec(protocol, instance)
    decoded = []
    decode = codec.decode
    monkeypatch.setattr(codec, "decode", lambda code: decoded.append(code) or decode(code))
    batch = generate_ctis(protocol, instance, protocol.safety, 3000, 3, 10000, random.Random(2))
    assert batch.samples_attempted == 3000 and len(batch) > 0
    assert state_codec(protocol, instance) is codec
    safe = compile_expr(protocol.safety, instance, codec.schema)
    last_posts = {codec.encode(c.witness[-1].post) for c in batch.ctis}
    unsafe = {k for k in decoded if safe(decode(k), {}) is not True}
    assert unsafe and unsafe <= last_posts
    on_witnesses = {codec.encode(t.post) for c in batch.ctis for t in c.witness}
    assert set(decoded) <= {c.code for c in batch.ctis} | on_witnesses
