from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from indinv import ctigen
from indinv.ctigen import generate_ctis, replay_witness, replay_witness_diagnosis
from indinv.evaluator import compile_expr, holds, successors
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


def _batch(lockserver, ind, n=4000, cap=10000, seed=0):
    """A batch on lockserver 2x2: with n at least its 64 states, the exact set."""
    protocol, _, instance = lockserver
    return generate_ctis(protocol, instance, ind, n, cap, random.Random(seed))


LOCKSERVER_4X4 = "Server=s1,s2,s3,s4 Client=c1,c2,c3,c4"


def _draws(table, ind, budget, cap, rng):
    """The sampled batch of ind on the table, however few codes ind has."""
    good = table.good(ctigen.conjuncts_of(ind))
    return ctigen._sampled(table, good, budget, cap, rng)


def _sampled_batch(lockserver, ind, n=4000, cap=10000, seed=0):
    """The CTIs among n random draws on lockserver 4x4."""
    protocol = lockserver[0]
    table = ctigen.WalkTable(protocol, parse_instance(LOCKSERVER_4X4, protocol))
    return _draws(table, ind, n, cap, random.Random(seed))


def _o_size(protocol, instance, ind):
    """The oracle's count of the states satisfying ind."""
    return sum(oracles.o_holds(ind, a, instance) for a in oracles.o_enumerate(protocol, instance))


def test_known_one_step_cti_is_recorded(lockserver):
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=20000)
    target = _state(protocol, {"s1": True, "s2": True}, {"c1": {"s1"}, "c2": set()})
    assert state_codec(protocol, instance).encode(target) in {c.code for c in batch.ctis}


def test_inductive_candidate_yields_empty_batch(lockserver):
    protocol, _, instance = lockserver
    ind = And((protocol.safety, parse_expression(A1_TEXT, protocol)))
    sampled = _sampled_batch(lockserver, ind, n=5000)
    assert len(sampled) == 0
    assert sampled.samples_attempted == 5000
    assert 0 < sampled.starts < 5000  # 1296 of the 2^20 codes are in ind
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
    for make in (_batch, _sampled_batch):
        batch = make(lockserver, lockserver[0].safety, n=5000)
        codes = [c.code for c in batch.ctis]
        assert len(codes) == len(set(codes)) > 0, make


def test_cap_bounds_batch_size(lockserver):
    for make in (_batch, _sampled_batch):
        batch = make(lockserver, lockserver[0].safety, n=20000, cap=3)
        assert len(batch) == 3, make


def test_exact_cap_keeps_the_first_ctis_in_code_order(lockserver):
    whole = _batch(lockserver, lockserver[0].safety, n=64)
    capped = _batch(lockserver, lockserver[0].safety, n=64, cap=3)
    assert [c.code for c in whole.ctis] == sorted(c.code for c in whole.ctis)
    assert capped.ctis == whole.ctis[:3] and len(whole) > 3
    assert capped.samples_attempted == whole.samples_attempted


def _assert_first_firing_steps(protocol, instance, ind, ctis):
    """Each CTI replays, and its step is its state's first firing, in the
    oracle's firing order, to a state outside ind."""
    for cti in ctis:
        assert replay_witness(cti, protocol, instance, ind), cti.code
        first = next((name, combo) for name, combo, post in oracles.o_successors(
            protocol, instance, oracles.assign_from_state(cti.state))
            if not oracles.o_holds(ind, post, instance))
        assert (cti.step.action, tuple(el for _, el in cti.step.binding)) == first, cti.code


def test_each_step_is_the_first_firing_out_of_ind(lockserver):
    # exact and sampled batches apply one rule: a code of Ind with its first
    # firing to a code outside Ind
    protocol, _, small = lockserver
    big = parse_instance(LOCKSERVER_4X4, protocol)
    for make, instance in ((_batch, small), (_sampled_batch, big)):
        batch = make(lockserver, protocol.safety, n=3000)
        assert len(batch) > 0, make
        _assert_first_firing_steps(protocol, instance, protocol.safety, batch.ctis[:200])


def test_tampered_witness_post_state_detected(lockserver):
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=3000)
    cti = batch.ctis[0]
    bad_state = _state(protocol, {"s1": True, "s2": True}, {"c1": set(), "c2": set()})
    tampered = replace(cti, step=replace(cti.step, post=bad_state))
    diag = replay_witness_diagnosis(tampered, protocol, instance, safe)
    assert diag == "not a transition of the protocol from the state"
    assert not replay_witness(tampered, protocol, instance, safe)


def test_start_state_violating_ind_detected(lockserver):
    protocol, _, instance = lockserver
    safe = protocol.safety
    batch = _batch(lockserver, safe, n=3000)
    cti = batch.ctis[0]
    violating = _state(protocol, {"s1": False, "s2": False}, {"c1": {"s1"}, "c2": {"s1"}})
    tampered = replace(cti, state=violating, code=state_codec(protocol, instance).encode(violating))
    diag = replay_witness_diagnosis(tampered, protocol, instance, safe)
    assert diag == "state does not satisfy the predicate"


def _sampled_cti(lockserver):
    """A sampled CTI of safety on lockserver 4x4, and its replay."""
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    cti = _sampled_batch(lockserver, protocol.safety, n=20000, seed=4).ctis[0]
    return cti, lambda c: replay_witness_diagnosis(c, protocol, instance, protocol.safety)


def test_witness_steps_carry_their_pre_state_codes(lockserver):
    protocol = lockserver[0]
    encode = state_codec(protocol, parse_instance(LOCKSERVER_4X4, protocol)).encode
    cti, replay = _sampled_cti(lockserver)
    assert cti.step.pre_code == cti.code == encode(cti.state)
    assert replay(cti) is None


def test_tampered_code_detected(lockserver):
    cti, replay = _sampled_cti(lockserver)
    tampered = replace(cti, code=cti.code + 1)
    assert replay(tampered) == "stored code does not match the state"


def test_tampered_pre_code_at_step_one_detected(lockserver):
    # a CTI's witness is one step, from the CTI's own code
    cti, replay = _sampled_cti(lockserver)
    tampered = replace(cti, step=replace(cti.step, pre_code=cti.code + 1))
    assert replay(tampered) == "pre-state code mismatch"


def test_deterministic_at_one_worker(lockserver):
    for make in (_batch, _sampled_batch):
        a = make(lockserver, lockserver[0].safety, seed=9)
        b = make(lockserver, lockserver[0].safety, seed=9)
        assert [c.code for c in a.ctis] == [c.code for c in b.ctis]
        assert a.samples_attempted == b.samples_attempted


def test_worker_batches_are_valid(lockserver):
    # every CTI of a larger sampled batch replays exactly
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    safe = protocol.safety
    batch = _sampled_batch(lockserver, safe, n=20000, seed=4)
    assert len(batch) > 0
    for cti in batch.ctis:
        assert replay_witness(cti, protocol, instance, safe)


def test_depth1_batch_matches_exhaustive_oracle_at_modest_budget(lockserver):
    # the exact batch is the oracle's set; draws at a modest budget miss at
    # most one of its CTIs
    protocol, _, instance = lockserver
    safe = protocol.safety
    oracle = oracles.o_cti_depth1(protocol, instance, safe)
    exact = _batch(lockserver, safe, n=20000)
    assert {oracles.freeze_state(c.state) for c in exact.ctis} == oracle
    ctis, *_ = _sample(ctigen.WalkTable(protocol, instance), safe, 20000, 10000, 0)
    generated = {oracles.freeze_state(c.state) for c in ctis}
    assert generated <= oracle
    assert len(oracle - generated) <= 1  # tiny budget slack


def test_invalid_depth_and_cap_rejected(lockserver):
    # a cap below 1 is refused, and so is a depth: a CTI is one step deep
    protocol, _, instance = lockserver
    with pytest.raises(ValueError):
        generate_ctis(protocol, instance, protocol.safety, 10, 0, random.Random(0))
    with pytest.raises(TypeError):
        generate_ctis(protocol, instance, protocol.safety, 10, 10, random.Random(0), depth=1)


def _stream_digest(batch, rng) -> str:
    """Digest of a batch in order, plus the next draw of the rng it consumed.
    Each CTI enters by the public fingerprint of its state, the number CTIs
    carried before a state's code became its identity, and its step."""
    h = hashlib.sha256()
    for c in batch.ctis:
        t = c.step
        binding = ",".join(f"{p}={el}" for p, el in t.binding)
        h.update(f"{fingerprint(c.state):016x} {t.action}({binding})\n".encode())
    h.update(f"samples={batch.samples_attempted} next={rng.getrandbits(64)}".encode())
    return h.hexdigest()[:16]


# A change here means CTI generation consumes the random stream differently,
# or finds other CTIs, and result files change with it. At a budget of 3000
# draws, consensus (8 states), twophase (64) and lockserver (64) get the
# exact CTI set, which draws nothing: their digests pin the set in code
# order, its count of safety's codes and the untouched rng's next draw.
# Consensus and twophase have no CTI. Declock (4096 codes of safety),
# election (16,384) and lockserver 4x4 (10,000) are sampled: draws are
# judged by the safety's verdict table (8 entries over declock's has_lock,
# 8 over election's leader, 65,536 over lockserver 4x4's held) and those
# in Ind stepped by each firing's guard and delta tables. The lockserver,
# election, declock and lockserver 4x4 digests were recomputed when a CTI
# became one step out of Ind and walks went: the digest lost its depth
# field, and a sampled batch steps each draw in Ind by every firing instead
# of walking random ones. Lockserver's digest is the parent's exact set at
# depth 1; the sampled three find 3.5x, 2.2x and 2.4x the CTIs from as
# many draws.
PINNED_STREAMS = {
    "lockserver": (None, "771277f1ec1ba959"),
    "election": (None, "0dcc276d4aa36960"),
    "consensus": (None, "a6d45c882e03b3e8"),
    "twophase": (None, "e60058a1be939d4b"),
    "declock": (None, "3d36794f69b3f37e"),
    "lockserver-4x4": ("Server=s1,s2,s3,s4 Client=c1,c2,c3,c4", "f9b118ac7da373f3"),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_cti_stream_is_pinned(all_benchmarks, name):
    inst_text, digest = PINNED_STREAMS[name]
    protocol, _, instance = all_benchmarks[name.split("-")[0]]
    if inst_text is not None:
        instance = parse_instance(inst_text, protocol)
    rng = random.Random(2024)
    batch = generate_ctis(protocol, instance, protocol.safety, 3000, 10000, rng)
    assert len(batch) > 0 or name in ("consensus", "twophase")
    if state_space_size(protocol, instance) <= 3000:  # an exact batch draws nothing
        assert rng.getstate() == random.Random(2024).getstate()
    assert _stream_digest(batch, rng) == digest


def _sample(table, ind, budget, cap, seed):
    """(ctis, draws, draws in ind, rng's next draw) of a sampled batch on a table."""
    rng = random.Random(seed)
    batch = _draws(table, ind, budget, cap, rng)
    return batch.ctis, batch.samples_attempted, batch.starts, rng.getrandbits(64)


def _reference_draws(protocol, instance, ind, budget, cap, rng):
    """The sampled batch written out over whole states, without codes or
    tables: draw ``random_state``, evaluate the compiled ind on it, and step
    a state of ind by ``successors``. Returns the CTIs, the draws, and the
    states drawn in ind, in draw order."""
    encode = state_codec(protocol, instance).encode
    ind_f = compile_expr(ind, instance, state_schema(protocol))
    ctis, seen, attempts, inside = [], set(), 0, []
    for _ in range(budget):
        if len(ctis) >= cap:
            break
        attempts += 1
        s = random_state(protocol, instance, rng)
        if ind_f(s, {}) is not True:
            continue
        inside.append(s)
        t = next((t for t in successors(s, protocol, instance) if ind_f(t.post, {}) is not True),
                 None)
        if t is not None and s not in seen:
            seen.add(s)
            ctis.append(ctigen.CTI(s, encode(s), t))
    return ctis, attempts, inside


def _samplers(protocol, instance, ind, budget, cap, seed, limit=1_000_000):
    """(ctis, draws, draws in ind, rng's next draw) of a fresh table's
    sampled batch, after asserting that the reference draws the same CTIs,
    in the same order, with the same counts and next draw, and that each
    CTI replays."""
    rng = random.Random(seed)
    reference, attempts, inside = _reference_draws(protocol, instance, ind, budget, cap, rng)
    table = ctigen.WalkTable(protocol, instance, limit)
    sampled = _sample(table, ind, budget, cap, seed)
    ctis, *rest = sampled
    assert (list(ctis), *rest) == (reference, attempts, len(inside), rng.getrandbits(64))
    for cti in ctis:
        assert replay_witness(cti, protocol, instance, ind), cti.code
    return sampled


@pytest.mark.parametrize("cap", [5, 10000])
def test_code_walker_matches_state_walker(small_benchmarks, cap):
    # the sampled batch over codes and tables equals the reference over states
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        for seed in (0, 1, 2):
            ctis = _samplers(protocol, instance, protocol.safety, 600, cap, seed)[0]
            found += len(ctis)
    assert found > 0


# Two states satisfy ~bad, k=a and k=b. Crash violates from a; b's only
# step, Back, goes to a, inside ~bad, so a is the one CTI.
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
    # a state drawn many times is one CTI, with its step out by Crash
    protocol = parse_protocol(REVISIT_PROTO)
    instance = parse_instance("", protocol)
    for seed in range(20):
        ctis = _samplers(protocol, instance, protocol.safety, 40, 100, seed)[0]
        assert [(c.state.value("k"), c.step.action) for c in ctis] == [("a", "Crash")]
        _, _, inside = _reference_draws(protocol, instance, protocol.safety, 40, 100,
                                        random.Random(seed))
        assert sum(s.value("k") == "a" for s in inside) > 1


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
                exact = generate_ctis(protocol, instance, ind, 600, cap, random.Random(seed),
                                      table=shared)
                assert exact == generate_ctis(protocol, instance, ind, 600, cap,
                                              random.Random(seed))
                by_shared = _sample(shared, ind, 600, cap, seed)
                by_fresh = _samplers(protocol, instance, ind, 600, cap, seed)
                assert by_shared == by_fresh, (name, seed, to_str(ind))
                found += len(by_shared[0]) + len(exact)
    assert found > 0


def test_the_kind_of_batch_follows_the_codes_of_ind(small_benchmarks):
    # exact, drawing nothing, when ind has at most n_ctis codes, whatever
    # the size of the space; n_ctis draws when it has one more
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        table = ctigen.WalkTable(protocol, instance)
        for ind in _ind_sequence(name, protocol):
            n = len(_filter(protocol, instance, ind))
            rng = random.Random(5)
            exact = generate_ctis(protocol, instance, ind, n, 10**6, rng, table=table)
            assert exact == _exact(protocol, instance, ind) and exact.samples_attempted == n
            assert rng.getstate() == random.Random(5).getstate()
            sampled = generate_ctis(protocol, instance, ind, n - 1, 10**6, random.Random(5),
                                    table=table)
            assert sampled == _draws(table, ind, n - 1, 10**6, random.Random(5)), name
            assert sampled.samples_attempted == n - 1
            found += len(exact) + len(sampled)
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
    batch = generate_ctis(protocol, instance, protocol.safety, 50_000, 10, rng, table=table)
    assert batch.samples_attempted < 50_000 and len(batch) == 10  # drawn up to the cap


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
    shared = generate_ctis(elect_p, elect_i, elect_p.safety, 600, 100, random.Random(4),
                           table=table)
    fresh = generate_ctis(elect_p, elect_i, elect_p.safety, 600, 100, random.Random(4))
    assert shared == fresh and len(fresh) > 0


def _exact(protocol, instance, ind, cap=10**6, table=None):
    """The uncapped exact batch, after asserting that it drew nothing."""
    rng = random.Random(0)
    size = state_space_size(protocol, instance)
    batch = generate_ctis(protocol, instance, ind, size, cap, rng, table=table)
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
            # ind is closed under steps iff its exact batch is empty
            closed = len(_exact(protocol, instance, ind)) == 0
            report = check_induction(protocol, instance, conjuncts)
            assert report.mode == "exhaustive"
            assert closed == report.consecution_ok, (name, to_str(ind))
            for inst in oracle_instances:
                _, consecution, _ = oracles.o_check_induction(protocol, inst, conjuncts)
                assert (len(_exact(protocol, inst, ind)) == 0) == consecution, name
        assert closed, name  # each seed-7 result is inductive on its instance


# -- exact CTI sets -------------------------------------------------------------


def test_exact_batches_equal_the_oracle(small_benchmarks):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        for ind in _ind_sequence(name, protocol):
            batch = _exact(protocol, instance, ind)
            states = [oracles.freeze_state(c.state) for c in batch.ctis]
            assert set(states) == oracles.o_cti_depth1(protocol, instance, ind), \
                (name, to_str(ind))
            assert batch.ctis.codes == sorted(batch.ctis.codes)
            assert batch.samples_attempted == _o_size(protocol, instance, ind)
            _assert_first_firing_steps(protocol, instance, ind, batch.ctis)
            found += len(batch)
    assert found > 0


def test_sampled_ctis_are_exact_ctis(small_benchmarks):
    # a sampled batch applies the exact batch's rule to the draws in Ind
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        size = state_space_size(protocol, instance)
        table = ctigen.WalkTable(protocol, instance)
        for ind in _ind_sequence(name, protocol):
            exact = _exact(protocol, instance, ind).ctis
            by_code = dict(zip(exact.codes, exact))
            for seed in (0, 1):
                sampled = _draws(table, ind, size - 1, 10000, random.Random(seed))
                assert sampled.samples_attempted == size - 1 or len(sampled) == 10000
                for cti in sampled.ctis:
                    assert by_code[cti.code] == cti, (name, cti.code)
                found += len(sampled)
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


def test_only_the_last_step_to_a_violation_makes_a_cti():
    # zero is 256 increments from the top bit of 9, but only the state one
    # increment away, all low bits set, has a successor outside safety
    protocol = _counter_protocol(9)
    instance = parse_instance("", protocol)
    batch = _exact(protocol, instance, protocol.safety)
    cti, = batch.ctis
    assert [cti.state.value(f"b{j}") for j in range(9)] == [True] * 8 + [False]
    assert {oracles.freeze_state(cti.state)} == \
        oracles.o_cti_depth1(protocol, instance, protocol.safety)
    assert cti.step.action == "Inc8" and replay_witness(cti, protocol, instance, protocol.safety)
    assert batch.samples_attempted == 256


def _eager_exact(protocol, instance, ind, cap):
    """The exact CTIs built whole, without the tables: a plain filter lists
    ind's codes, and each is stepped by ``successors`` of its decoded state
    to the first post-state outside ind."""
    codec = state_codec(protocol, instance)
    ok = set(_filter(protocol, instance, ind))
    ctis = []
    for c in sorted(ok):
        t = next((t for t in successors(codec.decode(c), protocol, instance)
                  if codec.encode(t.post) not in ok), None)
        if t is not None:
            ctis.append(ctigen.CTI(codec.decode(c), c, t))
    return ctis[:cap]


@pytest.mark.parametrize("cap", [7, 10**6])
def test_exact_items_equal_an_eager_construction(small_benchmarks, cap):
    # an exact batch keeps codes and steps; its items, by index, slice,
    # iteration or subset, are the CTIs an eager construction builds
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        for ind in _ind_sequence(name, protocol):
            batch = _exact(protocol, instance, ind, cap)
            eager = _eager_exact(protocol, instance, ind, cap)
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
    assert len(first) == 9216 and built == []  # counted without building
    for k in (0, len(first) // 2, -1):
        cti = first[k]
        assert cti.code == first.codes[k]
        assert replay_witness(cti, protocol, instance, protocol.safety)
    assert len(built) == 3

    # on lockserver 4x4 at n_ctis 5000, safety's 10,000 codes are sampled
    # and the invariant's 1296 are exact; neither kind builds a CTI
    protocol, grammar, _ = all_benchmarks["lockserver"]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    monkeypatch.undo()
    result, batches, built, decoded = _spied_inference(
        monkeypatch, protocol, grammar, instance, InferenceConfig(seed=7, n_ctis=5000))
    assert result.succeeded and len(result.conjuncts) == 2
    sampled, exact = batches
    assert sampled.samples_attempted == 5000 and 0 < sampled.starts < 5000 and sampled.ctis
    assert exact.samples_attempted == exact.starts == 1296 and not exact.ctis
    assert built == [] and decoded == []
    for cti in sampled.ctis[:50]:
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
                    _exact(protocol, instance, ind, table=table)
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
            found += len(_samplers(protocol, instance, protocol.safety, 600, 10000, seed)[0])
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
    # on lockserver 4x4 the invariant's 1296 codes are past the draw budget
    # and the space is past the default limit, so the batch and the check
    # both sample; each conjunct's body is evaluated at most once per entry
    # of its table under each binding, in the search and in the check, each
    # of which has tables of its own
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    conjuncts = _conjuncts("lockserver", protocol)
    calls = _count_evaluations(monkeypatch)
    batch = generate_ctis(protocol, instance, conjunction(conjuncts), 1000, 10000,
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
    for n in (3000, 30):  # the exact set, then a sampled batch, on 2x2
        generate_ctis(protocol, small, protocol.safety, n, 10000, random.Random(1),
                      table=table)
    assert all(v.table is not None for v in table.verdicts[id(protocol.safety)].parts)
    shared = generate_ctis(protocol, big, protocol.safety, 3000, 10000, random.Random(3),
                           table=table)
    fresh = generate_ctis(protocol, big, protocol.safety, 3000, 10000, random.Random(3))
    reference, attempts, _ = _reference_draws(protocol, big, protocol.safety, 3000, 10000,
                                              random.Random(3))
    assert shared == fresh and fresh.samples_attempted == attempts == 3000
    assert fresh.ctis.codes == [c.code for c in reference] and len(fresh) > 0


def test_a_conjunct_over_the_limit_is_evaluated_directly(small_benchmarks):
    found = 0
    for name, (protocol, _, instance) in small_benchmarks.items():
        table = ctigen.WalkTable(protocol, instance, limit=1)
        for ind in _ind_sequence(name, protocol):
            assert _inside(table, ind) == _filter(protocol, instance, ind), name
            exact = _exact(protocol, instance, ind, table=table)
            assert exact == _exact(protocol, instance, ind), name
            for seed in (0, 1):
                by_code = _samplers(protocol, instance, ind, 600, 10000, seed, limit=1)
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
    # a sampled batch decodes only the states of its CTIs and of their
    # steps; a draw that fails safety is rejected by the verdict table and
    # never decoded
    protocol = lockserver[0]
    instance = parse_instance(LOCKSERVER_4X4, protocol)
    codec = state_codec(protocol, instance)
    decoded = []
    decode = codec.decode
    monkeypatch.setattr(codec, "decode", lambda code: decoded.append(code) or decode(code))
    batch = generate_ctis(protocol, instance, protocol.safety, 3000, 10000, random.Random(2))
    assert batch.samples_attempted == 3000 and len(batch) > 0
    assert state_codec(protocol, instance) is codec
    safe = compile_expr(protocol.safety, instance, codec.schema)
    posts = {codec.encode(c.step.post) for c in batch.ctis}
    unsafe = {k for k in decoded if safe(decode(k), {}) is not True}
    assert unsafe and unsafe == posts
    assert set(decoded) <= {c.code for c in batch.ctis} | posts
