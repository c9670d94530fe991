"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Oracle-based criteria use the independent implementations in
tests/oracles.py, never the engine's own code paths.
"""
from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest

from indinv import benchmarks
from indinv.ctigen import generate_ctis, replay_witness
from indinv.evaluator import holds, successors
from indinv.infer import InferenceConfig, check_induction, infer_inductive_invariant
from indinv.invgen import (
    LemmaRepository,
    build_candidate,
    generate_lemma_invariants,
    literal_sets,
)
from indinv.parser import parse_expression
from indinv.reachability import compute_reach
from indinv.selection import choose_greedy
from indinv.syntax import And, BoolLit

from . import oracles
from .oracles import eliminates, enumerate_states
from .conftest import fresh_draws

A1_TEXT = "forall s: Server. forall c: Client. locked[s] -> ~(s in held[c])"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# -- 1. lock-server end-to-end ------------------------------------------------


def test_criterion_1_lockserver_end_to_end(lockserver):
    protocol, grammar, instance = lockserver
    reference = And((protocol.safety, parse_expression(A1_TEXT, protocol)))
    space = list(enumerate_states(protocol, instance))
    successes = 0
    max_time = 0.0
    for seed in range(10):
        cfg = InferenceConfig(n_lemmas=2000, n_ctis=5000, seed=seed)
        t0 = time.perf_counter()
        result = infer_inductive_invariant(protocol, instance, grammar, cfg)
        elapsed = time.perf_counter() - t0
        max_time = max(max_time, elapsed)
        if elapsed > 60 or result.status != "success" or len(result.conjuncts) != 2:
            continue
        found = And(tuple(result.conjuncts))
        if all(
            holds(found, s, instance) == holds(reference, s, instance) for s in space
        ):
            successes += 1
    _report(
        "1 (lock-server end-to-end)",
        successes >= 9,
        f"{successes}/10 seeds returned the 2-conjunct invariant, max {max_time:.1f}s",
    )


# -- 2. already-inductive short circuit ---------------------------------------


def test_criterion_2_already_inductive(all_benchmarks):
    protocol, grammar, instance = all_benchmarks["consensus"]
    t0 = time.perf_counter()
    result = infer_inductive_invariant(
        protocol, instance, grammar, InferenceConfig(n_lemmas=2000, n_ctis=5000, seed=0)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        result.status == "success"
        and len(result.conjuncts) == 1
        and result.ctis_eliminated == 0
        and elapsed <= 5
    )
    _report(
        "2 (already-inductive short-circuit)",
        ok,
        f"status={result.status} conjuncts={len(result.conjuncts)} "
        f"ctis={result.ctis_eliminated} time={elapsed:.2f}s",
    )


# -- 3. induction-check oracle equivalence ------------------------------------


def _witness_is_valid(protocol, instance, conjuncts, report) -> bool:
    if report.initiation_witness is not None:
        state, idx = report.initiation_witness
        assign = oracles.assign_from_state(state)
        if oracles.o_holds(conjuncts[idx], assign, instance):
            return False
    if report.consecution_witness is not None:
        state, transition, idx = report.consecution_witness
        assign = oracles.assign_from_state(state)
        if not all(oracles.o_holds(c, assign, instance) for c in conjuncts):
            return False
        combo = tuple(el for _, el in transition.binding)
        posts = [
            post
            for name, bind, post in oracles.o_successors(protocol, instance, assign)
            if name == transition.action and bind == combo
        ]
        if len(posts) != 1:
            return False
        if posts[0] != oracles.assign_from_state(transition.post):
            return False
        if oracles.o_holds(conjuncts[idx], posts[0], instance):
            return False
    return True


def test_criterion_3_induction_oracle_equivalence(small_benchmarks):
    pairs = 0
    mismatches = 0
    bad_witnesses = 0
    noninductive = Counter()
    for name, (protocol, grammar, instance) in small_benchmarks.items():
        conjunct_sets = [
            [protocol.safety],
            [protocol.safety, BoolLit(False)],
        ]
        if name == "lockserver":
            conjunct_sets.append(
                [protocol.safety, parse_expression(A1_TEXT, protocol)]
            )
        rng = random.Random(31)
        nterms = min(2, len(grammar.seeds))
        for cand in fresh_draws(grammar, 10, nterms, rng):
            conjunct_sets.append([protocol.safety, cand.closed])
            conjunct_sets.append([cand.closed])
        for conjuncts in conjunct_sets:
            report = check_induction(protocol, instance, conjuncts)
            i_ok, c_ok, s_ok = oracles.o_check_induction(protocol, instance, conjuncts)
            pairs += 1
            if (report.initiation_ok, report.consecution_ok, report.strengthening_ok) != (
                i_ok, c_ok, s_ok,
            ):
                mismatches += 1
                continue
            if not (i_ok and c_ok):
                noninductive[name] += 1
            if not _witness_is_valid(protocol, instance, conjuncts, report):
                bad_witnesses += 1
    enough = all(noninductive[name] >= 5 for name in small_benchmarks)
    _report(
        "3 (induction oracle equivalence)",
        mismatches == 0 and bad_witnesses == 0 and enough,
        f"{pairs} pairs, {mismatches} verdict mismatches, {bad_witnesses} bad "
        f"witnesses, non-inductive per benchmark {dict(noninductive)}",
    )


# -- 4. lemma soundness property ----------------------------------------------


def test_criterion_4_lemma_soundness(small_benchmarks):
    sampled_total = expected_total = 0
    admitted_violations = 0
    rejection_defects = 0
    per_benchmark = 2000
    for name, (protocol, grammar, instance) in small_benchmarks.items():
        reach = compute_reach(protocol, instance)
        oracle_reach = oracles.o_reach(protocol, instance)
        rng, replay = random.Random(17), random.Random(17)
        rejected: list = []
        repo = LemmaRepository()
        for nterms in (1, min(2, len(grammar.seeds))):
            before = {lemma.id for lemma in repo}
            sampled_total += generate_lemma_invariants(
                reach, grammar, repo, per_benchmark // 2, nterms, rng)
            expected_total += min(per_benchmark // 2, literal_sets(grammar, nterms))
            # each candidate the filter judged and did not keep, with the
            # first reachable state that falsifies it
            for cand in fresh_draws(grammar, per_benchmark // 2, nterms, replay, before):
                if cand.id not in repo:
                    rejected.append(
                        (cand, oracles.o_first_falsifier(cand.closed, reach.states, instance)))
        for lemma in repo:
            for assign in oracle_reach.values():
                if not oracles.o_holds(lemma.closed, assign, instance):
                    admitted_violations += 1
                    break
        for cand, state in rejected:
            if state is None or oracles.freeze_state(state) not in oracle_reach:
                rejection_defects += 1
    _report(
        "4 (lemma soundness)",
        sampled_total == expected_total and admitted_violations == 0 and rejection_defects == 0,
        f"{sampled_total} of {expected_total} literal sets sampled, "
        f"{admitted_violations} admitted violations, {rejection_defects} defective rejections",
    )


# -- 5. CTI validity property ---------------------------------------------------


def test_criterion_5_cti_validity(lockserver, small_benchmarks):
    protocol, _, instance = lockserver
    invalid = 0
    batches = 0

    def validate(proto, inst, ind, batch):
        nonlocal invalid, batches
        batches += 1
        for cti in batch.ctis:
            if not holds(ind, cti.state, inst) or not replay_witness(cti, proto, inst, ind):
                invalid += 1

    # batches across benchmarks and depths
    for name, (proto, _, inst) in small_benchmarks.items():
        batch = generate_ctis(proto, inst, proto.safety, 4000, 3, 10000, random.Random(1))
        validate(proto, inst, proto.safety, batch)

    # exhaustive depth-1 equality at the stated budget
    big = generate_ctis(protocol, instance, protocol.safety, 50000, 1, 10000, random.Random(0))
    validate(protocol, instance, protocol.safety, big)
    oracle_set = oracles.o_cti_depth1(protocol, instance, protocol.safety)
    generated = {oracles.freeze_state(c.state) for c in big.ctis}
    _report(
        "5 (CTI validity)",
        invalid == 0 and generated == oracle_set,
        f"{batches} batches all valid ({invalid} invalid), depth-1 set "
        f"{len(generated)}/{len(oracle_set)} matches the exhaustive oracle",
    )


# -- 6. greedy maximality property ----------------------------------------------


def test_criterion_6_greedy_maximality(lockserver):
    protocol, grammar, instance = lockserver
    batch = generate_ctis(protocol, instance, protocol.safety, 8000, 3, 10000, random.Random(2))
    assert len(batch) >= 10
    pool = [
        build_candidate(grammar, tuple(zip(idxs, negs)))
        for n in (1, 2)
        for idxs in itertools.combinations(range(3), n)
        for negs in itertools.product([False, True], repeat=n)
    ]
    rng = random.Random(8)
    violations = 0
    fixtures = 1000
    for _ in range(fixtures):
        repo = LemmaRepository()
        for cand in rng.sample(pool, rng.randint(2, len(pool))):
            repo.add(cand)
        ks = rng.sample(range(len(batch.ctis)), rng.randint(1, min(25, len(batch.ctis))))
        ctis = batch.ctis.subset(ks)
        choice = choose_greedy(repo, ctis, instance)
        counts = {
            lemma.id: sum(1 for c in ctis if eliminates(lemma, c, instance))
            for lemma in repo
        }
        if choice is None:
            if any(counts.values()):
                violations += 1
            continue
        lemma, eliminated = choice
        keys = [
            (-counts[l.id], len(l.literals), l.id) for l in repo if counts[l.id] > 0
        ]
        if counts[lemma.id] != max(counts.values()):
            violations += 1
        elif (-counts[lemma.id], len(lemma.literals), lemma.id) != min(keys):
            violations += 1
        elif len(eliminated) != counts[lemma.id]:
            violations += 1
    _report(
        "6 (greedy maximality)",
        violations == 0,
        f"{fixtures} fixtures, {violations} violations of maximality or tie-break",
    )


# -- 7. determinism ---------------------------------------------------------------


def test_criterion_7_byte_identical_result_files(tmp_path):
    from indinv.cli import main

    diffs = []
    for name in benchmarks.NAMES:
        out1 = tmp_path / f"{name}-1.txt"
        out2 = tmp_path / f"{name}-2.txt"
        args = [
            "infer", name, "--grammar", name, "--seed", "11",
            "--n-lemmas", "300", "--n-ctis", "800",
        ]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        if out1.read_bytes() != out2.read_bytes():
            diffs.append(name)
    _report(
        "7 (determinism)",
        not diffs,
        f"all {len(benchmarks.NAMES)} benchmarks byte-identical"
        if not diffs
        else f"differences in {diffs}",
    )


# -- 8. sampling distribution ------------------------------------------------------


def test_criterion_8_sampler_uniformity(lockserver_grammar):
    rng = random.Random(99)
    draws = 10000
    # one-draw rounds, each drawing one rank of the six
    counts = Counter(
        cand.id for _ in range(draws) for cand in fresh_draws(lockserver_grammar, 1, 1, rng)
    )
    worst = max(abs(c / draws - 1 / 6) for c in counts.values())
    _report(
        "8 (sampler uniformity)",
        len(counts) == 6 and worst <= 0.02,
        f"{len(counts)} outcomes, worst deviation {worst:.4f} (tolerance 0.02)",
    )
