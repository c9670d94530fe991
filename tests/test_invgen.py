from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter

import pytest

from indinv import invgen
from indinv.errors import DuplicateSeedWarning, SpecError
from indinv.invgen import (
    LemmaRepository,
    build_candidate,
    generate_lemma_invariants,
    literal_sets,
    sample_candidate,
    term_size_schedule,
)
from indinv.parser import parse_expression, parse_grammar
from indinv.reachability import compute_reach
from indinv.syntax import BoundRef, GrammarConfig, canonical_text, reads, to_str

from . import oracles
from .conftest import fresh_draws

A1_ID_BODY = "forall s: Server. forall c: Client. ~(s in held[c]) \\/ ~locked[s]"


def _all_candidate_ids(grammar, nterms):
    ids = set()
    for idxs in itertools.combinations(range(len(grammar.seeds)), nterms):
        for negs in itertools.product([False, True], repeat=nterms):
            ids.add(build_candidate(grammar, tuple(zip(idxs, negs))).id)
    return ids


def _ranked_ids(grammar, nterms):
    return [sample_candidate(grammar, nterms, rank).id
            for rank in range(literal_sets(grammar, nterms))]


def test_single_term_candidates_form_six_outcomes(lockserver_grammar):
    ids = _ranked_ids(lockserver_grammar, 1)
    assert len(ids) == 6
    assert set(ids) == _all_candidate_ids(lockserver_grammar, 1)


def test_two_term_candidates_form_twelve_outcomes(lockserver_grammar):
    ids = _ranked_ids(lockserver_grammar, 2)
    assert len(ids) == len(set(ids)) == 12
    assert set(ids) == _all_candidate_ids(lockserver_grammar, 2)


def test_three_term_candidates_form_eight_outcomes(lockserver_grammar):
    ids = _ranked_ids(lockserver_grammar, 3)
    assert len(ids) == len(set(ids)) == 8
    assert set(ids) == _all_candidate_ids(lockserver_grammar, 3)


def test_ranks_number_combinations_then_negations(lockserver_grammar):
    # high part: the seed combination in lexicographic order; low bits: negations
    cands = [sample_candidate(lockserver_grammar, 2, rank) for rank in range(12)]
    assert [c.literals for c in cands[:4]] == [
        ((0, False), (1, False)), ((0, True), (1, False)),
        ((0, False), (1, True)), ((0, True), (1, True)),
    ]
    assert [sorted({i for i, _ in c.literals}) for c in cands[::4]] == [[0, 1], [0, 2], [1, 2]]


def test_sampler_is_deterministic(lockserver_grammar):
    a = sample_candidate(lockserver_grammar, 2, 5)
    b = sample_candidate(lockserver_grammar, 2, 5)
    assert a.id == b.id
    first = [c.id for c in fresh_draws(lockserver_grammar, 7, 2, random.Random(0))]
    assert first == [c.id for c in fresh_draws(lockserver_grammar, 7, 2, random.Random(0))]


def test_nterms_out_of_range(lockserver_grammar):
    with pytest.raises(ValueError):
        sample_candidate(lockserver_grammar, 4, 0)
    with pytest.raises(ValueError):
        sample_candidate(lockserver_grammar, 0, 0)
    with pytest.raises(ValueError):
        sample_candidate(lockserver_grammar, 1, 6)


def test_sampler_uniform_over_six_outcomes(lockserver_grammar):
    # 10,000 one-draw rounds; binomial tolerance of +-0.02 around 1/6
    rng = random.Random(123)
    counts = Counter(
        cand.id for _ in range(10000) for cand in fresh_draws(lockserver_grammar, 1, 1, rng)
    )
    assert len(counts) == 6 and sum(counts.values()) == 10000
    for count in counts.values():
        assert abs(count / 10000 - 1 / 6) <= 0.02


def _round_ranks(monkeypatch, reach, grammar, n_lemmas, nterms):
    """The ranks one round passes to the module's sample_candidate, and its return."""
    ranks = []

    def spy(grammar, nterms, rank):
        ranks.append(rank)
        return sample_candidate(grammar, nterms, rank)

    monkeypatch.setattr(invgen, "sample_candidate", spy)
    drawn = generate_lemma_invariants(
        reach, grammar, LemmaRepository(), n_lemmas, nterms, random.Random(3))
    return ranks, drawn


@pytest.mark.parametrize("nterms,population", [(1, 6), (2, 12), (3, 8)])
def test_a_round_of_at_least_p_draws_lists_every_literal_set_once(
    lockserver, monkeypatch, nterms, population
):
    protocol, grammar, instance = lockserver
    reach = compute_reach(protocol, instance)
    for n_lemmas in (population, population + 1, 15000):
        ranks, drawn = _round_ranks(monkeypatch, reach, grammar, n_lemmas, nterms)
        assert sorted(ranks) == list(range(population)) and drawn == population


def test_a_round_of_fewer_than_p_draws_draws_that_many_distinct_sets(lockserver, monkeypatch):
    protocol, grammar, instance = lockserver
    reach = compute_reach(protocol, instance)
    for n_lemmas in (1, 5, 11):
        ranks, drawn = _round_ranks(monkeypatch, reach, grammar, n_lemmas, 2)
        assert len(set(ranks)) == len(ranks) == drawn == n_lemmas
        assert all(0 <= rank < 12 for rank in ranks)


def test_tautological_pairs_are_rejected(lockserver_protocol):
    # a seed beside its negation adds only tautologies, so the later one goes
    for first, second in [("locked[s]", "~locked[s]"), ("~locked[s]", "locked[s]")]:
        text = f"template forall s: Server.\nseed {first}\nseed {second}\nmax_terms 1,2"
        with pytest.warns(DuplicateSeedWarning, match=f"negation of seed '{re.escape(first)}'"):
            grammar = parse_grammar(text, lockserver_protocol)
        assert [canonical_text(seed) for seed in grammar.seeds] == [first]


def test_known_lemma_survives_filtering(lockserver, lockserver_instance):
    protocol, grammar, instance = lockserver
    reach = compute_reach(protocol, instance)
    repo = LemmaRepository()
    generate_lemma_invariants(reach, grammar, repo, 2000, 2, random.Random(0))
    assert A1_ID_BODY in {l.id for l in repo}


def test_falsified_candidate_excluded_with_reachable_witness(lockserver):
    protocol, grammar, instance = lockserver
    reach = compute_reach(protocol, instance)
    repo = LemmaRepository()
    generate_lemma_invariants(reach, grammar, repo, 500, 1, random.Random(0))
    # no single-term candidate is an invariant of the lock service: each one
    # drawn is rejected, and has a reachable state that falsifies it
    assert len(repo) == 0
    rejected = [(cand, oracles.o_first_falsifier(cand.closed, reach.states, instance))
                for cand in fresh_draws(grammar, 500, 1, random.Random(0))]
    assert rejected
    oracle_reach = oracles.o_reach(protocol, instance)
    for cand, state in rejected:
        assert state is not None, cand.id
        assert oracles.freeze_state(state) in oracle_reach


def test_all_in_held_candidate_is_falsified_by_init(lockserver):
    protocol, grammar, instance = lockserver
    reach = compute_reach(protocol, instance)
    # seed index 1 is 's in held[c]'; un-negated it fails at the initial state
    cand = build_candidate(grammar, ((1, False),))
    repo = LemmaRepository()
    generate_lemma_invariants(reach, grammar, repo, 200, 1, random.Random(0))
    assert cand.id in {c.id for c in fresh_draws(grammar, 200, 1, random.Random(0))}
    assert cand.id not in repo
    init = oracles.state_from_assign(protocol, instance, oracles.o_initial(protocol, instance))
    assert oracles.o_first_falsifier(cand.closed, reach.states, instance) == init


def test_zero_draws_leave_repo_unchanged(lockserver):
    protocol, grammar, instance = lockserver
    reach = compute_reach(protocol, instance)
    repo = LemmaRepository()
    generate_lemma_invariants(reach, grammar, repo, 0, 1, random.Random(0))
    assert len(repo) == 0


def test_repository_dedups_by_id(lockserver_grammar):
    repo = LemmaRepository()
    cand = build_candidate(lockserver_grammar, ((0, True),))
    assert repo.add(cand)
    assert not repo.add(cand)
    assert len(repo) == 1
    assert cand.id in repo


def test_survivors_hold_on_reach_by_slow_second_pass(small_benchmarks):
    for name, (protocol, grammar, instance) in small_benchmarks.items():
        reach = compute_reach(protocol, instance)
        repo = LemmaRepository()
        nterms = min(2, len(grammar.seeds))
        generate_lemma_invariants(reach, grammar, repo, 400, nterms, random.Random(9))
        oracle_reach = oracles.o_reach(protocol, instance)
        for lemma in repo:
            for assign in oracle_reach.values():
                assert oracles.o_holds(lemma.closed, assign, instance), (name, lemma.id)


def test_seed_evaluations_stay_within_groups_times_bindings(small_benchmarks, monkeypatch):
    # Filtering evaluates each seed once per group of reach states that agree
    # on the variables it reads and per binding of the template variables it
    # mentions, once per reach set however many rounds and candidates use it.
    protocol, grammar, instance = small_benchmarks["election"]
    calls = Counter()
    compile_expr = invgen.compile_expr

    def counting(expr, *args):
        f = compile_expr(expr, *args)

        def counted(s, env):
            calls[expr] += 1
            return f(s, env)
        return counted

    monkeypatch.setattr(invgen, "compile_expr", counting)
    reach = compute_reach(protocol, instance)
    repo = LemmaRepository()
    for nterms in (1, 2, 3):
        generate_lemma_invariants(reach, grammar, repo, 300, nterms, random.Random(nterms))
    assert set(calls) == set(grammar.seeds)
    for seed in grammar.seeds:
        groups = {tuple(s.value(v) for v in sorted(reads(seed))) for s in reach.states}
        sorts = [sort for _, v, sort in grammar.template if v in reads(seed, BoundRef)]
        bindings = len(list(itertools.product(*map(instance.domain, sorts))))
        assert calls[seed] <= len(groups) * bindings, to_str(seed)
    # far below one evaluation per candidate and reachable state
    assert sum(calls.values()) < len(repo) * len(reach.states)


def test_a_grammar_too_large_to_sample_raises_spec_error_through_the_api(lockserver):
    # a GrammarConfig built directly skips check_grammar; lockserver's seeds
    # repeated to 66 at 32 terms give C(66, 32) * 2^32 literal sets, past
    # the sys.maxsize that rng.sample(range(P), k) can take the len of
    protocol, grammar, instance = lockserver
    seeds = (grammar.seeds * 22)[:66]
    big = GrammarConfig(grammar.template, seeds, (32,))
    reach = compute_reach(protocol, instance)
    message = f"max_terms 32: {math.comb(66, 32) << 32} literal sets of 66 seeds"
    with pytest.raises(SpecError, match=re.escape(message)):
        generate_lemma_invariants(reach, big, LemmaRepository(), 10, 32, random.Random(0))
    with pytest.raises(SpecError, match=re.escape(message)):
        literal_sets(big, 32)
    assert literal_sets(big, 8) == math.comb(66, 8) << 8  # within sys.maxsize


def test_term_size_schedule_clamps():
    g = GrammarConfig((), (parse_expression("true", _trivial_protocol()),), (1, 2, 3))
    assert term_size_schedule(g, 1) == 1
    assert term_size_schedule(g, 2) == 2
    assert term_size_schedule(g, 5) == 3
    g2 = GrammarConfig((), g.seeds, (2,))
    assert term_size_schedule(g2, 1) == 2
    assert term_size_schedule(g2, 9) == 2
    with pytest.raises(ValueError):
        term_size_schedule(g, 0)


def _trivial_protocol():
    from indinv.parser import parse_protocol

    return parse_protocol("var b : bool\ninit b = false\nsafety S: true")
