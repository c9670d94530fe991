from __future__ import annotations

import itertools
import random

from indinv.ctigen import CTI, Ctis, WalkTable, generate_ctis
from indinv.evaluator import Transition, holds
from indinv.instance import parse_instance, state_codec
from indinv.invgen import LemmaRepository, build_candidate
from indinv.parser import parse_expression
from indinv.selection import choose_greedy
from indinv.syntax import GrammarConfig, canonicalize

from .oracles import eliminates


def _mk_cti(state, code):
    # eliminates only reads the state; the step is a stub
    return CTI(state, code, Transition("stub", (), code, state))


def _ctis(protocol, instance, codes):
    """A batch over the codes. Selection reads codes alone, so they need no
    steps."""
    return Ctis(WalkTable(protocol, instance), list(codes), {})


def _gone(lemma, ctis, instance):
    """The codes of the batch whose decoded states falsify the lemma."""
    return [c for c in ctis.codes if not holds(lemma.closed, ctis.codec.decode(c), instance)]


def _enum_setup(enum_protocol):
    """The instance, a grammar of x = e1 .. x = e5, and a batch over the
    codes of x = e1 .. e5 in that order."""
    instance = parse_instance("", enum_protocol)
    seeds = tuple(
        canonicalize(parse_expression(f"x = e{i}", enum_protocol)) for i in range(1, 6)
    )
    grammar = GrammarConfig((), seeds, (1, 2, 3))
    codec = state_codec(enum_protocol, instance)
    codes = sorted(range(codec.size), key=lambda c: codec.decode(c).value("x"))
    return instance, grammar, _ctis(enum_protocol, instance, codes)


def test_lemma_with_max_count_wins(enum_protocol):
    instance, grammar, ctis = _enum_setup(enum_protocol)
    l1 = build_candidate(grammar, ((2, False), (3, False), (4, False)))  # false on e1,e2
    l2 = build_candidate(grammar, ((0, False), (4, False)))  # false on e2,e3,e4
    repo = LemmaRepository()
    repo.add(l1)
    repo.add(l2)
    choice = choose_greedy(repo, ctis, instance)
    assert choice is not None
    lemma, eliminated = choice
    assert lemma.id == l2.id
    assert len(eliminated) == 3


def test_no_eliminator_returns_none(enum_protocol):
    instance, grammar, every = _enum_setup(enum_protocol)
    ctis = every.subset([0])
    repo = LemmaRepository()
    # true on every state, so it never eliminates anything
    always_true = build_candidate(
        GrammarConfig((), (canonicalize(parse_expression("true", enum_protocol)),), (1,)),
        ((0, False),),
    )
    repo.add(always_true)
    assert choose_greedy(repo, ctis, instance) is None
    assert choose_greedy(LemmaRepository(), ctis, instance) is None


def test_tie_breaks_prefer_fewer_literals_then_smaller_id(enum_protocol):
    instance, grammar, every = _enum_setup(enum_protocol)
    ctis = every.subset([0, 1])
    one_literal = build_candidate(grammar, ((2, False),))  # x = e3
    two_literals = build_candidate(grammar, ((2, False), (3, False)))  # x = e3 \/ x = e4
    repo = LemmaRepository()
    repo.add(two_literals)
    repo.add(one_literal)
    lemma, eliminated = choose_greedy(repo, ctis, instance)
    assert lemma.id == one_literal.id
    assert len(eliminated) == 2

    # same literal count: lexicographically smaller id wins
    e3 = build_candidate(grammar, ((2, False),))
    e4 = build_candidate(grammar, ((3, False),))
    repo2 = LemmaRepository()
    repo2.add(e4)
    repo2.add(e3)
    lemma2, _ = choose_greedy(repo2, ctis, instance)
    assert lemma2.id == min(e3.id, e4.id)


def test_excluded_ids_are_skipped(enum_protocol):
    instance, grammar, every = _enum_setup(enum_protocol)
    ctis = every.subset([0])
    best = build_candidate(grammar, ((1, False),))
    repo = LemmaRepository()
    repo.add(best)
    assert choose_greedy(repo, ctis, instance) is not None
    assert choose_greedy(repo, ctis, instance, exclude=frozenset([best.id])) is None


def test_eliminates_examples(lockserver):
    protocol, grammar, instance = lockserver
    a1 = build_candidate(grammar, ((0, True), (1, True)))
    true_lemma = build_candidate(
        GrammarConfig((), (canonicalize(parse_expression("true", protocol)),), (1,)),
        ((0, False),),
    )
    safe_batch = generate_ctis(
        protocol, instance, protocol.safety, 5000, 10000, random.Random(0)
    )
    assert len(safe_batch) > 0
    eliminated_by_a1 = 0
    for cti in safe_batch.ctis:
        # a CTI of Safe satisfies Safe, so Safe itself never eliminates it
        assert not eliminates_safe(protocol, cti, instance)
        assert not eliminates(true_lemma, cti, instance)
        if eliminates(a1, cti, instance):
            eliminated_by_a1 += 1
    assert eliminated_by_a1 > 0


def eliminates_safe(protocol, cti, instance):
    return not holds(protocol.safety, cti.state, instance)


def test_eliminates_the_locked_and_held_state(lockserver):
    # the state with locked[s1] and s1 in held[c1] falsifies the known lemma
    from indinv.instance import MapV, State, state_schema

    protocol, grammar, instance = lockserver
    a1 = build_candidate(grammar, ((0, True), (1, True)))
    schema = state_schema(protocol)
    state = State(
        schema,
        (
            MapV((("s1", True), ("s2", True))),
            MapV((("c1", frozenset({"s1"})), ("c2", frozenset()))),
        ),
    )
    assert eliminates(a1, _mk_cti(state, state_codec(protocol, instance).encode(state)), instance)


def test_cover_report_count_matches_per_cti_recount(lockserver):
    # the compiled elimination count against a per-CTI recount with holds
    protocol, grammar, instance = lockserver
    batch = generate_ctis(
        protocol, instance, protocol.safety, 5000, 10000, random.Random(1)
    )
    a1 = build_candidate(grammar, ((0, True), (1, True)))
    repo = LemmaRepository()
    repo.add(a1)
    recount = [c for c in batch.ctis if not holds(a1.closed, c.state, instance)]
    assert recount
    lemma, eliminated = choose_greedy(repo, batch.ctis, instance)
    assert lemma.id == a1.id
    assert [c.code for c in eliminated] == [c.code for c in recount]


def test_greedy_maximality_on_random_fixtures(lockserver):
    protocol, grammar, instance = lockserver
    batch = generate_ctis(
        protocol, instance, protocol.safety, 6000, 10000, random.Random(2)
    )
    pool = [
        build_candidate(grammar, tuple(zip(idxs, negs)))
        for n in (1, 2)
        for idxs in itertools.combinations(range(3), n)
        for negs in itertools.product([False, True], repeat=n)
    ]
    rng = random.Random(5)
    for _ in range(100):
        repo = LemmaRepository()
        for cand in rng.sample(pool, rng.randint(2, len(pool))):
            repo.add(cand)
        ks = rng.sample(range(len(batch.ctis)), rng.randint(1, min(20, len(batch.ctis))))
        ctis = batch.ctis.subset(ks)
        choice = choose_greedy(repo, ctis, instance)
        counts = {
            lemma.id: sum(1 for c in ctis if eliminates(lemma, c, instance))
            for lemma in repo
        }
        if choice is None:
            assert all(count == 0 for count in counts.values())
            continue
        lemma, eliminated = choice
        assert len(eliminated) == counts[lemma.id]
        assert counts[lemma.id] == max(counts.values())
        best = min(
            (
                (-count, len(l.literals), l.id)
                for l in repo
                if (count := counts[l.id]) > 0
            ),
        )
        assert (-counts[lemma.id], len(lemma.literals), lemma.id) == best


def test_eliminated_ctis_fail_the_strengthened_candidate(lockserver):
    # conjoining the chosen lemma makes every eliminated CTI violate the
    # new candidate, so the outer loop's CTI set shrinks monotonically
    from indinv.syntax import And

    protocol, grammar, instance = lockserver
    batch = generate_ctis(
        protocol, instance, protocol.safety, 6000, 10000, random.Random(3)
    )
    pool = [
        build_candidate(grammar, tuple(zip(idxs, negs)))
        for n in (1, 2)
        for idxs in itertools.combinations(range(3), n)
        for negs in itertools.product([False, True], repeat=n)
    ]
    repo = LemmaRepository()
    for cand in pool:
        repo.add(cand)
    lemma, eliminated = choose_greedy(repo, batch.ctis, instance)
    strengthened = And((protocol.safety, lemma.closed))
    assert eliminated
    for cti in eliminated:
        assert not holds(strengthened, cti.state, instance)


def test_choice_is_deterministic(enum_protocol):
    instance, grammar, ctis = _enum_setup(enum_protocol)
    repo = LemmaRepository()
    for i in range(5):
        repo.add(build_candidate(grammar, ((i, False),)))
    first = choose_greedy(repo, ctis, instance)
    for _ in range(5):
        again = choose_greedy(repo, ctis, instance)
        assert again[0].id == first[0].id
        assert again[1].codes == first[1].codes


def test_pruned_choice_matches_an_unpruned_recount(enum_protocol, lockserver):
    # choose_greedy scores every lemma by bit operations on its row over the
    # CTI states; a per-CTI recount of every lemma through holds must give
    # the same winner and the same eliminated list, ties included
    enum_instance, enum_grammar, enum_ctis = _enum_setup(enum_protocol)
    protocol, grammar, instance = lockserver
    batch = generate_ctis(protocol, instance, protocol.safety, 6000, 10000, random.Random(2))

    def pool(g, n_seeds, sizes):
        return [
            build_candidate(g, tuple(zip(idxs, negs)))
            for n in sizes
            for idxs in itertools.combinations(range(n_seeds), n)
            for negs in itertools.product([False, True], repeat=n)
        ]

    fixtures = [
        (pool(enum_grammar, 5, (1, 2, 3)), enum_ctis, enum_instance),
        (pool(grammar, 3, (1, 2)), batch.ctis, instance),
    ]
    rng = random.Random(11)
    ties = 0
    for _ in range(400):
        lemmas, cti_pool, inst = rng.choice(fixtures)
        repo = LemmaRepository()
        for cand in rng.sample(lemmas, rng.randint(1, len(lemmas))):
            repo.add(cand)
        k = rng.randint(1, min(12, len(cti_pool)))
        ctis = cti_pool.subset(rng.sample(range(len(cti_pool)), k))
        exclude = frozenset(l.id for l in repo if rng.random() < 0.1)
        full = {l.id: _gone(l, ctis, inst) for l in repo}
        keys = sorted(
            (-len(full[l.id]), len(l.literals), l.id)
            for l in repo
            if full[l.id] and l.id not in exclude
        )
        choice = choose_greedy(repo, ctis, inst, exclude=exclude)
        if not keys:
            assert choice is None
            continue
        lemma, eliminated = choice
        assert lemma.id == keys[0][2]
        assert eliminated.codes == full[lemma.id]
        ties += len(keys) > 1 and keys[0][0] == keys[1][0]
    assert ties > 0
