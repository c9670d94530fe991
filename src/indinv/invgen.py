"""Candidate lemma sampling and filtering against the reachable states.

A candidate is a disjunction of distinct seed predicates, each negated with
probability one half, placed under the grammar's quantifier template. A
candidate survives only if it holds on every reachable state.

Both filtering and selection judge candidates by ``Rows``: one Python int per
seed and template binding whose bit i is the seed's value on state i of a
list. A candidate's row, whose bit i says whether it holds on state i, is
then a few whole-row ORs, ANDs and XORs; no candidate is evaluated state by
state.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import EngineError
from .evaluator import compile_expr
from .instance import Instance, State
from .reachability import ReachSet
from .syntax import (
    BoundRef,
    Expr,
    GrammarConfig,
    Not,
    Or,
    Quant,
    canonical_text,
    canonicalize,
    reads,
    to_str,
)


@dataclass(frozen=True)
class CandidateInvariant:
    literals: tuple[tuple[int, bool], ...]  # (seed index, negated)
    closed: Expr
    id: str
    grammar: GrammarConfig = field(compare=False, repr=False)


def build_candidate(
    grammar: GrammarConfig, literals: tuple[tuple[int, bool], ...]
) -> CandidateInvariant:
    parts = []
    for idx, negated in literals:
        seed = grammar.seeds[idx]
        parts.append(Not(seed) if negated else seed)
    body: Expr = parts[0] if len(parts) == 1 else Or(tuple(parts))
    closed = body
    for kind, var, sort in reversed(grammar.template):
        closed = Quant(kind, var, sort, closed)
    closed = canonicalize(closed)
    return CandidateInvariant(tuple(sorted(literals)), closed, to_str(closed), grammar)


def _is_tautological(grammar: GrammarConfig, literals) -> bool:
    # Seeds are stored canonicalized, so a literal cancels another exactly
    # when its canonical negation prints identically.
    texts = set()
    negated_texts = set()
    for idx, negated in literals:
        lit = Not(grammar.seeds[idx]) if negated else grammar.seeds[idx]
        texts.add(canonical_text(lit))
        negated_texts.add(canonical_text(Not(lit)))
    return bool(texts & negated_texts)


# Candidates by sorted literal set, for the last grammar drawn from; None
# marks a tautology. A grammar has few literal sets, but a round draws
# thousands of candidates.
_drawn: tuple[GrammarConfig | None, dict] = (None, {})


def sample_candidate(
    grammar: GrammarConfig, nterms: int, rng: random.Random
) -> CandidateInvariant:
    """Uniform draw of nterms distinct seeds, each negated with probability 1/2."""
    global _drawn
    nseeds = len(grammar.seeds)
    if not 1 <= nterms <= nseeds:
        raise ValueError(f"nterms {nterms} out of range 1..{nseeds}")
    drawn_grammar, memo = _drawn
    if drawn_grammar is not grammar:
        memo = {}
        _drawn = (grammar, memo)
    for _ in range(100):
        idxs = rng.sample(range(nseeds), nterms)
        literals = tuple((i, rng.random() < 0.5) for i in idxs)
        key = tuple(sorted(literals))
        if key not in memo:
            memo[key] = (
                None if _is_tautological(grammar, key) else build_candidate(grammar, key)
            )
        cand = memo[key]
        if cand is not None:
            return cand
    raise EngineError("grammar admits only tautological candidates at this size")


class LemmaRepository:
    """Ordered, id-deduplicated store of lemma invariants."""

    def __init__(self) -> None:
        self._lemmas: dict[str, CandidateInvariant] = {}  # by id, in insertion order

    def add(self, cand: CandidateInvariant) -> bool:
        if cand.id in self._lemmas:
            return False
        self._lemmas[cand.id] = cand
        return True

    def __contains__(self, lemma_id: str) -> bool:
        return lemma_id in self._lemmas

    def __len__(self) -> int:
        return len(self._lemmas)

    def __iter__(self) -> Iterator[CandidateInvariant]:
        return iter(self._lemmas.values())


class Rows:
    """Seed and clause truth values over a list of states, as Python ints.

    ``seed(i)`` is one row per template binding, in ``itertools.product``
    order, with bit k seed i's value on ``states[k]``; it is built on first
    use by evaluating the seed once per group of states that agree on the
    variables it reads and per binding of the template variables it mentions.
    The groups are dropped once every seed has its rows.
    """

    def __init__(self, states: Sequence[State], grammar: GrammarConfig, instance: Instance) -> None:
        self.states = states
        self.grammar = grammar
        self.full = (1 << len(states)) - 1
        self._instance = instance
        self._domains = [instance.domain(sort) for _, _, sort in grammar.template]
        self._groups: dict[frozenset[str], list[list]] = {}
        self._seeds: dict[int, list[int]] = {}

    def _grouped(self, names: frozenset[str]) -> list[list]:
        """[first state, bitmask] per distinct value of the named variables."""
        if names not in self._groups:
            pos = [self.states[0].schema.index(n) for n in sorted(names)]
            groups: dict[tuple, list] = {}
            for k, s in enumerate(self.states):
                groups.setdefault(tuple([s.values[j] for j in pos]), [s, 0])[1] |= 1 << k
            self._groups[names] = list(groups.values())
        return self._groups[names]

    def seed(self, idx: int) -> list[int]:
        if idx not in self._seeds:
            seed = self.grammar.seeds[idx]
            f = compile_expr(seed, self._instance, self.states[0].schema)
            groups = self._grouped(reads(seed))
            names = [var for _, var, _ in self.grammar.template]
            used = reads(seed, BoundRef)
            by_env: dict[tuple, int] = {}
            rows = []
            for combo in itertools.product(*self._domains):
                env = tuple((v, el) for v, el in zip(names, combo) if v in used)
                if env not in by_env:
                    # the groups' masks are disjoint, so their sum is their OR
                    by_env[env] = sum(mask for s, mask in groups if f(s, dict(env)))
                rows.append(by_env[env])
            self._seeds[idx] = rows
            if len(self._seeds) == len(self.grammar.seeds):
                self._groups.clear()  # every row is built; the masks would only hold memory
        return self._seeds[idx]

    def clause(self, literals: tuple[tuple[int, bool], ...]) -> int:
        """Bit k says whether the candidate with these literals holds on states[k]."""
        full = self.full
        lits = [(self.seed(idx), negated) for idx, negated in literals]
        rows = []
        for b in range(len(lits[0][0])):
            row = 0
            for seed_rows, negated in lits:
                row |= full ^ seed_rows[b] if negated else seed_rows[b]
            rows.append(row)
        # fold the template from the innermost quantifier out
        for (kind, _, _), dom in zip(reversed(self.grammar.template), reversed(self._domains)):
            op, d = (operator.and_ if kind == "forall" else operator.or_), len(dom)
            rows = [functools.reduce(op, rows[k:k + d]) for k in range(0, len(rows), d)]
        return rows[0]


# Rows over the last reach set filtered, for its grammar: every sampling
# round of one inference filters against the same reach set.
_reach_rows: Rows | None = None


def generate_lemma_invariants(
    reach: ReachSet,
    grammar: GrammarConfig,
    repo: LemmaRepository,
    n_lemmas: int,
    nterms: int,
    rng: random.Random,
) -> LemmaRepository:
    """Draw n_lemmas candidates and keep those true on every reachable state.

    Duplicate draws are discarded, not re-drawn; n_lemmas counts draws. Each
    fresh candidate is checked as it is drawn, so the repository's contents
    and order are a pure function of the rng stream.
    """
    global _reach_rows
    if not reach.states:
        raise ValueError("reachable set is empty")
    batch_ids: set[str] = set()
    for _ in range(n_lemmas):
        cand = sample_candidate(grammar, nterms, rng)
        if cand.id in repo or cand.id in batch_ids:
            continue
        batch_ids.add(cand.id)
        rows = _reach_rows
        if rows is None or rows.states is not reach.states or rows.grammar is not grammar:
            rows = _reach_rows = Rows(reach.states, grammar, reach.instance)
        if rows.clause(cand.literals) == rows.full:
            repo.add(cand)
    return repo


def term_size_schedule(grammar: GrammarConfig, round_no: int) -> int:
    """Term count for a sampling round; clamps to the last schedule entry."""
    if round_no < 1:
        raise ValueError("round number starts at 1")
    idx = min(round_no, len(grammar.max_terms)) - 1
    return grammar.max_terms[idx]
