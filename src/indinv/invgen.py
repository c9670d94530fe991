"""Candidate lemma sampling and filtering against the reachable states.

A candidate is a disjunction of distinct seed predicates, each negated with
probability one half, placed under the grammar's quantifier template. A
candidate survives only if it holds on every reachable state; checking a
candidate stops at the first falsifying state.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import EngineError
from .evaluator import compile_expr
from .instance import State
from .reachability import ReachSet
from .syntax import (
    Expr,
    GrammarConfig,
    Not,
    Or,
    Quant,
    canonical_text,
    canonicalize,
    to_str,
)


@dataclass(frozen=True)
class CandidateInvariant:
    template: tuple[tuple[str, str, str], ...]
    literals: tuple[tuple[int, bool], ...]  # (seed index, negated)
    closed: Expr
    id: str

    def __str__(self) -> str:
        return self.id


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
    return CandidateInvariant(
        grammar.template, tuple(sorted(literals)), closed, to_str(closed)
    )


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


@dataclass
class GenStats:
    sampled: int = 0
    duplicates: int = 0
    evals: int = 0


def generate_lemma_invariants(
    reach: ReachSet,
    grammar: GrammarConfig,
    repo: LemmaRepository,
    n_lemmas: int,
    nterms: int,
    rng: random.Random,
    *,
    on_reject: Callable[[CandidateInvariant, State], None] | None = None,
    stats: GenStats | None = None,
) -> LemmaRepository:
    """Draw n_lemmas candidates and keep those true on every reachable state.

    Duplicate draws are discarded, not re-drawn; n_lemmas counts draws. Each
    fresh candidate is checked as it is drawn, so the repository's contents
    and order are a pure function of the rng stream.
    """
    if not reach.states:
        raise ValueError("reachable set is empty")
    stats = stats if stats is not None else GenStats()

    schema = reach.states[0].schema
    batch_ids: set[str] = set()
    for _ in range(n_lemmas):
        cand = sample_candidate(grammar, nterms, rng)
        stats.sampled += 1
        if cand.id in repo or cand.id in batch_ids:
            stats.duplicates += 1
            continue
        batch_ids.add(cand.id)
        f = compile_expr(cand.closed, reach.instance, schema)
        bad: State | None = None
        for s in reach.states:
            stats.evals += 1
            if f(s, {}) is not True:
                bad = s
                break
        if bad is None:
            repo.add(cand)
        elif on_reject is not None:
            on_reject(cand, bad)
    return repo


def term_size_schedule(grammar: GrammarConfig, round_no: int) -> int:
    """Term count for a sampling round; clamps to the last schedule entry."""
    if round_no < 1:
        raise ValueError("round number starts at 1")
    idx = min(round_no, len(grammar.max_terms)) - 1
    return grammar.max_terms[idx]
