"""Candidate lemma sampling and filtering against the reachable states.

A candidate is a disjunction of distinct seed predicates, each negated or
not, placed under the grammar's quantifier template. A round draws up to
``n_lemmas`` distinct literal sets uniformly without replacement, so a grammar
with at most ``n_lemmas`` of them is listed whole. A candidate survives only
if it holds on every reachable state.

Both filtering and selection judge candidates by ``Rows``: one Python int per
seed and template binding whose bit i is the seed's value on the state of
code i of a list, the reach set's codes or a CTI batch's. A candidate's row,
whose bit i says whether it holds on that state, is then a few whole-row
ORs, ANDs and XORs; no candidate is evaluated state by state, and a seed is
evaluated once per distinct value of the variables it reads.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import sys
from typing import Iterator, Sequence

from .errors import SpecError
from .evaluator import compile_expr
from .instance import Instance, StateCodec
from .reachability import ReachSet
from .syntax import (
    BoundRef,
    Expr,
    GrammarConfig,
    Not,
    Or,
    Quant,
    Record,
    canonicalize,
    reads,
    to_str,
)


class CandidateInvariant(Record, hidden=("grammar",)):
    literals: tuple[tuple[int, bool], ...]  # (seed index, negated)
    closed: Expr
    id: str
    grammar: GrammarConfig


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


def literal_sets(grammar: GrammarConfig, nterms: int) -> int:
    """How many ways there are to pick nterms distinct seeds, each negated or
    not. A round draws from a range of that many by ``rng.sample``, which
    takes the range's len, so past ``sys.maxsize`` this raises SpecError."""
    nseeds = len(grammar.seeds)
    if not 1 <= nterms <= nseeds:
        raise ValueError(f"nterms {nterms} out of range 1..{nseeds}")
    count = math.comb(nseeds, nterms) << nterms
    if count > sys.maxsize:
        raise SpecError(f"max_terms {nterms}: {count} literal sets of {nseeds} seeds, "
                        f"more than a round can sample from ({sys.maxsize})")
    return count


def sample_candidate(grammar: GrammarConfig, nterms: int, rank: int) -> CandidateInvariant:
    """The candidate numbered rank among the literal sets of nterms seeds.

    The rank's high part numbers the seed combination in lexicographic order;
    its low nterms bits are the negations, bit j for the j-th chosen seed.
    """
    if not 0 <= rank < literal_sets(grammar, nterms):
        raise ValueError(f"rank {rank} out of range")
    combo, idxs, i = rank >> nterms, [], 0
    for left in range(nterms, 0, -1):
        # `after` combinations pick seed i next; the rank lies past them
        while combo >= (after := math.comb(len(grammar.seeds) - i - 1, left - 1)):
            combo -= after
            i += 1
        idxs.append(i)
        i += 1
    literals = tuple((idx, bool(rank >> j & 1)) for j, idx in enumerate(idxs))
    return build_candidate(grammar, literals)


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
    """Seed and clause truth values over a list of state codes, as Python ints.

    ``seed(i)`` is one row per template binding, in ``itertools.product``
    order, with bit k seed i's value on the state of ``codes[k]``. It is
    built on first use: the codes are grouped by the digits of the variables
    the seed reads, and the seed is evaluated once per group and per binding
    of the template variables it mentions, on ``codec.build`` of the group's
    first code with only those variables, a state that no row keeps. The
    groups are dropped once every seed has its rows.
    """

    def __init__(self, codes: Sequence[int], codec: StateCodec, grammar: GrammarConfig,
                 instance: Instance) -> None:
        self.codes, self.codec = codes, codec
        self.grammar = grammar
        self.full = (1 << len(codes)) - 1
        self._instance = instance
        self._domains = [instance.domain(sort) for _, _, sort in grammar.template]
        self._groups: dict[frozenset[str], list[list]] = {}
        self._seeds: dict[int, list[int]] = {}

    def _grouped(self, names: frozenset[str]) -> list[list]:
        """[first code, bitmask] per distinct digits of the named variables."""
        if names not in self._groups:
            codec = self.codec
            _, project = codec.projection([j for n in names for j in codec.var_leaves[n].values()])
            groups: dict[int, list] = {}
            for k, code in enumerate(self.codes):
                groups.setdefault(project(code), [code, 0])[1] |= 1 << k
            self._groups[names] = list(groups.values())
        return self._groups[names]

    def seed(self, idx: int) -> list[int]:
        if idx not in self._seeds:
            seed, codec = self.grammar.seeds[idx], self.codec
            f = compile_expr(seed, self._instance, codec.schema)
            names = [var for _, var, _ in self.grammar.template]
            used = reads(seed, BoundRef)
            keys = [tuple((v, el) for v, el in zip(names, combo) if v in used)
                    for combo in itertools.product(*self._domains)]
            envs = {key: dict(key) for key in keys}  # the distinct bindings it reads
            rows = dict.fromkeys(envs, 0)
            variables = reads(seed)
            read = sorted(map(codec.schema.index, variables))
            for code, mask in self._grouped(variables):
                s = codec.build(code, read)
                for key, env in envs.items():
                    if f(s, env):
                        rows[key] |= mask
            self._seeds[idx] = [rows[key] for key in keys]
            if len(self._seeds) == len(self.grammar.seeds):
                self._groups.clear()  # every row is built; the masks would only hold memory
        return self._seeds[idx]

    def clause(self, literals: tuple[tuple[int, bool], ...]) -> int:
        """Bit k says whether the candidate with these literals holds on the state of codes[k]."""
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
) -> int:
    """Draw min(n_lemmas, P) distinct literal sets and keep the candidates
    true on every reachable state; return how many sets were drawn.

    P is ``literal_sets(grammar, nterms)``: with P <= n_lemmas every literal
    set is drawn once, otherwise a uniform sample without replacement, so
    n_lemmas caps the distinct draws. The ranks come from one ``rng.sample``
    call and are judged in draw order, so the repository's contents and
    order are a pure function of the rng stream.
    """
    global _reach_rows
    if not reach.codes:
        raise ValueError("reachable set is empty")
    population = literal_sets(grammar, nterms)
    ranks = rng.sample(range(population), min(n_lemmas, population))
    for rank in ranks:
        cand = sample_candidate(grammar, nterms, rank)
        if cand.id in repo:
            continue
        rows = _reach_rows
        if rows is None or rows.codes is not reach.codes or rows.grammar is not grammar:
            rows = _reach_rows = Rows(reach.codes, reach.codec, grammar, reach.instance)
        if rows.clause(cand.literals) == rows.full:
            repo.add(cand)
    return len(ranks)


def term_size_schedule(grammar: GrammarConfig, round_no: int) -> int:
    """Term count for a sampling round; clamps to the last schedule entry."""
    if round_no < 1:
        raise ValueError("round number starts at 1")
    idx = min(round_no, len(grammar.max_terms)) - 1
    return grammar.max_terms[idx]
