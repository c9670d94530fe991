"""Greedy lemma selection by counterexample elimination.

A lemma eliminates a CTI when the CTI's state falsifies the lemma. Each call
picks the single lemma with the highest elimination count; ties go to the
candidate with fewer literals, then the lexicographically smaller id. Every
lemma is scored in full from its row over the CTIs' codes (``Rows``), built
only for the seeds that non-excluded lemmas use. A batch's CTIs are scored
by their codes alone, and the eliminated ones are returned as a subset of
the batch, so neither builds a CTI.
"""
from __future__ import annotations

from .ctigen import Ctis
from .instance import Instance
from .invgen import CandidateInvariant, LemmaRepository, Rows


def choose_greedy(
    repo: LemmaRepository,
    ctis: Ctis,
    instance: Instance,
    exclude: frozenset[str] = frozenset(),
) -> tuple[CandidateInvariant, Ctis] | None:
    """Lemma with the maximum positive elimination count, or None if none."""
    if not ctis:
        return None
    rows: dict[int, Rows] = {}  # by id of the lemma's grammar
    best: tuple[tuple[int, int, str], CandidateInvariant, int] | None = None
    for lemma in repo:
        if lemma.id in exclude:
            continue
        r = rows.get(id(lemma.grammar))
        if r is None:
            r = rows[id(lemma.grammar)] = Rows(ctis.codes, ctis.codec, lemma.grammar, instance)
        miss = r.full ^ r.clause(lemma.literals)
        key = (-miss.bit_count(), len(lemma.literals), lemma.id)
        if miss and (best is None or key < best[0]):
            best = (key, lemma, miss)
    if best is None:
        return None
    bits = bin(best[2])[:1:-1]  # bit k of the mask is character k
    return best[1], ctis.subset(k for k, bit in enumerate(bits) if bit == "1")
