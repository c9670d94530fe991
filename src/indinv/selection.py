"""Greedy lemma selection by counterexample elimination.

A lemma eliminates a CTI when the CTI's state falsifies the lemma. Each call
picks the single lemma with the highest elimination count; ties go to the
candidate with fewer literals, then the lexicographically smaller id. A
lemma's scan stops once it can no longer reach the best count so far.
"""
from __future__ import annotations

from typing import Sequence

from .ctigen import CTI
from .evaluator import compile_expr, holds
from .instance import Instance
from .invgen import CandidateInvariant, LemmaRepository


def eliminates(lemma: CandidateInvariant, cti: CTI, instance: Instance) -> bool:
    return not holds(lemma.closed, cti.state, instance)


def _eliminated(
    lemma: CandidateInvariant, ctis: Sequence[CTI], instance: Instance, spare: int
) -> list[CTI]:
    """The CTIs lemma eliminates; [] as soon as more than spare survive it."""
    f = compile_expr(lemma.closed, instance, ctis[0].state.schema)
    elim = []
    for c in ctis:
        if f(c.state, {}) is not True:
            elim.append(c)
        elif spare:
            spare -= 1
        else:
            return []
    return elim


def choose_greedy(
    repo: LemmaRepository,
    ctis: Sequence[CTI],
    instance: Instance,
    exclude: frozenset[str] = frozenset(),
) -> tuple[CandidateInvariant, list[CTI]] | None:
    """Lemma with the maximum positive elimination count, or None if none."""
    if not ctis:
        return None
    best: tuple[tuple[int, int, str], CandidateInvariant, list[CTI]] | None = None
    for lemma in repo:
        if lemma.id in exclude:
            continue
        # one that can still tie is scanned in full: the tie-break may pick it
        elim = _eliminated(lemma, ctis, instance, len(ctis) - (len(best[2]) if best else 1))
        if not elim:
            continue
        key = (-len(elim), len(lemma.literals), lemma.id)
        if best is None or key < best[0]:
            best = (key, lemma, elim)
    if best is None:
        return None
    return best[1], best[2]
