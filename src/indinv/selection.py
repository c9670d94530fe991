"""Greedy lemma selection by counterexample elimination.

A lemma eliminates a CTI when the CTI's state falsifies the lemma. Each call
picks the single lemma with the highest elimination count; ties go to the
candidate with fewer literals, then the lexicographically smaller id.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .ctigen import CTI
from .evaluator import compile_expr, holds
from .instance import Instance
from .invgen import CandidateInvariant, LemmaRepository


def eliminates(lemma: CandidateInvariant, cti: CTI, instance: Instance) -> bool:
    return not holds(lemma.closed, cti.state, instance)


def _eliminated(lemma: CandidateInvariant, ctis: Sequence[CTI], instance: Instance) -> list[CTI]:
    f = compile_expr(lemma.closed, instance, ctis[0].state.schema)
    return [c for c in ctis if f(c.state, {}) is not True]


def choose_greedy(
    repo: LemmaRepository,
    ctis: Sequence[CTI],
    instance: Instance,
    exclude: frozenset[str] = frozenset(),
    workers: int = 1,
) -> tuple[CandidateInvariant, list[CTI]] | None:
    """Lemma with the maximum positive elimination count, or None if none."""
    lemmas = [l for l in repo if l.id not in exclude]
    if not lemmas or not ctis:
        return None
    if workers <= 1 or len(lemmas) <= 1:
        scored = ((l, _eliminated(l, ctis, instance)) for l in lemmas)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scored = list(
                zip(lemmas, pool.map(lambda l: _eliminated(l, ctis, instance), lemmas))
            )
    best: tuple[tuple[int, int, str], CandidateInvariant, list[CTI]] | None = None
    for lemma, elim in scored:
        if not elim:
            continue
        key = (-len(elim), len(lemma.literals), lemma.id)
        if best is None or key < best[0]:
            best = (key, lemma, elim)
    if best is None:
        return None
    return best[1], best[2]


@dataclass
class ElimMatrix:
    lemma_ids: list[str]
    cti_fingerprints: list[int]
    cells: list[list[bool]]  # cells[row][col], row per lemma

    @property
    def cell_count(self) -> int:
        return len(self.lemma_ids) * len(self.cti_fingerprints)

    def count(self, row: int) -> int:
        return sum(self.cells[row])


@dataclass
class CoverReport:
    matrix: ElimMatrix
    counts: dict[str, int]  # eliminations per lemma id
    uncoverable: int  # CTIs no lemma eliminates


def build_matrix(repo: LemmaRepository, ctis: Sequence[CTI], instance: Instance) -> ElimMatrix:
    lemma_ids = [l.id for l in repo]
    cells = [[eliminates(l, c, instance) for c in ctis] for l in repo]
    return ElimMatrix(lemma_ids, [c.fingerprint for c in ctis], cells)


def cover_report(repo: LemmaRepository, ctis: Sequence[CTI], instance: Instance) -> CoverReport:
    """Diagnostic elimination counts; never affects selection."""
    matrix = build_matrix(repo, ctis, instance)
    counts = {lid: matrix.count(i) for i, lid in enumerate(matrix.lemma_ids)}
    uncoverable = 0
    for col in range(len(matrix.cti_fingerprints)):
        if not any(row[col] for row in matrix.cells):
            uncoverable += 1
    return CoverReport(matrix, counts, uncoverable)
