"""Top-level inference loop and the finite-instance induction checker.

The loop keeps a candidate Ind, initially the safety predicate. While CTIs
of Ind exist it conjoins the repository lemma that eliminates the most of
them, then regenerates CTIs against the strengthened candidate. When no
lemma helps, it resamples the repository at the next term size a bounded
number of times before giving up; a failed run still returns the partial
conjunction since its lemmas are invariants in their own right.

One ``WalkTable`` serves every CTI search of the run. Its verdict tables,
each of at most ``reach_limit`` entries, persist across rounds; when the
instance has no more states than ``n_ctis`` a search is skipped when the
table shows that no step leaves Ind. Success means no CTI was found by
sampling, or that the table proved none exists; ``check_induction``, with
tables of its own, then validates the result on the instance, exhaustively
when the state space fits its limit and by sampling otherwise.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .ctigen import CTI, Verdicts, WalkTable, generate_ctis
from .errors import ConfigError, UnsafeProtocolError
from .evaluator import Transition, compile_expr, enabled, holds, initial_state
from .instance import (
    Instance,
    State,
    fingerprint,
    format_state,
    state_codec,
    state_schema,
    state_space_size,
)
from .invgen import (
    GenStats,
    LemmaRepository,
    generate_lemma_invariants,
    term_size_schedule,
)
from .reachability import ReachSet, compute_reach
from .selection import choose_greedy
from .syntax import And, Expr, GrammarConfig, Protocol, canonical_text, to_str


@dataclass
class InferenceConfig:
    n_lemmas: int = 15000
    n_ctis: int = 50000
    cti_cap: int = 10000
    walk_depth: int = 3
    max_regen_rounds: int = 3
    seed: int = 0
    reach_limit: int = 1_000_000

    def validate(self) -> None:
        positive = {
            "n_lemmas": self.n_lemmas,
            "n_ctis": self.n_ctis,
            "cti_cap": self.cti_cap,
            "walk_depth": self.walk_depth,
            "reach_limit": self.reach_limit,
        }
        for name, value in positive.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.max_regen_rounds < 0:
            raise ConfigError("max_regen_rounds must be non-negative")

    def describe(self) -> str:
        return (
            f"n_lemmas={self.n_lemmas} n_ctis={self.n_ctis} cti_cap={self.cti_cap} "
            f"walk_depth={self.walk_depth} max_regen_rounds={self.max_regen_rounds}"
        )


@dataclass
class InferenceResult:
    status: str  # 'success' | 'fail'
    conjuncts: list[Expr]  # safety first, then lemmas in selection order
    ctis_eliminated: int
    rounds: int  # lemma sampling rounds executed
    lemmas_sampled: int
    lemmas_kept: int
    seed: int
    config: InferenceConfig
    instance_text: str

    @property
    def succeeded(self) -> bool:
        return self.status == "success"

    def conjunct_texts(self) -> list[str]:
        return [to_str(c) for c in self.conjuncts]


def conjunction(conjuncts: list[Expr]) -> Expr:
    return conjuncts[0] if len(conjuncts) == 1 else And(tuple(conjuncts))


def infer_inductive_invariant(
    protocol: Protocol,
    instance: Instance,
    grammar: GrammarConfig,
    config: InferenceConfig,
) -> InferenceResult:
    """Run the inference loop; one config always gives one result."""
    config.validate()
    rng = random.Random(config.seed)
    safety = protocol.safety
    conjuncts: list[Expr] = [safety]
    chosen_ids = {canonical_text(safety)}
    repo = LemmaRepository()
    gen_stats = GenStats()
    reach: ReachSet | None = None
    rounds = regens = eliminated_total = 0
    small = state_space_size(protocol, instance) <= config.n_ctis
    table = WalkTable(protocol, instance, config.reach_limit)

    def ctis_for(current: Expr) -> list[CTI]:
        if small and table.closed(current):
            return []  # no walk can leave current: the search would be empty
        return generate_ctis(
            protocol, instance, current, config.n_ctis, config.walk_depth,
            config.cti_cap, rng, table=table,
        ).ctis

    def sample_round() -> None:
        nonlocal reach, rounds
        if reach is None:
            reach = compute_reach(protocol, instance, config.reach_limit)
            safe = compile_expr(safety, instance, state_schema(protocol))
            for s in reach.states:
                if safe(s, {}) is not True:
                    raise UnsafeProtocolError(
                        f"safety predicate fails at reachable state: {format_state(s)}"
                    )
        rounds += 1
        nterms = min(term_size_schedule(grammar, rounds), len(grammar.seeds))
        generate_lemma_invariants(
            reach, grammar, repo, config.n_lemmas, nterms, rng, stats=gen_stats,
        )

    remaining = ctis_for(safety)
    if remaining:
        sample_round()
    status = "success"
    while remaining:
        choice = choose_greedy(repo, remaining, instance, exclude=frozenset(chosen_ids))
        if choice is None:
            if regens >= config.max_regen_rounds:
                status = "fail"
                break
            regens += 1
            sample_round()
            continue
        lemma, eliminated = choice
        conjuncts.append(lemma.closed)
        chosen_ids.add(lemma.id)
        eliminated_total += len(eliminated)
        remaining = ctis_for(conjunction(conjuncts))

    return InferenceResult(
        status, conjuncts, eliminated_total, rounds,
        gen_stats.sampled, len(repo), config.seed, config, instance.text(),
    )


# ---------------------------------------------------------------------------
# Induction checking


@dataclass
class InductionReport:
    initiation_ok: bool
    initiation_witness: tuple[State, int] | None  # (state, conjunct index)
    consecution_ok: bool
    consecution_witness: tuple[State, Transition, int] | None
    strengthening_ok: bool
    strengthening_structural: bool
    strengthening_witness: State | None
    states_checked: int
    mode: str

    @property
    def passed(self) -> bool:
        return self.initiation_ok and self.consecution_ok and self.strengthening_ok

    def describe(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return f"{verdict} mode={self.mode} states={self.states_checked}"


def check_induction(
    protocol: Protocol,
    instance: Instance,
    conjuncts: list[Expr],
    *,
    limit: int = 1_000_000,
    n_samples: int = 20000,
    seed: int = 0,
) -> InductionReport:
    """Initiation, consecution, and strengthening on one finite instance.

    When the state space has at most ``limit`` states the check enumerates
    every type-correct state (consecution over unreachable states included,
    as induction requires) and is exhaustive; otherwise it draws
    ``n_samples`` random states, and a pass is evidence, not proof. The
    report's ``mode`` says which. Strengthening passes structurally when the
    first conjunct is the safety predicate, else it is checked state by
    state.
    """
    if not conjuncts:
        raise ConfigError("induction check needs at least one conjunct")

    init = initial_state(protocol, instance)
    failing = next((i for i, c in enumerate(conjuncts) if not holds(c, init, instance)), None)
    initiation_witness = None if failing is None else (init, failing)

    structural = canonical_text(conjuncts[0]) == canonical_text(protocol.safety)

    codec = state_codec(protocol, instance)
    if codec.size <= limit:
        mode, codes = "exhaustive", range(codec.size)
    else:
        rng = random.Random(seed)
        mode, codes = "sampled", (codec.random_code(rng) for _ in range(n_samples))

    # Scan every state: each condition gets a complete verdict with the
    # first witness found, not just whichever failure happens to come first.
    # Codes are judged by this check's own verdict tables, and only states
    # that satisfy every conjunct are built.
    verdicts = [Verdicts(c, codec, instance, limit).holds for c in conjuncts]
    safe = compile_expr(protocol.safety, instance, codec.schema)

    def violated(code: int) -> int | None:
        return next((i for i, check in enumerate(verdicts) if not check(code)), None)

    consecution_ok = True
    consecution_witness: tuple[State, Transition, int] | None = None
    strengthening_ok = True
    strengthening_witness: State | None = None
    checked = 0
    for code in codes:
        checked += 1
        if violated(code) is not None:
            continue
        s = codec.decode(code)
        if not structural and strengthening_ok and safe(s, {}) is not True:
            strengthening_ok = False
            strengthening_witness = s
        if consecution_ok:
            for name, apply, binding, env in enabled(s, protocol, instance):
                post = apply(s, env)
                i = violated(codec.encode(post))
                if i is not None:
                    consecution_ok = False
                    t = Transition(name, binding, fingerprint(s), post)
                    consecution_witness = (s, t, i)
                    break

    return InductionReport(
        initiation_witness is None, initiation_witness,
        consecution_ok, consecution_witness,
        strengthening_ok, structural, strengthening_witness,
        checked, mode,
    )


# ---------------------------------------------------------------------------
# Reporting


def render_result(
    result: InferenceResult,
    induction: InductionReport | None,
    protocol_name: str,
) -> str:
    """Stable, timing-free result file body; byte-identical across reruns."""
    lines = [
        f"status: {result.status}",
        f"protocol: {protocol_name}",
        f"instance: {result.instance_text}",
        f"seed: {result.seed}",
        f"config: {result.config.describe()}",
        f"conjuncts: {len(result.conjuncts)}",
    ]
    for i, text in enumerate(result.conjunct_texts(), start=1):
        lines.append(f"conjunct {i}: {text}")
    lines.append(f"rounds: {result.rounds}")
    lines.append(f"lemmas_sampled: {result.lemmas_sampled}")
    lines.append(f"lemmas_kept: {result.lemmas_kept}")
    lines.append(f"ctis_eliminated: {result.ctis_eliminated}")
    if induction is not None:
        lines.append(f"induction: {induction.describe()}")
    return "\n".join(lines) + "\n"
