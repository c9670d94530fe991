"""Top-level inference loop and the finite-instance induction checker.

The loop keeps a candidate Ind, initially the safety predicate. While CTIs
of Ind exist, states of Ind with a successor outside it, it conjoins the
repository lemma that eliminates the most of them, then regenerates CTIs
against the strengthened candidate. When no lemma helps, it resamples the
repository at the next term size a bounded number of times before giving
up; a failed run still returns the partial conjunction since its lemmas
are invariants in their own right.

One ``WalkTable`` serves every CTI search of the run. Its tables, each of at
most ``reach_limit`` entries, persist across rounds.
When Ind has at most ``n_ctis`` codes a batch is exact, so a last such
batch with no CTI means no step leaves Ind on the instance; otherwise
success means some random draws landed in Ind and none was a CTI, and a
last batch with no draw in Ind ends the run with ``fail``. Every batch
stays codes: selection scores its CTIs' codes and the loop counts the
eliminated ones, and safety is judged on the reachable codes, so a run
decodes no state. ``check_induction`` then validates the result on the
instance, exhaustively when the state space fits its limit and by sampling
otherwise, with a ``WalkTable`` of its own; its consecution is the CTI rule
of the batches, capped at one CTI.
"""
from __future__ import annotations

import random

from .ctigen import DEFAULT_LIMIT, CtiBatch, WalkTable, _ctis, generate_ctis
from .errors import ConfigError, UnsafeProtocolError
from .evaluator import Transition, holds, initial_state
from .instance import Instance, State, format_state
from .invgen import LemmaRepository, generate_lemma_invariants, term_size_schedule
from .reachability import ReachSet, compute_reach
from .selection import choose_greedy
from .syntax import And, Expr, GrammarConfig, Protocol, Record, canonical_text, to_str


class InferenceConfig(Record, frozen=False):
    n_lemmas: int = 15000
    n_ctis: int = 50000
    cti_cap: int = 10000
    max_regen_rounds: int = 3
    seed: int = 0
    reach_limit: int = DEFAULT_LIMIT

    def validate(self) -> None:
        positive = {
            "n_lemmas": self.n_lemmas,
            "n_ctis": self.n_ctis,
            "cti_cap": self.cti_cap,
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
            f"max_regen_rounds={self.max_regen_rounds}"
        )


class InferenceResult(Record, frozen=False):
    status: str  # 'success' | 'fail'
    conjuncts: list[Expr]  # safety first, then lemmas in selection order
    ctis_eliminated: int
    rounds: int  # lemma sampling rounds executed
    lemmas_sampled: int  # literal sets drawn, summed over rounds
    lemmas_kept: int
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
    repo = LemmaRepository()
    reach: ReachSet | None = None
    rounds = regens = eliminated_total = sampled = 0
    table = WalkTable(protocol, instance, config.reach_limit)

    def ctis_for(current: Expr) -> CtiBatch:
        return generate_ctis(
            protocol, instance, current, config.n_ctis, config.cti_cap, rng, table=table,
        )

    def sample_round() -> None:
        nonlocal reach, rounds, sampled
        if reach is None:
            reach = compute_reach(protocol, instance, config.reach_limit)
            safe = table.verdict(safety).holds
            unsafe = next((c for c in reach.codes if not safe(c)), None)
            if unsafe is not None:
                raise UnsafeProtocolError("safety predicate fails at reachable state: "
                                          + format_state(reach.codec.decode(unsafe)))
        rounds += 1
        nterms = min(term_size_schedule(grammar, rounds), len(grammar.seeds))
        sampled += generate_lemma_invariants(reach, grammar, repo, config.n_lemmas, nterms, rng)

    batch = ctis_for(safety)
    if batch.ctis:
        sample_round()
    status = "success"
    while batch.ctis:
        choice = choose_greedy(repo, batch.ctis, instance)
        if choice is None:
            if regens >= config.max_regen_rounds:
                status = "fail"
                break
            regens += 1
            sample_round()
            continue
        lemma, eliminated = choice
        conjuncts.append(lemma.closed)
        eliminated_total += len(eliminated)
        batch = ctis_for(conjunction(conjuncts))
    if not batch.starts:  # a batch with no draw in Ind shows nothing about Ind
        status = "fail"

    return InferenceResult(
        status, conjuncts, eliminated_total, rounds, sampled, len(repo), config,
        instance.text(),
    )


# ---------------------------------------------------------------------------
# Induction checking


class InductionReport(Record, frozen=False):
    """A condition holds when it has no witness. ``inside`` counts the checked
    codes that satisfy every conjunct: consecution is tested from those alone."""

    initiation_witness: tuple[State, int] | None  # (state, conjunct index)
    consecution_witness: tuple[State, Transition, int] | None
    strengthening_structural: bool
    strengthening_witness: State | None
    states_checked: int
    inside: int
    mode: str

    @property
    def initiation_ok(self) -> bool:
        return self.initiation_witness is None

    @property
    def consecution_ok(self) -> bool:
        return self.consecution_witness is None

    @property
    def strengthening_ok(self) -> bool:
        return self.strengthening_witness is None

    @property
    def passed(self) -> bool:
        return (self.initiation_ok and self.consecution_ok and self.strengthening_ok
                and self.inside > 0)

    def describe(self) -> str:
        unchecked = self.initiation_ok and not self.inside  # nothing else has a witness
        verdict = "pass" if self.passed else "unchecked" if unchecked else "fail"
        text = f"{verdict} mode={self.mode} states={self.states_checked}"
        return text + f" ind={self.inside}" if self.mode == "sampled" else text


def check_induction(
    protocol: Protocol,
    instance: Instance,
    conjuncts: list[Expr],
    *,
    limit: int = DEFAULT_LIMIT,
    n_samples: int = 20000,
    seed: int = 0,
) -> InductionReport:
    """Initiation, consecution, and strengthening on one finite instance.

    When the state space has at most ``limit`` states the check is
    exhaustive: the table's leaf search lists every type-correct state that
    satisfies the conjunction (unreachable ones included, as induction
    requires); otherwise it draws ``n_samples`` random states, and a pass is
    evidence, not proof. The report's ``mode`` says which. Consecution's
    witness is the first CTI among those codes, by the batches' rule, with
    the first conjunct its step's post-state violates. Strengthening passes
    structurally when the first conjunct is the safety predicate, else it is
    checked code by code against the safety's verdict table.
    """
    if not conjuncts:
        raise ConfigError("induction check needs at least one conjunct")

    init = initial_state(protocol, instance)
    failing = next((i for i, c in enumerate(conjuncts) if not holds(c, init, instance)), None)
    initiation_witness = None if failing is None else (init, failing)

    structural = canonical_text(conjuncts[0]) == canonical_text(protocol.safety)

    # Each condition gets a complete verdict over every checked code, with the
    # first witness in the order checked, then firing order. A fresh table,
    # never an inference's, judges codes.
    table = WalkTable(protocol, instance, limit)
    codec = table.codec
    if codec.size <= limit:
        inside = table.inside(conjuncts)
        mode, checked, good = "exhaustive", codec.size, set(inside).__contains__
    else:
        rng = random.Random(seed)
        mode, checked, good = "sampled", n_samples, table.good(conjuncts)
        inside = [c for c in [codec.random_code(rng) for _ in range(n_samples)] if good(c)]
    consecution_witness: tuple[State, Transition, int] | None = None
    for code, (i, post) in _ctis(table, inside, good, 1).items():  # at most one
        bad = next(k for k, c in enumerate(conjuncts) if not table.verdict(c).holds(post))
        consecution_witness = (codec.decode(code), table.transition(code, i, codec.decode(post)),
                               bad)
    weak = None
    if not structural:
        safe = table.verdict(protocol.safety).holds
        weak = next((c for c in inside if not safe(c)), None)

    return InductionReport(
        initiation_witness, consecution_witness,
        structural, None if weak is None else codec.decode(weak),
        checked, len(inside), mode,
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
        f"seed: {result.config.seed}",
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
