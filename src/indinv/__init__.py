"""Inductive invariant inference for parameterized protocols on finite instances."""

from .ctigen import CTI, CtiBatch, generate_ctis, replay_witness
from .errors import EngineError
from .evaluator import evaluate, holds, initial_state, successors
from .infer import (
    InductionReport,
    InferenceConfig,
    InferenceResult,
    check_induction,
    infer_inductive_invariant,
)
from .instance import Instance, State, fingerprint, parse_instance, random_state
from .invgen import CandidateInvariant, LemmaRepository, generate_lemma_invariants, sample_candidate
from .parser import parse_expression, parse_grammar, parse_protocol
from .reachability import ReachSet, compute_reach
from .selection import choose_greedy
from .syntax import GrammarConfig, Protocol, canonicalize, to_str

__version__ = "0.1.0"

__all__ = [
    "CTI",
    "CandidateInvariant",
    "CtiBatch",
    "EngineError",
    "GrammarConfig",
    "InductionReport",
    "InferenceConfig",
    "InferenceResult",
    "Instance",
    "LemmaRepository",
    "Protocol",
    "ReachSet",
    "State",
    "canonicalize",
    "check_induction",
    "choose_greedy",
    "compute_reach",
    "evaluate",
    "fingerprint",
    "generate_ctis",
    "generate_lemma_invariants",
    "holds",
    "infer_inductive_invariant",
    "initial_state",
    "parse_expression",
    "parse_grammar",
    "parse_instance",
    "parse_protocol",
    "random_state",
    "replay_witness",
    "sample_candidate",
    "successors",
    "to_str",
]
