"""Command-line front end.

Exit codes: 0 success (inference succeeded and validated, or check passed),
2 fail (inference or induction check failed or unchecked), 1 any error (usage,
bad files, parse or type errors, limits). Past --reach-limit states the
induction check samples: a pass is evidence, not proof, and with no sampled
state inside the conjunction (ind=0) the check is unchecked.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import benchmarks
from .errors import EngineError
from .infer import (
    InferenceConfig,
    check_induction,
    infer_inductive_invariant,
    render_result,
)
from .instance import format_state, parse_instance
from .parser import parse_conjuncts, parse_grammar, parse_protocol
from .reachability import compute_reach
from .syntax import to_str


def _resolve(path: str, kind: str) -> Path:
    """Use the path as given, or fall back to a bundled benchmark name."""
    p = Path(path)
    if p.exists():
        return p
    name = p.name.removesuffix(".proto").removesuffix(".grammar")
    if name in benchmarks.NAMES:
        return benchmarks.protocol_path(name) if kind == "proto" else benchmarks.grammar_path(name)
    raise EngineError(f"no such file: {path}")


def _load_protocol(args):
    proto_path = _resolve(args.protocol, "proto")
    protocol = parse_protocol(proto_path.read_text(encoding="utf-8"))
    name = proto_path.name.removesuffix(".proto")
    instance_text = args.instance
    if instance_text is None:
        instance_text = benchmarks.DEFAULT_INSTANCES.get(name)
    if instance_text is None:
        raise EngineError("missing --instance (e.g. --instance 'Server=s1,s2 Client=c1,c2')")
    instance = parse_instance(instance_text, protocol)
    return protocol, instance, name


def _at_least(minimum: int):
    """Argparse type of an integer no smaller than minimum."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("protocol", help="protocol file, or a bundled benchmark name")
    p.add_argument("--instance", help="sort domains, e.g. 'Server=s1,s2 Client=c1,c2'")
    p.add_argument("--reach-limit", type=_at_least(1), default=InferenceConfig.reach_limit,
                   help="bound on enumerated or reachable states and on one table's entries")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other error; 2 means a check failed."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="indinv",
        description="Infer inductive invariants for parameterized protocols "
                    "on finite instances.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="infer an inductive invariant")
    _add_common(p_infer)
    p_infer.add_argument("--grammar", required=True,
                         help="grammar file, or a bundled benchmark name")
    p_infer.add_argument("--seed", type=int, default=InferenceConfig.seed)
    p_infer.add_argument("--n-lemmas", type=_at_least(1), default=InferenceConfig.n_lemmas)
    p_infer.add_argument("--n-ctis", type=_at_least(1), default=InferenceConfig.n_ctis,
                         help="most codes of the candidate for an exact CTI set; "
                              "past that, the random walks per batch")
    p_infer.add_argument("--cti-cap", type=_at_least(1), default=InferenceConfig.cti_cap)
    p_infer.add_argument("--depth", type=_at_least(1), default=InferenceConfig.walk_depth,
                         help="most steps from a CTI to a state outside the candidate")
    p_infer.add_argument("--max-regen", type=_at_least(0), default=InferenceConfig.max_regen_rounds,
                         help="lemma regeneration rounds before giving up")
    p_infer.add_argument("--out", help="result file (default: standard output)")

    p_reach = sub.add_parser("reach", help="count reachable states")
    _add_common(p_reach)

    p_check = sub.add_parser("check", help="check a conjunct list for inductiveness")
    _add_common(p_check)
    p_check.add_argument("invariants", help="file with one conjunct per line")

    return ap


def cmd_infer(args) -> int:
    protocol, instance, name = _load_protocol(args)
    grammar_path = _resolve(args.grammar, "grammar")
    grammar = parse_grammar(grammar_path.read_text(encoding="utf-8"), protocol)
    config = InferenceConfig(
        n_lemmas=args.n_lemmas,
        n_ctis=args.n_ctis,
        cti_cap=args.cti_cap,
        walk_depth=args.depth,
        max_regen_rounds=args.max_regen,
        seed=args.seed,
        reach_limit=args.reach_limit,
    )
    t0 = time.perf_counter()
    result = infer_inductive_invariant(protocol, instance, grammar, config)
    induction = check_induction(protocol, instance, result.conjuncts, limit=args.reach_limit)
    elapsed = time.perf_counter() - t0

    content = render_result(result, induction, name)
    if args.out:
        Path(args.out).write_text(content, encoding="utf-8")
    else:
        sys.stdout.write(content)

    print(
        f"{name}: {result.status} conjuncts={len(result.conjuncts)} "
        f"time={elapsed:.1f}s induction={induction.describe()}"
    )
    if result.succeeded and induction.passed:
        return 0
    return 2


def cmd_reach(args) -> int:
    protocol, instance, _ = _load_protocol(args)
    reach = compute_reach(protocol, instance, args.reach_limit)
    print(len(reach))
    return 0


def cmd_check(args) -> int:
    protocol, instance, _ = _load_protocol(args)
    inv_path = Path(args.invariants)
    if not inv_path.exists():
        raise EngineError(f"no such file: {args.invariants}")
    conjuncts = parse_conjuncts(inv_path.read_text(encoding="utf-8"), protocol)
    if not conjuncts:
        raise EngineError(f"no conjuncts found in {args.invariants}")
    report = check_induction(protocol, instance, conjuncts, limit=args.reach_limit)
    print(f"initiation: {'pass' if report.initiation_ok else 'fail'}")
    if report.initiation_witness is not None:
        state, idx = report.initiation_witness
        print(f"  conjunct {idx + 1} fails at the initial state: {format_state(state)}")
    consecution = "fail" if not report.consecution_ok else "pass" if report.inside else "unchecked"
    print(f"consecution: {consecution}")
    if report.consecution_witness is not None:
        state, trans, idx = report.consecution_witness
        binding = ", ".join(el for _, el in trans.binding)
        print(f"  state: {format_state(state)}")
        print(f"  transition: {trans.action}({binding})")
        print(f"  violates conjunct {idx + 1}: {to_str(conjuncts[idx])}")
        print(f"  post-state: {format_state(trans.post)}")
    unchecked = not (report.strengthening_structural or report.inside)  # no state tested
    print(f"strengthening: {'unchecked' if unchecked else 'pass' if report.strengthening_ok else 'fail'}")
    if report.strengthening_witness is not None:
        print(f"  state satisfies the conjuncts but not safety: "
              f"{format_state(report.strengthening_witness)}")
    print(f"states checked: {report.states_checked} mode={report.mode} ind={report.inside}")
    return 0 if report.passed else 2


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "infer":
            return cmd_infer(args)
        if args.command == "reach":
            return cmd_reach(args)
        if args.command == "check":
            return cmd_check(args)
        raise AssertionError(f"unknown command {args.command}")
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
