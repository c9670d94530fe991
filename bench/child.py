"""Child-process entry points for bench/run.py.

Each mode runs in a fresh interpreter, as a user's command does, with
``src`` on PYTHONPATH:

  child.py setup PROTO GRAMMAR INSTANCE
      import the CLI, parse and type-check the protocol, grammar and
      instance, then print "ready"; the parent times it from outside.
  child.py trace OUT -- ARGV...
      run ``indinv.cli.main(ARGV)`` with the public functions of every layer
      wrapped under the names their callers look them up by; write the
      spans and counters to OUT as JSON and exit with main's exit code.
  child.py micro OUT PROTO INSTANCE
      time ``holds(safety, s)`` and ``successors(s)`` over the reach set.
"""
from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import Counter

perf_counter = time.perf_counter
MICRO_S = 0.5  # minimum timed seconds per micro-rate


def setup(proto: str, grammar: str, instance: str) -> None:
    import indinv.cli as cli
    from indinv import benchmarks

    protocol = cli.parse_protocol(benchmarks.protocol_path(proto).read_text(encoding="utf-8"))
    cli.parse_grammar(benchmarks.grammar_path(grammar).read_text(encoding="utf-8"), protocol)
    cli.parse_instance(instance, protocol)
    print("ready", flush=True)


class Tracer:
    """Spans of main-thread calls plus counters that are exact under threads.

    A span is [name, start, end, parent index]; the engine's pools call the
    evaluator from worker threads, so those calls are counted, never spanned.
    """

    def __init__(self) -> None:
        self.main = threading.get_ident()
        self.lock = threading.Lock()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()

    def add(self, key: str, n: int = 1) -> None:
        with self.lock:
            self.counts[key] += n

    @staticmethod
    def _patch(module: str, attr: str, make) -> bool:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        fn = getattr(mod, attr, None)
        if not callable(fn):
            return False
        setattr(mod, attr, make(fn))
        return True

    def span(self, module: str, attr: str, name: str, hook=None) -> None:
        """Wrap module.attr in a span; hook(args, kwargs) may return done(result)."""
        spans, stack, main, absent = self.spans, self.stack, self.main, self.absent

        def make(fn):
            def wrapper(*args, **kwargs):
                if threading.get_ident() != main:
                    return fn(*args, **kwargs)
                done = None
                if hook:
                    try:
                        done = hook(args, kwargs)
                    except (AttributeError, KeyError, TypeError):
                        absent.add(f"{name}:args")
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                if done:
                    try:
                        done(result)
                    except (AttributeError, KeyError, TypeError):
                        absent.add(f"{name}:result")
                return result
            return wrapper

        if not self._patch(module, attr, make):
            self.absent.add(name)

    def counter(self, modules: list[str], attr: str, key: str) -> None:
        """Count calls of attr as looked up in each module that has it."""
        lock, counts = self.lock, self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                with lock:
                    counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        if not any([self._patch(m, attr, make) for m in modules]):
            self.absent.add(key)


def _bind(fn, args, kwargs) -> dict:
    import inspect

    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(t: Tracer) -> None:
    import indinv.infer

    drawn: set = set()

    def on_ctis(args, kwargs):
        def done(batch):
            t.add("ctigen.samples", batch.samples_attempted)
            t.add("ctigen.ctis", len(batch.ctis))
        return done

    def on_draw(args, kwargs):
        return lambda cand: drawn.add(cand.id)

    gen_fn = getattr(indinv.infer, "generate_lemma_invariants", None)

    def on_gen(args, kwargs):
        repo = _bind(gen_fn, args, kwargs)["repo"]
        before = {lemma.id for lemma in repo}
        drawn.clear()

        def done(_):
            t.add("invgen.fresh", len(drawn - before))
            t.add("invgen.kept", len(repo) - len(before))
        return done

    select_fn = getattr(indinv.infer, "choose_greedy", None)

    def on_select(args, kwargs):
        a = _bind(select_fn, args, kwargs)
        lemmas = sum(1 for lemma in a["repo"] if lemma.id not in a["exclude"])
        t.add("selection.lemma_cti_pairs", lemmas * len(a["ctis"]))

    def on_reach(args, kwargs):
        return lambda reach: t.add("reachability.states", len(reach))

    def on_check(args, kwargs):
        return lambda report: t.add("infer.check_states", report.states_checked)

    def on_infer(args, kwargs):
        return lambda result: t.add("infer.rounds", result.rounds)

    for attr in ("parse_protocol", "parse_grammar", "parse_instance"):
        t.span("indinv.cli", attr, f"parser.{attr}")
    t.span("indinv.cli", "infer_inductive_invariant", "infer.loop", on_infer)
    t.span("indinv.cli", "check_induction", "infer.check", on_check)
    t.span("indinv.infer", "compute_reach", "reachability.compute_reach", on_reach)
    t.span("indinv.infer", "generate_lemma_invariants", "invgen.generate", on_gen)
    t.span("indinv.invgen", "sample_candidate", "invgen.draw", on_draw)
    t.span("indinv.infer", "generate_ctis", "ctigen.generate", on_ctis)
    t.span("indinv.infer", "choose_greedy", "selection.choose", on_select)

    users = ["indinv.infer", "indinv.ctigen", "indinv.invgen", "indinv.selection",
             "indinv.reachability"]
    t.counter(users, "holds", "evaluator.holds")
    t.counter(users, "successors", "evaluator.successors")
    t.counter(users, "random_state", "instance.random_states")
    t.counter(users, "fingerprint", "instance.fingerprints")


def trace(out: str, argv: list[str]) -> int:
    t = Tracer()
    install(t)
    import indinv.cli

    rc = indinv.cli.main(argv)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"spans": t.spans, "counts": t.counts, "absent": sorted(t.absent)}, f)
    return rc


def micro(out: str, proto: str, instance: str) -> None:
    from indinv import benchmarks
    from indinv.evaluator import holds, successors
    from indinv.instance import parse_instance
    from indinv.parser import parse_protocol
    from indinv.reachability import compute_reach

    protocol = parse_protocol(benchmarks.protocol_path(proto).read_text(encoding="utf-8"))
    inst = parse_instance(instance, protocol)
    states = compute_reach(protocol, inst).states
    safety = protocol.safety

    def rate(call) -> float:
        calls, t0 = 0, perf_counter()
        while True:
            for s in states:
                call(s)
            calls += len(states)
            elapsed = perf_counter() - t0
            if elapsed >= MICRO_S:
                return calls / elapsed

    result = {
        "evaluator.holds_per_s": rate(lambda s: holds(safety, s, inst)),
        "evaluator.successors_per_s": rate(lambda s: successors(s, protocol, inst)),
    }
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(*rest)
        return 0
    if mode == "trace":
        out, sep, cli_argv = rest[0], rest[1], rest[2:]
        if sep != "--":
            raise SystemExit("usage: child.py trace OUT -- ARGV...")
        return trace(out, cli_argv)
    if mode == "micro":
        micro(*rest)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
