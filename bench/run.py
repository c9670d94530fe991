"""Benchmark: time to a validated inductive invariant, end to end and per layer.

One workload, as the benchmark contract runs it:

    python3 bench/run.py --workload election --seed 7 --seconds 30 --trace 0

Every timed run is ``python3 -m indinv infer ...`` with the CLI's default
flags in a fresh interpreter, one at a time, timed from outside with
perf_counter. ``--trace 0`` repeats that command with the workload seed
for --seconds and reports the medians of the end-to-end metrics; it also
starts several set-up probes (import, parse and type-check, then exit).
``--trace 1`` makes one untraced and one traced run and reports per-layer
metrics: the traced run wraps the engine's public functions from outside
(bench/child.py), and a micro run times the evaluator over the reach set.
Every result file is checked against the oracle in tests/oracles.py and
against every other result file of the same seed; any failure counts
toward ``failed``. The last stdout line is the JSON result.

All workloads, interleaved across repetitions, with a results file:

    python3 bench/run.py --suite --reps 3 --seed 7 --out bench/out/BENCH.json
    python3 bench/run.py --suite --compare bench/out/BENCH_base.json

``--compare BASE --results NEW`` prints the ratios of two results files
without running anything.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from verdict import Verifier, parse_result
from workloads import ORACLES, OUT, ROOT, SRC, WORKLOADS, Workload, infer_argv

perf_counter = time.perf_counter
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 11
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "infer_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "conjuncts": "count",
}

PER_LAYER = {
    "ctigen.s": "s",
    "ctigen.calls": "count",
    "ctigen.samples": "count",
    "ctigen.ctis": "count",
    "ctigen.samples_per_s": "1/s",
    "invgen.s": "s",
    "invgen.draw_s": "s",
    "invgen.draws": "count",
    "invgen.fresh": "count",
    "invgen.kept": "count",
    "invgen.fresh_ratio": "ratio",
    "selection.s": "s",
    "selection.calls": "count",
    "selection.lemma_cti_pairs": "count",
    "infer.check_s": "s",
    "infer.check_states": "count",
    "infer.loop_self_s": "s",
    "infer.rounds": "count",
    "reachability.s": "s",
    "reachability.states": "count",
    "parser.s": "s",
    "evaluator.holds": "count",
    "evaluator.successors": "count",
    "evaluator.holds_per_s": "1/s",
    "evaluator.successors_per_s": "1/s",
    "instance.random_states": "count",
    "instance.fingerprints": "count",
    "trace.infer_s": "s",
    "trace.overhead_s": "s",
    "host.ref_loop_s": "s",
}


# metrics that depend on each span the traced run records
FROM_SPAN = {
    "parser.parse_protocol": ["parser.s"],
    "parser.parse_grammar": ["parser.s"],
    "parser.parse_instance": ["parser.s"],
    "infer.loop": ["infer.loop_self_s", "infer.rounds"],
    "infer.check": ["infer.check_s", "infer.check_states"],
    "reachability.compute_reach": ["reachability.s", "reachability.states"],
    "invgen.generate": ["invgen.s", "invgen.fresh", "invgen.kept", "invgen.fresh_ratio"],
    "invgen.draw": ["invgen.draw_s", "invgen.draws", "invgen.fresh", "invgen.fresh_ratio"],
    "ctigen.generate": ["ctigen.s", "ctigen.calls", "ctigen.samples", "ctigen.ctis",
                        "ctigen.samples_per_s"],
    "selection.choose": ["selection.s", "selection.calls", "selection.lemma_cti_pairs"],
}


def spawn(argv: list[str], deadline: float, **popen) -> tuple[subprocess.Popen, threading.Timer]:
    """Start a child that is killed if it would outlive the deadline."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, **popen)
    timer = threading.Timer(max(deadline - perf_counter(), 0.1), proc.kill)
    timer.start()
    return proc, timer


def timed_run(argv: list[str], deadline: float, err_path: Path) -> tuple[float, int, float, str]:
    """(wall s, exit code, peak RSS MB, stderr) of one child, timed from outside."""
    with open(err_path, "w+b") as err:
        t0 = perf_counter()
        proc, timer = spawn(argv, deadline, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        # wait4 reaped the child; tell Popen so that it never waits again
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return wall, proc.returncode, usage.ru_maxrss / 1024, stderr


def setup_probe(w: Workload, deadline: float) -> float:
    """Seconds from process start until the inputs are parsed and type-checked."""
    argv = [sys.executable, str(CHILD), "setup", w.protocol, w.grammar, w.instance]
    t0 = perf_counter()
    proc, timer = spawn(argv, deadline, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed


def ref_loop() -> float:
    """A fixed pure-Python loop; its time tracks host speed, as a diagnostic only."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - t0


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "indinv").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Runs one workload's commands and validates every result file."""

    def __init__(self, w: Workload, seed: int, deadline: float) -> None:
        self.w, self.seed, self.deadline = w, seed, deadline
        self.verifier = Verifier(w, seed)
        self.work = OUT / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        # result files of earlier runs with the same code and seed
        self.reference = OUT / "results" / f"{w.name}-{seed}-{src_digest()}.txt"
        self.attempted = 0
        self.failures: list[str] = []
        self.pending: list[tuple[int, str, str | None]] = []
        self.ref_loop: list[float] = []

    def _validate(self, rc: int, stderr: str, text: str | None) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-300:]}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        if text is None:
            return "no result file"
        problem = self.verifier.check(text)
        if problem:
            return problem
        if self.reference.exists():
            if self.reference.read_text(encoding="utf-8") != text:
                return f"result file differs from an earlier run with seed {self.seed}"
        else:
            self.reference.parent.mkdir(parents=True, exist_ok=True)
            self.reference.write_text(text, encoding="utf-8")
        return None

    def infer(self, traced_out: Path | None = None) -> dict[str, float]:
        """One infer command's sample; check_pending() validates its result later."""
        out = self.work / f"{self.w.name}.result"
        out.unlink(missing_ok=True)
        cli = infer_argv(self.w, self.seed, out)
        if traced_out is None:
            argv = [sys.executable, "-m", "indinv", *cli]
        else:
            argv = [sys.executable, str(CHILD), "trace", str(traced_out), "--", *cli]
        self.ref_loop.append(ref_loop())
        self.attempted += 1
        wall, rc, rss, stderr = timed_run(argv, self.deadline, self.work / "stderr.txt")
        text = out.read_text(encoding="utf-8") if out.exists() else None
        self.pending.append((rc, stderr, text))
        sample = {"infer_s": wall, "peak_rss_mb": rss}
        conjuncts = parse_result(text)[0].get("conjuncts", "") if text else ""
        if conjuncts.isdigit():
            sample["conjuncts"] = int(conjuncts)
        print(f"  {self.w.name} seed={self.seed} "
              + " ".join(f"{k}={v:.4g}" for k, v in sample.items())
              + f" ref_loop_s={self.ref_loop[-1]:.3f}", file=sys.stderr)
        return sample

    def check_pending(self) -> None:
        """Validate the results of the runs made since the last call."""
        for rc, stderr, text in self.pending:
            problem = self._validate(rc, stderr, text)
            if problem:
                self.failures.append(problem)
                print(f"  FAIL {self.w.name} seed={self.seed}: {problem}", file=sys.stderr)
        self.pending.clear()

    def setup_samples(self) -> list[float]:
        setup_probe(self.w, self.deadline)  # warm-up: fills the bytecode cache
        return [setup_probe(self.w, self.deadline) for _ in range(SETUP_PROBES)]

    def untraced(self, seconds: float) -> dict[str, list[float]]:
        """Infer samples for about ``seconds``, plus set-up samples."""
        samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
        samples["setup_s"] = self.setup_samples()
        t0 = perf_counter()
        walls: list[float] = []
        while True:
            t_run = perf_counter()
            for k, v in self.infer().items():
                samples[k].append(v)
            walls.append(perf_counter() - t_run)
            # start another run only if it is expected to end in time
            if perf_counter() - t0 + statistics.median(walls) > seconds:
                break
        self.check_pending()  # the oracle runs outside the timed window
        return samples

    def traced(self) -> dict[str, float]:
        """Per-layer metrics from one untraced and one traced run."""
        plain = self.infer()
        trace_file = self.work / f"{self.w.name}.trace.json"
        trace_file.unlink(missing_ok=True)
        traced = self.infer(trace_file)
        self.check_pending()
        micro_file = self.work / f"{self.w.name}.micro.json"
        argv = [sys.executable, str(CHILD), "micro", str(micro_file), self.w.protocol,
                self.w.instance]
        _, rc, _, stderr = timed_run(argv, self.deadline, self.work / "stderr.txt")
        if rc != 0:
            raise RuntimeError(f"micro run failed with exit code {rc}: {stderr[-300:]}")
        metrics = json.loads(micro_file.read_text(encoding="utf-8"))
        metrics["host.ref_loop_s"] = statistics.median(self.ref_loop)
        if trace_file.exists():
            metrics.update(layer_metrics(json.loads(trace_file.read_text(encoding="utf-8"))))
        metrics["trace.infer_s"] = traced["infer_s"]
        metrics["trace.overhead_s"] = traced["infer_s"] - plain["infer_s"]
        return metrics


def layer_metrics(trace: dict) -> dict[str, float]:
    """Self times and counts per layer from the traced run's spans."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1

    def layer_s(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    spanned = {
        "ctigen.s": layer_s("ctigen"),
        "ctigen.calls": calls.get("ctigen.generate", 0),
        "invgen.s": layer_s("invgen"),
        "invgen.draw_s": self_s.get("invgen.draw", 0.0),
        "invgen.draws": calls.get("invgen.draw", 0),
        "selection.s": layer_s("selection"),
        "selection.calls": calls.get("selection.choose", 0),
        "infer.check_s": self_s.get("infer.check", 0.0),
        "infer.loop_self_s": self_s.get("infer.loop", 0.0),
        "reachability.s": layer_s("reachability"),
        "parser.s": layer_s("parser"),
    }
    metrics = {k: float(v) for k, v in spanned.items()}
    metrics.update({k: float(v) for k, v in trace["counts"].items()})
    for key, unit in PER_LAYER.items():
        if unit == "count":
            metrics.setdefault(key, 0.0)  # counted, but never called
    if metrics["ctigen.s"] > 0:
        metrics["ctigen.samples_per_s"] = metrics["ctigen.samples"] / metrics["ctigen.s"]
    if metrics["invgen.draws"] > 0:
        metrics["invgen.fresh_ratio"] = metrics["invgen.fresh"] / metrics["invgen.draws"]
    # a layer whose wrapped function is gone, or whose arguments or result
    # could not be read, reports nothing rather than zero
    for name in trace["absent"]:
        for metric in FROM_SPAN.get(name.split(":")[0], [name]):
            metrics.pop(metric, None)
    if trace["absent"]:
        print(f"  absent from the trace: {', '.join(trace['absent'])}", file=sys.stderr)
    return metrics


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or commit
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def summarize(samples: dict[str, list[float]]) -> dict[str, dict]:
    return {
        k: {"value": statistics.median(v), "unit": END_TO_END[k], "n": len(v)}
        for k, v in samples.items() if v
    }


def with_units(metrics: dict[str, float]) -> dict[str, dict]:
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items() if k in PER_LAYER}


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    runner = Runner(w, args.seed, perf_counter() + DEADLINE_S)
    if args.trace:
        metrics = with_units(runner.traced())
    else:
        metrics = summarize(runner.untraced(args.seconds))
        print("samples: " + " ".join(f"{k}={m.pop('n')}" for k, m in metrics.items()))
    print(f"provenance: {json.dumps(provenance())}")
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_suite(args) -> int:
    names = list(WORKLOADS)
    samples = {n: {k: [] for k in END_TO_END} for n in names}
    runners = {}
    for rep in range(args.reps):
        # rotate the order so host drift spreads evenly over the workloads
        for n in names[rep % len(names):] + names[:rep % len(names)]:
            runner = runners.setdefault(n, Runner(WORKLOADS[n], args.seed, 0.0))
            runner.deadline = perf_counter() + DEADLINE_S
            for k, v in runner.untraced(args.seconds).items():
                samples[n][k].extend(v)
    results = {"provenance": provenance(), "seed": args.seed, "reps": args.reps,
               "seconds": args.seconds, "workloads": {}}
    for n in names:
        runner = runners[n]
        runner.deadline = perf_counter() + DEADLINE_S
        layers = with_units(runner.traced())
        e2e = summarize(samples[n])
        e2e["fail_frac"] = {"value": len(runner.failures) / runner.attempted, "unit": "ratio",
                            "n": runner.attempted}
        results["workloads"][n] = {
            "end_to_end": e2e,
            "per_layer": layers,
            "ref_loop_s": runner.ref_loop,
            "failures": runner.failures,
        }
    out = Path(args.out) if args.out else OUT / f"BENCH_{results['provenance']['commit'][:12]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print_results(results)
    print(f"wrote {out}")
    if args.compare:
        compare(json.loads(Path(args.compare).read_text(encoding="utf-8")), results)
    return 0 if all(not r["failures"] for r in results["workloads"].values()) else 1


def print_results(results: dict) -> None:
    print(f"provenance: {json.dumps(results['provenance'])}")
    for n, r in results["workloads"].items():
        for group in ("end_to_end", "per_layer"):
            cells = []
            for k, m in r[group].items():
                n_txt = f" n={m['n']}" if "n" in m else ""
                cells.append(f"{k}={m['value']:.6g} {m['unit']}{n_txt}")
            print(f"{n:<15} {group:<10} " + "  ".join(cells))
        self_times = {k: m["value"] for k, m in r["per_layer"].items()
                      if k in ("ctigen.s", "invgen.s", "selection.s", "infer.check_s",
                               "infer.loop_self_s", "reachability.s", "parser.s")}
        if self_times:
            print(f"{n:<15} largest self time: {max(self_times, key=self_times.get)}")


def compare(base: dict, new: dict) -> None:
    """Each metric's ratio new/base, one row per workload, base value beside it."""
    print(f"compare: base {base['provenance'].get('commit', '?')[:12]} "
          f"-> new {new['provenance'].get('commit', '?')[:12]}")
    for n, r in new["workloads"].items():
        b = base["workloads"].get(n)
        if b is None:
            print(f"{n:<15} (not in base)")
            continue
        for group in ("end_to_end", "per_layer"):
            cells = []
            for k, m in r[group].items():
                bm = b[group].get(k)
                if bm is None or bm["value"] == 0:
                    cells.append(f"{k} n/a (base {bm['value'] if bm else 'absent'})")
                else:
                    cells.append(f"{k} {m['value'] / bm['value']:.3f}x "
                                 f"(base {bm['value']:.6g} {bm['unit']})")
            print(f"{n:<15} {group:<10} " + "  ".join(cells))


def preflight() -> str | None:
    for needed in (SRC / "indinv" / "cli.py", ORACLES):
        if not needed.is_file():
            return f"missing {needed.relative_to(ROOT)}: run from a full checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure for about this long per workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true",
                    help="all workloads, interleaved, written to a results file")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--out", help="results file of --suite")
    ap.add_argument("--compare", help="previous results file to print ratios against")
    ap.add_argument("--results", help="with --compare: compare this file, run nothing")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that running children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare and args.results:
        compare(json.loads(Path(args.compare).read_text(encoding="utf-8")),
                json.loads(Path(args.results).read_text(encoding="utf-8")))
        return 0
    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.suite:
        return run_suite(args)
    if args.workload is None:
        ap.error("give --workload, --suite, or --compare with --results")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
