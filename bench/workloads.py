"""The benchmark's workloads and the command line each one runs.

Every timed run is one ``indinv infer`` with the CLI's default flags; only
the protocol, grammar, instance, seed and output file vary.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str  # bundled protocol name
    grammar: str  # bundled grammar name
    instance: str  # sort domains, as --instance takes them
    check_mode: str  # induction mode the CLI must report: exhaustive | sampled
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lockserver", "lockserver", "lockserver", "Server=s1,s2 Client=c1,c2", "exhaustive",
            "paper's running example, 64 states: sparse CTIs, budget-bound walks, "
            "so only CTI generation costs",
        ),
        Workload(
            "election", "election", "election", "Node=n1,n2,n3", "exhaustive",
            "32768 states, the largest still enumerated: dense CTIs, real selection "
            "work and an exhaustive induction check",
        ),
        Workload(
            "lockserver-4x4", "lockserver", "lockserver",
            "Server=s1,s2,s3,s4 Client=c1,c2,c3,c4", "sampled",
            "1,048,576 states, above the enumeration limit: sampled induction "
            "check, largest reach set, cheap CTI samples",
        ),
    )
}


def infer_argv(w: Workload, seed: int, out: Path) -> list[str]:
    """Arguments to ``indinv`` for one run: default flags, no worker knobs."""
    return ["infer", w.protocol, "--grammar", w.grammar, "--instance", w.instance,
            "--seed", str(seed), "--out", str(out)]
