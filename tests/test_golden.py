"""Result files pinned byte for byte across engine changes.

Each file under ``data/golden`` is the output of ``indinv infer`` with CLI
defaults: on a bundled benchmark at its small test instance (for lockserver
that is also its default instance), or on lockserver 4x4, the benchmark's
largest workload and the only pinned one past ``--reach-limit`` states, so
its check samples. A refactor or a fast path that
keeps the engine's semantics leaves every file unchanged; the files are
never regenerated to make this test pass. A file changes only when the
printed result changes on purpose, and CHANGES.md then lists every changed
line.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from indinv.cli import main

from .conftest import SMALL_INSTANCES

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
SEEDS = (7, 401)
LOCKSERVER_4X4 = "Server=s1,s2,s3,s4 Client=c1,c2,c3,c4"


def test_every_golden_file_is_covered():
    expected = {f"{name}-small-{seed}.txt" for name in SMALL_INSTANCES for seed in SEEDS}
    expected |= {f"lockserver-4x4-{seed}.txt" for seed in SEEDS}
    assert {p.name for p in GOLDEN.iterdir()} == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
def test_result_file_matches_golden(name, seed, tmp_path, capsys):
    out = tmp_path / "result.txt"
    main([
        "infer", name, "--grammar", name, "--instance", SMALL_INSTANCES[name],
        "--seed", str(seed), "--out", str(out),
    ])
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}-small-{seed}.txt").read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_lockserver_4x4_result_file_matches_golden(seed, tmp_path, capsys):
    # its Ind has 10,000 codes and then 1296, so its CTI sets are exact,
    # while its 2^20 states are past the default limit, so its check
    # samples. ROADMAP item 1 (an exhaustive check by enumerating Ind) will
    # change its induction: line on purpose.
    out = tmp_path / "result.txt"
    main([
        "infer", "lockserver", "--grammar", "lockserver", "--instance", LOCKSERVER_4X4,
        "--seed", str(seed), "--out", str(out),
    ])
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"lockserver-4x4-{seed}.txt").read_bytes()
