from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from indinv import benchmarks
from indinv.cli import build_arg_parser, main
from indinv.ctigen import DEFAULT_LIMIT
from indinv.infer import InferenceConfig
from indinv.syntax import to_str

from . import oracles

A1_TEXT = "forall s: Server. forall c: Client. locked[s] -> ~(s in held[c])"
SAFE_TEXT = "forall ci: Client. forall cj: Client. held[ci] & held[cj] != {} -> ci = cj"
LOCKSERVER_4X4 = "Server=s1,s2,s3,s4 Client=c1,c2,c3,c4"
README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

FAST = ["--n-lemmas", "1500", "--n-ctis", "4000"]


def _infer_args(out, seed=0):
    return [
        "infer", "lockserver", "--grammar", "lockserver",
        "--seed", str(seed), "--out", str(out), *FAST,
    ]


def test_infer_success_exit_zero(tmp_path, capsys):
    out = tmp_path / "result.txt"
    assert main(_infer_args(out)) == 0
    content = out.read_text()
    assert "status: success" in content
    assert "conjuncts: 2" in content
    assert "induction: pass" in content
    stdout = capsys.readouterr().out
    assert "lockserver: success" in stdout


def test_infer_repeated_run_is_byte_identical(tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert main(_infer_args(out1, seed=7)) == 0
    assert main(_infer_args(out2, seed=7)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_infer_different_seeds_still_succeed(tmp_path):
    out = tmp_path / "r.txt"
    assert main(_infer_args(out, seed=5)) == 0


def test_infer_fail_exit_two(tmp_path):
    grammar = tmp_path / "useless.grammar"
    grammar.write_text("template forall s: Server.\nseed true\nmax_terms 1\n")
    out = tmp_path / "r.txt"
    code = main(
        [
            "infer", "lockserver", "--grammar", str(grammar),
            "--n-lemmas", "100", "--n-ctis", "1000", "--out", str(out),
        ]
    )
    assert code == 2
    assert "status: fail" in out.read_text()


def test_unsafe_protocol_exit_one_naming_the_state(tmp_path, capsys):
    from .test_infer import UNSAFE, UNSAFE_GRAMMAR

    proto, grammar = tmp_path / "unsafe.proto", tmp_path / "unsafe.grammar"
    proto.write_text(UNSAFE)
    grammar.write_text(UNSAFE_GRAMMAR)
    code = main(["infer", str(proto), "--grammar", str(grammar), "--instance", "A=a1,a2",
                 "--out", str(tmp_path / "r.txt"), *FAST])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: safety predicate fails at reachable state: s={a1}, t=true\n"


def test_election_on_four_nodes_succeeds_from_an_exact_last_round(tmp_path, capsys):
    # its last Ind has 1380 codes, at most --n-ctis, so its last batch is
    # exact and shows no CTI; walks from random codes there once found none
    # inside Ind, and the run ended fail with exit 2
    out = tmp_path / "r.txt"
    assert main(["infer", "election", "--grammar", "election", "--instance",
                 "Node=n1,n2,n3,n4", "--seed", "7", "--out", str(out)]) == 0
    assert "status: success" in out.read_text()


def test_missing_grammar_file_exit_one(capsys):
    code = main(["infer", "lockserver", "--grammar", "/nope/missing.grammar"])
    assert code == 1
    assert "/nope/missing.grammar" in capsys.readouterr().err


def test_missing_protocol_file_exit_one(capsys):
    code = main(["reach", "/nope/missing.proto", "--instance", "A=a1"])
    assert code == 1
    assert "/nope/missing.proto" in capsys.readouterr().err


def test_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.proto"
    bad.write_text("var x bool\n")
    code = main(["reach", str(bad), "--instance", ""])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sort_typed_variable_exit_one(tmp_path, capsys):
    bad = tmp_path / "elem.proto"
    bad.write_text("sort A\nvar x : A\ninit x = x\nsafety S: true\n")
    code = main(["reach", str(bad), "--instance", "A=a1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "variable x" in err and "map<Sort> -> A" in err and "Traceback" not in err


def test_reach_prints_count(capsys):
    assert main(["reach", "lockserver", "--instance", "Server=s1 Client=c1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_reach_matches_oracle_at_default_instance(capsys, lockserver):
    protocol, _, instance = lockserver
    assert main(["reach", "lockserver"]) == 0
    printed = int(capsys.readouterr().out.strip())
    assert printed == len(oracles.o_reach(protocol, instance))


def test_reach_limit_exit_one(capsys):
    assert main(["reach", "lockserver", "--reach-limit", "1"]) == 1
    assert "limit" in capsys.readouterr().err


def test_check_known_invariant_exit_zero(tmp_path, capsys):
    inv = tmp_path / "ind.txt"
    inv.write_text(f"{SAFE_TEXT}\n{A1_TEXT}\n")
    assert main(["check", "lockserver", str(inv)]) == 0
    out = capsys.readouterr().out
    assert "initiation: pass" in out
    assert "consecution: pass" in out
    assert "states checked: 64 mode=exhaustive" in out


@pytest.mark.parametrize("name, instance, size, ind", [
    ("election", "Node=n1,n2,n3,n4", 2 ** 24, 1380),
    ("declock", "Node=n1,n2,n3,n4", 2 ** 21, 22),
    ("lockserver", LOCKSERVER_4X4, 2 ** 20, 1296),
])
def test_seed7_invariants_pass_exhaustively_on_four_nodes(name, instance, size, ind, tmp_path,
                                                          capsys):
    # the leaf search lists Ind's codes alone, so a raised limit checks
    # every one of 2^20 to 2^24 states at a cost that follows Ind
    golden = (GOLDEN / f"{name}-small-7.txt").read_text()
    inv = tmp_path / "ind.txt"
    inv.write_text("".join(line.split(": ", 1)[1] + "\n" for line in golden.splitlines()
                           if line.startswith("conjunct ")))
    args = ["check", name, str(inv), "--instance", instance, "--reach-limit", "40000000"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "consecution: pass" in out and "strengthening: pass" in out
    assert f"states checked: {size} mode=exhaustive ind={ind}" in out


def test_check_past_the_limit_samples_like_infer(tmp_path, capsys):
    inv = tmp_path / "ind.txt"
    inv.write_text(f"{SAFE_TEXT}\n{A1_TEXT}\n")
    assert main(["check", "lockserver", str(inv), "--instance", LOCKSERVER_4X4]) == 0
    assert "states checked: 20000 mode=sampled" in capsys.readouterr().out


def test_sampled_check_with_no_state_inside_is_unchecked_exit_two(tmp_path, capsys):
    inv = tmp_path / "ind.txt"
    inv.write_text(f"{SAFE_TEXT}\n{A1_TEXT}\n")
    instance = "Server=s1,s2,s3,s4,s5 Client=c1,c2,c3,c4,c5"
    assert main(["check", "lockserver", str(inv), "--instance", instance]) == 2
    out = capsys.readouterr().out
    assert "consecution: unchecked" in out
    assert "strengthening: pass" in out  # structural: safety is listed first
    assert "states checked: 20000 mode=sampled ind=0" in out


def test_semantic_strengthening_checked_from_no_state_is_unchecked(tmp_path, capsys):
    # safety listed second, so strengthening is checked state by state, and
    # no sampled state satisfies the conjunction
    inv = tmp_path / "ind.txt"
    inv.write_text(f"{A1_TEXT}\n{SAFE_TEXT}\n")
    instance = "Server=s1,s2,s3,s4,s5 Client=c1,c2,c3,c4,c5"
    assert main(["check", "lockserver", str(inv), "--instance", instance]) == 2
    out = capsys.readouterr().out
    assert "consecution: unchecked" in out
    assert "strengthening: unchecked" in out
    assert "states checked: 20000 mode=sampled ind=0" in out


def test_no_command_digests_a_state(tmp_path, monkeypatch, capsys):
    # a state's identity is its code: infer, reach and check never call the
    # blake2b digest behind the public fingerprint
    import indinv.instance as instance_module

    calls = []
    digest = instance_module._digest
    monkeypatch.setattr(instance_module, "_digest",
                        lambda data: calls.append(data) or digest(data))
    out = tmp_path / "r.txt"
    assert main(["infer", "lockserver", "--grammar", "lockserver", "--seed", "7",
                 "--n-ctis", "3000", "--instance", LOCKSERVER_4X4, "--out", str(out)]) == 0
    assert main(["reach", "lockserver", "--instance", LOCKSERVER_4X4]) == 0
    inv = tmp_path / "ind.txt"
    inv.write_text("".join(line.split(": ", 1)[1] + "\n" for line in out.read_text().splitlines()
                           if re.match(r"conjunct \d+: ", line)))
    assert main(["check", "lockserver", str(inv), "--instance", LOCKSERVER_4X4]) == 0
    assert "mode=sampled" in capsys.readouterr().out
    assert calls == []
    # the spy sees the public function's digest
    protocol, _, inst_text = benchmarks.load("lockserver")
    instance = instance_module.parse_instance(inst_text, protocol)
    instance_module.fingerprint(instance_module.state_codec(protocol, instance).decode(0))
    assert len(calls) == 1


def test_a_grammar_too_large_to_sample_exit_one(tmp_path):
    # 66 seeds at 32 terms give C(66, 32) * 2^32 literal sets, past the
    # sys.maxsize a round's rng.sample(range(P), k) can take the len of;
    # the protocol has CTIs, so the run would reach that round
    proto = tmp_path / "flags.proto"
    proto.write_text(
        "sort A\n" + "".join(f"var b{i} : bool\ninit b{i} = false\n" for i in range(66))
        + "action Step() {\n    require b0;\n    b1 := true;\n}\nsafety S: ~b1\n"
    )
    grammar = tmp_path / "flags.grammar"
    grammar.write_text("template forall a: A.\n" + "".join(f"seed b{i}\n" for i in range(66))
                       + "max_terms 32\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "indinv", "infer", str(proto), "--grammar", str(grammar),
         "--instance", "A=a1", "--out", str(tmp_path / "r.txt")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"max_terms 32: {math.comb(66, 32) << 32} literal sets" in done.stderr


def test_importing_the_cli_leaves_hashlib_unimported():
    code = "import sys, indinv.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_without_site_leaves_importlib_resources_unimported():
    # without site, nothing else imports it: bundled files are found next to the package
    code = "import sys, indinv.cli; print('importlib.resources' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_importing_the_cli_leaves_dataclasses_and_inspect_unimported():
    code = "import sys, indinv.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_infer_and_check_run_one_induction_check(tmp_path, monkeypatch, capsys):
    import indinv.cli as cli

    calls = []
    check = cli.check_induction

    def spy(protocol, instance, conjuncts, **kwargs):
        calls.append((protocol, instance, [to_str(c) for c in conjuncts], kwargs))
        return check(protocol, instance, conjuncts, **kwargs)

    monkeypatch.setattr(cli, "check_induction", spy)
    out = tmp_path / "r.txt"
    assert main([*_infer_args(out, seed=7), "--instance", LOCKSERVER_4X4]) == 0
    inv = tmp_path / "ind.txt"
    inv.write_text("".join(text + "\n" for text in calls[0][2]))
    assert main(["check", "lockserver", str(inv), "--instance", LOCKSERVER_4X4]) == 0
    assert len(calls) == 2 and calls[0] == calls[1]
    assert "states checked: 20000 mode=sampled" in capsys.readouterr().out


def test_sampled_check_of_safety_alone_exit_two_with_witness(tmp_path, capsys):
    inv = tmp_path / "ind.txt"
    inv.write_text(SAFE_TEXT + "\n")
    assert main(["check", "lockserver", str(inv), "--reach-limit", "10"]) == 2
    out = capsys.readouterr().out
    assert "consecution: fail" in out
    assert "transition:" in out
    assert "post-state:" in out
    assert "mode=sampled" in out


def test_check_safety_alone_exit_two_with_witness(tmp_path, capsys):
    inv = tmp_path / "ind.txt"
    inv.write_text(SAFE_TEXT + "\n")
    assert main(["check", "lockserver", str(inv)]) == 2
    out = capsys.readouterr().out
    assert "consecution: fail" in out
    assert "transition:" in out
    assert "post-state:" in out


def test_check_unbound_variable_exit_one(tmp_path, capsys):
    inv = tmp_path / "ind.txt"
    inv.write_text("forall s: Server. locked[zzz]\n")
    assert main(["check", "lockserver", str(inv)]) == 1
    assert "unknown identifier" in capsys.readouterr().err


def test_check_missing_invariant_file_exit_one(capsys):
    assert main(["check", "lockserver", "/nope/ind.txt"]) == 1


def test_missing_instance_for_non_benchmark(tmp_path, capsys):
    proto = tmp_path / "tiny.proto"
    proto.write_text(benchmarks.protocol_path("lockserver").read_text())
    code = main(["reach", str(proto)])
    assert code == 1
    assert "--instance" in capsys.readouterr().err


def test_bundled_names_resolve_with_or_without_extension(capsys):
    assert main(["reach", "lockserver.proto", "--instance", "Server=s1 Client=c1"]) == 0
    capsys.readouterr()


def test_exit_codes_are_only_0_1_2(tmp_path):
    outcomes = set()
    outcomes.add(main(["reach", "lockserver"]))
    outcomes.add(main(["reach", "lockserver", "--reach-limit", "1"]))
    inv = tmp_path / "safe.txt"
    inv.write_text(SAFE_TEXT + "\n")
    outcomes.add(main(["check", "lockserver", str(inv)]))
    assert outcomes <= {0, 1, 2}


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage: indinv" in err
    return err


def test_missing_grammar_flag_is_usage_error_exit_one(capsys):
    assert "--grammar" in _usage_error(["infer", "lockserver"], capsys)


def test_removed_workers_flag_is_usage_error_exit_one(capsys):
    err = _usage_error(["infer", "lockserver", "--grammar", "lockserver", "--workers-cti", "4"], capsys)
    assert "--workers-cti" in err


def test_out_is_usage_error_on_check_and_reach(tmp_path, capsys):
    inv = tmp_path / "safe.txt"
    inv.write_text(SAFE_TEXT + "\n")
    out = str(tmp_path / "out.txt")
    assert "--out" in _usage_error(["check", "lockserver", str(inv), "--out", out], capsys)
    assert "--out" in _usage_error(["reach", "lockserver", "--out", out], capsys)


def test_cli_defaults_are_the_library_defaults():
    args = build_arg_parser().parse_args(["infer", "lockserver", "--grammar", "lockserver"])
    config = InferenceConfig()
    assert (
        args.seed, args.n_lemmas, args.n_ctis, args.cti_cap, args.max_regen, args.reach_limit,
    ) == (
        config.seed, config.n_lemmas, config.n_ctis, config.cti_cap, config.max_regen_rounds,
        config.reach_limit,
    )
    assert config.reach_limit == DEFAULT_LIMIT
    assert config == InferenceConfig(  # as cmd_infer builds it
        n_lemmas=args.n_lemmas, n_ctis=args.n_ctis, cti_cap=args.cti_cap,
        max_regen_rounds=args.max_regen, seed=args.seed, reach_limit=args.reach_limit,
    )
    assert f"(default {DEFAULT_LIMIT})" in README.read_text()


def test_readme_config_line_is_the_default_config():
    lines = [line for line in README.read_text().splitlines() if line.startswith("config: ")]
    assert lines == ["config: " + InferenceConfig().describe()]


def test_readme_infer_flags_are_the_parser_options():
    # README's sentence on infer's own flags names exactly the infer options
    # that are neither required nor shared with reach, each with its default,
    # so a removed or renamed flag cannot stay in the docs
    text = " ".join(README.read_text().split())
    start = text.index("Its own flags: ")
    sentence = text[start:text.index(". ", start)]
    documented = dict(re.findall(r"`(--[a-z-]+)[^`]*`(?: \((\d+))?", sentence))
    subparsers = next(a for a in build_arg_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    infer, reach = subparsers.choices["infer"], subparsers.choices["reach"]
    common = {o for a in reach._actions for o in a.option_strings}
    own = {a.option_strings[-1]: "" if a.default is None else str(a.default)
           for a in infer._actions
           if a.option_strings and not a.required and not common & set(a.option_strings)}
    assert documented == own
    assert "`indinv infer PROTO --grammar G [flags]`" in text


def test_readme_example_is_the_lockserver_seed_7_result():
    text = README.read_text()
    start = text.index("\nstatus: ") + 1
    end = text.index("\n", text.index("\ninduction: ", start) + 1) + 1
    assert text[start:end] == (GOLDEN / "lockserver-small-7.txt").read_text()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--help"])
    assert exc.value.code == 0
    assert "--out" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [
    ("--reach-limit", "0"), ("--n-lemmas", "0"), ("--n-ctis", "-1"), ("--cti-cap", "0"),
    ("--depth", "0"), ("--max-regen", "-1"), ("--depth", "three"), ("--depth", "3"),
])
def test_out_of_range_count_is_usage_error_on_infer(flag, value, capsys):
    # --depth is no option: a CTI is one step from a state outside the candidate
    err = _usage_error(["infer", "lockserver", "--grammar", "lockserver", flag, value], capsys)
    assert flag in err and "Traceback" not in err


def test_zero_reach_limit_is_usage_error_on_reach_and_check(tmp_path, capsys):
    inv = tmp_path / "safe.txt"
    inv.write_text(SAFE_TEXT + "\n")
    assert "--reach-limit" in _usage_error(["reach", "lockserver", "--reach-limit", "0"], capsys)
    err = _usage_error(["check", "lockserver", str(inv), "--reach-limit", "0"], capsys)
    assert "must be at least 1, got 0" in err


def test_zero_max_regen_is_accepted(capsys):
    args = build_arg_parser().parse_args(
        ["infer", "lockserver", "--grammar", "lockserver", "--max-regen", "0"]
    )
    assert args.max_regen == 0
