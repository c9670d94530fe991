"""Independent validation of an ``indinv infer`` result file.

The verdict the CLI prints is re-derived with the brute-force oracle in
tests/oracles.py, which shares only the parsed AST and the instance binding
with the engine. Instances too large to enumerate get the oracle's
per-state check on states drawn by this module's own seeded RNG, and that
verdict is labelled "sampled".
"""
from __future__ import annotations

import importlib.util
import random

from workloads import ORACLES, Workload

SAMPLED_STATES = 20000


def _load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_result(text: str) -> tuple[dict[str, str], list[str]]:
    """Header fields and conjunct texts of a result file."""
    fields: dict[str, str] = {}
    conjuncts: list[str] = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            continue
        if key.startswith("conjunct "):
            conjuncts.append(value)
        else:
            fields[key] = value
    return fields, conjuncts


class Verifier:
    """Checks result files of one workload; caches the oracle by result text."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from indinv import benchmarks
        from indinv.instance import parse_instance
        from indinv.parser import parse_protocol

        self.oracles = _load_oracles()
        self.workload = workload
        self.seed = seed
        self.protocol = parse_protocol(
            benchmarks.protocol_path(workload.protocol).read_text(encoding="utf-8")
        )
        self.instance = parse_instance(workload.instance, self.protocol)
        self._verdicts: dict[str, str | None] = {}

    def check(self, text: str) -> str | None:
        """None if the result is a validated success, else the reason it is not."""
        if text not in self._verdicts:
            self._verdicts[text] = self._check(text)
        return self._verdicts[text]

    def _check(self, text: str) -> str | None:
        from indinv.parser import parse_conjuncts

        fields, texts = parse_result(text)
        if fields.get("status") != "success":
            return f"status {fields.get('status')!r}"
        if fields.get("seed") != str(self.seed):
            return f"seed {fields.get('seed')!r}, expected {self.seed}"
        induction = fields.get("induction", "")
        if not induction.startswith(f"pass mode={self.workload.check_mode} "):
            return f"induction {induction!r}, expected a {self.workload.check_mode} pass"
        if fields.get("conjuncts") != str(len(texts)) or not texts:
            return "conjunct count does not match the conjunct lines"
        conjuncts = parse_conjuncts("\n".join(texts), self.protocol)
        if self.workload.check_mode == "exhaustive":
            verdict = self.oracles.o_check_induction(self.protocol, self.instance, conjuncts)
        else:
            verdict = self._sampled(conjuncts)
        names = ("initiation", "consecution", "strengthening")
        failed = [n for n, ok in zip(names, verdict) if not ok]
        if failed:
            return f"oracle ({self.workload.check_mode}) rejects {', '.join(failed)}"
        return None

    def _sampled(self, conjuncts) -> tuple[bool, bool, bool]:
        """The oracle's per-state induction check on seeded random states."""
        from indinv.syntax import MapType

        o, protocol, inst = self.oracles, self.protocol, self.instance
        # value pools in the oracle's representation; map values are never maps
        pools = {}
        for v in protocol.vars:
            if isinstance(v.type, MapType):
                pools[v.name] = (inst.domain(v.type.index_sort), o._o_values(v.type.elem, inst))
            else:
                pools[v.name] = (None, o._o_values(v.type, inst))
        rng = random.Random(self.seed)
        init = o.o_initial(protocol, inst)
        initiation = all(o.o_holds(c, init, inst) for c in conjuncts)
        consecution = strengthening = True
        for _ in range(SAMPLED_STATES):
            assign = {
                name: rng.choice(values) if keys is None
                else {k: rng.choice(values) for k in keys}
                for name, (keys, values) in pools.items()
            }
            if not all(o.o_holds(c, assign, inst) for c in conjuncts):
                continue
            if not o.o_holds(protocol.safety, assign, inst):
                strengthening = False
            for _, _, post in o.o_successors(protocol, inst, assign):
                if not all(o.o_holds(c, post, inst) for c in conjuncts):
                    consecution = False
        return initiation, consecution, strengthening
