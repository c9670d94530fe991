from __future__ import annotations

import pytest

from indinv import benchmarks
from indinv.instance import parse_instance
from indinv.invgen import literal_sets, sample_candidate
from indinv.parser import parse_protocol

# Small instances keep exhaustive oracles fast; defaults stay desk scale.
SMALL_INSTANCES = {
    "lockserver": "Server=s1,s2 Client=c1,c2",
    "consensus": "Value=v1,v2",
    "twophase": "RM=rm1,rm2",
    "declock": "Node=n1,n2",
    "election": "Node=n1,n2",
}


@pytest.fixture(scope="session")
def lockserver():
    protocol, grammar, inst_text = benchmarks.load("lockserver")
    return protocol, grammar, parse_instance(inst_text, protocol)


@pytest.fixture(scope="session")
def lockserver_protocol(lockserver):
    return lockserver[0]


@pytest.fixture(scope="session")
def lockserver_grammar(lockserver):
    return lockserver[1]


@pytest.fixture(scope="session")
def lockserver_instance(lockserver):
    return lockserver[2]


@pytest.fixture(scope="session")
def all_benchmarks():
    loaded = {}
    for name in benchmarks.NAMES:
        protocol, grammar, inst_text = benchmarks.load(name)
        loaded[name] = (protocol, grammar, parse_instance(inst_text, protocol))
    return loaded


@pytest.fixture(scope="session")
def small_benchmarks():
    loaded = {}
    for name, inst_text in SMALL_INSTANCES.items():
        protocol, grammar, _ = benchmarks.load(name)
        loaded[name] = (protocol, grammar, parse_instance(inst_text, protocol))
    return loaded


ENUM_PROTO = """
var x : enum {e1, e2, e3, e4, e5}
init x = e1
safety S: true
"""


@pytest.fixture(scope="session")
def enum_protocol():
    return parse_protocol(ENUM_PROTO)


def fresh_draws(grammar, n, nterms, rng, exclude=frozenset()):
    """The candidates ``generate_lemma_invariants`` judges in a round of n
    draws from rng: each drawn rank's candidate whose id is not in exclude,
    in draw order. The round draws its ranks with one ``rng.sample`` call, so
    an rng seeded alike replays them exactly."""
    population = literal_sets(grammar, nterms)
    ranks = rng.sample(range(population), min(n, population))
    return [cand for cand in (sample_candidate(grammar, nterms, r) for r in ranks)
            if cand.id not in exclude]
