from __future__ import annotations

import pytest

from indinv.errors import ReachLimitError
from indinv.evaluator import holds, initial_state, successors
from indinv.instance import fingerprint, parse_instance
from indinv.reachability import compute_reach

from . import oracles


def test_lockserver_1_1_has_two_reachable_states(lockserver_protocol):
    inst = parse_instance("Server=s1 Client=c1", lockserver_protocol)
    reach = compute_reach(lockserver_protocol, inst)
    assert len(reach) == 2
    snapshots = {oracles.freeze_state(s) for s in reach.states}
    assert snapshots == {
        oracles.o_freeze({"locked": {"s1": True}, "held": {"c1": frozenset()}}),
        oracles.o_freeze({"locked": {"s1": False}, "held": {"c1": frozenset({"s1"})}}),
    }


def test_reach_count_matches_fixpoint_oracle(lockserver_protocol, lockserver_instance):
    reach = compute_reach(lockserver_protocol, lockserver_instance)
    oracle = oracles.o_reach(lockserver_protocol, lockserver_instance)
    assert len(reach) == len(oracle)
    assert {oracles.freeze_state(s) for s in reach.states} == set(oracle)


def test_limit_one_errors(lockserver_protocol, lockserver_instance):
    with pytest.raises(ReachLimitError) as err:
        compute_reach(lockserver_protocol, lockserver_instance, limit=1)
    assert err.value.depth == 1
    assert err.value.count == 2


def test_reach_is_closed_under_successors(small_benchmarks):
    for name, (protocol, _, instance) in small_benchmarks.items():
        reach = compute_reach(protocol, instance)
        reach_fps = {fingerprint(s) for s in reach.states}
        for s in reach.states:
            for t in successors(s, protocol, instance):
                assert fingerprint(t.post) in reach_fps, name


def test_safety_holds_on_reach_for_all_benchmarks(small_benchmarks):
    for name, (protocol, _, instance) in small_benchmarks.items():
        reach = compute_reach(protocol, instance)
        assert all(holds(protocol.safety, s, instance) for s in reach.states), name


def test_bfs_discovery_order_is_deterministic(lockserver_protocol, lockserver_instance):
    a = compute_reach(lockserver_protocol, lockserver_instance)
    b = compute_reach(lockserver_protocol, lockserver_instance)
    assert [fingerprint(s) for s in a.states] == [fingerprint(s) for s in b.states]


def _bfs_by_fingerprint(protocol, instance):
    """Reachable states in BFS discovery order, deduplicated by the public
    fingerprint: the digest ``compute_reach`` deduplicated by before codes."""
    init = initial_state(protocol, instance)
    states, seen, frontier = [init], {fingerprint(init)}, [init]
    while frontier:
        nxt = []
        for s in frontier:
            for t in successors(s, protocol, instance):
                if fingerprint(t.post) not in seen:
                    seen.add(fingerprint(t.post))
                    states.append(t.post)
                    nxt.append(t.post)
        frontier = nxt
    return states


def test_reach_by_code_equals_bfs_by_fingerprint(all_benchmarks, small_benchmarks):
    lockserver = all_benchmarks["lockserver"][0]
    cases = [*all_benchmarks.items(), *small_benchmarks.items(),
             ("lockserver 3x3", (lockserver, None,
                                 parse_instance("Server=s1,s2,s3 Client=c1,c2,c3", lockserver)))]
    for name, (protocol, _, instance) in cases:
        expected = _bfs_by_fingerprint(protocol, instance)
        assert compute_reach(protocol, instance).states == expected, name
