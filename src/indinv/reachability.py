"""Breadth-first reachable-state computation.

BFS keeps discovery order deterministic and surfaces shallow states first.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ReachLimitError
from .evaluator import initial_state, successors
from .instance import Instance, State, state_codec
from .syntax import Protocol


@dataclass
class ReachSet:
    """Reachable states in BFS discovery order, closed under successors."""

    states: list[State]
    instance: Instance

    def __len__(self) -> int:
        return len(self.states)


def compute_reach(protocol: Protocol, instance: Instance, limit: int = 1_000_000) -> ReachSet:
    """BFS closure from the initial state, deduped by code; errors out past ``limit`` states."""
    if limit <= 0:
        raise ValueError("reach limit must be positive")
    encode = state_codec(protocol, instance).encode
    init = initial_state(protocol, instance)
    states = [init]
    index = {encode(init)}
    frontier = [init]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[State] = []
        for s in frontier:
            for t in successors(s, protocol, instance):
                code = encode(t.post)
                if code not in index:
                    if len(states) + 1 > limit:
                        raise ReachLimitError(
                            f"reachable set exceeds limit {limit} "
                            f"at frontier depth {depth} with {len(states) + 1} states",
                            depth,
                            len(states) + 1,
                        )
                    index.add(code)
                    states.append(t.post)
                    nxt.append(t.post)
        frontier = nxt
    return ReachSet(states, instance)
