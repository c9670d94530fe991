"""Breadth-first reachable-state computation.

BFS keeps discovery order deterministic and surfaces shallow states first.
It steps codes through a ``WalkTable`` of its own, in ``successors``' firing
order, and keeps codes only: a state is decoded when a reader asks for it.
"""
from __future__ import annotations

from .ctigen import DEFAULT_LIMIT, WalkTable
from .errors import ReachLimitError
from .evaluator import initial_state
from .instance import Instance, State, StateCodec
from .syntax import Protocol, Record


class ReachSet(Record, frozen=False):
    """The codes under ``codec`` of the reachable states, in BFS discovery
    order, closed under successors; ``states`` decodes them on each read."""

    instance: Instance
    codes: list[int]
    codec: StateCodec

    @property
    def states(self) -> list[State]:
        return list(map(self.codec.decode, self.codes))

    def __len__(self) -> int:
        return len(self.codes)


def compute_reach(protocol: Protocol, instance: Instance, limit: int = DEFAULT_LIMIT) -> ReachSet:
    """BFS closure from the initial state, deduped by code; errors out past ``limit`` states."""
    if limit <= 0:
        raise ValueError("reach limit must be positive")
    table = WalkTable(protocol, instance, limit)
    enabled, successor = table.enabled, table.successor
    start = table.codec.encode(initial_state(protocol, instance))
    found = {start: None}  # every code discovered, in discovery order
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[int] = []
        for c in frontier:
            for i in enabled(c):
                code = successor(c, i)
                if code not in found:
                    if len(found) + 1 > limit:
                        raise ReachLimitError(
                            f"reachable set exceeds limit {limit} "
                            f"at frontier depth {depth} with {len(found) + 1} states",
                            depth,
                            len(found) + 1,
                        )
                    found[code] = None
                    nxt.append(code)
        frontier = nxt
    return ReachSet(instance, list(found), table.codec)
