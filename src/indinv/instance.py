"""Finite sort domains, concrete values, states, state codes, and fingerprints.

Runtime values are plain Python data: bool for booleans, str for sort
elements and enum labels, frozenset[str] for sets, and MapV for maps. The
declared ValueType schema carries the tags, so values stay small and fast to
compare. Enumeration order is fixed: variables in declaration order, domains
in declared element order, sets by bitmask ascending, map entries with the
last key varying fastest. A state's code is its index in that order, an
integer below ``state_space_size``; ``state_codec`` builds, on first use, the
codec that draws, encodes, decodes and projects codes for CTI walks and the
induction check.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

from .errors import EnumerationLimitError, InstanceError
from .syntax import (
    BoolType,
    ElemType,
    EnumType,
    MapType,
    Protocol,
    SetType,
    ValueType,
)

SIZE_SENTINEL = 2**63


@dataclass(frozen=True)
class Instance:
    """Binding of every sort to an ordered finite domain of element names."""

    domains: dict[str, tuple[str, ...]]

    def domain(self, sort: str) -> tuple[str, ...]:
        return self.domains[sort]

    def text(self) -> str:
        return " ".join(f"{s}={','.join(elems)}" for s, elems in self.domains.items())


def parse_instance(text: str, protocol: Protocol) -> Instance:
    """Parse a binding like ``Server=s1,s2 Client=c1,c2`` for a protocol."""
    given: dict[str, tuple[str, ...]] = {}
    for part in text.split():
        if "=" not in part:
            raise InstanceError(f"malformed binding {part!r}, expected Sort=e1,e2,...")
        sort, _, elems_text = part.partition("=")
        if sort in given:
            raise InstanceError(f"sort {sort} bound twice")
        elems = tuple(e for e in elems_text.split(",") if e)
        if not elems:
            raise InstanceError(f"sort {sort} bound to an empty domain")
        if len(set(elems)) != len(elems):
            raise InstanceError(f"sort {sort} has duplicate element names")
        for e in elems:
            if not (e[0].isalpha() or e[0] == "_") or not all(c.isalnum() or c == "_" for c in e):
                raise InstanceError(f"invalid element name {e!r}")
        given[sort] = elems
    declared = protocol.sort_names()
    for sort in given:
        if sort not in declared:
            raise InstanceError(f"binding for undeclared sort {sort}")
    for sort in declared:
        if sort not in given:
            raise InstanceError(f"sort {sort} is not bound")
    # normalize to declaration order
    return Instance({sort: given[sort] for sort in declared})


# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class MapV:
    """Total map over an instance domain; entries stay in domain order."""

    entries: tuple[tuple[str, "Value"], ...]


Value = Union[bool, str, frozenset, MapV]


@dataclass(frozen=True)
class StateSchema:
    names: tuple[str, ...]
    types: tuple[ValueType, ...]

    def __post_init__(self):
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    def index(self, name: str) -> int:
        return self._index[name]


@dataclass(frozen=True)
class State:
    """Total assignment of values to state variables, in declaration order."""

    schema: StateSchema
    values: tuple[Value, ...]

    def value(self, name: str) -> Value:
        return self.values[self.schema.index(name)]


def state_schema(protocol: Protocol) -> StateSchema:
    return StateSchema(
        tuple(v.name for v in protocol.vars),
        tuple(v.type for v in protocol.vars),
    )


# ---------------------------------------------------------------------------
# Domain sizes, enumeration, sampling


def state_space_size(protocol: Protocol, instance: Instance) -> int:
    """Exact number of type-correct states (may exceed the 2^63 sentinel)."""
    return state_codec(protocol, instance).size


def describe_size(n: int) -> str:
    return "exceeds 2^63" if n >= SIZE_SENTINEL else str(n)


def enumerate_states(
    protocol: Protocol, instance: Instance, limit: int | None = None
) -> Iterator[State]:
    """Yield every type-correct state exactly once, in code order."""
    codec = state_codec(protocol, instance)
    if limit is not None and codec.size > limit:
        raise EnumerationLimitError(
            f"state space has {describe_size(codec.size)} states, exceeds limit {limit}"
        )
    return map(codec.decode, range(codec.size))


def _leaf(t: ValueType, instance: Instance) -> tuple:
    """(radix, bits, digit -> value, value -> digit) of a scalar or set type.

    ``bits`` is the width of a getrandbits draw (1 for a bool, the domain
    size for a set's bit mask), or 0 for one randrange(radix) draw of an
    element or enum position. Draws are part of the seeded stream every
    result depends on, and each draw is the leaf's digit.
    """
    if isinstance(t, BoolType):
        return 2, 1, (False, True).__getitem__, int
    if isinstance(t, SetType):
        dom = instance.domain(t.sort)
        bits = {e: 1 << i for i, e in enumerate(dom)}
        pairs = tuple(bits.items())
        return (2 ** len(dom), len(dom), lambda m: frozenset([e for e, b in pairs if m & b]),
                lambda v: sum([bits[e] for e in v]))
    if isinstance(t, (ElemType, EnumType)):
        labels = instance.domain(t.sort) if isinstance(t, ElemType) else t.labels
        pos = {x: i for i, x in enumerate(labels)}
        return len(labels), 0, labels.__getitem__, pos.__getitem__
    raise AssertionError(f"no domain for type {t!r}")


class StateCodec:
    """States as integer codes: a state's code is its index in
    ``enumerate_states`` order.

    A leaf is a scalar variable or one map entry. A code is the mixed-radix
    number of the leaves' digits in declaration order, the last leaf least
    significant. ``random_code`` makes exactly the rng calls ``random_state``
    makes; ``decode`` interns each variable's value by its digits, so
    decoded states share them, while ``build`` interns none. Both share map
    entry values by leaf digit. ``fingerprint`` joins each variable's
    serialized bytes, kept by its digits, without building the state, and
    ``projection`` numbers the codes by the digits of some variables.
    """

    def __init__(self, protocol: Protocol, instance: Instance) -> None:
        self.schema = state_schema(protocol)
        self.vars = []  # (map keys, or None for a scalar, then its leaf)
        for t in self.schema.types:
            keys = instance.domain(t.index_sort) if isinstance(t, MapType) else None
            self.vars.append((keys, *_leaf(t.elem if keys else t, instance)))
        self.leaves = [(r, bits) for keys, r, bits, *_ in self.vars for _ in keys or "."]
        self.radices = [r ** len(keys) if keys else r for keys, r, *_ in self.vars]
        self.weights = [math.prod(self.radices[i + 1:]) for i in range(len(self.vars))]
        self.size = math.prod(self.radices)
        self.entry_values: list[dict[int, Value]] = [{} for _ in self.vars]  # by leaf digit
        self.interned: list[dict[int, Value]] = [{} for _ in self.vars]
        self.serialized: list[dict[int, bytes]] = [{} for _ in self.vars]

    def random_state(self, rng: random.Random) -> State:
        getrandbits, randrange = rng.getrandbits, rng.randrange
        values = []
        for keys, radix, bits, value, _ in self.vars:
            ds = [getrandbits(bits) if bits else randrange(radix) for _ in keys or "."]
            values.append(MapV(tuple(zip(keys, map(value, ds)))) if keys else value(ds[0]))
        return State(self.schema, tuple(values))

    def random_code(self, rng: random.Random) -> int:
        getrandbits, randrange = rng.getrandbits, rng.randrange
        code = 0
        for radix, bits in self.leaves:
            code = code * radix + (getrandbits(bits) if bits else randrange(radix))
        return code

    def encode(self, state: State) -> int:
        code = 0
        for (keys, radix, _, _, digit), v in zip(self.vars, state.values):
            for ev in [e for _, e in v.entries] if keys else (v,):
                code = code * radix + digit(ev)
        return code

    def decode(self, code: int) -> State:
        values = []
        for i, (w, r) in enumerate(zip(self.weights, self.radices)):
            d = code // w % r
            v = self.interned[i].get(d)
            if v is None:
                v = self.interned[i][d] = self._value(i, d)
            values.append(v)
        return State(self.schema, tuple(values))

    def build(self, code: int, only: Iterable[int] | None = None) -> State:
        """``decode(code)`` of fresh values, interning nothing; given ``only``,
        the variables at other indices are None."""
        values: list = [None] * len(self.vars)
        for i in range(len(values)) if only is None else only:
            values[i] = self._value(i, code // self.weights[i] % self.radices[i])
        return State(self.schema, tuple(values))

    def fingerprint(self, code: int) -> Fingerprint:
        """``fingerprint(self.decode(code))``, bit for bit."""
        parts = []
        for i, (w, r) in enumerate(zip(self.weights, self.radices)):
            d = code // w % r
            b = self.serialized[i].get(d)
            if b is None:
                out = bytearray()
                _value_bytes(self.schema.types[i], self._value(i, d), out)
                b = self.serialized[i][d] = bytes(out)
            parts.append(b)
        return _digest(b"".join(parts))

    def projection(self, names: frozenset[str]) -> tuple[int, Callable[[int], int]]:
        """(count, project): ``project(code)`` is the mixed-radix number, below
        count, of the named variables' digits in declaration order."""
        terms, count = [], 1  # (weight in code, radix, weight in projection)
        for i in reversed(range(len(self.vars))):
            if self.schema.names[i] in names:
                terms.append((self.weights[i], self.radices[i], count))
                count *= self.radices[i]
        if len(terms) == 1:
            (w, r, _), = terms
            return count, lambda code: code // w % r
        return count, lambda code: sum([code // w % r * k for w, r, k in terms])

    def _value(self, i: int, d: int) -> Value:
        keys, radix, _, value, _ = self.vars[i]
        if keys is None:
            return value(d)
        known, entries = self.entry_values[i], []
        for k in reversed(keys):
            d, leaf = divmod(d, radix)
            v = known.get(leaf)
            if v is None:
                v = known[leaf] = value(leaf)
            entries.append((k, v))
        return MapV(tuple(entries[::-1]))


# The codec of the last (protocol, instance) asked for.
_last_codec: tuple = (None, None, None)


def state_codec(protocol: Protocol, instance: Instance) -> StateCodec:
    """The codec of a protocol on an instance, built on first use."""
    global _last_codec
    last_protocol, last_instance, codec = _last_codec
    if not (last_protocol is protocol and last_instance is instance):
        codec = StateCodec(protocol, instance)
        _last_codec = (protocol, instance, codec)
    return codec


def random_state(protocol: Protocol, instance: Instance, rng: random.Random) -> State:
    """Independently uniform value per variable; deterministic given the rng."""
    return state_codec(protocol, instance).random_state(rng)


# ---------------------------------------------------------------------------
# Canonical serialization and fingerprints

Fingerprint = int


def _value_bytes(t: ValueType, v: Value, out: bytearray) -> None:
    if isinstance(t, BoolType):
        out.append(1 if v else 0)
        return
    if isinstance(t, (ElemType, EnumType)):
        b = v.encode("utf-8")
        out += len(b).to_bytes(2, "big")
        out += b
        return
    if isinstance(t, SetType):
        members = sorted(v)
        out += len(members).to_bytes(4, "big")
        for m in members:
            b = m.encode("utf-8")
            out += len(b).to_bytes(2, "big")
            out += b
        return
    if isinstance(t, MapType):
        out += len(v.entries).to_bytes(4, "big")
        for k, ev in v.entries:
            b = k.encode("utf-8")
            out += len(b).to_bytes(2, "big")
            out += b
            _value_bytes(t.elem, ev, out)
        return
    raise AssertionError(f"cannot serialize type {t!r}")


def state_to_bytes(state: State) -> bytes:
    out = bytearray()
    for t, v in zip(state.schema.types, state.values):
        _value_bytes(t, v, out)
    return bytes(out)


def _digest(data: bytes) -> Fingerprint:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def fingerprint(state: State) -> Fingerprint:
    """64-bit digest of the canonical serialization; stable across runs."""
    return _digest(state_to_bytes(state))


# ---------------------------------------------------------------------------
# Display


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, frozenset):
        return "{%s}" % ", ".join(sorted(v))
    if isinstance(v, MapV):
        return "[%s]" % ", ".join(f"{k}: {format_value(ev)}" for k, ev in v.entries)
    raise AssertionError(f"cannot format {v!r}")


def format_state(state: State) -> str:
    return ", ".join(
        f"{n}={format_value(v)}" for n, v in zip(state.schema.names, state.values)
    )
