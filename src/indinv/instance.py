"""Finite sort domains, concrete values, states, and state codes.

Runtime values are plain Python data: bool for booleans, str for sort
elements and enum labels, frozenset[str] for sets, and MapV for maps. The
declared ValueType schema carries the tags, so values stay small and fast to
compare. Enumeration order is fixed: variables in declaration order, domains
in declared element order, sets by bitmask ascending, map entries with the
last key varying fastest. A state's code is its index in that order, an
integer below the codec's ``size``, which nothing here bounds: callers compare
it with their own limits. The code is a state's only identity on every engine
path; ``fingerprint``, a 64-bit digest, is public API only. ``state_codec``
builds, on first use, the codec that draws, encodes, decodes and projects codes.
"""
from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Union

from .errors import InstanceError
from .syntax import (
    BoolType,
    ElemType,
    EnumType,
    MapType,
    Protocol,
    Record,
    SetType,
    ValueType,
)

_set = object.__setattr__  # how State and MapV's own __init__ store fields


class Instance(Record):
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


class MapV(Record):
    """Total map over an instance domain; entries stay in domain order."""

    entries: tuple[tuple[str, "Value"], ...]

    def __init__(self, entries: tuple[tuple[str, Value], ...]) -> None:
        _set(self, "entries", entries)


Value = Union[bool, str, frozenset, MapV]


class StateSchema(Record):
    names: tuple[str, ...]
    types: tuple[ValueType, ...]

    def __post_init__(self):
        _set(self, "_index", {n: i for i, n in enumerate(self.names)})

    def index(self, name: str) -> int:
        return self._index[name]


class State(Record):
    """Total assignment of values to state variables, in declaration order."""

    schema: StateSchema
    values: tuple[Value, ...]

    def __init__(self, schema: StateSchema, values: tuple[Value, ...]) -> None:
        _set(self, "schema", schema)
        _set(self, "values", values)

    def value(self, name: str) -> Value:
        return self.values[self.schema.index(name)]


def state_schema(protocol: Protocol) -> StateSchema:
    return StateSchema(
        tuple(v.name for v in protocol.vars),
        tuple(v.type for v in protocol.vars),
    )


# ---------------------------------------------------------------------------
# Codes and sampling


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
    """States as integer codes: a state's code is its index in enumeration
    order.

    A leaf is a scalar variable or one map entry. A code is the mixed-radix
    number of the leaves' digits in declaration order, the last leaf least
    significant: leaf j's digit is ``code // leaf_weights[j] % radix``, and
    ``var_leaves`` numbers each variable's leaves. ``random_code`` draws
    each leaf's digit with one rng call, and ``random_state`` builds the
    drawn code's state. ``decode`` interns each variable's value by its
    digits, so decoded states share them, while ``build`` interns none. Both
    share map entry values by leaf digit. ``projection`` numbers the codes
    by the digits of a set of leaves. Equal states have equal codes, so a code
    is a state's identity: reachability dedups by ``encode``, and CTIs and
    witness steps carry codes. CTI searches, ``Rows`` and ``check_induction``
    work on codes alone, through projections. A codec depends only on the
    state schema and the instance.
    """

    def __init__(self, schema: StateSchema, instance: Instance) -> None:
        self.schema = schema
        self.vars = []  # (map keys, or None for a scalar, then its leaf)
        for t in self.schema.types:
            keys = instance.domain(t.index_sort) if isinstance(t, MapType) else None
            self.vars.append((keys, *_leaf(t.elem if keys else t, instance)))
        self.leaves = [(r, bits) for keys, r, bits, *_ in self.vars for _ in keys or "."]
        self.var_leaves: dict[str, dict] = {}  # {map key, or None for a scalar: leaf}
        for name, (keys, *_) in zip(self.schema.names, self.vars):
            n = sum(map(len, self.var_leaves.values()))
            self.var_leaves[name] = {k: n + p for p, k in enumerate(keys or [None])}
        self.leaf_weights = [math.prod(r for r, _ in self.leaves[j + 1:])
                             for j in range(len(self.leaves))]
        self.radices = [r ** len(keys) if keys else r for keys, r, *_ in self.vars]
        self.weights = [self.leaf_weights[max(v.values())] for v in self.var_leaves.values()]
        self.size = math.prod(self.radices)
        self.entry_values: list[dict[int, Value]] = [{} for _ in self.vars]  # by leaf digit
        self.interned: list[dict[int, Value]] = [{} for _ in self.vars]

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

    def _runs(self, leaves: Iterable[int]) -> tuple[list[list[int]], int]:
        """[weight in code, radix, weight in projection] per run of adjacent
        leaves (no leaves: one of radix 1), least significant first, and the
        product of their radices."""
        runs: list[list[int]] = []
        count, last = 1, None
        for j in sorted(set(leaves), reverse=True):
            r = self.leaves[j][0]
            if j + 1 == last:
                runs[-1][1] *= r
            else:
                runs.append([self.leaf_weights[j], r, count])
            count, last = count * r, j
        return runs or [[1, 1, 1]], count

    def projection(self, leaves: Iterable[int]) -> tuple[int, Callable[[int], int]]:
        """(count, project): ``project(code)`` is the mixed-radix number, below
        count, of the given leaves' digits in leaf order; all of a variable's
        leaves number its values as its code digit does."""
        runs, count = self._runs(leaves)
        if len(runs) == 1:
            (w, r, _), = runs
            return count, lambda code: code // w % r
        if len(runs) == 2:
            (w, r, _), (w2, r2, k2) = runs
            return count, lambda code: code // w % r + code // w2 % r2 * k2
        return count, lambda code: sum([code // w % r * k for w, r, k in runs])

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
        codec = StateCodec(state_schema(protocol), instance)
        _last_codec = (protocol, instance, codec)
    return codec


def random_state(protocol: Protocol, instance: Instance, rng: random.Random) -> State:
    """Independently uniform value per variable; deterministic given the rng."""
    codec = state_codec(protocol, instance)
    return codec.build(codec.random_code(rng))


# ---------------------------------------------------------------------------
# Canonical serialization and fingerprints

Fingerprint = int


def _name_bytes(name: str, out: bytearray) -> None:
    b = name.encode("utf-8")
    out += len(b).to_bytes(2, "big")
    out += b


def _value_bytes(t: ValueType, v: Value, out: bytearray) -> None:
    if isinstance(t, BoolType):
        out.append(1 if v else 0)
    elif isinstance(t, (ElemType, EnumType)):
        _name_bytes(v, out)
    elif isinstance(t, SetType):
        out += len(v).to_bytes(4, "big")
        for m in sorted(v):
            _name_bytes(m, out)
    elif isinstance(t, MapType):
        out += len(v.entries).to_bytes(4, "big")
        for k, ev in v.entries:
            _name_bytes(k, out)
            _value_bytes(t.elem, ev, out)
    else:
        raise AssertionError(f"cannot serialize type {t!r}")


def state_to_bytes(state: State) -> bytes:
    out = bytearray()
    for t, v in zip(state.schema.types, state.values):
        _value_bytes(t, v, out)
    return bytes(out)


def _digest(data: bytes) -> Fingerprint:
    import hashlib  # here, not at the top: no engine path digests, and start-up is measured
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
