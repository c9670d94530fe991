"""Bundled benchmark protocols with their grammars and default instances."""
from __future__ import annotations

from pathlib import Path

NAMES = ("lockserver", "consensus", "twophase", "declock", "election")

DEFAULT_INSTANCES = {
    "lockserver": "Server=s1,s2 Client=c1,c2",
    "consensus": "Value=v1,v2,v3",
    "twophase": "RM=rm1,rm2,rm3",
    "declock": "Node=n1,n2,n3",
    "election": "Node=n1,n2,n3",
}


def _file(name: str) -> Path:
    return Path(__file__).with_name(name)


def protocol_path(name: str) -> Path:
    if name not in NAMES:
        raise KeyError(f"unknown benchmark {name!r}, expected one of {', '.join(NAMES)}")
    return _file(f"{name}.proto")


def grammar_path(name: str) -> Path:
    if name not in NAMES:
        raise KeyError(f"unknown benchmark {name!r}, expected one of {', '.join(NAMES)}")
    return _file(f"{name}.grammar")


def load(name: str):
    """Parse a bundled benchmark; returns (protocol, grammar, instance_text)."""
    from ..parser import parse_grammar, parse_protocol

    protocol = parse_protocol(protocol_path(name).read_text(encoding="utf-8"))
    grammar = parse_grammar(grammar_path(name).read_text(encoding="utf-8"), protocol)
    return protocol, grammar, DEFAULT_INSTANCES[name]
