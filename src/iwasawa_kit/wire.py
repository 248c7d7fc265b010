"""The one wire rule for JSON from outside the kit: a field spec, class data,
a tower replay, a complex file, the selftest manifest, a certificate's input,
and (the place rule only) the argv place lists. A `Node` checks the JSON type
of each value as it is read: an integer is a JSON integer (`type(v) is int`,
so not 3.0, "3" or true), a boolean a JSON boolean, a string a JSON string, a
list a JSON array (of a given length where the caller knows it), and a place
"oo" or "inf" (both read as "oo") or a string that int() reads. A file that
cannot be read, is not JSON, or nests arrays and objects deeper than
MAX_DEPTH (counted on the text, before json reads it) is a schema error too.

Anything else raises SchemaError, whose message names the payload and the
field (``bad tower file: meta.S[0]: expected a place ...``); the command line
exits 4 on it. A well-typed value that breaks a mathematical precondition (a
prime, a subgroup, a well-defined action) is refused with ValueError by the
type that owns the precondition.
"""

from __future__ import annotations

import json
import re

PLACE = 'a place ("oo", "inf" or an integer string)'
# arrays and objects nested inside one another; the deepest kit payload (a
# tower or verify certificate) has 6
MAX_DEPTH = 64
_MISSING = object()
# a JSON string (one left open runs to the end of the text) and a bracket
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.S)
_BRACKET = re.compile(r"[\[\]{}]")


class SchemaError(Exception):
    """A payload off the wire rule: a missing key, a wrong JSON type or
    length, or an unreadable file."""


class Node:
    """A JSON value at a path inside a named payload."""

    __slots__ = ("value", "payload", "path")

    def __init__(self, value, payload: str, path: str = ""):
        self.value, self.payload, self.path = value, payload, path

    def fail(self, message: str) -> SchemaError:
        where = f"{self.path}: " if self.path else ""
        return SchemaError(f"bad {self.payload}: {where}{message}")

    def expected(self, what: str) -> SchemaError:
        return self.fail(f"expected {what}, got {self.value!r:.60}")

    def _is(self, kind: type, what: str):
        if type(self.value) is not kind:
            raise self.expected(what)
        return self.value

    def _field(self, key: str, value) -> "Node":
        return Node(value, self.payload, f"{self.path}.{key}" if self.path else key)

    def __getitem__(self, key: str) -> "Node":
        value = self._is(dict, "an object").get(key, _MISSING)
        if value is _MISSING:
            raise self.fail(f"missing field {key!r}")
        return self._field(key, value)

    def get(self, key: str, default=None) -> "Node":
        """The field at key, or a node holding default when it is absent."""
        return self._field(key, self._is(dict, "an object").get(key, default))

    def items(self) -> list[tuple[str, "Node"]]:
        return [(k, self[k]) for k in self._is(dict, "an object")]

    def list(self, length: int | None = None) -> list["Node"]:
        """The elements, of the given length when one is given."""
        value = self.value
        if type(value) is not list or length not in (None, len(value)):
            raise self.expected("a list" if length is None else f"a list of length {length}")
        return [Node(v, self.payload, f"{self.path}[{i}]") for i, v in enumerate(value)]

    def ints(self, length: int | None = None) -> tuple[int, ...]:
        """A list of JSON integers, of the given length when one is given."""
        return tuple(v.int() for v in self.list(length))

    def int(self) -> int:
        return self._is(int, "a JSON integer")

    def bool(self) -> bool:
        return self._is(bool, "a JSON boolean")

    def str(self) -> str:
        return self._is(str, "a string")

    def place(self) -> int | str:
        """The place: "oo" (abelian.INFINITE_PLACE) for "oo" or "inf", else
        the integer the string spells."""
        if self.value in ("oo", "inf"):
            return "oo"
        try:
            return int(self._is(str, PLACE))
        except ValueError:
            raise self.expected(PLACE) from None


def node(obj, payload: str) -> Node:
    """A JSON value as the root of a payload of that name; a Node (part of a
    larger payload) is returned as it is."""
    return obj if isinstance(obj, Node) else Node(obj, payload)


def parse(text: str, payload: str) -> Node:
    """The JSON text as a Node. Its nesting depth, the running count of [ and
    { less ] and } outside strings, is read on the text before json reads it."""
    level = 0
    for bracket in _BRACKET.findall(_STRING.sub("", text)):
        level += 1 if bracket in "[{" else -1
        if level > MAX_DEPTH:
            raise SchemaError(f"bad {payload}: nested deeper than {MAX_DEPTH} arrays and objects")
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"bad {payload}: {exc}") from exc
    return Node(value, payload)


def load(path, payload: str) -> Node:
    """The JSON file at path; a file that cannot be read (or is not UTF-8,
    a ValueError) is a SchemaError, like bad JSON. An empty path names the
    working directory, "."."""
    try:
        with open(path or ".") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise SchemaError(f"bad {payload}: {exc}") from exc
    return parse(text, payload)
