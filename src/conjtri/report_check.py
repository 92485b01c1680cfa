"""Scan reports checked against report_schema.json with no runtime dependency.

``compile_checker`` turns a JSON Schema into nested closures once, so a
check walks the report without interpreting the schema.  It supports exactly
the keywords the report schema uses, with Draft 2020-12 semantics as
jsonschema applies them: a bool is neither an integer nor a number, 3.0 is
an integer, ``enum`` tells True apart from 1, and each keyword ignores
instances of the types it does not apply to.  Any other keyword is refused
at compile time, so a schema edit cannot be silently ignored.
"""

from __future__ import annotations

import functools
import operator
import re
from numbers import Number
from typing import Callable

ANNOTATIONS = frozenset({"$schema", "title", "$defs"})
_MEMBER_KEYWORDS = frozenset({"properties", "patternProperties", "additionalProperties"})

Check = Callable[[object], None]


class ReportSchemaError(ValueError):
    """A report does not match its schema; the message names the JSON path."""


class _Invalid(Exception):
    """A violation on its way out; ``path`` collects keys innermost first."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list = []


def _is_integer(x) -> bool:
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, Number) and not isinstance(x, bool)


_INT_FLOAT = (int, float)

# name -> (exact Python types that always match, full test)
_TYPES = {
    "object": ((dict,), lambda x: isinstance(x, dict)),
    "array": ((list,), lambda x: isinstance(x, list)),
    "string": ((str,), lambda x: isinstance(x, str)),
    "boolean": ((bool,), lambda x: isinstance(x, bool)),
    "null": ((type(None),), lambda x: x is None),
    "integer": ((int,), _is_integer),
    "number": ((int, float), _is_number),
}


def _json_equal(a, b) -> bool:
    """Equality of JSON values in which True is not 1 and False is not 0."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _type(names) -> Check:
    names = [names] if isinstance(names, str) else list(names)
    unknown = [n for n in names if n not in _TYPES]
    if unknown:
        raise ValueError(f"unknown type {unknown[0]!r}")
    fast = frozenset(t for n in names for t in _TYPES[n][0])
    tests = [_TYPES[n][1] for n in names]
    expected = ", ".join(repr(n) for n in names)

    def check(x):
        if type(x) not in fast and not any(test(x) for test in tests):
            raise _Invalid(f"{x!r} is not of type {expected}")

    return check


def _enum(values) -> Check:
    values = list(values)

    def check(x):
        if not any(_json_equal(x, v) for v in values):
            raise _Invalid(f"{x!r} is not one of {values!r}")

    return check


def _required(names) -> Check:
    names = list(names)
    wanted = frozenset(names)

    def check(x):
        if isinstance(x, dict) and not wanted <= x.keys():
            missing = next(n for n in names if n not in x)
            raise _Invalid(f"{missing!r} is a required property")

    return check


def _members(props: dict, patterns: dict, closed: bool) -> Check:
    """properties, patternProperties and additionalProperties: false in one
    pass over the keys; a key matching both kinds is checked against both."""
    searches = [(re.compile(p).search, sub) for p, sub in patterns.items()]

    def check(x):
        if not isinstance(x, dict):
            return
        for key, value in x.items():
            sub = props.get(key)
            known = sub is not None
            try:
                if known:
                    sub(value)
                for search, sub in searches:
                    if search(key):
                        known = True
                        sub(value)
            except _Invalid as exc:
                exc.path.append(key)
                raise
            if closed and not known:
                raise _Invalid(f"additional property {key!r} is not allowed")

    return check


def _items(sub: Check) -> Check:
    def check(x):
        if isinstance(x, list):
            for i, value in enumerate(x):
                try:
                    sub(value)
                except _Invalid as exc:
                    exc.path.append(i)
                    raise

    return check


def _bound(limit, fails, relation: str) -> Check:
    def check(x):
        if (type(x) in _INT_FLOAT or _is_number(x)) and fails(x, limit):
            raise _Invalid(f"{x!r} is {relation} {limit!r}")

    return check


def _length(limit, fails, relation: str) -> Check:
    def check(x):
        if isinstance(x, list) and fails(len(x), limit):
            raise _Invalid(f"{x!r} has {relation} {limit} items")

    return check


def _all(checks: list[Check]) -> Check:
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for c in checks:
            c(x)

    return check


def compile_checker(schema: dict) -> Check:
    """Compile ``schema`` into ``check(instance)``.

    The check returns None or raises ReportSchemaError naming the JSON path
    of the first violation found, e.g. ``instances/3/nodes/chi: -1 is less
    than the minimum of 0``.  Compiling raises ValueError on a keyword, type
    name or ``$ref`` the compiler does not support."""
    refs: dict[str, Check] = {}

    def resolve(ref) -> Check:
        if ref not in refs:
            if not isinstance(ref, str) or not ref.startswith("#/"):
                raise ValueError(f"unsupported $ref {ref!r}")
            target = schema
            for part in ref[2:].split("/"):
                target = target[part.replace("~1", "/").replace("~0", "~")]
            refs[ref] = subschema(target)
        return refs[ref]

    def subschema(s) -> Check:
        if not isinstance(s, dict):
            raise ValueError(f"unsupported schema {s!r}")
        checks = []
        for keyword, value in s.items():
            if keyword in ANNOTATIONS or keyword in _MEMBER_KEYWORDS:
                continue  # annotations; member keywords are compiled below
            if keyword == "type":
                checks.append(_type(value))
            elif keyword == "enum":
                checks.append(_enum(value))
            elif keyword == "required":
                checks.append(_required(value))
            elif keyword == "items":
                checks.append(_items(subschema(value)))
            elif keyword == "minimum":
                checks.append(_bound(value, operator.lt, "less than the minimum of"))
            elif keyword == "exclusiveMinimum":
                checks.append(
                    _bound(value, operator.le, "less than or equal to the minimum of")
                )
            elif keyword == "minItems":
                checks.append(_length(value, operator.lt, "fewer than"))
            elif keyword == "maxItems":
                checks.append(_length(value, operator.gt, "more than"))
            elif keyword == "$ref":
                checks.append(resolve(value))
            else:
                raise ValueError(f"unsupported schema keyword {keyword!r}")
        closed = s.get("additionalProperties", True)
        if not isinstance(closed, bool):
            raise ValueError("additionalProperties must be true or false")
        props = {k: subschema(v) for k, v in s.get("properties", {}).items()}
        patterns = {p: subschema(v) for p, v in s.get("patternProperties", {}).items()}
        if props or patterns or not closed:
            checks.append(_members(props, patterns, not closed))
        return _all(checks)

    root = subschema(schema)
    for name in schema.get("$defs", {}):
        resolve(f"#/$defs/{name}")

    def check(instance) -> None:
        try:
            root(instance)
        except _Invalid as exc:
            where = "/".join(str(p) for p in reversed(exc.path)) or "(root)"
            raise ReportSchemaError(f"{where}: {exc}") from None

    return check


@functools.cache
def report_checker() -> Check:
    """The checker of the shipped report_schema.json, compiled on first use
    and kept for the life of the process."""
    from .scan import report_schema

    return compile_checker(report_schema())
