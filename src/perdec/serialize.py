"""JSON wire formats with exact rationals.

Rationals travel as strings "p" or "p/q" in lowest terms; no floating
point appears anywhere.  Parsing accepts exactly the ASCII forms
-?[0-9]+ and -?[0-9]+/[0-9]+ (lowest terms not required).  A value list
parses each of its distinct literals once: invariant parts, duals and
planted values repeat a few literals many times, and a value list
formats each of its distinct values once.

Each record result's wire form is stated once, as the row of its tag in
one table (`_codecs`) that `result_to_json` and `parse_result` each read
in one loop.  Every result type round-trips, a passing star check
(None), a point certificate (a tuple of ints) and lattice parts included:
parse_result(result_to_json(r)) == r.

Only `core` loads with this module: the certificate types of `check` and
the windows of `lattice` are imported where a document builds or tests
one, so parsing an instance loads no algorithm module.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import TYPE_CHECKING, Any, List, Optional, Union

from .core import (
    CommutingSystem,
    Decomposition,
    RangeError,
    RationalFunction,
    _Record,
)

if TYPE_CHECKING:
    from .lattice import LatticeWindow


class ParseError(ValueError):
    """Malformed instance or result document; `path` names the bad field."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def frac_to_str(q: Fraction) -> str:
    """The "p" or "p/q" form.  Numbers past the interpreter's int-to-string
    digit limit raise RangeError: input literals are capped at that limit
    too, so every emitted rational stays readable."""
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        raise RangeError(f"result rational too large to write: {exc}")


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def frac_from_json(value: Any, path: str = "value") -> Fraction:
    if isinstance(value, str):
        # only the "p" / "p/q" form is accepted: Fraction(str) would also
        # take exponents, whose parse cost grows with the exponent
        # ("1e300000"); the matched groups build the Fraction, so each
        # literal is parsed once
        match = _RATIONAL.fullmatch(value)
        if not match:
            raise ParseError(f"bad rational literal {value!r}: expected "
                             "\"p\" or \"p/q\" with decimal integers", path)
        numerator, denominator = match.groups()
        try:
            if denominator is None:
                return Fraction(int(numerator))
            return Fraction(int(numerator), int(denominator))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}: {exc}", path)
    if isinstance(value, (bool, float)):
        raise ParseError(f"expected exact rational, got {value!r}", path)
    if isinstance(value, int):
        return Fraction(value)
    raise ParseError(f"expected exact rational, got {type(value).__name__}", path)


def values_to_json(f: Union[RationalFunction, LatticeWindow]) -> List[str]:
    """Each distinct value of the list is formatted once.  The memo is keyed
    by (numerator, denominator): a Fraction's own hash runs in Python."""
    memo = {}
    out = []
    for v in f.values:
        key = v.as_integer_ratio()
        s = memo.get(key)
        if s is None:
            s = memo[key] = frac_to_str(v)
        out.append(s)
    return out


def values_from_json(items: Any, path: str = "values") -> RationalFunction:
    """A nonempty list of rationals; each distinct string literal of the
    list is parsed once and its repeats reuse that Fraction.

    A list of str items is mapped through the parsed distinct literals in
    one pass; a bad literal is reported at its first index, since in
    first-appearance order the first bad literal is the first bad item.
    No other JSON value equals a str, so the distinct literals are all str
    exactly when the items are.  Any other list goes to `frac_from_json`
    item by item: True, 1 and 1.0 hash alike, so a bool or float item is
    still refused.
    """
    if not isinstance(items, list) or not items:
        raise ParseError("expected a nonempty list of rationals", path)
    try:
        parsed = dict.fromkeys(items)
    except TypeError:  # a list or object item
        parsed = {}
    if set(map(type, parsed)) != {str}:
        return RationalFunction(tuple(frac_from_json(v, f"{path}[{i}]")
                                      for i, v in enumerate(items)))
    try:
        for literal in parsed:
            parsed[literal] = frac_from_json(literal, "")
    except ParseError as exc:
        raise ParseError(str(exc), f"{path}[{items.index(literal)}]") from None
    return RationalFunction(tuple(map(parsed.__getitem__, items)))


def _int(value: Any, path: str) -> int:
    """An integer field; the message names it by the last part of path."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(
            f"expected integer field {path.rpartition('.')[2]!r}", path)
    return value


def _int_list(items: Any, path: str) -> List[int]:
    """A list of plain ints passes by one type pass; only otherwise is it
    walked entry by entry, to name the first bad one."""
    if not isinstance(items, list):
        raise ParseError("expected a list of integers", path)
    if not set(map(type, items)) <= {int}:
        for i, v in enumerate(items):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"expected integer, got {v!r}",
                                 f"{path}[{i}]")
    return items


def _certificate(doc: dict) -> dict:
    cert = doc.get("certificate")
    if not isinstance(cert, dict):
        raise ParseError("expected a certificate object", "certificate")
    return cert


def _values(doc: dict, size: int) -> RationalFunction:
    """The instance's values, exactly size of them."""
    f = values_from_json(doc.get("values"))
    if len(f) != size:
        raise ParseError(f"expected {size} values, got {len(f)}", "values")
    return f


def _shifts(doc: dict) -> List[int]:
    shifts = _int_list(doc.get("shifts"), "shifts")
    if not shifts:
        raise ParseError("expected at least one shift", "shifts")
    return shifts


KINDS = ("finite", "cyclic-group", "z-window", "lattice-window")


class Instance(_Record):
    """A parsed instance file of any kind.

    Every kind carries f.  finite and cyclic-group also carry a
    CommutingSystem; z-window keeps its shifts on a segment of Z;
    lattice-window carries the window.  Cyclic-group shifts are reduced
    modulo the modulus.
    """

    kind: str
    system: Optional[CommutingSystem] = None
    f: Optional[RationalFunction] = None
    shifts: Optional[tuple[int, ...]] = None
    modulus: Optional[int] = None
    length: Optional[int] = None
    window: Optional[LatticeWindow] = None

    def maps(self) -> tuple[tuple[int, ...], ...]:
        """One total map on {0..N-1} per transform.  A window shift that
        would leave the window fixes the point instead, which keeps its
        invariant functions; z-window maps so completed need not commute,
        and nothing that reads these tables relies on it."""
        if self.window is not None:
            return self.window.axis_maps()
        if self.system is not None:
            return self.system.transforms
        return tuple(tuple(x + a if x + a < self.length else x
                           for x in range(self.length))
                     for a in self.shifts)


def parse_instance(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise ParseError("instance file must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {', '.join(KINDS)}, got {kind!r}",
                         "kind")
    if kind == "finite":
        size = _int(doc.get("size"), "size")
        raw = doc.get("transforms")
        if not isinstance(raw, list) or not raw:
            raise ParseError("expected a nonempty list of transform tables",
                             "transforms")
        tables = [_int_list(tr, f"transforms[{i}]") for i, tr in enumerate(raw)]
        f = _values(doc, size)
        try:
            system = CommutingSystem(size, tuple(tuple(tr) for tr in tables))
        except RangeError as exc:
            raise ParseError(str(exc), "transforms")
        return Instance(kind, system=system, f=f)
    if kind == "cyclic-group":
        modulus = _int(doc.get("modulus"), "modulus")
        if modulus < 1:
            raise ParseError("modulus must be >= 1", "modulus")
        shifts = _shifts(doc)
        f = _values(doc, modulus)
        shifts = tuple(a % modulus for a in shifts)
        # x -> (x + a) % m is range(m) rotated left by a
        points = tuple(range(modulus))
        system = CommutingSystem(modulus, tuple(points[a:] + points[:a]
                                                for a in shifts))
        return Instance(kind, system=system, f=f, shifts=shifts,
                        modulus=modulus)
    if kind == "z-window":
        length = _int(doc.get("length"), "length")
        if length < 2:
            raise ParseError("window length must be >= 2", "length")
        shifts = _shifts(doc)
        if any(a < 0 for a in shifts):
            raise ParseError("expected nonnegative shifts", "shifts")
        f = _values(doc, length)
        return Instance(kind, f=f, shifts=tuple(shifts), length=length)
    from .lattice import LatticeWindow, window_size

    dims = tuple(_int_list(doc.get("dims"), "dims"))
    try:
        size = window_size(dims)
    except RangeError as exc:
        raise ParseError(str(exc), "dims")
    f = _values(doc, size)
    return Instance(kind, f=f, window=LatticeWindow(dims, f.values))


def instance_to_json(inst: Instance) -> dict:
    doc = {"kind": inst.kind, "values": values_to_json(inst.f)}
    if inst.kind == "finite":
        doc.update(size=inst.system.size,
                   transforms=[list(t) for t in inst.system.transforms])
    elif inst.kind == "cyclic-group":
        doc.update(modulus=inst.modulus, shifts=list(inst.shifts))
    elif inst.kind == "z-window":
        doc.update(length=inst.length, shifts=list(inst.shifts))
    else:
        doc["dims"] = list(inst.window.dims)
    return doc


# ---------------------------------------------------------------------------
# result documents
#
# A row holds a record type, the callable that builds it from its field
# values, whether the fields sit under "certificate", and one (wire key,
# attribute, kind) entry per field in declaration order.  A kind is a
# (write, read, absent) triple; a missing key reads as absent.


def _int_rows(items: Any, path: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(items, list):
        raise ParseError(f"expected {path.rpartition('.')[2]} list", path)
    return tuple(tuple(_int_list(row, f"{path}[{i}]"))
                 for i, row in enumerate(items))


def _parts(items: Any, path: str) -> tuple[RationalFunction, ...]:
    if not isinstance(items, list) or not items:
        raise ParseError("expected a nonempty parts list", path)
    return tuple(values_from_json(p, f"{path}[{i}]")
                 for i, p in enumerate(items))


def _violation_kind(kind: Any, path: str) -> str:
    if kind not in ("MixedDeltaNonzero", "CompatibilityFailure"):
        raise ParseError(f"unknown violation kind {kind!r}", path)
    return kind


_INT = (int, _int, None)
_INT_LIST = (list, lambda items, path: tuple(_int_list(items, path)), None)
_INT_ROWS = (lambda rows: [list(row) for row in rows], _int_rows, None)
# rows that older documents may leave out: a missing key reads as no rows
_OPTIONAL_INT_ROWS = (_INT_ROWS[0], _int_rows, [])
_FRACTION = (frac_to_str, frac_from_json, None)
_VALUES = (values_to_json, values_from_json, None)
_PARTS = (lambda parts: [values_to_json(p) for p in parts], _parts, None)
# rationals kept in their canonical string form
_RATIONAL_STRINGS = (list, lambda items, path: tuple(
    map(frac_to_str, values_from_json(items, path))), None)
_VIOLATION_KIND = (str, _violation_kind, None)


def _fields(*entries: tuple) -> tuple:
    """The entries with each attribute name turned into its getter."""
    return tuple((key, attrgetter(attr), kind) for key, attr, kind in entries)


def _write_fields(fields: tuple, record: Any) -> dict:
    return {key: write(get(record)) for key, get, (write, _, _) in fields}


def _read_fields(fields: tuple, src: dict, prefix: str) -> list:
    return [read(src.get(key, absent), prefix + key)
            for key, _, (_, read, absent) in fields]


@lru_cache(maxsize=None)
def _codecs() -> tuple[dict, dict]:
    """Each record result's row by tag, and each tag by type.  Built on
    the first call: the types are `check`'s, which importing this module
    does not load."""
    from .check import (BoundedTransfer, Candidate, ConstrainedObstruction,
                        CycleObstruction, DualCertificate, SearchReport,
                        StarInstance, StarViolation)

    def row(cls, certificate, *fields, build=None):
        return (cls, build or cls, certificate, _fields(*fields))

    candidate = _fields(("trial", "trial", _INT), ("size", "size", _INT),
                        ("transforms", "transforms", _OPTIONAL_INT_ROWS),
                        ("values", "values", _RATIONAL_STRINGS),
                        ("dual_weights", "dual_weights", _RATIONAL_STRINGS))

    def read_candidates(items: Any, path: str) -> tuple:
        if not isinstance(items, list):
            raise ParseError("expected candidates list", path)
        out = []
        for i, c in enumerate(items):
            if not isinstance(c, dict):
                raise ParseError("expected candidate object", f"{path}[{i}]")
            out.append(Candidate(*_read_fields(candidate, c,
                                               f"{path}[{i}].")))
        return tuple(out)

    def violation(*fields):
        # the certificate's first five fields are the star instance's
        return StarViolation(StarInstance(*fields[:5]), *fields[5:])

    rows = {
        "decomposition": row(Decomposition, False,
                             ("parts", "parts", _PARTS)),
        "violation": row(
            StarViolation, True,
            ("blocks", "instance.blocks", _INT_ROWS),
            ("distinguished", "instance.distinguished", _INT_LIST),
            ("exponents", "instance.exponents", _INT_LIST),
            ("premises", "instance.premises", _OPTIONAL_INT_ROWS),
            ("z", "instance.z", _INT),
            ("value", "value", _FRACTION),
            ("kind", "kind", _VIOLATION_KIND), build=violation),
        "infeasible": row(DualCertificate, True,
                          ("weights", "weights", _VALUES)),
        "bounded-transfer": row(BoundedTransfer, False,
                                ("values", "solution", _VALUES),
                                ("bound", "bound", _FRACTION)),
        "obstruction": row(CycleObstruction, True,
                           ("points", "points", _INT_LIST),
                           ("total", "total", _FRACTION)),
        "constrained-obstruction": row(
            ConstrainedObstruction, True,
            ("x", "x", _INT), ("k", "k", _INT), ("l", "l", _INT),
            ("l2", "l2", _INT), ("total", "total", _FRACTION)),
        "report": row(
            SearchReport, False,
            *[(name, name, _INT) for name in SearchReport._fields[:-1]],
            ("candidates", "candidates",
             (lambda cs: [_write_fields(candidate, c) for c in cs],
              read_candidates, None))),
    }
    return rows, {cls: tag for tag, (cls, *_) in rows.items()}


def result_to_json(result: Any) -> dict:
    """Serialize any library result: None is a passing star check, a tuple
    of ints a point certificate (the empty one too) and a tuple of windows
    lattice parts."""
    if result is None:
        return {"result": "pass"}
    rows, tags = _codecs()
    tag = tags.get(type(result))
    if tag is not None:
        _, _, certificate, fields = rows[tag]
        body = _write_fields(fields, result)
        return ({"result": tag, "certificate": body} if certificate
                else {"result": tag, **body})
    if isinstance(result, tuple):
        from .lattice import LatticeWindow

        if all(isinstance(c, int) for c in result):
            return {"result": "point-violation",
                    "certificate": {"point": list(result)}}
        if all(isinstance(p, LatticeWindow) for p in result):
            return {"result": "lattice-decomposition",
                    "dims": list(result[0].dims), "parts": _PARTS[0](result)}
    raise TypeError(f"no serialization for {type(result).__name__}")


def parse_result(doc: Any) -> Any:
    """Inverse of result_to_json for every result tag: {"result": "pass"}
    parses to None, which is what the checks return when they pass."""
    if not isinstance(doc, dict):
        raise ParseError("result file must be a JSON object")
    tag = doc.get("result")
    if tag == "pass":
        return None
    if tag == "point-violation":
        return tuple(_int_list(_certificate(doc).get("point"),
                               "certificate.point"))
    if tag == "lattice-decomposition":
        from .lattice import LatticeWindow, window_size

        dims = tuple(_int_list(doc.get("dims"), "dims"))
        try:
            window_size(dims)
        except RangeError as exc:
            raise ParseError(str(exc), "dims")
        windows = []
        for i, part in enumerate(_parts(doc.get("parts"), "parts")):
            try:
                windows.append(LatticeWindow(dims, part.values))
            except RangeError as exc:
                raise ParseError(str(exc), f"parts[{i}]")
        return tuple(windows)
    rows = _codecs()[0]
    # a list or object tag is unhashable: refused before the lookup
    if not isinstance(tag, str) or tag not in rows:
        raise ParseError(f"unknown result tag {tag!r}", "result")
    _, build, certificate, fields = rows[tag]
    if certificate:
        return build(*_read_fields(fields, _certificate(doc), "certificate."))
    return build(*_read_fields(fields, doc, ""))


def _write(value: Any, indent: str) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_quote(k)}: {_write(v, inner)}"
                         for k, v in sorted(value.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            # value lists, the bulk of every reply, are all str
            body = sep.join(map(_quote, value))
        except TypeError:
            body = sep.join([_write(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    raise TypeError(f"no JSON form for {type(value).__name__}")


def dumps(doc: dict) -> str:
    """Canonical text form: sorted keys, two-space indent, newline at end.

    The same text as json.dumps(doc, indent=2, sort_keys=True) + "\n" for
    the dict, list, tuple, str, int, bool and None that results are built
    from; json writes indented text with its pure-Python encoder, this
    writer quotes strings with json's C escaper.
    """
    return _write(doc, "") + "\n"


def load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}")
    except ValueError as exc:
        # an integer literal over the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}")
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply")
