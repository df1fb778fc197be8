"""JSON wire formats with exact rationals.

Rationals travel as strings "p" or "p/q" in lowest terms; no floating
point appears anywhere.  Parsing accepts exactly the ASCII forms
-?[0-9]+ and -?[0-9]+/[0-9]+ (lowest terms not required).  A value list
parses each of its distinct literals once: invariant parts, duals and
planted values repeat a few literals many times, and a value list
formats each of its distinct values once.  Every result type round-trips,
a passing star check (None) and a point certificate (a tuple of ints)
included: parse_result(result_to_json(r)) == r.

Only `core` loads with this module: the certificate types of `check` and
the windows of `lattice` are imported where a document builds or tests
one, so parsing an instance loads no algorithm module.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Union

from .core import (
    CommutingSystem,
    Decomposition,
    RangeError,
    RationalFunction,
    _Record,
)

if TYPE_CHECKING:
    from .check import (BoundedTransfer, ConstrainedObstruction,
                        CycleObstruction, DualCertificate, SearchReport,
                        StarViolation)
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


def _rational_strings(items: Any, path: str) -> tuple[str, ...]:
    """Validated rationals kept in their canonical string form."""
    return tuple(frac_to_str(v) for v in values_from_json(items, path).values)


def _int_field(doc: dict, key: str, path: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"expected integer field {key!r}", path)
    return v


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
        size = _int_field(doc, "size", "size")
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
        modulus = _int_field(doc, "modulus", "modulus")
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
        length = _int_field(doc, "length", "length")
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


def decomposition_to_json(d: Decomposition) -> dict:
    return {"result": "decomposition",
            "parts": [values_to_json(p) for p in d.parts]}


def violation_to_json(v: StarViolation) -> dict:
    inst = v.instance
    return {
        "result": "violation",
        "certificate": {
            "blocks": [list(b) for b in inst.blocks],
            "distinguished": list(inst.distinguished),
            "exponents": list(inst.exponents),
            "premises": [list(p) for p in inst.premises],
            "z": inst.z,
            "value": frac_to_str(v.value),
            "kind": v.kind,
        },
    }


def dual_to_json(d: DualCertificate) -> dict:
    return {"result": "infeasible",
            "certificate": {"weights": values_to_json(d.weights)}}


def lattice_parts_to_json(
        dims: Sequence[int],
        parts: Sequence[Union[LatticeWindow, RationalFunction]]) -> dict:
    """Parts are windows or flat functions, read through their values."""
    return {
        "result": "lattice-decomposition",
        "dims": list(dims),
        "parts": [values_to_json(p) for p in parts],
    }


def point_violation_to_json(point: Sequence[int]) -> dict:
    return {"result": "point-violation",
            "certificate": {"point": list(point)}}


def bounded_to_json(b: BoundedTransfer) -> dict:
    return {"result": "bounded-transfer",
            "values": values_to_json(b.solution),
            "bound": frac_to_str(b.bound)}


def cycle_obstruction_to_json(o: CycleObstruction) -> dict:
    return {"result": "obstruction",
            "certificate": {"points": list(o.points),
                            "total": frac_to_str(o.total)}}


def constrained_obstruction_to_json(o: ConstrainedObstruction) -> dict:
    return {"result": "constrained-obstruction",
            "certificate": {"x": o.x, "k": o.k, "l": o.l, "l2": o.l2,
                            "total": frac_to_str(o.total)}}


def _counters(report_type: type) -> List[str]:
    """The report's integer fields, in declaration order."""
    return [name for name in report_type._fields if name != "candidates"]


def report_to_json(r: SearchReport) -> dict:
    return {
        "result": "report",
        **{name: getattr(r, name) for name in _counters(type(r))},
        "candidates": [
            {"trial": c.trial, "size": c.size,
             "transforms": [list(t) for t in c.transforms],
             "values": list(c.values),
             "dual_weights": list(c.dual_weights)}
            for c in r.candidates
        ],
    }


def result_to_json(result: Any) -> dict:
    """Serialize any library result: None is a passing star check, a tuple
    of ints a point certificate (the empty one too) and a tuple of windows
    lattice parts."""
    from .check import (BoundedTransfer, ConstrainedObstruction,
                        CycleObstruction, DualCertificate, SearchReport,
                        StarViolation)

    if result is None:
        return {"result": "pass"}
    if isinstance(result, Decomposition):
        return decomposition_to_json(result)
    if isinstance(result, StarViolation):
        return violation_to_json(result)
    if isinstance(result, DualCertificate):
        return dual_to_json(result)
    if isinstance(result, BoundedTransfer):
        return bounded_to_json(result)
    if isinstance(result, CycleObstruction):
        return cycle_obstruction_to_json(result)
    if isinstance(result, ConstrainedObstruction):
        return constrained_obstruction_to_json(result)
    if isinstance(result, SearchReport):
        return report_to_json(result)
    if isinstance(result, tuple):
        from .lattice import LatticeWindow

        if all(isinstance(c, int) for c in result):
            return point_violation_to_json(result)
        if all(isinstance(p, LatticeWindow) for p in result):
            return lattice_parts_to_json(result[0].dims, result)
    raise TypeError(f"no serialization for {type(result).__name__}")


def parse_result(doc: Any) -> Any:
    """Inverse of result_to_json for every result tag.

    A passing star check's {"result": "pass"} parses to None, which is what
    the checks return when they pass.
    """
    from . import check

    if not isinstance(doc, dict):
        raise ParseError("result file must be a JSON object")
    tag = doc.get("result")
    if tag == "pass":
        return None
    if tag == "decomposition":
        parts = doc.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ParseError("expected a nonempty parts list", "parts")
        return Decomposition(tuple(
            values_from_json(p, f"parts[{i}]") for i, p in enumerate(parts)))
    if tag == "violation":
        cert = _certificate(doc)
        blocks = cert.get("blocks")
        if not isinstance(blocks, list):
            raise ParseError("expected blocks list", "certificate.blocks")
        premises = cert.get("premises", [])
        if not isinstance(premises, list):
            raise ParseError("expected premises list", "certificate.premises")
        instance = check.StarInstance(
            blocks=tuple(tuple(_int_list(b, f"certificate.blocks[{i}]"))
                         for i, b in enumerate(blocks)),
            distinguished=tuple(_int_list(cert.get("distinguished"),
                                          "certificate.distinguished")),
            exponents=tuple(_int_list(cert.get("exponents"),
                                      "certificate.exponents")),
            premises=tuple(tuple(_int_list(p, f"certificate.premises[{i}]"))
                           for i, p in enumerate(premises)),
            z=_int_field(cert, "z", "certificate.z"),
        )
        kind = cert.get("kind")
        if kind not in ("MixedDeltaNonzero", "CompatibilityFailure"):
            raise ParseError(f"unknown violation kind {kind!r}",
                             "certificate.kind")
        return check.StarViolation(instance,
                                   frac_from_json(cert.get("value"),
                                                  "certificate.value"), kind)
    if tag == "infeasible":
        cert = _certificate(doc)
        return check.DualCertificate(values_from_json(
            cert.get("weights"), "certificate.weights"))
    if tag == "lattice-decomposition":
        from .lattice import LatticeWindow, window_size

        dims = tuple(_int_list(doc.get("dims"), "dims"))
        try:
            window_size(dims)
        except RangeError as exc:
            raise ParseError(str(exc), "dims")
        parts = doc.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ParseError("expected a nonempty parts list", "parts")
        windows = []
        for i, p in enumerate(parts):
            values = values_from_json(p, f"parts[{i}]").values
            try:
                windows.append(LatticeWindow(dims, values))
            except RangeError as exc:
                raise ParseError(str(exc), f"parts[{i}]")
        return tuple(windows)
    if tag == "point-violation":
        cert = _certificate(doc)
        return tuple(_int_list(cert.get("point"), "certificate.point"))
    if tag == "bounded-transfer":
        return check.BoundedTransfer(values_from_json(doc.get("values")),
                                     frac_from_json(doc.get("bound"), "bound"))
    if tag == "obstruction":
        cert = _certificate(doc)
        return check.CycleObstruction(
            tuple(_int_list(cert.get("points"), "certificate.points")),
            frac_from_json(cert.get("total"), "certificate.total"))
    if tag == "constrained-obstruction":
        cert = _certificate(doc)
        return check.ConstrainedObstruction(
            _int_field(cert, "x", "certificate.x"),
            _int_field(cert, "k", "certificate.k"),
            _int_field(cert, "l", "certificate.l"),
            _int_field(cert, "l2", "certificate.l2"),
            frac_from_json(cert.get("total"), "certificate.total"))
    if tag == "report":
        candidates = doc.get("candidates")
        if not isinstance(candidates, list):
            raise ParseError("expected candidates list", "candidates")
        cands = []
        for i, c in enumerate(candidates):
            if not isinstance(c, dict):
                raise ParseError("expected candidate object",
                                 f"candidates[{i}]")
            if not isinstance(c.get("transforms", []), list):
                raise ParseError("expected a list of transform tables",
                                 f"candidates[{i}].transforms")
            cands.append(check.Candidate(
                trial=_int_field(c, "trial", f"candidates[{i}].trial"),
                size=_int_field(c, "size", f"candidates[{i}].size"),
                transforms=tuple(
                    tuple(_int_list(t, f"candidates[{i}].transforms[{j}]"))
                    for j, t in enumerate(c.get("transforms", []))),
                values=_rational_strings(c.get("values"),
                                         f"candidates[{i}].values"),
                dual_weights=_rational_strings(
                    c.get("dual_weights"), f"candidates[{i}].dual_weights"),
            ))
        counters = {name: _int_field(doc, name, name)
                    for name in _counters(check.SearchReport)}
        return check.SearchReport(candidates=tuple(cands), **counters)
    raise ParseError(f"unknown result tag {tag!r}", "result")


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
