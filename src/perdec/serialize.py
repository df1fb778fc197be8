"""JSON wire formats with exact rationals.

Rationals travel as strings "p" or "p/q" in lowest terms; no floating
point appears anywhere.  Parsing accepts exactly the ASCII forms
-?[0-9]+ and -?[0-9]+/[0-9]+ (lowest terms not required).  Every result
type round-trips: parse_result(result_to_json(r)) == r.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Optional, Sequence, Union

from .cohomology import BoundedTransfer, ConstrainedObstruction, CycleObstruction
from .core import (
    CommutingSystem,
    Decomposition,
    NotCommutingError,
    RangeError,
    RationalFunction,
)
from .lattice import LatticeWindow
from .oracle import DualCertificate
from .star import Candidate, SearchReport, StarInstance, StarViolation


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


def values_to_json(f: RationalFunction) -> List[str]:
    return [frac_to_str(v) for v in f.values]


def values_from_json(items: Any, path: str = "values") -> RationalFunction:
    if not isinstance(items, list) or not items:
        raise ParseError("expected a nonempty list of rationals", path)
    return RationalFunction(tuple(
        frac_from_json(v, f"{path}[{i}]") for i, v in enumerate(items)))


def _rational_strings(items: Any, path: str) -> tuple[str, ...]:
    """Validated rationals kept in their canonical string form."""
    return tuple(frac_to_str(v) for v in values_from_json(items, path).values)


def _int_field(doc: dict, key: str, path: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"expected integer field {key!r}", path)
    return v


def _int_list(items: Any, path: str) -> List[int]:
    if not isinstance(items, list):
        raise ParseError("expected a list of integers", path)
    out = []
    for i, v in enumerate(items):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"expected integer, got {v!r}", f"{path}[{i}]")
        out.append(v)
    return out


KINDS = ("finite", "cyclic-group", "z-window", "lattice-window")


@dataclass(frozen=True)
class Instance:
    """A parsed instance file of any kind.

    finite and cyclic-group carry a CommutingSystem plus f; z-window keeps
    shifts and f on a segment of Z; lattice-window carries the window.
    Cyclic-group shifts are reduced modulo the modulus.
    """

    kind: str
    system: Optional[CommutingSystem] = None
    f: Optional[RationalFunction] = None
    shifts: Optional[tuple[int, ...]] = None
    modulus: Optional[int] = None
    length: Optional[int] = None
    window: Optional[LatticeWindow] = None


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
        f = values_from_json(doc.get("values"))
        if len(f) != size:
            raise ParseError(f"expected {size} values, got {len(f)}", "values")
        try:
            system = CommutingSystem(size, tuple(tuple(tr) for tr in tables))
        except RangeError as exc:
            raise ParseError(str(exc), "transforms")
        return Instance(kind, system=system, f=f)
    if kind == "cyclic-group":
        modulus = _int_field(doc, "modulus", "modulus")
        if modulus < 1:
            raise ParseError("modulus must be >= 1", "modulus")
        shifts = _int_list(doc.get("shifts"), "shifts")
        if not shifts:
            raise ParseError("expected at least one shift", "shifts")
        f = values_from_json(doc.get("values"))
        if len(f) != modulus:
            raise ParseError(f"expected {modulus} values, got {len(f)}",
                             "values")
        tables = tuple(tuple((x + a) % modulus for x in range(modulus))
                       for a in shifts)
        system = CommutingSystem(modulus, tables)
        return Instance(kind, system=system, f=f,
                        shifts=tuple(a % modulus for a in shifts),
                        modulus=modulus)
    if kind == "z-window":
        length = _int_field(doc, "length", "length")
        if length < 2:
            raise ParseError("window length must be >= 2", "length")
        shifts = _int_list(doc.get("shifts"), "shifts")
        if not shifts or any(a < 0 for a in shifts):
            raise ParseError("expected nonnegative shifts", "shifts")
        f = values_from_json(doc.get("values"))
        if len(f) != length:
            raise ParseError(f"expected {length} values, got {len(f)}",
                             "values")
        return Instance(kind, f=f, shifts=tuple(shifts), length=length)
    dims = _int_list(doc.get("dims"), "dims")
    f = values_from_json(doc.get("values"))
    try:
        window = LatticeWindow(tuple(dims), f.values)
    except RangeError as exc:
        raise ParseError(str(exc), "dims")
    return Instance(kind, window=window)


def instance_to_json(inst: Instance) -> dict:
    if inst.kind == "finite":
        return {
            "kind": "finite",
            "size": inst.system.size,
            "transforms": [list(t) for t in inst.system.transforms],
            "values": values_to_json(inst.f),
        }
    if inst.kind == "cyclic-group":
        return {
            "kind": "cyclic-group",
            "modulus": inst.modulus,
            "shifts": list(inst.shifts),
            "values": values_to_json(inst.f),
        }
    if inst.kind == "z-window":
        return {
            "kind": "z-window",
            "length": inst.length,
            "shifts": list(inst.shifts),
            "values": values_to_json(inst.f),
        }
    return {
        "kind": "lattice-window",
        "dims": list(inst.window.dims),
        "values": [frac_to_str(v) for v in inst.window.values],
    }


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


def lattice_parts_to_json(dims: Sequence[int],
                          parts: Sequence[LatticeWindow]) -> dict:
    return {
        "result": "lattice-decomposition",
        "dims": list(dims),
        "parts": [[frac_to_str(v) for v in p.values] for p in parts],
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


def report_to_json(r: SearchReport) -> dict:
    return {
        "result": "report",
        "n": r.n,
        "max_size": r.max_size,
        "trials": r.trials,
        "seed": r.seed,
        "star_pass": r.star_pass,
        "star_fail": r.star_fail,
        "oracle_feasible": r.oracle_feasible,
        "oracle_infeasible": r.oracle_infeasible,
        "necessity_checked": r.necessity_checked,
        "necessity_violations": r.necessity_violations,
        "discrepancies": r.discrepancies,
        "candidates": [
            {"trial": c.trial, "size": c.size,
             "transforms": [list(t) for t in c.transforms],
             "values": list(c.values),
             "dual_weights": list(c.dual_weights)}
            for c in r.candidates
        ],
    }


ResultType = Union[Decomposition, StarViolation, DualCertificate,
                   BoundedTransfer, CycleObstruction, ConstrainedObstruction,
                   SearchReport, tuple]


def result_to_json(result: Any, dims: Optional[Sequence[int]] = None) -> dict:
    """Serialize any library result; lattice part tuples need their dims."""
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
    if isinstance(result, tuple) and result and all(
            isinstance(p, LatticeWindow) for p in result):
        if dims is None:
            dims = result[0].dims
        return lattice_parts_to_json(dims, result)
    raise TypeError(f"no serialization for {type(result).__name__}")


def parse_result(doc: Any) -> Any:
    """Inverse of result_to_json for every result tag.

    A passing star check's {"result": "pass"} parses to None, which is what
    the checks return when they pass.
    """
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
        cert = doc.get("certificate")
        if not isinstance(cert, dict):
            raise ParseError("expected a certificate object", "certificate")
        blocks = cert.get("blocks")
        if not isinstance(blocks, list):
            raise ParseError("expected blocks list", "certificate.blocks")
        premises = cert.get("premises", [])
        if not isinstance(premises, list):
            raise ParseError("expected premises list", "certificate.premises")
        instance = StarInstance(
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
        return StarViolation(instance,
                             frac_from_json(cert.get("value"),
                                            "certificate.value"), kind)
    if tag == "infeasible":
        cert = doc.get("certificate")
        if not isinstance(cert, dict):
            raise ParseError("expected a certificate object", "certificate")
        return DualCertificate(values_from_json(cert.get("weights"),
                                                "certificate.weights"))
    if tag == "lattice-decomposition":
        dims = tuple(_int_list(doc.get("dims"), "dims"))
        parts = doc.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ParseError("expected a nonempty parts list", "parts")
        return tuple(
            LatticeWindow(dims, values_from_json(p, f"parts[{i}]").values)
            for i, p in enumerate(parts))
    if tag == "point-violation":
        cert = doc.get("certificate")
        if not isinstance(cert, dict):
            raise ParseError("expected a certificate object", "certificate")
        return tuple(_int_list(cert.get("point"), "certificate.point"))
    if tag == "bounded-transfer":
        return BoundedTransfer(values_from_json(doc.get("values")),
                               frac_from_json(doc.get("bound"), "bound"))
    if tag == "obstruction":
        cert = doc.get("certificate")
        if not isinstance(cert, dict):
            raise ParseError("expected a certificate object", "certificate")
        return CycleObstruction(
            tuple(_int_list(cert.get("points"), "certificate.points")),
            frac_from_json(cert.get("total"), "certificate.total"))
    if tag == "constrained-obstruction":
        cert = doc.get("certificate")
        if not isinstance(cert, dict):
            raise ParseError("expected a certificate object", "certificate")
        return ConstrainedObstruction(
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
            cands.append(Candidate(
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
        return SearchReport(
            n=_int_field(doc, "n", "n"),
            max_size=_int_field(doc, "max_size", "max_size"),
            trials=_int_field(doc, "trials", "trials"),
            seed=_int_field(doc, "seed", "seed"),
            star_pass=_int_field(doc, "star_pass", "star_pass"),
            star_fail=_int_field(doc, "star_fail", "star_fail"),
            oracle_feasible=_int_field(doc, "oracle_feasible",
                                       "oracle_feasible"),
            oracle_infeasible=_int_field(doc, "oracle_infeasible",
                                         "oracle_infeasible"),
            necessity_checked=_int_field(doc, "necessity_checked",
                                         "necessity_checked"),
            necessity_violations=_int_field(doc, "necessity_violations",
                                            "necessity_violations"),
            discrepancies=_int_field(doc, "discrepancies", "discrepancies"),
            candidates=tuple(cands),
        )
    raise ParseError(f"unknown result tag {tag!r}", "result")


def dumps(doc: dict) -> str:
    """Canonical text form: sorted keys, two-space indent, newline at end."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}")
    except ValueError as exc:
        # an integer literal over the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}")
