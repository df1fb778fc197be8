"""Difference calculus on finite domains.

The domain is {0, .., N-1}.  A transformation is a total self-map stored as
a table ``t`` with ``t[x]`` the image of x; no injectivity or surjectivity
is assumed.  Function values are exact rationals, held as integer
numerators over one denominator (`RationalFunction`), so every equality
test in the library is exact, results do not depend on evaluation order,
and every stage works on the stored integers: no stage converts values to
Fractions and back.

All operations here are pure; every value is immutable after construction
and safe to share between threads.

The library's 11 value types derive from `_Record`, not from frozen
dataclasses, for start-up time: importing `dataclasses` loads `inspect`
(with `ast`, `dis` and `tokenize`), 9.1 ms, and each frozen dataclass
builds its methods with `exec`, 0.64 ms a class against 0.013 ms for a
`_Record` subclass.  `import perdec.cli` fell from 39.8 to 29.1 ms
(medians of 21 fresh interpreters without a bytecode cache, 2-core
shared VM, Python 3.11).

For the same reason every perdec module imports `fractions` (which loads
`decimal` and `numbers`) inside the functions that build or test a
Fraction, never when it loads: only a run whose result carries a
rational, or a caller reading `.values`, pays for it.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

RationalLike = Union[int, str, "Fraction"]


class RangeError(ValueError):
    """A table entry or element index is outside [0, N)."""


class NotCommutingError(ValueError):
    """Two transforms disagree: T_i(T_j x) != T_j(T_i x) for some x.

    ``witness`` holds the first offending (i, j, x) in lexicographic order.
    """

    def __init__(self, i: int, j: int, x: int):
        self.witness = (i, j, x)
        super().__init__(f"transforms {i} and {j} do not commute at x={x}")


class PreconditionError(ValueError):
    """An operation was called with input violating its documented contract."""


class InternalContractViolation(RuntimeError):
    """A constructed result failed its own final verification.

    This signals a bug in the library, never bad input; operations raise it
    instead of returning an unverified answer.
    """


# binds a field past _Record.__setattr__ and keeps the attributes in the
# instance's compact inline form; assigning items of __dict__ instead made
# every later attribute read about three times slower (Python 3.11)
_set_field = object.__setattr__


class _Record:
    """An immutable value with the frozen-dataclass contract.

    The fields are the class annotations in declaration order, a class
    attribute is a field's default, and construction binds them
    positionally or by keyword.  Equality (same class only), hash and
    repr read the fields; assignment and deletion raise AttributeError.
    Instances keep a `__dict__`, so pickle and deepcopy need no hooks.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name
                                             in own if name in cls.__dict__}}
        # the field values, compared and hashed as one key
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args))
        if kwargs or len(args) != len(names):
            bad = len(args) > len(names) or not values.keys().isdisjoint(kwargs)
            values = {**self._defaults, **values, **kwargs}
            if bad or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{names}, got {len(args)} positional and "
                                f"{sorted(kwargs)}")
        # one update from a dict keeps reads about as fast as inline fields
        self.__dict__.update(values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def as_fraction(value: RationalLike) -> Fraction:
    """An int or "p"/"p/q" string by `_ratio`; a Fraction comes back."""
    return _as_fractions((value,))[0]


_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(value: Any) -> tuple[int, int]:
    """(p, q) in lowest terms, q >= 1, of an int or a "p"/"p/q" literal of
    ASCII decimal integers: the one grammar of the library and the wire.
    Any other type raises TypeError, any other str ValueError; unlike
    Fraction(str), no sign, space, "_", decimal point or exponent."""
    if type(value) is str:
        match = _LITERAL.fullmatch(value)
        if not match:
            raise ValueError(f"bad rational literal {value!r}: expected "
                             "\"p\" or \"p/q\" with decimal integers")
        try:
            p, q = map(int, match.groups("1"))
        except ValueError as exc:  # past the int-to-string digit limit
            raise ValueError(f"bad rational literal {value!r}: {exc}") from None
        if not q:
            raise ValueError(f"bad rational literal {value!r}: "
                             f"Fraction({p}, 0)")
        g = gcd(p, q)
        return p // g, q // g
    if type(value) is int:
        return value, 1
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected exact rational, got {value!r}")
    raise TypeError(f"expected exact rational, got {type(value).__name__}")


def _as_fractions(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """`as_fraction` over values, importing `fractions` once per call, not
    once per value.  A tuple of exact Fractions comes back as it is after
    one type pass; a Fraction subclass becomes a Fraction."""
    from fractions import Fraction

    if type(values) is tuple and set(map(type, values)) <= {Fraction}:
        return values
    return tuple([value if type(value) is Fraction
                  else Fraction(value) if isinstance(value, Fraction)
                  else Fraction(*_ratio(value)) for value in values])


def validate_transform(table: Sequence[int], size: int) -> tuple[int, ...]:
    """Check a transformation table against the domain size.

    A table of plain ints within range passes by one type pass and min/max;
    only otherwise is it walked entry by entry, to name the first bad one.
    """
    if len(table) != size:
        raise RangeError(f"transform table has length {len(table)}, expected {size}")
    if table and not (set(map(type, table)) <= {int}
                      and 0 <= min(table) and max(table) < size):
        for x, y in enumerate(table):
            if not isinstance(y, int) or isinstance(y, bool):
                raise RangeError(f"entry {y!r} at position {x} is not an integer")
            if not 0 <= y < size:
                raise RangeError(f"entry {y} at position {x} is outside [0, {size})")
    return tuple(table)


def compose(t: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
    """Table of x -> t(s(x)), i.e. apply s first."""
    return tuple(t[y] for y in s)


def power(t: Sequence[int], k: int) -> tuple[int, ...]:
    """Table of the k-th iterate of t, k >= 0, in O(N log k) by squaring."""
    if k < 0:
        raise RangeError(f"negative exponent {k}")
    out = tuple(range(len(t)))
    square = tuple(t)
    while k:
        if k & 1:
            out = compose(square, out)
        k >>= 1
        if k:
            square = compose(square, square)
    return out


def commute_witness(t: Sequence[int], s: Sequence[int]) -> Optional[int]:
    """First x with t(s(x)) != s(t(x)), or None when the maps commute."""
    for x in range(len(t)):
        if t[s[x]] != s[t[x]]:
            return x
    return None


class CommutingSystem(_Record):
    """A finite domain with pairwise commuting transformations.

    Commutativity is checked at construction; everything downstream may
    rely on it.
    """

    size: int
    transforms: tuple[tuple[int, ...], ...]

    def __init__(self, size: int, transforms: tuple[tuple[int, ...], ...]):
        _set_field(self, "size", size)
        _set_field(self, "transforms", transforms)
        # looked up on the instance: perfbench's tracer times the
        # validation by wrapping CommutingSystem.__post_init__
        self.__post_init__()

    def __post_init__(self):
        if self.size < 1:
            raise RangeError("domain must have at least one element")
        tables = tuple(validate_transform(t, self.size) for t in self.transforms)
        _set_field(self, "transforms", tables)
        for i in range(len(tables)):
            for j in range(i + 1, len(tables)):
                w = commute_witness(tables[i], tables[j])
                if w is not None:
                    raise NotCommutingError(i, j, w)

    @property
    def n(self) -> int:
        return len(self.transforms)


def validate_system(transforms: Iterable[Sequence[int]], size: int) -> CommutingSystem:
    """Build a CommutingSystem, raising RangeError or NotCommutingError."""
    return CommutingSystem(size, tuple(tuple(t) for t in transforms))


def _trusted_system(size: int, tables: tuple[tuple[int, ...], ...]
                    ) -> CommutingSystem:
    """The CommutingSystem of tables the library built itself, which are
    in range and commute by construction (a cyclic group's rotations, a
    window's axis maps), without the constructor's checks.  Tables that
    come from outside take `validate_system`."""
    system = object.__new__(CommutingSystem)
    _set_field(system, "size", size)
    _set_field(system, "transforms", tables)
    return system


class RationalFunction(_Record):
    """A function on {0..N-1} with exact rational values, stored as integer
    numerators over one denominator: f(x) = numerators[x] / denom, with
    denom >= 1 the lcm of the values' reduced denominators, so that
    gcd(denom, *numerators) == 1 and equal functions have equal fields.

    The constructor takes Fractions and what `_ratio` takes, ints and
    "p"/"p/q" strings; the library builds its functions from numerators
    with `_from_integers`.  `values`, the Fractions, is built on its first
    read and kept outside the fields.
    """

    numerators: tuple[int, ...]
    denom: int

    def __init__(self, values: Iterable[RationalLike]):
        values = _as_fractions(values)
        denom = lcm(*{v.denominator for v in values})
        _set_field(self, "numerators", tuple(
            v.numerator * (denom // v.denominator) for v in values))
        _set_field(self, "denom", denom)
        _set_field(self, "_values", values)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as Fractions, one per distinct numerator."""
        values = self.__dict__.get("_values")
        if values is None:
            from fractions import Fraction

            memo = dict.fromkeys(self.numerators)
            for v in memo:
                memo[v] = Fraction(v, self.denom)
            values = tuple(map(memo.__getitem__, self.numerators))
            _set_field(self, "_values", values)
        return values

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, x: int) -> Fraction:
        return self.values[x]

    def __iter__(self):
        return iter(self.values)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self._combine(other, -1)

    def compose(self, t: Sequence[int]) -> "RationalFunction":
        """The function x -> f(t(x))."""
        if len(t) != len(self):
            raise PreconditionError("transform length does not match function")
        return _from_integers(map(self.numerators.__getitem__, t), self.denom)

    def max_abs(self) -> Fraction:
        """Sup norm."""
        from fractions import Fraction

        return Fraction(max(map(abs, self.numerators), default=0), self.denom)

    def _combine(self, other: "RationalFunction", sign: int
                 ) -> "RationalFunction":
        """self + sign * other, over the lcm of the two denominators."""
        if len(self) != len(other):
            raise PreconditionError("function lengths differ")
        denom = lcm(self.denom, other.denom)
        a, b = denom // self.denom, sign * (denom // other.denom)
        return _from_integers([a * u + b * v for u, v in
                               zip(self.numerators, other.numerators)], denom)


def _from_integers(numerators: Iterable[int], denom: int) -> RationalFunction:
    """The function x -> numerators[x] / denom, for ints and denom >= 1,
    built without checks and brought to the canonical pair in two gcds.

    g = gcd(denom, sum of the numerators) is one big-int gcd, and the
    pair's gcd divides it, so gcd(g, *numerators) is that gcd exactly,
    with a running gcd no larger than g.  g stays large only when the sum
    shares most of denom's factors, as a sum of 0 shares all of them.
    """
    numerators = tuple(numerators)
    g = gcd(denom, sum(numerators))
    if g != 1:
        g = gcd(g, *numerators)
        if g != 1:
            numerators = tuple([v // g for v in numerators])
            denom //= g
    return _canonical(numerators, denom)


def _canonical(numerators: tuple[int, ...], denom: int) -> RationalFunction:
    """The function with the pair (numerators, denom), for a pair that is
    canonical by construction: denom >= 1 and gcd(denom, *numerators) == 1.

    A caller that knows the gcd is 1 skips the two that `_from_integers`
    takes, which cost a big-int gcd with the numerators' sum and, when
    that sum is 0, one big-int gcd per numerator while the running gcd
    stays as large as denom.
    """
    f = object.__new__(RationalFunction)
    _set_field(f, "numerators", numerators)
    _set_field(f, "denom", denom)
    return f


def _mixed_difference(tables: Sequence[Sequence[int]],
                      values: Sequence[int]) -> list[int]:
    """D_1...D_n of integer values (D_j g = g o t_j - g), one unit-difference
    pass per table, so O(nN) for n tables on N points.

    The factors of a commuting system commute, so the pass order does not
    change the result.
    """
    row = list(values)
    for t in tables:
        row = [row[y] - v for y, v in zip(t, row)]
    return row


def window_difference(values: Sequence, offsets: Sequence[int]
                      ) -> tuple[int, list]:
    """(lo, row): row[j] is the mixed difference of values, factor a being
    g -> g(. + a) - g, at z = lo + j, for exactly the z of [0, L) whose
    stencil stays in it.  The window twin of `_mixed_difference`: one
    unit-difference pass per offset, O(kL) for k offsets."""
    lo = 0
    row = list(values)
    for a in offsets:
        if a >= 0:
            row = [y - x for x, y in zip(row, row[a:])]
        else:
            row = [x - y for x, y in zip(row, row[-a:])]
            lo -= a
    return lo, row


def is_invariant(t: Sequence[int], f: RationalFunction) -> bool:
    """True iff f(t(x)) = f(x) for every x."""
    return tuple(map(f.numerators.__getitem__, t)) == f.numerators


class Decomposition(_Record):
    """Parts indexed like the system's transforms; part j claims T_j-invariance."""

    parts: tuple[RationalFunction, ...]

    def __init__(self, parts: tuple[RationalFunction, ...]):
        _set_field(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, j: int) -> RationalFunction:
        return self.parts[j]


class VerificationResult(_Record):
    """Outcome of a certificate check; falsy when invalid, with a reason."""

    ok: bool
    reason: Optional[str] = None

    def __init__(self, ok: bool, reason: Optional[str] = None):
        _set_field(self, "ok", ok)
        _set_field(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok

    def require(self, what: str) -> None:
        """Raise InternalContractViolation when `what` failed this check."""
        if not self.ok:
            raise InternalContractViolation(
                f"{what} failed verification: {self.reason}")
