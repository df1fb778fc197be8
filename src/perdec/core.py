"""Difference calculus on finite domains.

The domain is {0, .., N-1}.  A transformation is a total self-map stored as
a table ``t`` with ``t[x]`` the image of x; no injectivity or surjectivity
is assumed.  Function values are exact rationals, so every equality test in
the library is exact and results do not depend on evaluation order.

All operations here are pure; every value is immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]


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


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints and "p/q" strings; a Fraction comes back unchanged and
    floats are rejected."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"float {value!r} rejected: values must be exact rationals")
    return Fraction(value)


def validate_transform(table: Sequence[int], size: int) -> tuple[int, ...]:
    """Check a transformation table against the domain size."""
    if len(table) != size:
        raise RangeError(f"transform table has length {len(table)}, expected {size}")
    for x, y in enumerate(table):
        if not isinstance(y, int) or isinstance(y, bool):
            raise RangeError(f"entry {y!r} at position {x} is not an integer")
        if not 0 <= y < size:
            raise RangeError(f"entry {y} at position {x} is outside [0, {size})")
    return tuple(table)


def identity(size: int) -> tuple[int, ...]:
    return tuple(range(size))


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


def iterate(t: Sequence[int], steps: int, x: int) -> int:
    """t^steps(x) for any steps >= 0, in at most len(t) steps.

    Walks x's forward orbit until it repeats, then reduces the remaining
    steps modulo the cycle it entered.
    """
    path: list[int] = []
    first: dict[int, int] = {}
    while steps:
        if x in first:
            mu = first[x]
            return path[mu + steps % (len(path) - mu)]
        first[x] = len(path)
        path.append(x)
        x = t[x]
        steps -= 1
    return x


def power_table(t: Sequence[int], kmax: int) -> list[tuple[int, ...]]:
    """Tables of t^0 .. t^kmax, computed incrementally."""
    out = [tuple(range(len(t)))]
    for _ in range(kmax):
        out.append(compose(t, out[-1]))
    return out


def commute_witness(t: Sequence[int], s: Sequence[int]) -> Optional[int]:
    """First x with t(s(x)) != s(t(x)), or None when the maps commute."""
    for x in range(len(t)):
        if t[s[x]] != s[t[x]]:
            return x
    return None


@dataclass(frozen=True)
class CommutingSystem:
    """A finite domain with pairwise commuting transformations.

    Commutativity is checked at construction; everything downstream may
    rely on it.
    """

    size: int
    transforms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.size < 1:
            raise RangeError("domain must have at least one element")
        tables = tuple(validate_transform(t, self.size) for t in self.transforms)
        object.__setattr__(self, "transforms", tables)
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


@dataclass(frozen=True)
class RationalFunction:
    """A function on {0..N-1} with exact rational values."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(map(as_fraction, self.values)))

    @classmethod
    def from_values(cls, values: Iterable[RationalLike]) -> "RationalFunction":
        return cls(tuple(values))

    @classmethod
    def zero(cls, size: int) -> "RationalFunction":
        return cls((Fraction(0),) * size)

    @classmethod
    def constant(cls, size: int, value: RationalLike) -> "RationalFunction":
        return cls((as_fraction(value),) * size)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, x: int) -> Fraction:
        return self.values[x]

    def __iter__(self):
        return iter(self.values)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        self._check_len(other)
        return RationalFunction(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        self._check_len(other)
        return RationalFunction(tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(tuple(-a for a in self.values))

    def scale(self, c: RationalLike) -> "RationalFunction":
        c = as_fraction(c)
        return RationalFunction(tuple(c * a for a in self.values))

    def compose(self, t: Sequence[int]) -> "RationalFunction":
        """The function x -> f(t(x))."""
        if len(t) != len(self.values):
            raise PreconditionError("transform length does not match function")
        return RationalFunction(tuple(self.values[y] for y in t))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def max_abs(self) -> Fraction:
        """Sup norm."""
        return max((abs(v) for v in self.values), default=Fraction(0))

    def _check_len(self, other: "RationalFunction") -> None:
        if len(self.values) != len(other.values):
            raise PreconditionError("function lengths differ")


def integer_values(f: RationalFunction) -> tuple[list[int], int]:
    """Scale f to integers: (numerators, d) with f[x] = numerators[x] / d."""
    denom = 1
    for v in f:
        q = v.denominator
        g = gcd(denom, q)
        denom = denom // g * q
    return [v.numerator * (denom // v.denominator) for v in f], denom


def integer_ratios(values: Iterable[Fraction]) -> list[tuple[int, int]]:
    """(numerator, denominator) of each value; equal pairs are equal values,
    and pairs compare without Fraction arithmetic."""
    return [v.as_integer_ratio() for v in values]


def first_sum_mismatch(target: Sequence[tuple[int, int]],
                       columns: Sequence[Sequence[tuple[int, int]]]
                       ) -> Optional[int]:
    """First x where the columns' entries do not sum to target[x], or None.

    Entries are `integer_ratios` pairs.  Each point sums on integers over a
    denominator that grows only to the lcm of that point's own
    denominators, so no number outgrows what the Fraction sum would form.
    """
    for x, ((want, denom), *terms) in enumerate(zip(target, *columns)):
        total = 0
        for num, q in terms:
            if denom % q:
                scale = lcm(denom, q) // denom
                total *= scale
                want *= scale
                denom *= scale
            total += num * (denom // q)
        if total != want:
            return x
    return None


def delta(t: Sequence[int], f: RationalFunction) -> RationalFunction:
    """The difference x -> f(t(x)) - f(x)."""
    return f.compose(t) - f


@lru_cache(maxsize=None)
def mixed_corners(n: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """(factors applied, positive) per corner of an n-fold mixed difference.

    The corner applying the factors in the subset counts positively when it
    leaves out an even number of them.
    """
    return tuple((tuple(b for b in range(n) if mask >> b & 1),
                  (n - bin(mask).count("1")) % 2 == 0)
                 for mask in range(1 << n))


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


def mixed_delta(system: CommutingSystem, powers: Sequence[int],
                f: RationalFunction) -> RationalFunction:
    """Apply the difference of T_j^{k_j} for each j with k_j = powers[j].

    A zero power skips its factor entirely (the empty product of operators
    is the identity, not the zero map).
    """
    if len(powers) != system.n:
        raise PreconditionError(
            f"expected {system.n} powers, got {len(powers)}")
    tables = []
    for t, k in zip(system.transforms, powers):
        if k < 0:
            raise RangeError(f"negative power {k}")
        if k:
            tables.append(power(t, k))
    f_num, denom = integer_values(f)
    return RationalFunction(tuple(Fraction(v, denom)
                                  for v in _mixed_difference(tables, f_num)))


def is_invariant(t: Sequence[int], f: RationalFunction) -> bool:
    """True iff f(t(x)) = f(x) for every x."""
    return all(f.values[t[x]] == f.values[x] for x in range(len(f)))


@dataclass(frozen=True)
class Decomposition:
    """Parts indexed like the system's transforms; part j claims T_j-invariance."""

    parts: tuple[RationalFunction, ...]

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, j: int) -> RationalFunction:
        return self.parts[j]

    def total(self) -> RationalFunction:
        if not self.parts:
            raise PreconditionError("empty decomposition has no ambient size")
        out = self.parts[0]
        for p in self.parts[1:]:
            out = out + p
        return out


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a certificate check; falsy when invalid, with a reason."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok

    def require(self, what: str) -> None:
        """Raise InternalContractViolation when `what` failed this check."""
        if not self.ok:
            raise InternalContractViolation(
                f"{what} failed verification: {self.reason}")


def verify_decomposition(system: CommutingSystem, f: RationalFunction,
                         decomposition: Decomposition) -> VerificationResult:
    """Exact check that parts sum to f and part j is T_j-invariant.

    Returns a truthy result on success; on failure the reason tag is
    "LengthMismatch(j)", "SumMismatch(x)" or "NotInvariant(j,x)" for the
    first defect found.
    """
    if len(decomposition.parts) != system.n:
        raise PreconditionError(
            f"decomposition has {len(decomposition.parts)} parts, "
            f"system has {system.n} transforms")
    if not decomposition.parts:
        raise PreconditionError("empty decomposition has no ambient size")
    if len(f) != system.size:
        raise PreconditionError("function length does not match the domain")
    for j, part in enumerate(decomposition.parts):
        if len(part) != system.size:
            return VerificationResult(False, f"LengthMismatch({j})")
    columns = [integer_ratios(part) for part in decomposition.parts]
    x = first_sum_mismatch(integer_ratios(f), columns)
    if x is not None:
        return VerificationResult(False, f"SumMismatch({x})")
    for j, (t, ratios) in enumerate(zip(system.transforms, columns)):
        moved = [ratios[y] for y in t]
        if moved != ratios:
            x = next(x for x, (a, b) in enumerate(zip(moved, ratios))
                     if a != b)
            return VerificationResult(False, f"NotInvariant({j},{x})")
    return VerificationResult(True)
