"""Random commuting systems and value tables for tests and the
counterexample search.

Independent uniformly random maps essentially never commute, so systems
are built constructively: translations on cyclic groups, powers of a
single random base map, and products of independent per-factor actions.
Every generated system still goes through full commutativity validation.
"""

from __future__ import annotations

import random
from math import lcm, prod
from operator import sub
from typing import List, Optional, Sequence

from . import oracle
from .core import (CommutingSystem, RationalFunction, _from_integers,
                   power, validate_system)
from .orbits import invariance_classes


def random_commuting_system(rng: random.Random, n: int,
                            max_size: int) -> CommutingSystem:
    style = rng.choice(("translation", "power", "product"))
    if style == "translation":
        size = rng.randint(2, max_size)
        transforms = []
        for _ in range(n):
            a = rng.randrange(size)
            transforms.append(tuple((x + a) % size for x in range(size)))
        return validate_system(transforms, size)
    if style == "power":
        size = rng.randint(2, max_size)
        base = tuple(rng.randrange(size) for _ in range(size))
        transforms = [power(base, rng.randint(0, 3)) for _ in range(n)]
        return validate_system(transforms, size)
    return _product_system(rng, n, max_size)


def _product_system(rng: random.Random, n: int, max_size: int) -> CommutingSystem:
    """Transforms acting factor-by-factor on a product of small domains."""
    dims: List[int] = []
    cap = max_size
    while cap >= 2 and (not dims or rng.random() < 0.5):
        d = rng.randint(2, cap)
        dims.append(d)
        cap //= d
    bases = []
    for d in dims:
        if rng.random() < 0.5:
            a = rng.randrange(d)
            bases.append(tuple((c + a) % d for c in range(d)))
        else:
            bases.append(tuple(rng.randrange(d) for _ in range(d)))
    transforms = []
    for _ in range(n):
        # each map is a power of each factor's base, points in row-major
        # order with the first factor slowest
        table = [0]
        for base, d in zip(bases, dims):
            factor = power(base, rng.randint(0, 2))
            table = [y * d + c for y in table for c in factor]
        transforms.append(tuple(table))
    return validate_system(transforms, prod(dims))


def _random_values(rng: random.Random, count: int, top: int,
                   denominators: tuple[int, ...]) -> tuple[list[int], int]:
    """count random rationals p / q, p in [-top, top] and q drawn from
    denominators, in draw order, as numerators over the lcm of the q."""
    draws = [(rng.randint(-top, top), rng.choice(denominators))
             for _ in range(count)]
    denom = lcm(*{q for _, q in draws})
    return [p * (denom // q) for p, q in draws], denom


def random_invariant_part(rng: random.Random, t: Sequence[int]) -> RationalFunction:
    """Random function constant on each invariance class of t."""
    part = invariance_classes(t)
    picks, denom = _random_values(rng, part.n_classes, 3, (1, 1, 2))
    return _from_integers(map(picks.__getitem__, part.class_of), denom)


def decomposable_function(rng: random.Random,
                          system: CommutingSystem) -> RationalFunction:
    """Sum of one random invariant part per transform; decomposable by design.

    The parts are summed on integer numerators over the lcm of their
    denominators.
    """
    parts = [random_invariant_part(rng, t) for t in system.transforms]
    denom = lcm(*(p.denom for p in parts))
    total = [0] * system.size
    for p in parts:
        k = denom // p.denom
        total = [a + k * b for a, b in zip(total, p.numerators)]
    return _from_integers(total, denom)


def mixed_kernel_function(rng: random.Random,
                          system: CommutingSystem) -> RationalFunction:
    """Random element of ker D_1...D_n, D_j g = g o T_j - g.

    The matrix is built like `core._mixed_difference`, one unit-difference
    pass per table, on rows: row x of D_j o D is row T_j(x) of D minus row
    x.  That costs O(nN^2) and n * N table reads, where 2^n corner images
    per point grew as 2^n.  The result is a random integer combination
    (coefficients -3..3) of `oracle.nullspace`'s basis, so the kernel is
    sampled independently of `check_star` and `decompose_n`;
    `tests/test_decomp.py` draws from it inputs that every n must
    decompose, since on a finite domain each element of the kernel is
    decomposable.  The combination is summed on
    integer numerators over one lcm.
    """
    size = system.size
    rows = [[int(x == w) for w in range(size)] for x in range(size)]
    for t in system.transforms:
        rows = [list(map(sub, rows[y], row)) for y, row in zip(t, rows)]
    basis = oracle.nullspace(rows, size)
    coefficients = [rng.randint(-3, 3) for _ in basis]
    denom = lcm(*(vec.denom for vec in basis))
    total = [0] * size
    for c, vec in zip(coefficients, basis):
        if c:
            k = c * (denom // vec.denom)
            total = [a + k * w for a, w in zip(total, vec.numerators)]
    return _from_integers(total, denom)


def generic_function(rng: random.Random, size: int) -> RationalFunction:
    return _from_integers(*_random_values(rng, size, 4, (1, 1, 2, 3)))


def random_function(rng: random.Random, system: CommutingSystem,
                    style: Optional[str] = None) -> RationalFunction:
    if style is None:
        style = rng.choices(("generic", "decomposable", "mixed_kernel"),
                            weights=(35, 25, 40))[0]
    if style == "generic":
        return generic_function(rng, system.size)
    if style == "decomposable":
        return decomposable_function(rng, system)
    if style == "mixed_kernel":
        return mixed_kernel_function(rng, system)
    raise ValueError(f"unknown style {style!r}")
