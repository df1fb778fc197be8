import concurrent.futures
import os
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from perdec import generators
from perdec.core import RationalFunction


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool the test asks for, on a
    three-CPU machine; the pool runs its shards in this process, so no
    worker process ever starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return sizes


def rationals(lo: int = -30, hi: int = 30, dmax: int = 12):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, dmax))


def transform_tables(size: int):
    return st.lists(st.integers(0, size - 1), min_size=size,
                    max_size=size).map(tuple)


def value_functions(size: int):
    return st.lists(rationals(), min_size=size,
                    max_size=size).map(lambda vs: RationalFunction(tuple(vs)))


@st.composite
def sized_maps(draw, min_size: int = 1, max_size: int = 7):
    size = draw(st.integers(min_size, max_size))
    t = draw(transform_tables(size))
    return size, t


@st.composite
def systems(draw, n=None, max_size: int = 7, nmin: int = 1, nmax: int = 3):
    if n is None:
        n = draw(st.integers(nmin, nmax))
    seed = draw(st.integers(0, 10 ** 9))
    rng = random.Random(f"sys:{seed}")
    return generators.random_commuting_system(rng, n, max_size)


@st.composite
def systems_with_functions(draw, n=None, max_size: int = 7, style=None):
    system = draw(systems(n=n, max_size=max_size))
    seed = draw(st.integers(0, 10 ** 9))
    rng = random.Random(f"fun:{seed}")
    f = generators.random_function(rng, system, style)
    return system, f


def grid_relation(s, t, x, y, bound):
    """Reference two-map relation search: the first (k, n, k2, n2) with
    t^k s^n x = t^k2 s^n2 y and every exponent <= bound, in the order
    (k + n + k2 + n2, k, n, k2, n2) for x <= y, and swapped for x > y.

    Words are read off (bound + 1)^2 grids of t^k s^n x, one per point.
    """
    if x > y:
        rel = grid_relation(s, t, y, x, bound)
        return None if rel is None else (rel[2], rel[3], rel[0], rel[1])

    def grid(p):
        row = [p]
        for _ in range(bound):
            row.append(s[row[-1]])
        rows = [row]
        for _ in range(bound):
            rows.append([t[q] for q in rows[-1]])
        return rows

    gx, gy = grid(x), grid(y)
    for total in range(4 * bound + 1):
        for k in range(min(total, bound) + 1):
            for n in range(min(total - k, bound) + 1):
                rest = total - k - n
                for k2 in range(max(0, rest - bound), min(rest, bound) + 1):
                    if gx[k][n] == gy[k2][rest - k2]:
                        return (k, n, k2, rest - k2)
    return None
