import inspect
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec import kernels
from perdec.core import power_table
from perdec import _kernels_py as pure

compiled = kernels._compiled
needs_compiled = pytest.mark.skipif(compiled is None,
                                    reason="compiled kernels not built")


def test_implementation_name():
    assert kernels.implementation_name() in ("compiled", "pure")
    assert (kernels.implementation_name() == "compiled") == (compiled is not None)


def test_fits_int64_guard():
    assert kernels._fits_int64([0, 1, -5], 10)
    assert not kernels._fits_int64([1 << 60], 10)
    assert not kernels._fits_int64([-(1 << 60)], 10)
    assert not kernels._fits_int64([1], 1 << 30)


class _Sentinel:
    def __init__(self):
        self.calls = 0

    def star_scan(self, *args):
        self.calls += 1
        return pure.star_scan(*args)

    def compat_scan(self, *args):
        self.calls += 1
        return pure.compat_scan(*args)


def test_dispatcher_routes_on_value_size(monkeypatch):
    sentinel = _Sentinel()
    monkeypatch.setattr(kernels, "_compiled", sentinel)
    tabs = [power_table((1, 0), 2)]
    kernels.star_scan(tabs, [[0, 3]], [1], 2, [0, 1])
    assert sentinel.calls == 1
    # oversized values must fall back to the pure twin
    kernels.star_scan(tabs, [[0, 3]], [1], 2, [0, 1 << 60])
    assert sentinel.calls == 1
    kernels.compat_scan(tabs[0], tabs[0], [0, 1 << 60], 2, True)
    assert sentinel.calls == 1
    kernels.compat_scan(tabs[0], tabs[0], [0, 1], 2, True)
    assert sentinel.calls == 2


@st.composite
def star_cases(draw):
    """Head power tables, arbitrary gate bitmasks and exponent caps."""
    size = draw(st.integers(1, 5))
    nb = draw(st.integers(0, 3))
    bound = draw(st.integers(1, 5))
    head_pows = []
    gates = []
    kmax = []
    for _ in range(nb):
        table = tuple(draw(st.integers(0, size - 1)) for _ in range(size))
        head_pows.append(power_table(table, bound))
        gates.append([draw(st.integers(0, (1 << size) - 1))
                      for _ in range(bound + 1)])
        kmax.append(draw(st.integers(0, bound)))
    f_num = [draw(st.integers(-50, 50)) for _ in range(size)]
    return head_pows, gates, kmax, f_num


def _direct_star_scan(head_pows, gates, kmax, f_num):
    """star_scan's contract as a plain loop over (kvec, z)."""
    nb = len(head_pows)
    for kvec in product(*[range(1, top + 1) for top in kmax]):
        for z in range(len(f_num)):
            if not all(gates[b][kvec[b]] >> z & 1 for b in range(nb)):
                continue
            value = 0
            for subset in product((0, 1), repeat=nb):
                w = z
                for b in range(nb):
                    if subset[b]:
                        w = head_pows[b][kvec[b]][w]
                value += (-1) ** (nb - sum(subset)) * f_num[w]
            if value:
                return kvec, z, value
    return None


@given(star_cases())
@settings(max_examples=300, deadline=None)
def test_star_scan_matches_a_direct_loop(case):
    assert pure.star_scan(*case) == _direct_star_scan(*case)


@needs_compiled
@given(star_cases())
@settings(max_examples=200, deadline=None)
def test_star_scan_compiled_matches_pure(case):
    assert compiled.star_scan(*case) == pure.star_scan(*case)


@needs_compiled
@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_compat_scan_compiled_matches_pure(size, bound, data):
    a = tuple(data.draw(st.integers(0, size - 1)) for _ in range(size))
    b = tuple(data.draw(st.integers(0, size - 1)) for _ in range(size))
    f_num = [data.draw(st.integers(-50, 50)) for _ in range(size)]
    value_on_a = data.draw(st.booleans())
    args = (power_table(a, bound), power_table(b, bound), f_num, bound,
            value_on_a)
    assert compiled.compat_scan(*args) == pure.compat_scan(*args)


@needs_compiled
def test_star_scan_zero_blocks_matches_pure():
    for f_num in ([0, 0, 0], [0, 7, 0]):
        args = ([], [], [], f_num)
        assert compiled.star_scan(*args) == pure.star_scan(*args)


def test_compat_scan_reports_a_real_conflict():
    swap = power_table((1, 0), 2)
    hit = pure.compat_scan(swap, swap, [0, 1], 2, True)
    assert hit is not None
    x, k, n, k2, n2, v, v2 = hit
    assert swap[k][swap[n][x]] == swap[k2][swap[n2][x]]
    assert v != v2
    assert v == [0, 1][swap[k][x]]
    assert v2 == [0, 1][swap[k2][x]]


@needs_compiled
def test_big_values_still_give_exact_results():
    # the dispatcher must agree with pure even when routing varies
    tabs = [power_table((1, 0), 2)]
    small = kernels.star_scan(tabs, [[0, 3]], [1], 2, [0, 1])
    big = kernels.star_scan(tabs, [[0, 3]], [1], 2, [0, 1 << 62])
    assert small == ((1,), 0, 1)
    assert big == ((1,), 0, 1 << 62)


def _parameters(source: str, name: str) -> list[str]:
    start = source.index(f"def {name}(") + len(f"def {name}(")
    return [p.strip() for p in source[start:source.index(")", start)].split(",")]


@pytest.mark.parametrize("name", ["star_scan", "compat_scan"])
def test_compiled_source_keeps_the_pure_signature(name):
    # runs without Cython: the .pyx must take the pure twin's parameters
    pyx = (Path(pure.__file__).parent / "_kernels.pyx").read_text()
    pure_params = list(inspect.signature(getattr(pure, name)).parameters)
    assert _parameters(pyx, name) == pure_params
