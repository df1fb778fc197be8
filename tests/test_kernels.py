from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from perdec import kernels
from perdec.core import power_table


def test_implementation_name():
    # the benchmark records implementation_name() and routes on _compiled
    assert kernels.implementation_name() == "pure"
    assert kernels._compiled is None


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
    return head_pows, gates, kmax, bound, f_num


def _direct_star_scan(head_pows, gates, kmax, bound, f_num):
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
    assert kernels.star_scan(*case) == _direct_star_scan(*case)


def test_big_values_still_give_exact_results():
    tabs = [power_table((1, 0), 2)]
    small = kernels.star_scan(tabs, [[0, 3]], [1], 2, [0, 1])
    big = kernels.star_scan(tabs, [[0, 3]], [1], 2, [0, 1 << 62])
    assert small == ((1,), 0, 1)
    assert big == ((1,), 0, 1 << 62)
