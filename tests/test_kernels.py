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


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_compat_scan_matches_the_definition(size, bound, data):
    a = tuple(data.draw(st.integers(0, size - 1)) for _ in range(size))
    b = tuple(data.draw(st.integers(0, size - 1)) for _ in range(size))
    f_num = [data.draw(st.integers(-2, 2)) for _ in range(size)]
    value_on_a = data.draw(st.booleans())
    pow_a, pow_b = power_table(a, bound), power_table(b, bound)

    def compared(k, n, x):
        return f_num[pow_a[k][x]] if value_on_a else f_num[pow_b[n][x]]

    # words (k, n) with k, n <= bound, ordered by k + n, then k
    words = sorted(product(range(bound + 1), repeat=2),
                   key=lambda w: (w[0] + w[1], w[0]))

    def first_words(x, prefix):
        """Image -> first word reaching it, asserting no conflict."""
        first = {}
        for k, n in prefix:
            v = compared(k, n, x)
            seen = first.setdefault(pow_a[k][pow_b[n][x]], (k, n, v))
            assert seen[2] == v
        return first

    hit = kernels.compat_scan(pow_a, pow_b, f_num, bound, value_on_a)
    if hit is None:
        for x in range(size):
            first_words(x, words)
        return
    # the first word, in scan order, whose image an earlier word reached
    # with a different value
    x, k, n, k2, n2, v, v2 = hit
    for y in range(x):
        first_words(y, words)
    first = first_words(x, words[:words.index((k, n))])
    assert first[pow_a[k][pow_b[n][x]]] == (k2, n2, v2)
    assert compared(k, n, x) == v != v2


def test_compat_scan_reports_a_real_conflict():
    swap = power_table((1, 0), 2)
    hit = kernels.compat_scan(swap, swap, [0, 1], 2, True)
    assert hit is not None
    x, k, n, k2, n2, v, v2 = hit
    assert swap[k][swap[n][x]] == swap[k2][swap[n2][x]]
    assert v != v2
    assert v == [0, 1][swap[k][x]]
    assert v2 == [0, 1][swap[k2][x]]


def test_big_values_still_give_exact_results():
    tabs = [power_table((1, 0), 2)]
    small = kernels.star_scan(tabs, [[0, 3]], [1], 2, [0, 1])
    big = kernels.star_scan(tabs, [[0, 3]], [1], 2, [0, 1 << 62])
    assert small == ((1,), 0, 1)
    assert big == ((1,), 0, 1 << 62)
