import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perdec import generators
from tests.conftest import (
    SYSTEM_STYLES,
    counted_tuple,
    decomposable_reference,
    mixed_corners,
    mixed_kernel_reference,
    product_system_reference,
    system_of_style,
)


def test_mixed_corners_sign_by_factors_left_out():
    assert mixed_corners(0) == (((), True),)
    assert mixed_corners(2) == (((), True), ((0,), False), ((1,), False),
                                ((0, 1), True))
    for applied, positive in mixed_corners(3):
        assert positive == ((3 - len(applied)) % 2 == 0)


def test_mixed_kernel_matrix_reads_each_table_once():
    # 16 shifts of Z_4: a row built corner by corner reads 2^16 table
    # entries per point, one unit-difference pass per table n * N; the
    # bound n * N^2 allows a pass per point; a count, no wall clock
    size, n = 4, 16
    reads = [0]
    tables = tuple(counted_tuple(tuple((x + a % size) % size
                                       for x in range(size)), reads)
                   for a in range(n))
    system = SimpleNamespace(size=size, n=n, transforms=tables)
    f = generators.mixed_kernel_function(random.Random(3), system)
    assert 0 < reads[0] <= n * size * size
    assert len(f) == size


@given(st.integers(2, 5), st.sampled_from(SYSTEM_STYLES),
       st.integers(0, 10 ** 9))
@settings(max_examples=120, deadline=None)
def test_generators_match_their_fraction_references(n, style, seed):
    # same values from the same rng, and the same draws: the integer sums
    # leave every later trial of a seeded search unchanged
    system = system_of_style(style, n, 8, seed)
    for fast, reference in (
            (generators.decomposable_function, decomposable_reference),
            (generators.mixed_kernel_function, mixed_kernel_reference)):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, want = fast(rng, system), reference(ref_rng, system)
        assert got.values == want.values
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("n,max_size", [(2, 6), (3, 6), (4, 6), (3, 30),
                                        (4, 60), (2, 1)])
def test_product_systems_match_their_pointwise_reference(n, max_size):
    # the same tables from the same draws in the same order: a seeded
    # search's later trials do not move
    for seed in range(300):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        system = generators._product_system(rng, n, max_size)
        assert (system.size, system.transforms) == product_system_reference(
            ref_rng, n, max_size)
        assert rng.getstate() == ref_rng.getstate()
