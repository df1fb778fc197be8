import random

from hypothesis import given, settings
from hypothesis import strategies as st

from perdec import generators
from tests.conftest import (
    SYSTEM_STYLES,
    decomposable_reference,
    mixed_kernel_reference,
    system_of_style,
)


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
