import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perdec import generators
from perdec.core import (
    Decomposition,
    PreconditionError,
    RationalFunction,
    is_invariant,
    validate_system,
    verify_decomposition,
)
from perdec.oracle import (
    DualCertificate,
    kernel_basis,
    linear_feasibility,
    nullspace,
    oracle_decompose,
    verify_dual,
)
from perdec.orbits import invariance_classes
from tests.conftest import systems, systems_with_functions


def _ref_eliminate(rows, rhs):
    """Plain Fraction-based Gauss-Jordan; returns (rank, feasible)."""
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        prow = aug[rank]
        for i in range(len(aug)):
            if i != rank and aug[i][col]:
                factor = aug[i][col] / prow[col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], prow)]
        rank += 1
    feasible = all(row[-1] == 0 for row in aug[rank:])
    return rank, feasible


def _matrices(max_rows=6, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=m, max_size=m),
                st.lists(st.integers(-5, 5), min_size=m, max_size=m))))


@given(_matrices())
def test_linear_feasibility_matches_fraction_reference(case):
    rows, rhs = case
    ncols = len(rows[0])
    solution, dual = linear_feasibility(rows, rhs, ncols)
    _, feasible = _ref_eliminate(rows, rhs)
    assert (solution is not None) == feasible
    assert (dual is not None) == (not feasible)
    if solution is not None:
        for row, b in zip(rows, rhs):
            assert sum(a * c for a, c in zip(row, solution)) == b
    else:
        # dual: y A = 0 and y b != 0, both over the integers
        for col in range(ncols):
            assert sum(y * rows[i][col] for i, y in enumerate(dual)) == 0
        assert sum(y * b for y, b in zip(dual, rhs)) != 0


@given(_matrices())
def test_nullspace_dimension_and_membership(case):
    rows, rhs = case
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    rank, _ = _ref_eliminate(rows, [0] * len(rows))
    assert len(basis) == ncols - rank
    for vec in basis:
        for row in rows:
            assert sum(a * v for a, v in zip(row, vec)) == 0
    if basis:
        basis_rank, _ = _ref_eliminate(basis, [0] * len(basis))
        assert basis_rank == len(basis)  # linearly independent


def test_kernel_basis_spans_invariant_functions():
    t = (1, 2, 2, 3)
    basis = kernel_basis(t)
    part = invariance_classes(t)
    assert len(basis) == part.n_classes
    for b in basis:
        assert is_invariant(t, b)
    # any invariant function is the rep-value combination of the basis
    g = RationalFunction(tuple(Fraction(part.class_of[x] * 7 - 3)
                               for x in range(4)))
    combo = RationalFunction.zero(4)
    for c, b in enumerate(basis):
        combo = combo + b.scale(g[part.representative[c]])
    assert combo == g


def test_oracle_rejects_mismatched_length():
    system = validate_system([(1, 0)], 2)
    with pytest.raises(PreconditionError):
        oracle_decompose(system, RationalFunction.zero(3))


def test_oracle_swap_noninvariant_is_infeasible():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction((Fraction(0), Fraction(1)))
    got = oracle_decompose(system, f)
    assert isinstance(got, DualCertificate)
    assert got.pair(f) != 0
    for b in kernel_basis((1, 0)):
        assert got.pair(b) == 0


def test_oracle_handles_duplicated_transforms():
    system = validate_system([(1, 0), (1, 0)], 2)
    f = RationalFunction.constant(2, Fraction(5))
    got = oracle_decompose(system, f)
    assert isinstance(got, Decomposition)
    assert got.total() == f


@given(systems(), st.integers(0, 10 ** 9))
def test_oracle_accepts_planted_decompositions(system, seed):
    rng = random.Random(f"planted:{seed}")
    f = generators.decomposable_function(rng, system)
    got = oracle_decompose(system, f)
    assert isinstance(got, Decomposition)
    assert len(got.parts) == system.n
    assert got.total() == f
    for t, part in zip(system.transforms, got.parts):
        assert is_invariant(t, part)


@given(systems_with_functions())
def test_oracle_verdict_matches_span_membership(case):
    system, f = case
    # reference: f feasible iff in the span of all kernel indicator columns
    columns = []
    for t in system.transforms:
        columns.extend(kernel_basis(t))
    rows = [[int(col[x]) for col in columns] for x in range(system.size)]
    den = 1
    for v in f.values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    # A c = f is solvable iff A c' = den * f is (rescale the unknowns)
    rhs = [int(v * den) for v in f.values]
    _, feasible = _ref_eliminate(rows, rhs)
    got = oracle_decompose(system, f)
    if feasible:
        assert isinstance(got, Decomposition)
        assert bool(verify_decomposition(system, f, got))
    else:
        assert isinstance(got, DualCertificate)
        assert got.pair(f) != 0


@given(systems_with_functions(), st.data())
def test_verify_dual_matches_pairing_with_every_kernel_indicator(case, data):
    system, f = case
    basis = [e for t in system.transforms for e in kernel_basis(t)]
    # weights from the annihilator of all indicators, sometimes perturbed,
    # so both accepted and rejected functionals come up
    null = nullspace([[int(v) for v in e] for e in basis], system.size)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(null),
                                max_size=len(null)))
    weights = [sum((c * vec[x] for c, vec in zip(coeffs, null)), Fraction(0))
               for x in range(system.size)]
    scale = math.lcm(*(w.denominator for w in weights))
    weights = [w * scale for w in weights]
    if data.draw(st.booleans()):
        x = data.draw(st.integers(0, system.size - 1))
        weights[x] += data.draw(st.integers(-2, 2))
    dual = DualCertificate(RationalFunction(tuple(weights)))
    expected = dual.pair(f) != 0 and all(dual.pair(e) == 0 for e in basis)
    partitions = [invariance_classes(t) for t in system.transforms]
    assert bool(verify_dual(partitions, f, dual)) == expected


def test_verify_dual_rejects_a_wrong_weight_count():
    system = validate_system([(1, 0)], 2)
    f = RationalFunction((Fraction(0), Fraction(1)))
    dual = oracle_decompose(system, f)
    partitions = [invariance_classes((1, 0))]
    assert verify_dual(partitions, f, dual)
    short = DualCertificate(RationalFunction(dual.weights.values[:1]))
    verdict = verify_dual(partitions, f, short)
    assert not verdict and "count" in verdict.reason
