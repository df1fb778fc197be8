"""Release acceptance gate: every advertised guarantee at full scale.

Each test covers one numbered acceptance criterion, runs at the
advertised instance counts, asserts the advertised tolerance (exact, 0
discrepancies) and wall-clock budget, and prints one summary line
(visible with ``pytest -s``).  Criteria 1-3 stash every refusal
certificate they emit; criterion 4 replays all of them through the
command-line ``--verify`` path, so the module is meant to run as a whole
file.  Run alone it still passes: criterion 4 regenerates a small batch.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from perdec import cohomology, decomp, generators, lattice, oracle, serialize, star
from perdec.cli import run_command
from perdec.core import (
    Decomposition,
    RationalFunction,
    _trusted_system,
    is_invariant,
    validate_system,
    window_difference,
)
from perdec.check import (
    BoundedTransfer,
    DualCertificate,
    StarViolation,
    replay_violation,
    verify_parts,
    verify_report,
)
from tests.conftest import (
    SHIFT_FAMILIES,
    constant,
    delta,
    fraction_partial_sum_bound,
    pairing,
    shift_table,
)

pytestmark = pytest.mark.acceptance

# (subcommand, instance doc, certificate doc) triples stashed by criteria 1-3
_COLLECTED: list = []


def _announce(number: int, detail: str) -> None:
    print(f"[criterion {number}] PASS {detail}", flush=True)


def _finite_doc(system, f: RationalFunction) -> dict:
    return {
        "kind": "finite",
        "size": system.size,
        "transforms": [list(t) for t in system.transforms],
        "values": [str(v) for v in f],
    }


def _stash(subcommand: str, system, f: RationalFunction, result) -> None:
    _COLLECTED.append(
        (subcommand, _finite_doc(system, f), serialize.result_to_json(result)))


def test_criterion_1_two_transform_construction_matches_oracle():
    start = time.perf_counter()
    rng = random.Random(20260801)
    built = refused = 0
    for _ in range(1000):
        system = generators.random_commuting_system(rng, 2, 8)
        f = generators.random_function(rng, system)
        s, t = system.transforms
        constructed = decomp.decompose_two(s, t, f)
        decided = oracle.oracle_decompose(system, f)
        feasible = isinstance(decided, Decomposition)
        if isinstance(constructed, Decomposition):
            assert feasible, "construction succeeded on an oracle-infeasible f"
            assert verify_parts(system.transforms, f, constructed.parts)
            built += 1
        else:
            assert not feasible, "construction refused an oracle-feasible f"
            _stash("decompose", system, f, constructed)
            _stash("oracle", system, f, decided)
            refused += 1
    elapsed = time.perf_counter() - start
    assert built + refused == 1000 and built > 0 and refused > 0
    assert elapsed < 60.0
    _announce(1, f"two-transform construction matches the oracle on 1000 "
                 f"systems ({built} built, {refused} refused) in {elapsed:.1f}s")


def test_criterion_2_three_transform_construction_matches_oracle():
    start = time.perf_counter()
    rng = random.Random(20260802)
    family_counts = dict.fromkeys(SHIFT_FAMILIES, 0)
    total = built = refused = 0
    for family, (step, s_shift, u_shift) in SHIFT_FAMILIES.items():
        for _ in range(74):
            m = 4 * rng.randint(2, 8)
            t, s, u = (shift_table(m, a)
                       for a in (step, s_shift(m), u_shift(m)))
            # one invariant part per map, so f splits by construction
            planted = [generators.random_invariant_part(rng, table)
                       for table in (t, s, u)]
            assert all(is_invariant(table, part)
                       for table, part in zip((t, s, u), planted))
            f = planted[0] + planted[1] + planted[2]
            outcome = decomp.decompose_three(t, s, u, f)
            assert isinstance(outcome, Decomposition)
            system = validate_system([t, s, u], m)
            assert verify_parts(system.transforms, f, outcome.parts)
            assert isinstance(oracle.oracle_decompose(system, f),
                              Decomposition)
            family_counts[family] += 1
            built += 1
            total += 1
    while total < 500:
        system = generators.random_commuting_system(rng, 3, 8)
        f = generators.random_function(rng, system)
        t, s, u = system.transforms
        constructed = decomp.decompose_three(t, s, u, f)
        decided = oracle.oracle_decompose(system, f)
        feasible = isinstance(decided, Decomposition)
        if isinstance(constructed, Decomposition):
            assert feasible, "construction succeeded on an oracle-infeasible f"
            assert verify_parts(system.transforms, f, constructed.parts)
            built += 1
        else:
            assert not feasible, "construction refused an oracle-feasible f"
            _stash("decompose", system, f, constructed)
            _stash("oracle", system, f, decided)
            refused += 1
        total += 1
    elapsed = time.perf_counter() - start
    assert total >= 500 and refused > 0
    assert all(count >= 50 for count in family_counts.values())
    assert elapsed < 300.0
    _announce(2, f"three-transform construction matches the oracle on {total} "
                 f"systems ({built} built, {refused} refused; planted shift "
                 f"families {family_counts}) in {elapsed:.1f}s")


def test_criterion_3_planted_invariant_sums_pass_condition():
    start = time.perf_counter()
    rng = random.Random(20260803)
    checked = {2: 0, 3: 0, 4: 0}
    for _ in range(1000):
        n = rng.choice((2, 3, 4))
        system = generators.random_commuting_system(rng, n, 6 if n == 4 else 8)
        f = generators.decomposable_function(rng, system)
        assert star.check_star(system, f) is None
        checked[n] += 1
    elapsed = time.perf_counter() - start
    assert sum(checked.values()) == 1000
    assert elapsed < 120.0
    _announce(3, f"1000 planted invariant sums pass the partition condition "
                 f"(by transform count: {checked}) in {elapsed:.1f}s")


def test_criterion_4_emitted_certificates_replay_via_cli_verify(tmp_path, capsys):
    start = time.perf_counter()
    if not _COLLECTED:
        rng = random.Random(20260804)
        while len(_COLLECTED) < 40:
            system = generators.random_commuting_system(rng, 2, 8)
            f = generators.generic_function(rng, system.size)
            decided = oracle.oracle_decompose(system, f)
            if isinstance(decided, DualCertificate):
                _stash("oracle", system, f, decided)
                s, t = system.transforms
                _stash("decompose", system, f, decomp.decompose_two(s, t, f))
    inst_path = tmp_path / "instance.json"
    cert_path = tmp_path / "certificate.json"
    replayed = 0
    for subcommand, doc, cert in _COLLECTED:
        inst_path.write_text(json.dumps(doc))
        cert_path.write_text(serialize.dumps(cert))
        code = run_command([subcommand, str(inst_path),
                            "--verify", str(cert_path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["agrees"] is True, (
            f"certificate {replayed} ({subcommand}) failed to replay: {payload}")
        replayed += 1
    elapsed = time.perf_counter() - start
    _announce(4, f"{replayed}/{replayed} emitted certificates replay through "
                 f"the --verify path in {elapsed:.1f}s")


def test_criterion_5_z_window_linear_function_is_blocked():
    # f(x) = x against the equal shifts (1, 1): the double difference
    # vanishes, yet the arithmetic check blocks every split
    shifts = (1, 1)
    f = RationalFunction(tuple(Fraction(x) for x in range(10)))
    assert not any(window_difference(f.values, shifts)[1])
    violation = star.check_star_abelian(shifts, f)
    assert violation is not None
    assert violation.instance.blocks == ((0, 1),)
    assert violation.instance.exponents == (1,)
    assert violation.value != 0
    assert replay_violation(f, violation, shifts=shifts)
    # control: shift-invariant functions on the same window do pass
    flat = constant(10, Fraction(3))
    assert star.check_star_abelian((1, 1), flat) is None
    _announce(5, "f(x) = x on a length-10 window with shifts (1, 1) has zero "
                 "mixed difference yet is blocked at block {0, 1}, exponent 1")


def _cycles(t):
    """All cycles of the functional graph, each as a tuple of points."""
    seen = set()
    cycles = []
    for x in range(len(t)):
        p = x
        for _ in range(len(t)):
            p = t[p]
        if p in seen:
            continue
        cycle = [p]
        q = t[p]
        while q != p:
            cycle.append(q)
            q = t[q]
        seen.update(cycle)
        cycles.append(tuple(cycle))
    return cycles


def test_criterion_6_transfer_solver_matches_cycle_enumeration():
    start = time.perf_counter()
    rng = random.Random(20260806)
    for _ in range(1000):
        size = rng.randint(2, 10)
        t = tuple(rng.randrange(size) for _ in range(size))
        h = generators.generic_function(rng, size)
        g = delta(t, h)
        solved = cohomology._transfer_walk(t, g)
        assert isinstance(solved, RationalFunction)
        assert delta(t, solved) == g
    solvable_count = obstructed_count = 0
    for _ in range(1000):
        size = rng.randint(2, 10)
        t = tuple(rng.randrange(size) for _ in range(size))
        g = generators.generic_function(rng, size)
        solved = cohomology._transfer_walk(t, g)
        expected = all(sum(g[p] for p in cycle) == 0 for cycle in _cycles(t))
        if isinstance(solved, RationalFunction):
            assert expected, "solver solved despite a nonzero cycle sum"
            assert delta(t, solved) == g
            solvable_count += 1
        else:
            assert not expected, "solver refused though every cycle sum is zero"
            cycle = next(c for c in _cycles(t) if solved.x in c)
            assert (solved.k, solved.l, solved.l2) == (len(cycle), 0, 0)
            assert sum(g[p] for p in cycle) == solved.total != 0
            obstructed_count += 1
    elapsed = time.perf_counter() - start
    assert solvable_count > 0 and obstructed_count > 0
    assert elapsed < 60.0
    _announce(6, f"1000 transfer round-trips plus 1000 verdicts matching "
                 f"independent cycle enumeration ({solvable_count} solvable, "
                 f"{obstructed_count} obstructed) in {elapsed:.1f}s")


def _strides(dims):
    """Row-major strides, last axis fastest."""
    return [math.prod(dims[i + 1:]) for i in range(len(dims))]


def _coords(dims, idx):
    return tuple(idx // stride % w for w, stride in zip(dims, _strides(dims)))


def _separable_values(rng, dims):
    """Sum over axes of random functions that ignore their own axis."""
    size = math.prod(dims)
    values = [Fraction(0)] * size
    for j in range(len(dims)):
        table = {}
        for idx in range(size):
            coords = _coords(dims, idx)
            key = tuple(c for i, c in enumerate(coords) if i != j)
            if key not in table:
                table[key] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
            values[idx] += table[key]
    return RationalFunction(values)


def _axis_constant(dims, part: RationalFunction, axis: int) -> bool:
    stride = _strides(dims)[axis]
    return all(part.values[idx + stride] == part.values[idx]
               for idx in range(len(part))
               if _coords(dims, idx)[axis] + 1 < dims[axis])


def _window_system(dims):
    return _trusted_system(math.prod(dims), lattice.axis_maps(dims))


def test_criterion_7_window_decomposition_matches_feasibility_oracle():
    # a window is the finite system of its axis maps: decompose_n splits
    # it and the oracle confirms the split, or both refuse
    start = time.perf_counter()
    rng = random.Random(20260807)
    shapes = [(6, 6, 6), (6, 6, 6), (6, 6, 6)]
    while len(shapes) < 200:
        d = rng.randint(1, 3)
        shapes.append(tuple(rng.randint(2, 6) for _ in range(d)))
    separable = 0
    for dims in shapes:
        window = _separable_values(rng, dims)
        assert star.check_star(_window_system(dims), window) is None
        parts = decomp.decompose_n(_window_system(dims), window).parts
        assert len(parts) == len(dims)
        totals = [Fraction(0)] * len(window)
        for j, part in enumerate(parts):
            assert _axis_constant(dims, part, j)
            for i in range(len(window)):
                totals[i] += part.values[i]
        assert tuple(totals) == window.values
        assert isinstance(oracle.verified_split(lattice.axis_maps(dims),
                                                window), Decomposition)
        separable += 1
    rejected = 0
    for _ in range(60):
        d = rng.randint(2, 3)
        dims = tuple(rng.randint(2, 4) for _ in range(d))
        window = RationalFunction([rng.randint(-4, 4)
                                   for _ in range(math.prod(dims))])
        decided = oracle.verified_split(lattice.axis_maps(dims), window)
        constructed = decomp.decompose_n(_window_system(dims), window)
        if star.check_star(_window_system(dims), window) is None:
            assert isinstance(decided, Decomposition)
            assert isinstance(constructed, Decomposition)
        else:
            assert isinstance(decided, DualCertificate)
            assert pairing(decided, window) != 0
            assert isinstance(constructed, StarViolation)
            rejected += 1
    elapsed = time.perf_counter() - start
    assert separable >= 200 and rejected > 0
    assert elapsed < 60.0
    _announce(7, f"{separable} zero-mixed-difference windows (up to 6x6x6) "
                 f"decomposed and oracle-confirmed, {rejected} generic windows "
                 f"refused with nonzero duals, in {elapsed:.1f}s")


def test_criterion_8_bounded_transfer_with_certified_sup_norm():
    start = time.perf_counter()
    rng = random.Random(20260808)
    solvable = obstructed = 0
    while solvable < 200:
        system = generators.random_commuting_system(rng, 2, 10)
        t, s = system.transforms
        planted = rng.random() < 0.7
        if planted:
            g = delta(t, generators.random_invariant_part(rng, s))
        else:
            g = generators.random_invariant_part(rng, s)
        result = cohomology.solve_bounded_transfer(t, s, g)
        if isinstance(result, BoundedTransfer):
            h, c = result.solution, result.bound
            assert delta(t, h) == g
            assert is_invariant(s, h)
            assert c == fraction_partial_sum_bound(t, g)
            assert h.max_abs() <= 2 * c
            assert c <= 2 * h.max_abs()
            solvable += 1
        else:
            assert not planted, "planted solvable instance came back obstructed"

            def walk(x, tk, sl):
                for _ in range(sl):
                    x = s[x]
                for _ in range(tk):
                    x = t[x]
                return x

            assert walk(result.x, result.k, result.l) == walk(
                result.x, 0, result.l2)
            p = walk(result.x, 0, result.l)
            total = Fraction(0)
            for _ in range(result.k):
                total += g[p]
                p = t[p]
            assert total == result.total != 0
            obstructed += 1
    elapsed = time.perf_counter() - start
    assert solvable >= 200 and obstructed > 0
    assert elapsed < 60.0
    _announce(8, f"{solvable} bounded transfers with certified sup norm in "
                 f"[C/2, 2C] and {obstructed} replayed obstructions in "
                 f"{elapsed:.1f}s")


def test_criterion_9_randomized_search_regressions():
    start = time.perf_counter()
    smoke_two = star.search_counterexample(n=2, max_size=6, trials=1200, seed=101)
    smoke_three = star.search_counterexample(n=3, max_size=6, trials=1000, seed=202)
    for report in (smoke_two, smoke_three):
        assert report.star_pass + report.star_fail == report.trials
        assert report.discrepancies == 0
        assert report.necessity_violations == 0
        assert report.oracle_feasible == report.star_pass
        assert report.candidates == ()
    assert smoke_two.trials + smoke_three.trials >= 2000
    deep = star.search_counterexample(n=4, max_size=6, trials=10_000, seed=303)
    assert deep.star_pass + deep.star_fail == 10_000
    assert deep.discrepancies == 0
    assert deep.necessity_violations == 0
    assert verify_report(deep)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _announce(9, f"search regressions clean: {smoke_two.trials + smoke_three.trials} "
                 f"smoke trials with 0 discrepancies, 10000 four-transform "
                 f"trials with {len(deep.candidates)} candidates, in "
                 f"{elapsed:.1f}s")
