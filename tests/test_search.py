from collections import Counter
from fractions import Fraction

import pytest

from perdec.check import (Candidate, SearchReport, verify_candidate,
                          verify_report)
from perdec.core import (NotCommutingError, PreconditionError, RangeError,
                         VerificationResult)
from perdec.serialize import parse_result, result_to_json
from perdec.star import search_counterexample


def test_search_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        search_counterexample(n=1, max_size=5, trials=10, seed=0)
    with pytest.raises(PreconditionError):
        search_counterexample(n=2, max_size=1, trials=10, seed=0)
    with pytest.raises(PreconditionError):
        search_counterexample(n=2, max_size=5, trials=-1, seed=0)


def test_search_rejects_non_positive_workers(pool_sizes):
    for workers in (0, -4):
        with pytest.raises(PreconditionError):
            search_counterexample(n=2, max_size=5, trials=10, seed=0,
                                  workers=workers)
    assert pool_sizes == []


def test_search_workers_are_capped_at_the_cpu_count(pool_sizes):
    serial = search_counterexample(n=2, max_size=5, trials=40, seed=4)
    for workers in (2, 3, 100000):
        assert search_counterexample(n=2, max_size=5, trials=40, seed=4,
                                     workers=workers) == serial
    assert pool_sizes == [2, 3, 3]
    search_counterexample(n=2, max_size=5, trials=2, seed=4, workers=100000)
    assert pool_sizes[-1] == 2


def test_search_without_a_cpu_count_runs_in_this_process(pool_sizes,
                                                         monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: None)
    report = search_counterexample(n=2, max_size=5, trials=20, seed=4,
                                   workers=8)
    assert pool_sizes == []
    assert report == search_counterexample(n=2, max_size=5, trials=20,
                                           seed=4)


def test_search_counts_are_consistent():
    report = search_counterexample(n=2, max_size=5, trials=80, seed=5)
    assert report.star_pass + report.star_fail == 80
    # n <= 3 runs as a smoke regression: every star-fail is oracle-checked
    assert report.necessity_checked == report.star_fail
    assert report.oracle_feasible == report.star_pass
    assert report.oracle_infeasible == report.star_fail
    assert report.necessity_violations == 0
    assert report.discrepancies == 0
    assert report.candidates == ()


def test_search_is_deterministic_across_worker_counts():
    one = search_counterexample(n=2, max_size=5, trials=60, seed=9, workers=1)
    two = search_counterexample(n=2, max_size=5, trials=60, seed=9, workers=2)
    assert one == two
    again = search_counterexample(n=2, max_size=5, trials=60, seed=9,
                                  workers=1)
    assert again == one


def test_search_single_trial_with_many_workers():
    report = search_counterexample(n=2, max_size=4, trials=1, seed=0,
                                   workers=8)
    assert report.trials == 1
    assert report.star_pass + report.star_fail == 1


def test_search_four_transforms_smoke():
    report = search_counterexample(n=4, max_size=4, trials=150, seed=2)
    assert report.star_pass + report.star_fail == 150
    assert report.discrepancies == 0
    assert report.necessity_violations == 0
    # spot checks cover at most the star-fail trials
    assert 0 <= report.necessity_checked <= report.star_fail
    assert verify_report(report)
    # the report survives the wire format
    assert parse_result(result_to_json(report)) == report


# counts a search can produce: 10 trials, 6 star passes (6 feasible), 4
# star fails of which 1 is checked (1 infeasible)
CONSISTENT_COUNTS = dict(
    n=4, max_size=4, trials=10, seed=0, star_pass=6, star_fail=4,
    oracle_feasible=6, oracle_infeasible=1, necessity_checked=1,
    necessity_violations=0, discrepancies=0)


def _candidate(trial):
    return Candidate(trial, 2, ((1, 0), (0, 1)), ("0", "1"), ("1", "-1"))


def test_a_report_with_counts_a_search_produces_verifies():
    assert verify_report(SearchReport(candidates=(), **CONSISTENT_COUNTS))


# each change breaks exactly one rule that every search report keeps
@pytest.mark.parametrize("change", [
    # no star verdict for 5 trials, and 3 violations of 0 checked trials
    dict(trials=5, star_pass=0, star_fail=0, oracle_feasible=0,
         oracle_infeasible=0, necessity_checked=0, necessity_violations=3,
         discrepancies=0),
    # star passes and fails do not add up to the trials
    dict(trials=11),
    # a count below zero
    dict(oracle_feasible=-1, oracle_infeasible=8),
    # more necessity violations than checked trials
    dict(necessity_violations=2, discrepancies=2, oracle_feasible=5,
         oracle_infeasible=0),
    # more checked trials than star fails
    dict(necessity_checked=5, oracle_infeasible=5),
    # oracle verdicts that are not one per pass and checked failure
    dict(oracle_feasible=5),
    # a necessity violation that is no discrepancy
    dict(necessity_violations=1, oracle_feasible=5),
    # more candidates than infeasible verdicts
    dict(candidates=(_candidate(3), _candidate(5))),
    # candidates out of trial order, repeated, or outside the trials
    dict(candidates=(_candidate(5), _candidate(3)), oracle_infeasible=2,
         oracle_feasible=5),
    dict(candidates=(_candidate(3), _candidate(3)), oracle_infeasible=2,
         oracle_feasible=5),
    dict(candidates=(_candidate(10),)),
    dict(candidates=(_candidate(-1),)),
])
def test_a_report_with_counts_no_search_produces_is_refused(change):
    report = SearchReport(**{**CONSISTENT_COUNTS, "candidates": (),
                             **change})
    assert verify_report(report) == VerificationResult(
        False, "report counts no search produces")


def test_a_candidate_raises_the_errors_of_its_fields_in_order():
    # the system first, then the value count, then the transform count;
    # a well-formed candidate whose star check passes has no valid dual
    def candidate(transforms, values, weights=("1", "-1")):
        return Candidate(0, 2, transforms, values, weights)

    with pytest.raises(NotCommutingError):
        verify_candidate(candidate(((1, 0), (0, 0)), ("1",)))
    with pytest.raises(RangeError):
        verify_candidate(candidate(((0, 5),), ("1",)))
    with pytest.raises(PreconditionError, match="function length"):
        verify_candidate(candidate((), ("1",)))
    with pytest.raises(PreconditionError, match="at least one"):
        verify_candidate(candidate((), ("1", "2")))
    assert verify_candidate(candidate(((1, 0),), ("1", "2"))).reason == (
        "the star check fails on this instance")
    assert not verify_candidate(candidate(((0, 1),), ("1", "2")))


def test_search_seed_controls_the_stream():
    a = search_counterexample(n=2, max_size=5, trials=40, seed=1)
    b = search_counterexample(n=2, max_size=5, trials=40, seed=1)
    assert a == b


def test_a_search_trial_does_no_fraction_arithmetic(monkeypatch):
    # generators sum on integer numerators, the oracle splits and builds
    # its parts without dividing a Fraction, and the star check runs on
    # integers: a count, so no wall clock is read
    counts = Counter()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__"):
        def counted(*args, _op=getattr(Fraction, name), _name=name):
            counts[_name] += 1
            return _op(*args)

        monkeypatch.setattr(Fraction, name, counted)
    for seed in range(200):
        search_counterexample(n=4, max_size=6, trials=1, seed=seed)
    assert dict(counts) == {}
    # the counters are live
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert dict(counts) == {"__add__": 1}
