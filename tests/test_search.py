from collections import Counter
from fractions import Fraction

import pytest

from perdec.check import SearchReport, verify_report
from perdec.core import PreconditionError, VerificationResult
from perdec import oracle
from perdec.serialize import parse_result, result_to_json
from perdec.star import search_counterexample


def test_search_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        search_counterexample(n=1, max_size=5, trials=10, seed=0)
    with pytest.raises(PreconditionError):
        search_counterexample(n=2, max_size=1, trials=10, seed=0)
    with pytest.raises(PreconditionError):
        search_counterexample(n=2, max_size=5, trials=-1, seed=0)


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


def test_search_is_deterministic_under_a_seed():
    one = search_counterexample(n=2, max_size=5, trials=60, seed=9)
    again = search_counterexample(n=2, max_size=5, trials=60, seed=9)
    assert again == one


def test_search_single_trial():
    report = search_counterexample(n=2, max_size=4, trials=1, seed=0)
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


def test_a_refusal_on_a_star_pass_is_a_discrepancy(monkeypatch):
    # a star pass splits, so an oracle refusal there has no dual: it is
    # counted as an infeasible verdict and a discrepancy, with no candidate
    clean = search_counterexample(n=4, max_size=4, trials=60, seed=3)
    monkeypatch.setattr(oracle, "split_over_classes", lambda *args: None)
    report = search_counterexample(n=4, max_size=4, trials=60, seed=3)
    assert clean.star_pass > 0
    assert (report.oracle_feasible, report.discrepancies) == (
        0, clean.star_pass)
    assert report.oracle_infeasible == (clean.oracle_infeasible
                                        + clean.oracle_feasible)
    assert report.candidates == ()
    assert verify_report(report)


# counts a search can produce: 10 trials, 6 star passes (6 feasible), 4
# star fails of which 1 is checked (1 infeasible)
CONSISTENT_COUNTS = dict(
    n=4, max_size=4, trials=10, seed=0, star_pass=6, star_fail=4,
    oracle_feasible=6, oracle_infeasible=1, necessity_checked=1,
    necessity_violations=0, discrepancies=0)


def test_a_report_with_counts_a_search_produces_verifies():
    assert verify_report(SearchReport(**CONSISTENT_COUNTS))


# each change breaks exactly one rule that every search report keeps
@pytest.mark.parametrize("change", [
    # no star verdict for 5 trials, and 3 violations of 0 checked trials
    dict(trials=5, star_pass=0, star_fail=0, oracle_feasible=0,
         oracle_infeasible=0, necessity_checked=0, necessity_violations=3,
         discrepancies=0),
    # star passes and fails do not add up to the trials
    dict(trials=11),
    dict(trials=9),
    # a count below zero
    dict(oracle_feasible=-1, oracle_infeasible=8),
    dict(star_pass=-1, star_fail=11, oracle_feasible=0, oracle_infeasible=0),
    dict(oracle_infeasible=-1, oracle_feasible=8),
    dict(necessity_violations=-1, oracle_infeasible=2),
    # more necessity violations than checked trials
    dict(necessity_violations=2, discrepancies=2, oracle_feasible=5,
         oracle_infeasible=0),
    # more checked trials than star fails
    dict(necessity_checked=5, oracle_infeasible=5),
    # oracle verdicts that are not one per pass and checked failure
    dict(oracle_feasible=5),
    dict(oracle_feasible=7),
    # a necessity violation that is no discrepancy
    dict(necessity_violations=1, oracle_feasible=5),
    # parameters the search refuses: fewer than two transforms, or fewer
    # than two points
    dict(n=1),
    dict(max_size=1),
    dict(max_size=-3),
])
def test_a_report_with_counts_no_search_produces_is_refused(change):
    report = SearchReport(**{**CONSISTENT_COUNTS, **change})
    assert verify_report(report) == VerificationResult(
        False, "report counts no search produces")


@pytest.mark.parametrize("n,max_size", [(1, 2), (2, 1), (0, 0), (2, 2),
                                        (5, 3)])
def test_the_search_takes_the_parameters_its_checker_accepts(n, max_size):
    # a zero-trial report with these parameters verifies exactly when the
    # search runs on them, and then the search's own report verifies too
    idle = dict(trials=0, seed=0, star_pass=0, star_fail=0,
                oracle_feasible=0, oracle_infeasible=0, necessity_checked=0,
                necessity_violations=0, discrepancies=0)
    if verify_report(SearchReport(n=n, max_size=max_size, **idle)):
        assert verify_report(search_counterexample(
            n=n, max_size=max_size, trials=5, seed=0))
    else:
        with pytest.raises(PreconditionError):
            search_counterexample(n=n, max_size=max_size, trials=5, seed=0)


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
