from collections import Counter
from fractions import Fraction

import pytest

from perdec.check import SearchReport, spot_trials, verify_report
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
    # counted as an infeasible verdict and a discrepancy
    clean = search_counterexample(n=4, max_size=4, trials=60, seed=3)
    monkeypatch.setattr(oracle, "split_over_classes", lambda *args: None)
    report = search_counterexample(n=4, max_size=4, trials=60, seed=3)
    assert clean.star_pass > 0
    assert (report.oracle_feasible, report.discrepancies) == (
        0, clean.star_pass)
    assert report.oracle_infeasible == (clean.oracle_infeasible
                                        + clean.oracle_feasible)
    assert verify_report(report)


# counts a search can produce: 10 trials, 6 star passes (6 feasible), 4
# star fails of which 1 is checked (1 infeasible)
CONSISTENT_COUNTS = dict(
    n=4, max_size=4, trials=10, seed=0, star_pass=6, star_fail=4,
    oracle_feasible=6, oracle_infeasible=1, necessity_checked=1,
    necessity_violations=0, discrepancies=0)


def test_a_report_with_counts_a_search_produces_verifies():
    assert verify_report(SearchReport(**CONSISTENT_COUNTS))


# each change breaks exactly one rule that every search report keeps, but
# three: the first breaks the two its comment names and more, and other
# rules imply star_pass >= 0 (the spot and discrepancy rules) and
# oracle_infeasible >= 0 (the discrepancy rules), so the negative
# star_pass and oracle_infeasible cases break those as well
@pytest.mark.parametrize("change", [
    # no star verdict for 5 trials, and 3 violations of 0 checked trials
    dict(trials=5, star_pass=0, star_fail=0, oracle_feasible=0,
         oracle_infeasible=0, necessity_checked=0, necessity_violations=3,
         discrepancies=0),
    # star passes and fails do not add up to the trials
    dict(trials=11),
    dict(trials=9),
    # a count below zero
    dict(oracle_feasible=-1, oracle_infeasible=8, discrepancies=7),
    dict(star_pass=-1, star_fail=11, oracle_feasible=0, oracle_infeasible=0),
    dict(oracle_infeasible=-1, oracle_feasible=8),
    dict(necessity_violations=-1, oracle_infeasible=2, discrepancies=-1),
    # more necessity violations than checked trials
    dict(necessity_violations=2, discrepancies=3, oracle_feasible=5,
         oracle_infeasible=0),
    # more checked trials than star fails: 2 spots, 1 failure
    dict(star_pass=9, star_fail=1, oracle_feasible=9, oracle_infeasible=2,
         necessity_checked=2),
    # oracle verdicts that are not one per pass and checked failure
    dict(oracle_feasible=5, discrepancies=1),
    dict(oracle_infeasible=2),
    # fewer discrepancies than necessity violations: more feasible verdicts
    # than star passes
    dict(oracle_feasible=7, oracle_infeasible=0, discrepancies=-1),
    # an oracle refusal on a star pass that is no discrepancy
    dict(oracle_feasible=5, oracle_infeasible=2),
    # for n <= 3 every star failure is checked
    dict(n=3),
    # for n >= 4 the checked failures are the failing spot trials, here 0
    # and 7: more than the two spots, or fewer than the two spots that
    # fail when no trial passes
    dict(necessity_checked=3, oracle_infeasible=3),
    dict(star_pass=0, star_fail=10, oracle_feasible=0),
    # parameters the search refuses: fewer than two transforms (with every
    # failure checked, as for n <= 3), or fewer than two points
    dict(n=1, necessity_checked=4, oracle_infeasible=4),
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_search_checks_the_failures_of_the_spot_trials(n):
    # spot_trials counts the trials whose star failures the search checks:
    # every one for n <= 3, every 7th from trial 0 for n >= 4
    spots = [i for i in range(30)
             if spot_trials(n, i + 1) > spot_trials(n, i)]
    assert spots == (list(range(30)) if n <= 3 else [0, 7, 14, 21, 28])
