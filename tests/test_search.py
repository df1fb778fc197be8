import pytest

from perdec.core import PreconditionError
from perdec.serialize import parse_result, result_to_json
from perdec.star import _reverify_candidate, search_counterexample


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
    for cand in report.candidates:
        weights = _reverify_candidate(cand.transforms, cand.size,
                                      cand.values)
        assert weights == cand.dual_weights
    # the report survives the wire format
    assert parse_result(result_to_json(report)) == report


def test_search_seed_controls_the_stream():
    a = search_counterexample(n=2, max_size=5, trials=40, seed=1)
    b = search_counterexample(n=2, max_size=5, trials=40, seed=1)
    assert a == b
