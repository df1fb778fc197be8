from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perdec.cohomology import (
    BoundedTransfer,
    ConstrainedObstruction,
    CycleObstruction,
)
from perdec.core import Decomposition, NotCommutingError, RationalFunction
from perdec.lattice import LatticeWindow
from perdec.oracle import DualCertificate
from perdec.serialize import (
    Instance,
    ParseError,
    dumps,
    frac_from_json,
    frac_to_str,
    instance_to_json,
    load_json,
    parse_instance,
    parse_result,
    point_violation_to_json,
    result_to_json,
    values_from_json,
    values_to_json,
)
from perdec.star import Candidate, SearchReport, StarInstance, StarViolation
from tests.conftest import rationals


@given(rationals(-10 ** 6, 10 ** 6, 10 ** 4))
def test_frac_string_round_trip(q):
    assert frac_from_json(frac_to_str(q)) == q


def test_frac_from_json_forms():
    assert frac_from_json(7) == 7
    assert frac_from_json("-3/6") == Fraction(-1, 2)
    assert frac_from_json("-3/4") == Fraction(-3, 4)
    assert frac_from_json("2/4") == Fraction(1, 2)
    for bad in (1.5, True, None, [], "3/0", "x", "1.5", " 3", "1_000", "+3",
                "1e3", "3/-4", "\u0663"):
        with pytest.raises(ParseError):
            frac_from_json(bad)


# every literal of the accepted form: signs, leading zeros, "-0", zero and
# non-lowest-terms denominators
_LITERALS = st.one_of(
    st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
    st.builds(lambda p, q, k, zeros: f"{p * k}/{'0' * zeros}{q * k}",
              st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6),
              st.integers(1, 10 ** 6), st.integers(0, 3)))


@given(_LITERALS)
def test_frac_from_json_equals_fraction_of_the_string(literal):
    if "/" in literal and int(literal.partition("/")[2]) == 0:
        with pytest.raises(ParseError):
            frac_from_json(literal)
        return
    got, want = frac_from_json(literal), Fraction(literal)
    assert type(got) is Fraction
    assert got.as_integer_ratio() == want.as_integer_ratio()


@pytest.mark.parametrize("bad", ["3/0", "-0/000", "9" * 5000,
                                 "1/" + "7" * 5000])
def test_bad_literals_name_their_field(bad):
    with pytest.raises(ParseError) as exc:
        values_from_json(["1/2", bad], path="values")
    assert exc.value.path == "values[1]"
    with pytest.raises(ParseError) as exc:
        parse_result({"result": "bounded-transfer", "values": ["0"],
                      "bound": bad})
    assert exc.value.path == "bound"


def test_values_round_trip_and_errors():
    f = RationalFunction((Fraction(1, 2), Fraction(-3)))
    assert values_from_json(values_to_json(f)) == f
    with pytest.raises(ParseError):
        values_from_json([])
    with pytest.raises(ParseError) as exc:
        values_from_json(["1", 2.5], path="values")
    assert "values[1]" in str(exc.value)


def _finite_doc():
    return {
        "kind": "finite",
        "size": 3,
        "transforms": [[1, 2, 0], [2, 0, 1]],
        "values": ["1/2", "0", "-3"],
    }


def test_parse_instance_finite_round_trip():
    inst = parse_instance(_finite_doc())
    assert inst.kind == "finite"
    assert inst.system.size == 3
    assert inst.f[0] == Fraction(1, 2)
    assert instance_to_json(inst) == _finite_doc()


def test_parse_instance_finite_errors():
    with pytest.raises(ParseError):
        parse_instance("not a dict")
    with pytest.raises(ParseError):
        parse_instance({"kind": "nope"})
    doc = _finite_doc()
    doc["values"] = ["1", "2"]
    with pytest.raises(ParseError) as exc:
        parse_instance(doc)
    assert "values" in str(exc.value)
    doc = _finite_doc()
    doc["transforms"] = [[1, 2, 3], [0, 1, 2]]  # 3 out of range
    with pytest.raises(ParseError):
        parse_instance(doc)
    doc = _finite_doc()
    doc["transforms"] = [[1, 0, 2], [0, 0, 0]]  # do not commute
    with pytest.raises(NotCommutingError):
        parse_instance(doc)


def test_parse_instance_cyclic_reduces_shifts():
    doc = {"kind": "cyclic-group", "modulus": 5, "shifts": [7, -1],
           "values": ["0", "1", "2", "3", "4"]}
    inst = parse_instance(doc)
    assert inst.shifts == (2, 4)
    assert inst.system.transforms[0][0] == 2
    again = parse_instance(instance_to_json(inst))
    assert again == inst


def test_parse_instance_z_window():
    doc = {"kind": "z-window", "length": 4, "shifts": [1, 1],
           "values": ["0", "1", "2", "3"]}
    inst = parse_instance(doc)
    assert inst.length == 4
    assert instance_to_json(inst) == doc
    bad = dict(doc, shifts=[-1])
    with pytest.raises(ParseError):
        parse_instance(bad)
    with pytest.raises(ParseError):
        parse_instance(dict(doc, length=1, values=["0"]))


def test_parse_instance_lattice_window():
    doc = {"kind": "lattice-window", "dims": [2, 2],
           "values": ["0", "1", "2", "3"]}
    inst = parse_instance(doc)
    assert inst.window.dims == (2, 2)
    assert instance_to_json(inst) == doc
    with pytest.raises(ParseError):
        parse_instance(dict(doc, dims=[2, 1]))
    with pytest.raises(ParseError):
        parse_instance(dict(doc, values=["0"] * 3))


def _sample_results():
    decomposition = Decomposition((
        RationalFunction((Fraction(1, 3), Fraction(1, 3))),
        RationalFunction((Fraction(0), Fraction(2))),
    ))
    violation = StarViolation(
        StarInstance(blocks=((0, 1), (2,)), distinguished=(1, 2),
                     exponents=(2, 1), premises=((0, 1, 3),), z=4),
        Fraction(-5, 2), "MixedDeltaNonzero")
    dual = DualCertificate(RationalFunction((Fraction(1), Fraction(-1))))
    bounded = BoundedTransfer(RationalFunction((Fraction(1, 2), Fraction(0))),
                              Fraction(3, 4))
    cycle = CycleObstruction((2, 5, 3), Fraction(7))
    constrained = ConstrainedObstruction(1, 3, 0, 2, Fraction(-2, 9))
    report = SearchReport(
        n=4, max_size=5, trials=10, seed=3,
        star_pass=6, star_fail=4, oracle_feasible=5, oracle_infeasible=1,
        necessity_checked=2, necessity_violations=0, discrepancies=0,
        candidates=(Candidate(7, 2, ((1, 0), (0, 1)), ("1", "-1/2"),
                              ("2", "0")),))
    lattice_parts = (
        LatticeWindow((2, 2), (Fraction(1),) * 4),
        LatticeWindow((2, 2), (Fraction(0), Fraction(1),
                               Fraction(0), Fraction(1))),
    )
    return [decomposition, violation, dual, bounded, cycle, constrained,
            report, lattice_parts]


def test_every_result_type_round_trips():
    for result in _sample_results():
        doc = result_to_json(result)
        assert parse_result(doc) == result
        # canonical text form is stable under a parse/serialize cycle
        assert dumps(result_to_json(parse_result(doc))) == dumps(doc)


def test_point_violation_round_trip():
    doc = point_violation_to_json((1, 0, 2))
    assert doc["result"] == "point-violation"
    assert parse_result(doc) == (1, 0, 2)


def test_result_to_json_rejects_unknown():
    with pytest.raises(TypeError):
        result_to_json(object())


def test_parse_result_errors_name_the_path():
    with pytest.raises(ParseError):
        parse_result({"result": "nonsense"})
    with pytest.raises(ParseError):
        parse_result([1, 2])
    doc = result_to_json(_sample_results()[1])
    doc["certificate"]["kind"] = "Other"
    with pytest.raises(ParseError) as exc:
        parse_result(doc)
    assert exc.value.path == "certificate.kind"
    doc = result_to_json(_sample_results()[0])
    doc["parts"] = []
    with pytest.raises(ParseError) as exc:
        parse_result(doc)
    assert exc.value.path == "parts"
    doc = result_to_json(_sample_results()[6])
    del doc["trials"]
    with pytest.raises(ParseError) as exc:
        parse_result(doc)
    assert exc.value.path == "trials"


@pytest.mark.parametrize("field,bad", [
    ("values", ["abc"]), ("values", "12"), ("values", [0.5]),
    ("dual_weights", ["1/0"]), ("dual_weights", None)])
def test_parse_result_validates_candidate_rationals(field, bad):
    doc = result_to_json(_sample_results()[6])
    doc["candidates"][0][field] = bad
    with pytest.raises(ParseError) as exc:
        parse_result(doc)
    assert exc.value.path.startswith(f"candidates[0].{field}")


def test_dumps_is_canonical():
    text = dumps({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_load_json_reports_position():
    with pytest.raises(ParseError) as exc:
        load_json("{\n  \"a\": }\n")
    assert "line 2" in str(exc.value)
    assert load_json("{\"a\": 1}") == {"a": 1}


@given(st.lists(rationals(), min_size=1, max_size=6),
       st.lists(rationals(), min_size=1, max_size=6))
def test_decomposition_round_trip_random(a, b):
    d = Decomposition((RationalFunction(tuple(a)),
                       RationalFunction(tuple(b))))
    assert parse_result(result_to_json(d)) == d
