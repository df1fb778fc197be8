import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from perdec import core, serialize
from perdec.cli import _EMITS
from perdec.check import (
    BoundedTransfer,
    ConstrainedObstruction,
    DualCertificate,
    SearchReport,
    StarInstance,
    StarViolation,
)
from perdec.core import (
    Decomposition,
    NotCommutingError,
    RangeError,
    RationalFunction,
    as_fraction,
)
from perdec.lattice import axis_maps
from perdec.serialize import (
    ParseError,
    dumps,
    frac_from_json,
    frac_to_str,
    instance_to_json,
    load_json,
    parse_instance,
    parse_result,
    result_to_json,
    values_from_json,
    values_to_json,
)
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


# several spellings of a few values, drawn many times over a list: a
# memoised parse must still give each item the value of its own literal
_SPELLINGS = st.sampled_from(["1/2", "2/4", "-0", "0", "0/7", "007", "7",
                              "14/2", "-3/6", "-1/2"])
_GOOD_LITERALS = _LITERALS.filter(
    lambda s: "/" not in s or int(s.partition("/")[2]) != 0)


@given(st.lists(st.one_of(_GOOD_LITERALS, st.integers(-10 ** 30, 10 ** 30)),
                min_size=1, max_size=30))
def test_the_constructor_and_the_wire_parse_alike(items):
    # one grammar: the library's constructor reads what the wire reads
    assert RationalFunction(items) == values_from_json(items)
    assert RationalFunction(tuple(items)).values == tuple(
        frac_from_json(v) for v in items)


@pytest.mark.parametrize("bad", ["1e3", "0.5", " 1", "+2", "1_0", "\u0663",
                                 True, 0.5])
def test_the_constructor_refuses_what_the_wire_refuses(bad):
    error = ValueError if isinstance(bad, str) else TypeError
    for make in (as_fraction, lambda v: RationalFunction(("1", v))):
        with pytest.raises(error):
            make(bad)
    with pytest.raises(ParseError) as exc:
        values_from_json(["1", bad])
    assert exc.value.path == "values[1]"


@given(st.lists(st.one_of(_SPELLINGS, _GOOD_LITERALS,
                          st.integers(-10 ** 6, 10 ** 6)),
                min_size=1, max_size=5), st.data())
def test_values_from_json_equals_parsing_every_item(pool, data):
    items = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=60))
    got = values_from_json(items)
    assert got == RationalFunction(tuple(frac_from_json(v) for v in items))
    assert all(type(q) is Fraction for q in got.values)


def test_values_from_json_errors_name_their_first_bad_index():
    with pytest.raises(ParseError) as exc:
        values_from_json(["1/2", "1/2", "1/2", "x"], path="values")
    assert exc.value.path == "values[3]"
    with pytest.raises(ParseError) as exc:
        values_from_json(["1", "3/0", "2", "3/0"], path="values")
    assert exc.value.path == "values[1]"
    # True, 1 and 1.0 hash alike: a parsed "1" or 1 must not let them through
    for first, bad in product(("1", 1), (True, 1.0)):
        with pytest.raises(ParseError) as exc:
            values_from_json([first, bad], path="values")
        assert str(exc.value) == (
            f"values[1]: expected exact rational, got {bad!r}")
    assert values_from_json(["1", 1]) == RationalFunction((Fraction(1),) * 2)
    assert values_from_json(["1/2", 3, "1/2", 3]).values == (
        Fraction(1, 2), Fraction(3)) * 2
    # a bad literal repeated after good ones: its first index, the message
    # of that item alone
    for items, first in ((["0", "1/2", "0", "x", "1/2", "x"], 3),
                         (["1", "y", "1", "2/0", "y"], 1)):
        with pytest.raises(ParseError) as exc:
            values_from_json(items, path="values")
        with pytest.raises(ParseError) as alone:
            frac_from_json(items[first], f"values[{first}]")
        assert (exc.value.path, str(exc.value)) == (
            alone.value.path, str(alone.value))


@given(st.lists(st.one_of(_SPELLINGS, _LITERALS, st.sampled_from(
    ["x", "1.5", "1e3", "", "+1", True, 0.5, 2, None, ["1"], {}])),
    min_size=1, max_size=5), st.data())
def test_values_from_json_reports_the_first_bad_item(pool, data):
    items = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=40))
    for i, v in enumerate(items):
        try:
            frac_from_json(v, f"values[{i}]")
        except ParseError as exc:
            want = exc
            break
    else:
        assert len(values_from_json(items)) == len(items)
        return
    with pytest.raises(ParseError) as exc:
        values_from_json(items)
    assert (exc.value.path, str(exc.value)) == (want.path, str(want))


def _counting_ratio(monkeypatch):
    # core._ratio is the one literal grammar: frac_from_json wraps it, and
    # values_from_json calls it once per distinct literal
    calls = [0]
    original = core._ratio

    def counted(value):
        calls[0] += 1
        return original(value)

    monkeypatch.setattr(core, "_ratio", counted)
    return calls


def test_values_from_json_parses_each_distinct_literal_once(monkeypatch):
    calls = _counting_ratio(monkeypatch)
    f = values_from_json([("1/2", "-1", "0")[i % 3] for i in range(10000)])
    assert len(f) == 10000 and f[9999] == Fraction(1, 2)
    assert calls[0] == 3


def test_parse_result_parses_each_distinct_part_literal_once(monkeypatch):
    calls = _counting_ratio(monkeypatch)
    doc = {"result": "decomposition",
           "parts": [["1/2", "-1", "0"] * 2000, ["3", "-3", "0"] * 2000]}
    d = parse_result(doc)
    assert [len(p) for p in d.parts] == [6000, 6000]
    assert calls[0] == 6


def test_values_to_json_formats_each_distinct_value_once(monkeypatch):
    # one gcd per distinct numerator
    calls = [0]
    original = serialize.gcd

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(serialize, "gcd", counted)
    values = [(Fraction(1, 2), Fraction(-1), Fraction(0))[i % 3]
              for i in range(10000)]
    assert values_to_json(RationalFunction(tuple(values))) == [
        ("1/2", "-1", "0")[i % 3] for i in range(10000)]
    assert calls[0] == 3
    calls[0] = 0
    doc = result_to_json(Decomposition(
        (RationalFunction((Fraction(5),) * 6),
         RationalFunction((Fraction(0), Fraction(7, 3)) * 3))))
    assert doc["parts"] == [["5"] * 6, ["0", "7/3"] * 3]
    assert calls[0] == 3


@given(st.lists(rationals(-10 ** 6, 10 ** 6, 10 ** 4), min_size=1,
                max_size=6), st.data())
def test_values_to_json_equals_formatting_every_value(pool, data):
    values = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=60))
    f = RationalFunction(tuple(values))
    assert values_to_json(f) == [frac_to_str(v) for v in values]


def test_values_to_json_refuses_a_value_past_the_digit_limit():
    huge = Fraction(10 ** 5000 + 1, 3)
    for values in ((huge,), (Fraction(1), huge, Fraction(1), huge)):
        with pytest.raises(RangeError):
            values_to_json(RationalFunction(values))


def _int_list_reference(items, path):
    """The entry-by-entry walk of every list."""
    if not isinstance(items, list):
        raise ParseError("expected a list of integers", path)
    out = []
    for i, v in enumerate(items):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"expected integer, got {v!r}", f"{path}[{i}]")
        out.append(v)
    return out


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ParseError as exc:
        return "error", str(exc), exc.path


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=60), st.data())
def test_int_list_matches_the_entry_by_entry_reference(items, data):
    assert (_outcome(serialize._int_list, items, "t")
            == _outcome(_int_list_reference, items, "t"))
    bad = data.draw(st.sampled_from([True, False, 1.0, 2.5, "3", None]))
    planted = list(items)
    planted.insert(data.draw(st.integers(0, len(items))), bad)
    got = _outcome(serialize._int_list, planted, "t")
    assert got == _outcome(_int_list_reference, planted, "t")
    assert got[0] == "error"
    assert (_outcome(serialize._int_list, tuple(items), "t")
            == _outcome(_int_list_reference, tuple(items), "t"))


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
    for m in (1, 2, 5, 12):
        shifts = [0, -1, -m - 3, m, 2 * m + 1, m - 1]
        inst = parse_instance({"kind": "cyclic-group", "modulus": m,
                               "shifts": shifts, "values": ["0"] * m})
        assert inst.system.transforms == tuple(
            tuple((x + a) % m for x in range(m)) for a in shifts)


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
    assert inst.dims == (2, 2)
    assert inst.maps() == axis_maps((2, 2))
    assert instance_to_json(inst) == doc
    with pytest.raises(ParseError):
        parse_instance(dict(doc, dims=[2, 1]))
    with pytest.raises(ParseError):
        parse_instance(dict(doc, values=["0"] * 3))


@pytest.mark.parametrize("change, path, message", [
    # the extents are checked first, at dims, whatever the values hold
    ({"dims": [2, 1]}, "dims", "extent 1 must be an integer >= 2"),
    ({"dims": [2, 1], "values": ["0"]}, "dims",
     "extent 1 must be an integer >= 2"),
    ({"dims": []}, "dims", "window needs at least one axis"),
    # then the value count, at values, as on every other kind
    ({"values": ["0"] * 3}, "values", "expected 4 values, got 3"),
    ({"dims": [2, 3]}, "values", "expected 6 values, got 4"),
])
def test_lattice_window_errors_name_dims_or_values(change, path, message):
    doc = {"kind": "lattice-window", "dims": [2, 2],
           "values": ["0", "1", "2", "3"]}
    with pytest.raises(ParseError) as exc:
        parse_instance(dict(doc, **change))
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: {message}"


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
    constrained = ConstrainedObstruction(1, 3, 0, 2, Fraction(-2, 9))
    report = SearchReport(
        n=4, max_size=5, trials=10, seed=3,
        star_pass=6, star_fail=4, oracle_feasible=5, oracle_infeasible=1,
        necessity_checked=2, necessity_violations=0, discrepancies=0)
    # and a passing star check
    return [decomposition, violation, dual, bounded, constrained,
            report, None]


def test_every_result_type_round_trips():
    for result in _sample_results():
        doc = result_to_json(result)
        assert parse_result(doc) == result
        # canonical text form is stable under a parse/serialize cycle
        assert dumps(result_to_json(parse_result(doc))) == dumps(doc)


_INTS = st.integers(-10 ** 20, 10 ** 20)
_INT_TUPLES = st.lists(_INTS, max_size=4).map(tuple)
_INT_ROWS = st.lists(_INT_TUPLES, max_size=3).map(tuple)
_FUNCTIONS = st.lists(rationals(-10 ** 9, 10 ** 9, 10 ** 6), min_size=1,
                      max_size=6).map(lambda vs: RationalFunction(tuple(vs)))
# one strategy per record result type, by type name
RECORDS = {
    "Decomposition": st.builds(
        Decomposition, st.lists(_FUNCTIONS, min_size=1, max_size=3).map(tuple)),
    "StarViolation": st.builds(
        StarViolation,
        st.builds(StarInstance, _INT_ROWS, _INT_TUPLES, _INT_TUPLES,
                  _INT_ROWS, _INTS),
        rationals(), st.just("MixedDeltaNonzero")),
    "DualCertificate": st.builds(DualCertificate, _FUNCTIONS),
    "BoundedTransfer": st.builds(BoundedTransfer, _FUNCTIONS, rationals()),
    "ConstrainedObstruction": st.builds(ConstrainedObstruction, _INTS, _INTS,
                                        _INTS, _INTS, rationals()),
    "SearchReport": st.builds(SearchReport, *[_INTS] * 11),
}


def test_every_record_type_emitted_or_in_the_table_has_a_strategy():
    emitted = {name for names in _EMITS.values() for name in names} - {"pass"}
    assert emitted <= set(RECORDS)
    assert set(RECORDS) == {cls.__name__ for cls in serialize._codecs()[1]}


def test_every_codec_type_is_emitted_by_some_subcommand():
    # a certificate that no subcommand emits and none replays has no place
    # on the wire
    emitted = {name for names in _EMITS.values() for name in names}
    assert {cls.__name__ for cls in serialize._codecs()[1]} <= emitted


@pytest.mark.parametrize("name", sorted(RECORDS))
@given(data=st.data())
def test_every_record_type_round_trips_byte_for_byte(name, data):
    record = data.draw(RECORDS[name])
    doc = result_to_json(record)
    assert parse_result(doc) == record
    assert dumps(result_to_json(parse_result(doc))) == dumps(doc)


def test_result_to_json_rejects_unknown():
    with pytest.raises(TypeError):
        result_to_json(object())


def test_parse_result_errors_name_the_path():
    with pytest.raises(ParseError):
        parse_result({"result": "nonsense"})
    with pytest.raises(ParseError):
        parse_result([1, 2])
    # a list or object tag names no table row
    for tag in (["report"], {"result": "report"}, None, 3):
        with pytest.raises(ParseError) as exc:
            parse_result({"result": tag})
        assert exc.value.path == "result"
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
    doc = result_to_json(_sample_results()[5])
    del doc["trials"]
    with pytest.raises(ParseError) as exc:
        parse_result(doc)
    assert exc.value.path == "trials"


# a search over finite systems finds no candidate: only [] reads, and a
# well-formed candidate is refused like any other value
@pytest.mark.parametrize("bad", [
    [{"trial": 7, "size": 2, "transforms": [[1, 0], [0, 1]],
      "values": ["1", "-1/2"], "dual_weights": ["2", "0"]}],
    [{}], [[]], [0], None, {}, ""])
def test_parse_result_refuses_any_candidate(bad):
    doc = result_to_json(_sample_results()[5])
    doc["candidates"] = bad
    with pytest.raises(ParseError) as exc:
        parse_result(doc)
    assert exc.value.path == "candidates"


def test_dumps_is_canonical():
    text = dumps({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def _json_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# any character, and the ones json escapes drawn often
_JSON_STRINGS = st.text(st.one_of(
    st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\b\u2028é\U0001f600'),
    st.characters(max_codepoint=0x1f)), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_STRINGS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_JSON_STRINGS, inner, max_size=5)),
    max_leaves=40)


@given(st.dictionaries(_JSON_STRINGS, _JSON_VALUES, max_size=6))
@example({})
@example({"": [], "a": {}, "b": (), "c": [[], {}, ()], "d": [""]})
@example({"values": ["1", "-1/2", "0"], "mixed": ["1", 2, None, True],
          "nested": [["a"], ("b", "c")], "n": -(10 ** 40)})
def test_dumps_equals_json_dumps(doc):
    assert dumps(doc) == _json_dumps(doc)


def test_dumps_equals_json_dumps_on_every_round_trip_document():
    docs = [result_to_json(r) for r in _sample_results()]
    docs += [instance_to_json(parse_instance(doc)) for doc in (
        {"kind": "finite", "size": 2, "transforms": [[1, 0]],
         "values": ["1/2", "-3"]},
        {"kind": "cyclic-group", "modulus": 5, "shifts": [7, -1],
         "values": ["0", "1", "2", "3", "4"]},
        {"kind": "z-window", "length": 4, "shifts": [1, 1],
         "values": ["0", "1", "2", "3"]},
        {"kind": "lattice-window", "dims": [2, 2],
         "values": ["0", "1", "2", "3"]})]
    docs += [{"result": "pass"},
             {"result": "verified", "agrees": False, "reason": "no"},
             {"error": "bad \"x\"", "path": "values[0]"},
             {"error": "not-commuting", "witness": [0, 1, 0]}]
    for doc in docs:
        assert dumps(doc) == _json_dumps(doc)
    with pytest.raises(TypeError):
        dumps({"value": 0.5})


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
