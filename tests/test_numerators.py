"""Functions are integer numerators over one denominator, end to end: the
canonical pair is the same whichever way a function is built, and a run
builds no Fraction per point."""

import fractions
import json
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given
from hypothesis import strategies as st

import perdec.check
import perdec.cli
from perdec.core import RationalFunction, _from_integers
from perdec.serialize import (dumps, frac_to_str, values_from_json,
                              values_to_json)
from tests.conftest import rationals


@given(st.lists(st.tuples(rationals(), st.integers(1, 4)), max_size=8),
       st.integers(1, 6))
def test_every_construction_gives_the_canonical_pair(items, scale):
    # from Fractions, from unreduced "p/q" strings (by the constructor and
    # by the parser) and from numerators over a multiple of the least
    # common denominator: one record, one hash, one value tuple
    values = tuple(v for v, _ in items)
    unreduced = [f"{v.numerator * k}/{v.denominator * k}" for v, k in items]
    denom = lcm(*(v.denominator for v in values)) * scale
    reference = RationalFunction(values)
    built = [RationalFunction(unreduced),
             _from_integers([v.numerator * (denom // v.denominator)
                             for v in values], denom)]
    if values:
        built.append(values_from_json(unreduced))
    for f in [reference, *built]:
        assert f == reference and hash(f) == hash(reference)
        assert gcd(f.denom, *f.numerators) == 1
        assert f.values == values
        assert type(f.values) is tuple
        assert set(map(type, f.values)) <= {Fraction}
        copied = pickle.loads(pickle.dumps(f))
        assert copied == f and hash(copied) == hash(f)
        assert copied.values == values
        assert values_to_json(f) == [frac_to_str(v) for v in values]


@given(st.lists(st.tuples(st.integers(-9, 9),
                          st.sampled_from((1, 2, 3, 5, 7, 11, 13))),
                max_size=8),
       st.integers(1, 6), st.booleans())
def test_from_integers_gives_the_pair_the_fractions_reduce_to(items, scale,
                                                              balance):
    # values k / p over small primes p, so the reduced denominators are
    # pairwise coprime, with zeros, over a multiple of their lcm; balanced,
    # the numerators sum to 0, so the gcd with the sum is the whole denom
    denom = lcm(*(p for _, p in items)) * scale
    numerators = [k * (denom // p) for k, p in items]
    if balance:
        numerators.append(-sum(numerators))
    values = [Fraction(v, denom) for v in numerators]
    common = lcm(*(v.denominator for v in values))
    f = _from_integers(numerators, denom)
    assert f.denom == common
    assert f.numerators == tuple(v.numerator * (common // v.denominator)
                                 for v in values)


def _planted_cyclic(modulus: int, shifts, rng: random.Random) -> list:
    """Values on Z_modulus that sum one part per shift, part j periodic
    with period gcd(a_j, modulus): decomposable by construction."""
    total = [Fraction(0)] * modulus
    for a in shifts:
        period = gcd(a, modulus)
        picks = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                 for _ in range(period)]
        total = [v + picks[x % period] for x, v in enumerate(total)]
    return total


def test_large_runs_build_fractions_only_per_distinct_output_value(
        monkeypatch, tmp_path, capsys):
    # decompose, oracle and their --verify replays on a planted cyclic
    # group of 10^4 points build at most one Fraction per distinct value
    # they write: none per point, none per class of the input
    modulus, shifts = 10 ** 4, (2, 5, 8)
    values = _planted_cyclic(modulus, shifts, random.Random("numerators"))
    instance = tmp_path / "instance.json"
    instance.write_text(dumps({"kind": "cyclic-group", "modulus": modulus,
                               "shifts": list(shifts),
                               "values": [frac_to_str(v) for v in values]}))
    built = [0]

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built[0] += 1
            return super().__new__(cls, *args, **kwargs)

    # perdec imports Fraction inside the functions that build one, so
    # each reads the patched class at call time
    monkeypatch.setattr(fractions, "Fraction", Counted)
    written = set()
    for command in ("decompose", "oracle"):
        assert perdec.cli.run_command([command, str(instance)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["result"] == "decomposition"
        for part in doc["parts"]:
            written.update(part)
        cert = tmp_path / f"{command}.json"
        cert.write_text(out)
        assert perdec.cli.run_command(
            [command, str(instance), "--verify", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["agrees"] is True
    assert len(written) < modulus // 100
    assert built[0] <= len(written)


def _primes(count: int) -> list:
    primes, k = [], 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def test_pairwise_coprime_denominators_multiply_into_one_denom(
        monkeypatch, tmp_path, capsys):
    # values over 300 distinct primes: the stored denom is their product,
    # so every numerator is as long as all the denominators together and a
    # list of N such values costs time and memory quadratic in N.  The
    # parser builds the pair without the reducing gcd, which here would run
    # one big gcd per value; decompose and its --verify still agree.  The
    # grammar's gcd of each literal's own p and q is not counted: it never
    # sees a number larger than the literal's
    primes = _primes(300)
    items = [f"{1 + i % 3}/{p}" for i, p in enumerate(primes)]
    gcds = [0]

    def counted(*args):
        gcds[0] += max(map(abs, args)) > primes[-1]
        return gcd(*args)

    monkeypatch.setattr(perdec.core, "gcd", counted)
    f = values_from_json(items)
    assert gcds[0] == 0
    product = 1
    for p in primes:
        product *= p
    assert f.denom == product
    assert f.values == tuple(Fraction(1 + i % 3, p)
                             for i, p in enumerate(primes))
    assert values_to_json(f) == items
    modulus = 2 * len(items)
    instance = tmp_path / "instance.json"
    instance.write_text(dumps({"kind": "cyclic-group", "modulus": modulus,
                               "shifts": [len(items), 1],
                               "values": items * 2}))
    assert perdec.cli.run_command(["decompose", str(instance)]) == 0
    out = capsys.readouterr().out
    parts = [values_from_json(part) for part in json.loads(out)["parts"]]
    assert parts[0] + parts[1] == values_from_json(items * 2)
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    assert perdec.cli.run_command(
        ["decompose", str(instance), "--verify", str(cert)]) == 0
    assert json.loads(capsys.readouterr().out)["agrees"] is True
    tables = [[(x + a) % modulus for x in range(modulus)]
              for a in (len(items), 1)]
    bumped = values_from_json(values_to_json(parts[1])[:-1] + ["1/2"])
    assert perdec.check.verify_parts(
        tables, values_from_json(items * 2), [parts[0], bumped]).reason \
        == f"SumMismatch({modulus - 1})"
