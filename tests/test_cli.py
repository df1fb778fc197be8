import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import perdec
import perdec.cli
import perdec.oracle
from perdec import serialize
from perdec.cli import run_command
from perdec.core import RationalFunction, validate_system
from perdec.decomp import decompose_n
from tests.conftest import counted_tuple, seeded_window as _seeded_window

FINITE_DOUBLE_SWAP = {
    "kind": "finite",
    "size": 2,
    "transforms": [[1, 0], [1, 0]],
    "values": ["0", "1"],
}

Z_WINDOW_LINEAR = {
    "kind": "z-window",
    "length": 10,
    "shifts": [1, 1],
    "values": [str(x) for x in range(10)],
}

# a period-2 part plus a period-3 part on a window of Z
Z_WINDOW_PERIODIC = {
    "kind": "z-window",
    "length": 12,
    "shifts": [2, 3],
    "values": [str(5 * (x % 2) + (x % 3) ** 2 - 1) for x in range(12)],
}

CYCLIC_SPLIT = {
    "kind": "cyclic-group",
    "modulus": 4,
    "shifts": [1, 2, 3],
    "values": ["2", "2", "2", "2"],
}

LATTICE_SEPARABLE = {
    "kind": "lattice-window",
    "dims": [2, 3],
    "values": ["0", "1", "2", "10", "11", "12"],
}

LATTICE_CORNER = {
    "kind": "lattice-window",
    "dims": [2, 2],
    "values": ["0", "0", "0", "1"],
}

SWAP_TRANSFER = {
    "kind": "finite",
    "size": 2,
    "transforms": [[1, 0], [1, 0]],
    "values": ["1", "1"],
}

THREE_CYCLE_TRANSFER = {
    "kind": "finite",
    "size": 3,
    "transforms": [[1, 2, 0], [0, 1, 2]],
    "values": ["1", "-1", "0"],
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_reports_shape(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", FINITE_DOUBLE_SWAP)
    code, doc = _run(capsys, ["validate", path])
    assert code == 0
    assert doc == {"result": "ok", "kind": "finite", "size": 2,
                   "transforms": 2}


def test_validate_not_commuting(tmp_path, capsys):
    bad = dict(FINITE_DOUBLE_SWAP, transforms=[[1, 0, 2], [0, 0, 0]], size=3,
               values=["0", "1", "2"])
    path = _write(tmp_path, "bad.json", bad)
    code, doc = _run(capsys, ["validate", path])
    assert code == 2
    assert doc["error"] == "not-commuting"
    assert len(doc["witness"]) == 3


def test_validate_bad_json_and_missing_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"kind\": }\n")
    code, doc = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "line 2" in doc["error"]
    code, doc = _run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in doc["error"]


def test_decompose_violation_and_verify(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", FINITE_DOUBLE_SWAP)
    code, doc = _run(capsys, ["decompose", path])
    assert code == 1
    assert doc["result"] == "violation"
    assert doc["certificate"] == {"blocks": [[0], [1]], "value": "-2",
                                  "z": 0}
    cert = _write(tmp_path, "cert.json", doc)
    code, doc = _run(capsys, ["decompose", path, "--verify", cert])
    assert code == 0
    assert doc == {"result": "verified", "agrees": True}
    tampered = json.loads((tmp_path / "cert.json").read_text())
    tampered["certificate"]["value"] = "7"
    cert2 = _write(tmp_path, "cert2.json", tampered)
    code, doc = _run(capsys, ["decompose", path, "--verify", cert2])
    assert code == 1
    assert doc["agrees"] is False


def test_decompose_verify_refuses_a_premise_instance_whatever_its_kind(
        tmp_path, capsys):
    # swap/swap with one block headed by 1, premise 1^1 0^0 z = 0^1 z: a
    # true partition-condition violation, but on a finite kind no producer
    # emits any blocks but the n singletons, so it does not replay; the
    # kind, heads, exponents and premises that earlier releases wrote are
    # not read, so neither kind is an input error
    path = _write(tmp_path, "inst.json", FINITE_DOUBLE_SWAP)
    legacy = {"distinguished": [1], "exponents": [1], "premises": [[0, 0, 1]]}
    for extra in ({}, dict(legacy, kind="CompatibilityFailure"),
                  dict(legacy, kind="MixedDeltaNonzero")):
        cert = _write(tmp_path, "cert.json", {
            "result": "violation",
            "certificate": {"blocks": [[0, 1]], "z": 0, "value": "1",
                            **extra}})
        for command in ("decompose", "star-check"):
            code, doc = _run(capsys, [command, path, "--verify", cert])
            assert code == 1
            assert doc == {"result": "verified", "agrees": False,
                           "reason": "violation does not replay"}


def test_decompose_success_and_verify(tmp_path, capsys):
    inst = {"kind": "cyclic-group", "modulus": 4, "shifts": [1, 2, 3],
            "values": ["2", "2", "2", "2"]}
    path = _write(tmp_path, "inst.json", inst)
    code, doc = _run(capsys, ["decompose", path])
    assert code == 0
    assert doc["result"] == "decomposition"
    assert len(doc["parts"]) == 3
    cert = _write(tmp_path, "cert.json", doc)
    code, doc = _run(capsys, ["decompose", path, "--verify", cert])
    assert code == 0 and doc["agrees"] is True
    broken = json.loads((tmp_path / "cert.json").read_text())
    broken["parts"][0][0] = "99"
    cert2 = _write(tmp_path, "cert2.json", broken)
    code, doc = _run(capsys, ["decompose", path, "--verify", cert2])
    assert code == 1 and doc["agrees"] is False


def test_decompose_four_transforms_splits_or_refuses_and_replays(tmp_path,
                                                                  capsys):
    # shifts 2 and 3 of Z_6, each twice: periods 2 and 3 split, a spike
    # does not
    inst = {"kind": "cyclic-group", "modulus": 6, "shifts": [2, 3, 4, 3],
            "values": [str(5 * (x % 2) + (x % 3) ** 2) for x in range(6)]}
    spike = dict(inst, values=["1", "0", "0", "0", "0", "0"])
    for case, code_expected, result in ((inst, 0, "decomposition"),
                                        (spike, 1, "violation")):
        path = _write(tmp_path, "inst.json", case)
        code, doc = _run(capsys, ["decompose", path])
        assert code == code_expected and doc["result"] == result
        if result == "decomposition":
            assert len(doc["parts"]) == 4
        else:
            assert doc["certificate"]["blocks"] == [[0], [1], [2], [3]]
        saved = _write(tmp_path, "result.json", doc)
        code, verdict = _run(capsys, ["decompose", path, "--verify", saved])
        assert code == 0 and verdict["agrees"] is True


def test_decompose_four_shifts_of_z2048_is_fast_and_verifies(tmp_path,
                                                             capsys):
    # period 512 but not 256: shifts 128, 256 and 384 each take a
    # nonzero cycle average, shift 512 the rest
    inst = {"kind": "cyclic-group", "modulus": 2048,
            "shifts": [128, 256, 384, 512],
            "values": [str(x % 512 % 7 + x % 512 % 5) for x in range(2048)]}
    path = _write(tmp_path, "inst.json", inst)
    start = time.perf_counter()
    code, doc = _run(capsys, ["decompose", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and doc["result"] == "decomposition"
    saved = _write(tmp_path, "parts.json", doc)
    code, verdict = _run(capsys, ["decompose", path, "--verify", saved])
    assert code == 0 and verdict["agrees"] is True


def test_star_check_pass(tmp_path, capsys):
    inst = {"kind": "cyclic-group", "modulus": 4, "shifts": [2],
            "values": ["5", "0", "5", "0"]}
    path = _write(tmp_path, "inst.json", inst)
    code, doc = _run(capsys, ["star-check", path])
    assert code == 0
    assert doc == {"result": "pass"}


PASSING_STAR_CHECKS = {
    "finite": SWAP_TRANSFER,
    "cyclic-group": CYCLIC_SPLIT,
    "z-window": dict(Z_WINDOW_LINEAR, values=["3"] * 10),
    "lattice-window": LATTICE_SEPARABLE,
}
FAILING_STAR_CHECKS = {
    "finite": FINITE_DOUBLE_SWAP,
    "cyclic-group": dict(CYCLIC_SPLIT, values=["0", "1", "0", "0"]),
    "z-window": Z_WINDOW_LINEAR,
    "lattice-window": LATTICE_CORNER,
}


@pytest.mark.parametrize("kind", sorted(PASSING_STAR_CHECKS))
def test_star_check_verify_takes_its_own_pass_output(tmp_path, capsys, kind):
    # a pass carries no certificate, so --verify re-runs the check
    path = _write(tmp_path, "inst.json", PASSING_STAR_CHECKS[kind])
    code, doc = _run(capsys, ["star-check", path])
    assert (code, doc) == (0, {"result": "pass"})
    saved = _write(tmp_path, "pass.json", doc)
    code, verdict = _run(capsys, ["star-check", path, "--verify", saved])
    assert code == 0 and verdict == {"result": "verified", "agrees": True}
    failing = _write(tmp_path, "fail.json", FAILING_STAR_CHECKS[kind])
    code, doc = _run(capsys, ["star-check", failing])
    assert code == 1
    code, verdict = _run(capsys, ["star-check", failing, "--verify", saved])
    assert code == 1 and verdict["agrees"] is False
    assert verdict["reason"] == "the star check fails on this instance"


@pytest.mark.parametrize("command, inst", [
    ("decompose", CYCLIC_SPLIT),
    ("oracle", CYCLIC_SPLIT),
    ("oracle", LATTICE_SEPARABLE),
    ("lattice-decompose", LATTICE_SEPARABLE),
    ("bounded-transfer", THREE_CYCLE_TRANSFER),
    ("search", None),
    ("star-check", CYCLIC_SPLIT),
], ids=["decompose", "oracle", "oracle-window", "lattice-decompose",
        "bounded-transfer", "search", "star-check"])
def test_a_pass_is_not_a_result_of_other_commands(tmp_path, capsys, command,
                                                  inst):
    saved = _write(tmp_path, "pass.json", {"result": "pass"})
    argv = [command, "--verify", saved]
    if inst is not None:
        argv.insert(1, _write(tmp_path, "inst.json", inst))
    code, verdict = _run(capsys, argv)
    if command == "star-check":
        # the one subcommand that emits a pass re-runs its check
        assert (code, verdict) == (0, {"result": "verified", "agrees": True})
        return
    assert code == 1 and verdict["agrees"] is False
    assert verdict["reason"] == f"unexpected result type pass for {command}"


# emitted by the modular partition scan that cyclic-group star checks ran
# before they went through the finite check, with the heads, exponents,
# premises and kind that earlier releases wrote; saved certificates replay
EARLIER_CYCLIC_CERTIFICATE = {
    "certificate": {"blocks": [[0], [1], [2]], "distinguished": [0, 1, 2],
                    "exponents": [1, 1, 1], "kind": "MixedDeltaNonzero",
                    "premises": [], "value": "4", "z": 0},
    "result": "violation",
}


def test_star_check_verifies_an_earlier_cyclic_certificate(tmp_path, capsys):
    inst = {"kind": "cyclic-group", "modulus": 6, "shifts": [2, 3, 4],
            "values": ["1", "0", "0", "5/2", "0", "-1"]}
    path = _write(tmp_path, "inst.json", inst)
    cert = _write(tmp_path, "cert.json", EARLIER_CYCLIC_CERTIFICATE)
    code, verdict = _run(capsys, ["star-check", path, "--verify", cert])
    assert code == 0 and verdict == {"result": "verified", "agrees": True}
    # the check now writes the fields the replay reads, and only those
    code, doc = _run(capsys, ["star-check", path])
    earlier = EARLIER_CYCLIC_CERTIFICATE["certificate"]
    assert (code, doc) == (1, {"result": "violation", "certificate": {
        key: earlier[key] for key in ("blocks", "value", "z")}})


# one instance per kind, on which the star check fails and each stored
# result below is refused by its checker
REFUSING_INSTANCES = {
    "finite": FINITE_DOUBLE_SWAP,
    "cyclic-group": {"kind": "cyclic-group", "modulus": 4, "shifts": [1, 2],
                     "values": ["0", "1", "0", "0"]},
    "z-window": Z_WINDOW_LINEAR,
    "lattice-window": LATTICE_CORNER,
}
# a report whose star passes and fails do not add up to its six trials;
# with five trials a search can write it
NO_SEARCH_REPORT = dict(
    result="report", n=2, max_size=2, trials=6, seed=1, star_pass=1,
    star_fail=4, oracle_feasible=1, oracle_infeasible=4, necessity_checked=4,
    necessity_violations=0, discrepancies=0)
# one stored document per result tag: its parsed type, and the reason its
# checker gives on every instance above; a tag that no subcommand emits
# has no type, and its reason is the input error at the tag
STORED_RESULTS = {
    "pass": ({"result": "pass"}, "pass",
             "the star check fails on this instance"),
    "decomposition": ({"result": "decomposition", "parts": [["1"]]},
                      "Decomposition",
                      "part count differs from transform count"),
    "violation": (EARLIER_CYCLIC_CERTIFICATE, "StarViolation",
                  "violation does not replay"),
    "infeasible": ({"result": "infeasible",
                    "certificate": {"weights": ["1"]}}, "DualCertificate",
                   "weight count differs from domain size"),
    "lattice-decomposition": ({"result": "lattice-decomposition",
                               "dims": [3, 3], "parts": [["0"] * 9] * 2},
                              None,
                              "unknown result tag 'lattice-decomposition'"),
    "point-violation": ({"result": "point-violation",
                         "certificate": {"point": []}}, None,
                        "unknown result tag 'point-violation'"),
    "bounded-transfer": ({"result": "bounded-transfer", "values": ["1"],
                          "bound": "0"}, "BoundedTransfer",
                         "solution length differs from domain"),
    "obstruction": ({"result": "obstruction",
                     "certificate": {"points": [0], "total": "1"}},
                    None, "unknown result tag 'obstruction'"),
    "constrained-obstruction": ({"result": "constrained-obstruction",
                                 "certificate": {"x": 99, "k": 1, "l": 0,
                                                 "l2": 0, "total": "1"}},
                                "ConstrainedObstruction",
                                "witness point or exponent out of range"),
    "report": (NO_SEARCH_REPORT, "SearchReport",
               "report counts no search produces"),
}
# the result tags each subcommand emits, by instance kind (None: search)
EMITTED = {
    ("decompose", "finite"): {"decomposition", "violation"},
    ("decompose", "cyclic-group"): {"decomposition", "violation"},
    ("decompose", "lattice-window"): {"decomposition", "violation"},
    ("star-check", "finite"): {"pass", "violation"},
    ("star-check", "cyclic-group"): {"pass", "violation"},
    ("star-check", "z-window"): {"pass", "violation"},
    ("star-check", "lattice-window"): {"pass", "violation"},
    ("oracle", "finite"): {"decomposition", "infeasible"},
    ("oracle", "cyclic-group"): {"decomposition", "infeasible"},
    ("oracle", "z-window"): {"decomposition", "infeasible"},
    ("oracle", "lattice-window"): {"decomposition", "infeasible"},
    ("lattice-decompose", "lattice-window"): {"decomposition", "violation"},
    ("bounded-transfer", "finite"): {"bounded-transfer",
                                     "constrained-obstruction"},
    ("bounded-transfer", "cyclic-group"): {"bounded-transfer",
                                           "constrained-obstruction"},
    ("search", None): {"report"},
}


@pytest.mark.parametrize("tag", sorted(STORED_RESULTS))
@pytest.mark.parametrize("command, kind", sorted(EMITTED, key=str))
def test_verify_answers_every_result_tag_by_its_checker_or_its_type(
        tmp_path, capsys, command, kind, tag):
    doc, name, reason = STORED_RESULTS[tag]
    argv = [command, "--verify", _write(tmp_path, "result.json", doc)]
    if kind is not None:
        argv.insert(1, _write(tmp_path, "inst.json",
                              REFUSING_INSTANCES[kind]))
    if name is None:
        code, out, err = _answer(capsys, argv)
        assert (code, json.loads(out), err) == (
            2, {"error": f"result: {reason}", "path": "result"}, "")
        return
    if tag not in EMITTED[command, kind]:
        reason = f"unexpected result type {name} for {command}"
    code, verdict = _run(capsys, argv)
    assert (code, verdict) == (1, {"result": "verified", "agrees": False,
                                   "reason": reason})


def test_decompose_three_shifts_of_z192_is_fast_and_verifies(tmp_path,
                                                             capsys):
    # planted: periods 2 and 3 plus a constant, shifts 1, 2 and 3; the
    # (bound + 1)^2 relation grids per point once took about 5 s here
    inst = {"kind": "cyclic-group", "modulus": 192, "shifts": [1, 2, 3],
            "values": [str(7 + 5 * (x % 2) + (x % 3) ** 2)
                       for x in range(192)]}
    path = _write(tmp_path, "inst.json", inst)
    start = time.perf_counter()
    code, doc = _run(capsys, ["decompose", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and doc["result"] == "decomposition"
    saved = _write(tmp_path, "parts.json", doc)
    code, verdict = _run(capsys, ["decompose", path, "--verify", saved])
    assert code == 0 and verdict["agrees"] is True


def _commute_checks(tmp_path, capsys, monkeypatch, inst):
    """Exit code of decompose on inst and its commute_witness calls."""
    calls = []
    witness = perdec.core.commute_witness

    def counted(t, s):
        calls.append(1)
        return witness(t, s)

    monkeypatch.setattr(perdec.core, "commute_witness", counted)
    code, _ = _run(capsys, ["decompose", _write(tmp_path, "inst.json", inst)])
    return code, len(calls)


# three shifts of Z/12
SHIFTS_OF_Z12 = {"kind": "cyclic-group", "modulus": 12, "shifts": [1, 4, 6],
                 "values": [str((x % 4) ** 2 + 7) for x in range(12)]}


def test_decompose_checks_commutation_once(tmp_path, capsys, monkeypatch):
    # parse_instance builds the system, which checks each of the three
    # pairs; decompose_n takes that system and checks none again
    inst = {"kind": "finite", "size": 12, "values": SHIFTS_OF_Z12["values"],
            "transforms": [[(x + a) % 12 for x in range(12)]
                           for a in SHIFTS_OF_Z12["shifts"]]}
    assert _commute_checks(tmp_path, capsys, monkeypatch, inst) == (0, 3)


def test_a_cyclic_groups_rotations_are_not_checked(tmp_path, capsys,
                                                    monkeypatch):
    # rotations commute by construction, so the parsed system is built
    # without the pairwise pass
    assert _commute_checks(tmp_path, capsys, monkeypatch,
                           SHIFTS_OF_Z12) == (0, 0)


def test_decompose_three_shifts_answers_with_decompose_n(tmp_path, capsys):
    # every transform count goes to decompose_n, in the order of the shifts
    m, shifts = 12, (1, 4, 6)
    values = [(x % 4) ** 2 + 5 * (x % 6 == 1) + 7 for x in range(m)]
    inst = {"kind": "cyclic-group", "modulus": m, "shifts": list(shifts),
            "values": [str(v) for v in values]}
    path = _write(tmp_path, "inst.json", inst)
    code, doc = _run(capsys, ["decompose", path])
    tables = [tuple((x + a) % m for x in range(m)) for a in shifts]
    f = RationalFunction(tuple(Fraction(v) for v in values))
    parts = decompose_n(validate_system(tables, m), f)
    assert (code, doc) == (0, json.loads(serialize.dumps(
        serialize.result_to_json(parts))))
    saved = _write(tmp_path, "parts.json", doc)
    code, verdict = _run(capsys, ["decompose", path, "--verify", saved])
    assert code == 0 and verdict == {"result": "verified", "agrees": True}


def test_star_check_z_window_certificate(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", Z_WINDOW_LINEAR)
    code, doc = _run(capsys, ["star-check", path])
    assert code == 1
    assert doc["certificate"] == {"blocks": [[0, 1]], "value": "1", "z": 0}
    saved = _write(tmp_path, "cert.json", doc)
    code, doc = _run(capsys, ["star-check", path, "--verify", saved])
    assert code == 0 and doc["agrees"] is True


def test_star_check_lattice_violation(tmp_path, capsys):
    # a window refuses at its first stencil base with the all-singleton
    # instance of its axis maps, which the finite replay checks
    path = _write(tmp_path, "inst.json", LATTICE_CORNER)
    code, doc = _run(capsys, ["star-check", path])
    assert code == 1
    assert doc == {"result": "violation", "certificate": {
        "blocks": [[0], [1]], "value": "1", "z": 0}}
    saved = _write(tmp_path, "cert.json", doc)
    code, doc = _run(capsys, ["star-check", path, "--verify", saved])
    assert code == 0 and doc["agrees"] is True
    # the point (1, 1) sits on both upper faces: no stencil base
    moved = json.loads((tmp_path / "cert.json").read_text())
    moved["certificate"]["z"] = 3
    bad = _write(tmp_path, "bad.json", moved)
    code, doc = _run(capsys, ["star-check", path, "--verify", bad])
    assert code == 1 and doc["agrees"] is False


def test_oracle_infeasible_and_verify(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", FINITE_DOUBLE_SWAP)
    code, doc = _run(capsys, ["oracle", path])
    assert code == 1
    assert doc["result"] == "infeasible"
    saved = _write(tmp_path, "cert.json", doc)
    code, doc = _run(capsys, ["oracle", path, "--verify", saved])
    assert code == 0 and doc["agrees"] is True
    tampered = json.loads((tmp_path / "cert.json").read_text())
    tampered["certificate"]["weights"] = ["0", "0"]
    bad = _write(tmp_path, "bad.json", tampered)
    code, doc = _run(capsys, ["oracle", path, "--verify", bad])
    assert code == 1 and doc["agrees"] is False


def test_oracle_z_window_linear_is_infeasible_and_its_dual_replays(tmp_path,
                                                                    capsys):
    path = _write(tmp_path, "inst.json", Z_WINDOW_LINEAR)
    code, doc = _run(capsys, ["oracle", path])
    assert code == 1 and doc["result"] == "infeasible"
    saved = _write(tmp_path, "dual.json", doc)
    code, verdict = _run(capsys, ["oracle", path, "--verify", saved])
    assert code == 0 and verdict == {"result": "verified", "agrees": True}
    # x -> x + 1 fixes only the last point, so one class holds the whole
    # window and the weights must sum to zero there
    tampered = json.loads(json.dumps(doc))
    tampered["certificate"]["weights"][0] = "7"
    bad = _write(tmp_path, "bad.json", tampered)
    code, verdict = _run(capsys, ["oracle", path, "--verify", bad])
    assert code == 1 and verdict["agrees"] is False
    assert "does not vanish" in verdict["reason"]


def test_oracle_z_window_periodic_sum_splits_and_its_parts_replay(tmp_path,
                                                                  capsys):
    path = _write(tmp_path, "inst.json", Z_WINDOW_PERIODIC)
    code, doc = _run(capsys, ["oracle", path])
    assert code == 0 and doc["result"] == "decomposition"
    assert len(doc["parts"]) == 2
    saved = _write(tmp_path, "parts.json", doc)
    code, verdict = _run(capsys, ["oracle", path, "--verify", saved])
    assert code == 0 and verdict == {"result": "verified", "agrees": True}
    # one unit moved between the parts at x = 11 keeps the sum; part 0
    # then differs from its value two steps back
    moved = json.loads(json.dumps(doc))
    for j, step in ((0, 1), (1, -1)):
        moved["parts"][j][11] = str(Fraction(moved["parts"][j][11]) + step)
    bad = _write(tmp_path, "moved.json", moved)
    code, verdict = _run(capsys, ["oracle", path, "--verify", bad])
    assert code == 1 and verdict["reason"] == "NotInvariant(0,9)"
    summed = json.loads(json.dumps(doc))
    summed["parts"][1][4] = str(Fraction(summed["parts"][1][4]) + 1)
    bad = _write(tmp_path, "summed.json", summed)
    code, verdict = _run(capsys, ["oracle", path, "--verify", bad])
    assert code == 1 and verdict["reason"] == "SumMismatch(4)"
    short = _write(tmp_path, "short.json", dict(doc, parts=doc["parts"][:1]))
    code, verdict = _run(capsys, ["oracle", path, "--verify", short])
    assert code == 1
    assert verdict["reason"] == "part count differs from transform count"


def test_oracle_lattice_parts_and_dual(tmp_path, capsys):
    good = _write(tmp_path, "good.json", LATTICE_SEPARABLE)
    code, doc = _run(capsys, ["oracle", good])
    assert code == 0
    assert doc["result"] == "decomposition" and len(doc["parts"]) == 2
    saved = _write(tmp_path, "parts.json", doc)
    code, doc = _run(capsys, ["oracle", good, "--verify", saved])
    assert code == 0 and doc["agrees"] is True
    bad = _write(tmp_path, "bad.json", LATTICE_CORNER)
    code, doc = _run(capsys, ["oracle", bad])
    assert code == 1
    assert doc["result"] == "infeasible"
    dual = _write(tmp_path, "dual.json", doc)
    code, doc = _run(capsys, ["oracle", bad, "--verify", dual])
    assert code == 0 and doc["agrees"] is True


@pytest.mark.parametrize("values, path, reason", [
    # Fraction would parse the exponent, at a cost growing with it
    ('["1e300000", "1"]', "values[0]", "bad rational literal"),
    # over the interpreter's 4300-digit limit for int(str)
    ("[" + "7" * 5000 + ', "1"]', "", "invalid JSON"),
])
def test_oracle_rejects_oversized_numbers(tmp_path, capsys, values, path,
                                          reason):
    inst = tmp_path / "inst.json"
    inst.write_text('{"kind": "finite", "size": 2, '
                    '"transforms": [[1, 0], [1, 0]], "values": ' + values + "}")
    start = time.perf_counter()
    code, doc = _run(capsys, ["oracle", str(inst)])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert doc["path"] == path
    assert doc["error"].startswith((path + ": " if path else "") + reason)


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # the decoder recurses once per bracket; past the recursion limit the
    # file is malformed input, not a violation
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    code, doc = _run(capsys, ["validate", str(deep)])
    assert code == 2
    assert doc == {"error": "invalid JSON: nested too deeply", "path": ""}
    inst = _write(tmp_path, "inst.json", LATTICE_SEPARABLE)
    code, doc = _run(capsys, ["oracle", inst, "--verify", str(deep)])
    assert code == 2
    assert doc == {"error": "invalid JSON: nested too deeply", "path": ""}


@pytest.mark.parametrize("doc, path, reason", [
    (dict(FINITE_DOUBLE_SWAP, transforms=[]), "transforms",
     "expected a nonempty list of transform tables"),
    (dict(CYCLIC_SPLIT, shifts=[]), "shifts", "expected at least one shift"),
    (dict(Z_WINDOW_LINEAR, shifts=[]), "shifts",
     "expected at least one shift"),
    (dict(LATTICE_SEPARABLE, dims=[], values=["0"]), "dims",
     "window needs at least one axis"),
], ids=["finite", "cyclic-group", "z-window", "lattice-window"])
def test_an_instance_with_no_maps_is_refused_on_every_command(
        tmp_path, capsys, monkeypatch, doc, path, reason):
    # so no command hands the oracle an empty family of partitions
    def refuse(*args):
        raise AssertionError("an empty family reached the oracle")

    monkeypatch.setattr(perdec.oracle, "split_over_classes", refuse)
    inst = _write(tmp_path, "inst.json", doc)
    for command in ("validate", "decompose", "star-check", "oracle",
                    "lattice-decompose", "bounded-transfer"):
        code, got = _run(capsys, [command, inst])
        assert code == 2
        assert got == {"error": f"{path}: {reason}", "path": path}


@pytest.mark.parametrize("size", [0, -1])
def test_a_finite_size_below_1_is_refused_at_size_on_every_command(
        tmp_path, capsys, size):
    # before the values are counted against it
    inst = _write(tmp_path, "inst.json", {"kind": "finite", "size": size,
                                          "transforms": [[]],
                                          "values": ["1"]})
    for command in ("validate", "decompose", "star-check", "oracle",
                    "lattice-decompose", "bounded-transfer"):
        code, got = _run(capsys, [command, inst])
        assert code == 2
        assert got == {"error": "size: size must be >= 1", "path": "size"}


@pytest.mark.parametrize("shifts, reason", [
    ([], "expected at least one shift"),
    ([1, -1], "expected nonnegative shifts"),
])
def test_z_window_shift_errors_say_what_is_expected(tmp_path, capsys,
                                                    shifts, reason):
    path = _write(tmp_path, "inst.json", dict(Z_WINDOW_LINEAR,
                                              shifts=shifts))
    code, doc = _run(capsys, ["validate", path])
    assert code == 2
    assert doc == {"error": f"shifts: {reason}", "path": "shifts"}


def test_lattice_decompose_is_decompose_on_a_window(tmp_path, capsys):
    # the same producer and the same checkers; the gauge option is gone
    for inst, expected in ((LATTICE_SEPARABLE, 0), (LATTICE_CORNER, 1)):
        path = _write(tmp_path, "inst.json", inst)
        answer = _answer(capsys, ["lattice-decompose", path])
        assert answer == _answer(capsys, ["decompose", path])
        assert answer[0] == expected
        saved = _write(tmp_path, "result.json", json.loads(answer[1]))
        code, verdict = _run(capsys, ["lattice-decompose", path,
                                      "--verify", saved])
        assert code == 0 and verdict["agrees"] is True
    code, out, err = _answer(capsys, ["lattice-decompose", path, "--base",
                                      "0"])
    assert (code, out) == (2, "")
    assert err.endswith("unrecognized arguments: --base 0\n")
    for inst in (FINITE_DOUBLE_SWAP, Z_WINDOW_LINEAR):
        path = _write(tmp_path, "inst.json", inst)
        code, doc = _run(capsys, ["lattice-decompose", path])
        assert code == 2 and doc["error"].startswith(
            "lattice-decompose needs a lattice-window instance")


# (seed, dims, perturbed) -> exit code and stdout sha256 of `decompose`
# on the seeded window, two and three axes, split and refused.  Every
# replay agrees, with these bytes.
AGREES_SHA256 = ("3f9126d45e3652ab0bcc59f14ac243d5"
                 "fb8b2b942bb9d39b9df7fd8d3045197b")
LATTICE_DIGESTS = {
    (1, (4, 5), False): (0, "5091bd387b86071fd83559696f6ac584"
                            "3b80109e72a1d72f364edd143b75e723"),
    (2, (4, 5), False): (0, "26b7a3a58fc1425e6bfac5f90b5e8eac"
                            "3997e9ff92e328974083ef8ee89ced85"),
    (3, (5, 3), False): (0, "94b8d9e2f0dcff501af37ed6385a5bdd"
                            "6ddd129a3bfee49496fec546940c6361"),
    (4, (2, 4), True): (1, "8f3cfe78ef12ef199fdfa3ecb9ed2f17"
                           "c262d78c8f4830cd79a295563d068b41"),
    (5, (5, 4), True): (1, "7d757340fb9bdfd2016db6193f6a3c7a"
                           "08d3262bfc7c90fec236b086552306d7"),
    (6, (3, 5), True): (1, "803887a400aeb1565c0596a0247e7d03"
                           "7755357339eae044502b31b110a460dd"),
    (7, (3, 4, 2), False): (0, "13f801ca2d035f056e199969b6f825f3"
                               "adc4cd57ce7769d04fa0074b3427e205"),
    (8, (2, 3, 5), False): (0, "fd1e2a00dbd213beb9ab588142108715"
                               "0bba1354819f0dcdc9747702af5d8df9"),
    (9, (4, 2, 3), False): (0, "89ac45c17a654b21afe7c69ffdbea119"
                               "b0e553a8cc9e2e1b8a98ed4a4c71684c"),
    (10, (3, 3, 3), True): (1, "2cf42fb2a78ab8040c07dcc3e2594573"
                               "20dc42ae72d287628a5f2e7cb9c6e21e"),
    (11, (2, 5, 3), True): (1, "30ad923e187cc0c7974b15e35028be62"
                               "7c3109667bfa6cc022eff57ad7fe4bd9"),
    (12, (4, 3, 2), True): (1, "b941ea5cce02b40b9188ce42a87a5ab4"
                               "81aa443bd0bdb10ecec7fcd061453dbb"),
}


def test_window_decompose_bytes_match_their_pinned_digests(tmp_path,
                                                           capsys):
    # any change to the construction, its gauge or its refusal that moves
    # an output byte changes a digest
    got = {}
    for seed, dims, perturbed in LATTICE_DIGESTS:
        path = _write(tmp_path, "inst.json",
                      _seeded_window(seed, dims, perturbed))
        code = run_command(["decompose", path])
        out = capsys.readouterr().out
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        replay = run_command(["decompose", path, "--verify", str(cert)])
        replayed = capsys.readouterr().out
        assert replay == 0
        assert hashlib.sha256(replayed.encode()).hexdigest() == AGREES_SHA256
        got[seed, dims, perturbed] = (
            code, hashlib.sha256(out.encode()).hexdigest())
    changed = [case for case in LATTICE_DIGESTS
               if got[case] != LATTICE_DIGESTS[case]]
    assert not changed, {case: got[case] for case in changed}


def test_bounded_transfer_three_cycle(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", THREE_CYCLE_TRANSFER)
    code, doc = _run(capsys, ["bounded-transfer", path])
    assert code == 0
    assert doc["result"] == "bounded-transfer"
    assert doc["bound"] == "1"
    saved = _write(tmp_path, "cert.json", doc)
    code, verdict = _run(capsys, ["bounded-transfer", path,
                                  "--verify", saved])
    assert code == 0 and verdict["agrees"] is True
    tampered = json.loads((tmp_path / "cert.json").read_text())
    tampered["bound"] = "2"
    bad = _write(tmp_path, "bad.json", tampered)
    code, verdict = _run(capsys, ["bounded-transfer", path, "--verify", bad])
    assert code == 1 and verdict["agrees"] is False


def test_bounded_transfer_obstruction(tmp_path, capsys):
    inst = {"kind": "finite", "size": 2, "transforms": [[1, 0], [1, 0]],
            "values": ["1", "1"]}
    path = _write(tmp_path, "inst.json", inst)
    code, doc = _run(capsys, ["bounded-transfer", path])
    assert code == 1
    assert doc["result"] == "constrained-obstruction"
    assert doc["certificate"]["total"] == "1"
    saved = _write(tmp_path, "cert.json", doc)
    code, verdict = _run(capsys, ["bounded-transfer", path,
                                  "--verify", saved])
    assert code == 0 and verdict["agrees"] is True


def test_bounded_transfer_needs_two_transforms(tmp_path, capsys):
    inst = {"kind": "cyclic-group", "modulus": 3, "shifts": [1],
            "values": ["0", "0", "0"]}
    path = _write(tmp_path, "inst.json", inst)
    code, doc = _run(capsys, ["bounded-transfer", path])
    assert code == 2
    assert "two transforms" in doc["error"]


def test_search_smoke_and_verify(tmp_path, capsys):
    argv = ["search", "--n", "2", "--max-size", "5", "--trials", "40",
            "--seed", "11"]
    code = run_command(argv)
    first = capsys.readouterr().out
    assert code == 0
    doc = json.loads(first)
    assert doc["result"] == "report"
    assert doc["star_pass"] + doc["star_fail"] == 40
    assert doc["discrepancies"] == 0
    code = run_command(argv)
    second = capsys.readouterr().out
    assert second == first  # byte-identical reruns
    saved = _write(tmp_path, "report.json", doc)
    code, verdict = _run(capsys, ["search", "--verify", saved])
    assert code == 0 and verdict["agrees"] is True


def test_search_refuses_a_workers_option(capsys):
    # the search runs in this process alone: --workers is a usage error
    code, out, err = _answer(capsys, ["search", "--trials", "5",
                                      "--workers", "1"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --workers 1" in err


def test_search_verify_ignores_a_legacy_bound_key(tmp_path, capsys):
    # reports from releases whose search took a bound carry that key
    code, doc = _run(capsys, ["search", "--n", "4", "--max-size", "4",
                              "--trials", "20", "--seed", "3"])
    assert code == 0 and "bound" not in doc
    saved = _write(tmp_path, "report.json", dict(doc, bound=7))
    code, verdict = _run(capsys, ["search", "--verify", saved])
    assert code == 0 and verdict["agrees"] is True


@pytest.mark.parametrize("command", [
    "validate", "decompose", "star-check", "oracle", "lattice-decompose",
    "bounded-transfer", "search"])
def test_bound_is_an_option_only_where_it_is_read(tmp_path, capsys, command):
    # the z-window check runs each head to its exact window cap, so no
    # command reads an exponent bound
    inst = Z_WINDOW_LINEAR if command == "star-check" else CYCLIC_SPLIT
    argv = [command] if command == "search" else [
        command, _write(tmp_path, "inst.json", inst)]
    code = run_command(argv + ["--bound", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--bound" in captured.err


@pytest.mark.parametrize("inst", [
    dict(FINITE_DOUBLE_SWAP, transforms=[[1, 0]]), FINITE_DOUBLE_SWAP,
    dict(CYCLIC_SPLIT, shifts=[1, 2]), CYCLIC_SPLIT,
    dict(CYCLIC_SPLIT, shifts=[1, 2, 3, 2])],
    ids=["one", "two", "cyclic-two", "cyclic-three", "cyclic-four"])
def test_decompose_takes_no_bound_for_any_transform_count(tmp_path, capsys,
                                                          inst):
    # three shifts read a bound once; no transform count does now
    path = _write(tmp_path, "inst.json", inst)
    code, doc = _run(capsys, ["decompose", path])
    assert code in (0, 1)
    saved = _write(tmp_path, "result.json", doc)
    for argv in (["decompose", path], ["decompose", path, "--verify", saved]):
        code = run_command(argv + ["--bound", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--bound" in captured.err


def test_decompose_rejects_results_past_the_digit_limit(tmp_path, capsys):
    # six distinct 2000-digit denominators: the refusal's value multiplies
    # four of them, past the 4300 digits an integer literal may have
    inst = {"kind": "cyclic-group", "modulus": 6, "shifts": [2, 3],
            "values": [f"1/{10 ** 1999 + 2 * i + 1}" for i in range(6)]}
    path = _write(tmp_path, "inst.json", inst)
    code = run_command(["decompose", path])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    assert "too large" in json.loads(captured.out)["error"]


def test_decompose_four_transforms_near_the_digit_limit_never_crashes(
        tmp_path, capsys):
    # 4300-digit input denominators q; the cycle average over shift 2
    # makes the parts' denominator 3q, which fits the 4300 digits an
    # integer literal may have for the first q and not for the second
    for q, code_expected in ((10 ** 4299 + 1, 0), (4 * 10 ** 4299 + 1, 2)):
        inst = {"kind": "cyclic-group", "modulus": 6, "shifts": [2, 3, 2, 3],
                "values": [f"{5 * (x % 2) + (x % 3) ** 2}/{q}"
                           for x in range(6)]}
        path = _write(tmp_path, "inst.json", inst)
        code = run_command(["decompose", path])
        captured = capsys.readouterr()
        assert code == code_expected and "Traceback" not in captured.err
        doc = json.loads(captured.out)
        if code == 2:
            assert "too large" in doc["error"]
        else:
            assert doc["result"] == "decomposition"


def test_search_verify_reads_a_report_that_lists_a_candidate_as_its_counts(
        tmp_path, capsys):
    # earlier releases wrote a "candidates" list; a report is read by its
    # counts alone, so a listed candidate changes no verdict
    candidate = {"trial": 4, "size": 2, "transforms": [[0, 1], [0, 1]],
                 "values": ["1", "2"], "dual_weights": ["1", "-1"]}
    for trials, verdict in ((5, {"result": "verified", "agrees": True}),
                            (6, {"result": "verified", "agrees": False,
                                 "reason": "report counts no search "
                                           "produces"})):
        report = dict(NO_SEARCH_REPORT, trials=trials, candidates=[candidate])
        code = run_command(["search", "--verify",
                            _write(tmp_path, "report.json", report)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (int(not verdict["agrees"]), "")
        assert json.loads(captured.out) == verdict


def test_search_verify_reads_no_value_of_a_listed_candidate(tmp_path,
                                                            capsys):
    # the list is not read, so a non-rational value in it is no input
    # error
    report = {"result": "report", "n": 4, "max_size": 2, "trials": 1,
              "seed": 0, "bound": None, "star_pass": 1, "star_fail": 0,
              "oracle_feasible": 1, "oracle_infeasible": 0,
              "necessity_checked": 0, "necessity_violations": 0,
              "discrepancies": 0,
              "candidates": [{"trial": 0, "size": 2,
                              "transforms": [[1, 0], [1, 0], [0, 1], [0, 1]],
                              "values": ["abc", "1"],
                              "dual_weights": ["1", "-1"]}]}
    saved = _write(tmp_path, "report.json", report)
    code, doc = _run(capsys, ["search", "--verify", saved])
    assert (code, doc) == (0, {"result": "verified", "agrees": True})


def test_star_check_verify_refuses_huge_exponents_quickly(tmp_path, capsys):
    # 0 -> 1 -> 2 -> 2, so t^(10**11) sends 0 to the fixed point 2 and
    # the stored value is true at the exponent an earlier release wrote,
    # but the replay reads no exponent: it checks exponent 1 alone, and
    # refuses at once
    inst = {"kind": "finite", "size": 3, "transforms": [[1, 2, 2]],
            "values": ["0", "0", "5"]}
    cert = {"result": "violation",
            "certificate": {"blocks": [[0]], "distinguished": [0],
                            "exponents": [10 ** 11], "kind": "MixedDeltaNonzero",
                            "premises": [], "value": "5", "z": 0}}
    path = _write(tmp_path, "inst.json", inst)
    saved = _write(tmp_path, "cert.json", cert)
    start = time.perf_counter()
    code, doc = _run(capsys, ["star-check", path, "--verify", saved])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and doc["agrees"] is False


def _random_values(size: int, seed: str) -> list:
    rng = random.Random(seed)
    return [str(rng.randint(-9, 9)) for _ in range(size)]


# 16 swaps of a 2-point set, where a corner walk would visit 2^16 stencil
# points, and three maps on 10^4 points, where a replay that walked each
# map's orbit would read 10^4 entries per map
REPLAY_READ_CASES = {
    "16-swaps": ("cyclic-group", 16, 2, {
        "modulus": 2, "shifts": [1] * 16, "values": ["0", "1"]}),
    "3-shifts": ("cyclic-group", 3, 10 ** 4, {
        "modulus": 10 ** 4, "shifts": [1, 10, 100],
        "values": _random_values(10 ** 4, "three shifts")}),
    "3-axes": ("lattice-window", 3, 10 ** 4, {
        "dims": [25, 20, 20],
        "values": _random_values(10 ** 4, "three axes")}),
}


@pytest.mark.parametrize("command,case", [
    pytest.param(command, case, id=f"{command}-{name}")
    for name, case in REPLAY_READ_CASES.items()
    for command in ("star-check", "decompose", "lattice-decompose")
    if command != "lattice-decompose" or case[0] == "lattice-window"])
def test_verify_reads_the_map_tables_at_most_n_min_n_2_to_the_n_times(
        tmp_path, capsys, monkeypatch, command, case):
    # the finite replay is one stencil over the map tables: at most
    # min(N, 2^j) live points before factor j, so n * min(N, 2^n) reads
    kind, n, size, fields = case
    path = _write(tmp_path, "inst.json", {"kind": kind, **fields})
    code, doc = _run(capsys, [command, path])
    assert code == 1 and doc["certificate"]["blocks"] == [[j]
                                                          for j in range(n)]
    saved = _write(tmp_path, "cert.json", doc)
    limit = n * min(size, 2 ** n)
    reads = [0]
    parse_instance = perdec.cli.parse_instance

    def counted(doc):
        # the parsed tables, swapped for counting tuples past the frozen
        # record's refusing __setattr__
        inst = parse_instance(doc)
        object.__setattr__(inst.finite_system, "transforms", tuple(
            counted_tuple(t, reads, limit)
            for t in inst.finite_system.transforms))
        return inst

    monkeypatch.setattr(perdec.cli, "parse_instance", counted)
    code, doc = _run(capsys, [command, path, "--verify", saved])
    assert code == 0 and doc["agrees"] is True
    assert 0 < reads[0] <= limit


def test_bounded_transfer_verify_replays_huge_exponents_quickly(tmp_path,
                                                               capsys):
    # t = s = swap: T^k S^l 0 = S^l2 0 needs k + l - l2 even, and the
    # g-sum over k steps of g = 1 is k
    k = 10 ** 11 + 1
    cert = {"result": "constrained-obstruction",
            "certificate": {"x": 0, "k": k, "l": 10 ** 11 + 1, "l2": 10 ** 11,
                            "total": str(k)}}
    path = _write(tmp_path, "inst.json", SWAP_TRANSFER)
    saved = _write(tmp_path, "cert.json", cert)
    start = time.perf_counter()
    code, doc = _run(capsys, ["bounded-transfer", path, "--verify", saved])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and doc["agrees"] is True


def test_bounded_transfer_verify_reads_the_map_tables_at_most_10_n_times(
        tmp_path, capsys, monkeypatch):
    # a 2-cycle 0 <-> 1 under the path x -> x - 1, S the identity, and
    # the solution h(x) = x, so C = N - 1 (from N - 1 down to 0): the
    # identity, the invariance and C are each one pass over a table
    size = 10 ** 4
    t = [1, 0, *range(1, size - 1)]
    path = _write(tmp_path, "inst.json", {
        "kind": "finite", "size": size, "transforms": [t, list(range(size))],
        "values": [str(y - x) for x, y in enumerate(t)]})
    saved = _write(tmp_path, "cert.json", {
        "result": "bounded-transfer", "bound": str(size - 1),
        "values": [str(x) for x in range(size)]})
    limit = 10 * size
    reads = [0]
    parse_instance = perdec.cli.parse_instance

    def counted(doc):
        inst = parse_instance(doc)
        object.__setattr__(inst.system, "transforms", tuple(
            counted_tuple(t, reads, limit) for t in inst.system.transforms))
        return inst

    monkeypatch.setattr(perdec.cli, "parse_instance", counted)
    code, doc = _run(capsys, ["bounded-transfer", path, "--verify", saved])
    assert code == 0 and doc["agrees"] is True
    assert 0 < reads[0] <= limit


def test_bounded_transfer_verify_rejects_an_out_of_range_point(tmp_path,
                                                               capsys):
    cert = {"result": "constrained-obstruction",
            "certificate": {"x": 7, "k": 1, "l": 1, "l2": 0, "total": "1"}}
    path = _write(tmp_path, "inst.json", SWAP_TRANSFER)
    saved = _write(tmp_path, "cert.json", cert)
    code = run_command(["bounded-transfer", path, "--verify", saved])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    assert doc["agrees"] is False and doc["reason"]


def test_decompose_verify_rejects_short_parts(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", THREE_CYCLE_TRANSFER)
    short = {"result": "decomposition", "parts": [["1", "1"], ["0", "0"]]}
    saved = _write(tmp_path, "cert.json", short)
    code = run_command(["decompose", path, "--verify", saved])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    assert json.loads(captured.out)["reason"] == "LengthMismatch(0)"


def test_oracle_lattice_dual_with_one_weight_changed_is_rejected(tmp_path,
                                                                 capsys):
    path = _write(tmp_path, "inst.json", LATTICE_CORNER)
    code, doc = _run(capsys, ["oracle", path])
    assert code == 1 and doc["result"] == "infeasible"
    weights = doc["certificate"]["weights"]
    for i in range(len(weights)):
        tampered = json.loads(json.dumps(doc))
        tampered["certificate"]["weights"][i] = str(int(weights[i]) + 1)
        bad = _write(tmp_path, f"bad{i}.json", tampered)
        code, verdict = _run(capsys, ["oracle", path, "--verify", bad])
        assert code == 1 and verdict["agrees"] is False


def test_oracle_on_a_40_by_40_window_is_fast_and_its_dual_replays(tmp_path,
                                                                  capsys):
    # 1,600 points and 80 slice classes; the dense identity-tracked
    # elimination needed about 3 s here, the spanning forest of the two
    # slice partitions a few ms
    rng = random.Random(40)
    inst = {"kind": "lattice-window", "dims": [40, 40],
            "values": [str(rng.randint(-9, 9)) for _ in range(1600)]}
    path = _write(tmp_path, "inst.json", inst)
    start = time.perf_counter()
    code, doc = _run(capsys, ["oracle", path])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and doc["result"] == "infeasible"
    saved = _write(tmp_path, "dual.json", doc)
    code, verdict = _run(capsys, ["oracle", path, "--verify", saved])
    assert code == 0 and verdict["agrees"] is True


# the keys earlier releases wrote beside a violation's blocks, z and value
LEGACY_VIOLATION_KEYS = ("distinguished", "exponents", "premises", "kind")


def _with_legacy_keys(inst, certificate):
    """The certificate with the heads, exponents, premises and kind that
    earlier releases wrote for its blocks: each block headed by its first
    index at the exponent of the block's least common multiple l, and
    each other member i with the premise (i, 0, l / a_i); on map tables
    every shift is 1."""
    blocks = certificate["blocks"]
    shifts = inst["shifts"] if inst["kind"] == "z-window" else None
    shift = (lambda i: 1) if shifts is None else shifts.__getitem__
    offsets = [lcm(*map(shift, block)) for block in blocks]
    return dict(
        certificate, distinguished=[block[0] for block in blocks],
        exponents=[o // shift(block[0]) for block, o in zip(blocks, offsets)],
        premises=sorted([i, 0, o // shift(i)]
                        for block, o in zip(blocks, offsets)
                        for i in block[1:]),
        kind="MixedDeltaNonzero")


def _certificates():
    """(subcommand, instance, saved result) for one document of each
    certificate type, produced by the command line itself; a violation
    also carries the keys earlier releases wrote, which are not read."""
    cases = [("decompose", FINITE_DOUBLE_SWAP), ("decompose", CYCLIC_SPLIT),
             ("star-check", Z_WINDOW_LINEAR),
             ("oracle", FINITE_DOUBLE_SWAP), ("oracle", LATTICE_CORNER),
             ("oracle", LATTICE_SEPARABLE), ("oracle", Z_WINDOW_LINEAR),
             ("oracle", Z_WINDOW_PERIODIC),
             ("lattice-decompose", LATTICE_CORNER),
             ("bounded-transfer", THREE_CYCLE_TRANSFER),
             ("bounded-transfer", SWAP_TRANSFER)]
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for command, inst in cases:
            path = Path(tmp) / "inst.json"
            path.write_text(json.dumps(inst))
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                run_command([command, str(path)])
            doc = json.loads(buf.getvalue())
            if doc["result"] == "violation":
                doc["certificate"] = _with_legacy_keys(inst,
                                                       doc["certificate"])
            out.append((command, inst, doc))
    return out


CERTIFICATES = _certificates()


def _field_paths(doc, prefix=()):
    """Key or index paths into a JSON document, containers included; of a
    list's elements only the first and the last."""
    paths = [prefix] if prefix else []
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = [(i, doc[i]) for i in sorted({0, len(doc) - 1}) if doc]
    else:
        items = []
    for key, value in items:
        paths.extend(_field_paths(value, prefix + (key,)))
    return paths


MUTATION_SITES = [(command, inst, doc, path)
                  for command, inst, doc in CERTIFICATES
                  for path in _field_paths(doc)]

# nested int lists a violation's blocks may hold: an empty block, a
# negative index and an index past the last transform
_NESTED_ROWS = [[[]], [[0, -1]], [[0, 9]]]

_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([10 ** 11, -10 ** 11, 2 ** 64]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "1", "-1", "1/2", "-7/3", "abc", "1/0", ""]),
    st.lists(st.integers(-3, 3), max_size=4),
    st.sampled_from(_NESTED_ROWS),
    st.lists(st.sampled_from(["0", "1", "-1/2"]), max_size=7),
    st.dictionaries(st.sampled_from(["x", "point", "weights"]),
                    st.integers(-2, 2), max_size=2),
)


@pytest.mark.parametrize(
    "site", MUTATION_SITES,
    ids=[f"{command}:{doc['result']}:{'.'.join(map(str, path))}"
         for command, _, doc, path in MUTATION_SITES])
@given(value=_FIELD_VALUES)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_certificates_never_crash_or_hang(site, value):
    command, inst, doc, path = site
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = _write(Path(tmp), "inst.json", inst)
        cert_path = _write(Path(tmp), "cert.json", _mutate(doc, path, value))
        code, verdict = _assert_clean_run([command, inst_path, "--verify",
                                           cert_path])
    if path[1:2] and path[1] in LEGACY_VIOLATION_KEYS:
        # whatever an earlier release's key holds, it is not read
        assert (code, verdict) == (0, {"result": "verified", "agrees": True})


ROW_SITES = [(command, inst, doc, path)
             for command, inst, doc, path in MUTATION_SITES
             if path[1:2] == ("blocks",)]


@pytest.mark.parametrize("value", _NESTED_ROWS)
@pytest.mark.parametrize(
    "site", ROW_SITES,
    ids=[f"{command}:{'.'.join(map(str, path))}"
         for command, _, _, path in ROW_SITES])
def test_nested_rows_in_a_violation_are_refused_cleanly(site, value):
    # every such instance is malformed or no producer's: it does not
    # replay (exit 1) or is not read (exit 2), and never raises
    command, inst, doc, path = site
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = _write(Path(tmp), "inst.json", inst)
        cert_path = _write(Path(tmp), "cert.json", _mutate(doc, path, value))
        code, _ = _assert_clean_run([command, inst_path, "--verify",
                                     cert_path])
    assert code in (1, 2)


PREMISE_SITES = [(command, inst, doc, path)
                 for command, inst, doc, path in MUTATION_SITES
                 if path[1:2] == ("premises",)]


@pytest.mark.parametrize("value", _NESTED_ROWS)
@pytest.mark.parametrize(
    "site", PREMISE_SITES,
    ids=[f"{command}:{'.'.join(map(str, path))}"
         for command, _, _, path in PREMISE_SITES])
def test_nested_rows_in_a_legacy_premise_are_not_read(site, value):
    # earlier releases refused these rows; the replay rebuilds the
    # premises from the blocks, so the document still verifies
    command, inst, doc, path = site
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = _write(Path(tmp), "inst.json", inst)
        cert_path = _write(Path(tmp), "cert.json", _mutate(doc, path, value))
        code, verdict = _assert_clean_run([command, inst_path, "--verify",
                                           cert_path])
    assert (code, verdict) == (0, {"result": "verified", "agrees": True})


def _mutate(doc, path, value):
    """A copy of doc with the field at path replaced by value."""
    mutated = json.loads(json.dumps(doc))
    holder = mutated
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return mutated


def _assert_clean_run(argv):
    """Exit 0, 1 or 2 within a second, one JSON document, no traceback;
    returns the exit code and the document."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert elapsed < 1.0
    return code, json.loads(out.getvalue())


INSTANCE_SITES = [(inst, path)
                  for inst in (FINITE_DOUBLE_SWAP, CYCLIC_SPLIT,
                               LATTICE_CORNER, Z_WINDOW_LINEAR)
                  for path in _field_paths(inst)]


@pytest.mark.parametrize(
    "site", INSTANCE_SITES,
    ids=[f"{inst['kind']}:{'.'.join(map(str, path))}"
         for inst, path in INSTANCE_SITES])
@given(value=_FIELD_VALUES)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_instances_never_crash_or_hang(site, value):
    inst, path = site
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = _write(Path(tmp), "inst.json", _mutate(inst, path, value))
        for command in ("oracle", "decompose", "star-check"):
            _assert_clean_run([command, inst_path])


# the report `search --n 2 --max-size 2 --trials 1 --seed 0` emits
SEARCH_REPORT = {"result": "report", "n": 2, "max_size": 2, "trials": 1,
                 "seed": 0, "star_pass": 1, "star_fail": 0,
                 "oracle_feasible": 1, "oracle_infeasible": 0,
                 "necessity_checked": 0, "necessity_violations": 0,
                 "discrepancies": 0}
# the same report with the "candidates" list of earlier releases, here
# listing one candidate, so that the list and its fields can be mutated
LISTED_CANDIDATE_REPORT = dict(SEARCH_REPORT, candidates=[
    {"trial": 0, "size": 2, "transforms": [[1, 0], [0, 1]],
     "values": ["0", "1"], "dual_weights": ["1", "-1"]}])
CANDIDATE_SITES = [p for p in _field_paths(LISTED_CANDIDATE_REPORT)
                   if p[0] == "candidates"]
REPORT_SITES = ([(SEARCH_REPORT, p) for p in _field_paths(SEARCH_REPORT)]
                + [(LISTED_CANDIDATE_REPORT, p) for p in CANDIDATE_SITES])


def test_the_search_report_fixture_is_what_search_emits(capsys):
    code, doc = _run(capsys, ["search", "--n", "2", "--max-size", "2",
                              "--trials", "1", "--seed", "0"])
    assert (code, doc) == (0, SEARCH_REPORT)


@pytest.mark.parametrize("report,path", REPORT_SITES,
                         ids=[".".join(map(str, p)) for _, p in REPORT_SITES])
@given(value=_FIELD_VALUES)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_search_reports_never_crash_or_hang(report, path, value):
    with tempfile.TemporaryDirectory() as tmp:
        saved = _write(Path(tmp), "report.json", _mutate(report, path, value))
        code, doc = _assert_clean_run(["search", "--verify", saved])
    if report is LISTED_CANDIDATE_REPORT:
        # whatever the list holds, it is not read: the counts verify
        assert (code, doc) == (0, {"result": "verified", "agrees": True})


def test_stdin_instance(capsys, monkeypatch):
    # the reader takes stdin's bytes, as from a shell pipe
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(json.dumps(Z_WINDOW_LINEAR).encode())))
    code, doc = _run(capsys, ["star-check", "-"])
    assert code == 1
    assert doc["result"] == "violation"


def _clean_error(capsys, argv, error):
    # an input error: exit 2, the JSON error on stdout, nothing on stderr
    code = run_command(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out)["error"].startswith(error)


def test_a_byte_that_is_not_utf8_is_an_input_error(tmp_path, capsys,
                                                   monkeypatch):
    good = _write(tmp_path, "good.json", Z_WINDOW_LINEAR)
    text = json.dumps(Z_WINDOW_LINEAR).encode().replace(b'"9"', b'"\xff"')
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    _clean_error(capsys, ["star-check", str(bad)],
                 "instance file is not UTF-8: 'utf-8' codec can't decode "
                 "byte 0xff")
    cert = tmp_path / "cert.json"
    cert.write_bytes(b'{"result": "\xff"}')
    _clean_error(capsys, ["star-check", good, "--verify", str(cert)],
                 "certificate file is not UTF-8")
    # stdin is decoded by the same reader, not by the locale's handler
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
    _clean_error(capsys, ["validate", "-"], "instance file is not UTF-8")


# a window whose point count, 10 ** 6000, has more digits than str(int)
# prints by default
HUGE_DIMS = [10 ** 3000, 10 ** 3000]


def test_a_window_too_large_to_count_is_an_input_error(tmp_path, capsys):
    error = (f"dims: window point count has more than "
             f"{sys.get_int_max_str_digits()} digits")
    huge = _write(tmp_path, "huge.json", {"kind": "lattice-window",
                                          "dims": HUGE_DIMS,
                                          "values": ["1", "2"]})
    _clean_error(capsys, ["validate", huge], error)
    # a count that prints is still named in the mismatch
    dims = [10 ** 2150, 10 ** 2149]
    printable = _write(tmp_path, "printable.json", {
        "kind": "lattice-window", "dims": dims, "values": ["1", "2"]})
    _clean_error(capsys, ["validate", printable],
                 f"values: expected {10 ** 4299} values, got 2")


def test_outputs_are_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", FINITE_DOUBLE_SWAP)
    run_command(["oracle", path])
    first = capsys.readouterr().out
    run_command(["oracle", path])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_one_parser_serves_every_call_like_a_fresh_process(tmp_path, capsys,
                                                          monkeypatch):
    # the parser is built once per process and reused, so no call may see
    # state left by an earlier one
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    monkeypatch.setattr(perdec.cli, "_build_parser",
                        lambda build=perdec.cli._build_parser:
                        built.append(1) or build())
    perdec.cli._parser.cache_clear()
    window = _write(tmp_path, "window.json", Z_WINDOW_LINEAR)
    finite = _write(tmp_path, "finite.json", FINITE_DOUBLE_SWAP)
    calls = [["star-check", window, "--bound", "3"], ["star-check", window],
             ["decompose", finite, "--bound", "3"], ["--help"], ["--help"]]
    src = str(Path(perdec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    codes = []
    for argv in calls:
        code = run_command(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "perdec.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=60)
        assert (code, out) == (fresh.returncode, fresh.stdout)
        codes.append(code)
    assert codes == [2, 1, 2, 0, 0]
    assert len(built) == 1


def test_unknown_subcommand_is_input_error(capsys):
    assert run_command(["frobnicate"]) == 2


# one instance per subcommand; search takes none
DISPATCH_INSTANCES = {"validate": FINITE_DOUBLE_SWAP,
                      "decompose": FINITE_DOUBLE_SWAP,
                      "star-check": Z_WINDOW_LINEAR,
                      "oracle": CYCLIC_SPLIT,
                      "lattice-decompose": LATTICE_SEPARABLE,
                      "bounded-transfer": THREE_CYCLE_TRANSFER,
                      "search": None}


def _answer(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_direct_dispatch_answers_like_the_top_level_parser(tmp_path, capsys,
                                                           monkeypatch):
    # a well-formed argv is read by the plain reader, and any other named
    # subcommand skips the top-level parser; with the reader answering
    # nothing and the name map emptied every argv takes the top-level
    # parser, which is what each call must equal
    monkeypatch.setenv("COLUMNS", "80")
    parser, commands = perdec.cli._parser()
    assert set(commands) == set(DISPATCH_INSTANCES)
    oracle_inst = _write(tmp_path, "oracle.json", CYCLIC_SPLIT)
    calls = [[], ["-h"], ["--help"], ["frobnicate"], ["frobnicate", "x"],
             ["oracle"], ["oracle", "-h"], ["search", "--n", "x"],
             ["oracle", str(tmp_path / "missing.json")]]
    certs = {}
    for command, doc in DISPATCH_INSTANCES.items():
        argv = ([command, "--trials", "5", "--max-size", "3"]
                if doc is None else
                [command, _write(tmp_path, f"{command}.json", doc)])
        cert = certs[command] = str(tmp_path / f"{command}-cert.json")
        Path(cert).write_text(_answer(capsys, argv)[1])
        calls += [argv] + ([] if command == "validate"
                           else [argv + ["--verify", cert]])
    lattice = str(tmp_path / "lattice-decompose.json")
    lattice_cert = certs["lattice-decompose"]
    oracle_cert = certs["oracle"]
    # the plain grammar, with a repeated option; then forms argparse alone
    # reads: options before the instance, "=" spellings and an empty value
    calls += [["search", "--verify", certs["search"]],
              ["lattice-decompose", lattice, "--verify", lattice_cert,
               "--verify", lattice_cert],
              ["lattice-decompose", f"--verify={lattice_cert}", lattice],
              ["oracle", "--verify", oracle_cert, oracle_inst],
              ["oracle", oracle_inst, f"--verify={oracle_cert}"],
              ["oracle", oracle_inst, "--verify="],
              ["search", "--trials=5", "--max-size", "3", "--trials", "4",
               "--seed", " 2"],
              ["oracle", oracle_inst, "--ver", oracle_cert],
              ["oracle", oracle_inst, "--verify=--"],
              ["oracle", "--", oracle_inst], ["search", "--n"]]
    unrecognized = [["oracle", oracle_inst, "--bogus"],
                    ["oracle", oracle_inst, oracle_inst], ["search", "x"],
                    ["lattice-decompose", lattice, "--base=0"]]
    codes = []
    for argv in calls + unrecognized:
        direct = _answer(capsys, argv)
        codes.append(direct[0])
        with monkeypatch.context() as m:
            m.setattr(perdec.cli, "_plain", lambda argv: None)
            m.setattr(perdec.cli, "_parser", lambda: (parser, {}))
            top = _answer(capsys, argv)
        if argv in unrecognized:
            # the one stderr difference: the usage line of the subcommand
            assert direct[:2] == top[:2] == (2, "")
            assert direct[2].startswith(f"usage: perdec {argv[0]} [-h]")
            assert direct[2].endswith(f"perdec {argv[0]}: error: "
                                      f"unrecognized arguments: {argv[-1]}\n")
        else:
            assert direct == top, argv
    assert codes[:9] == [2, 0, 0, 2, 2, 2, 0, 2, 2]
    assert codes[-15:] == [0] * 10 + [2] * 5


# every token kind of an argv: each subcommand name and an unknown one,
# each exact option, abbreviations, help, "--", "-", "", "=" spellings
# with empty, "--" and negative values, numbers with a sign or a space,
# and plain words
ARGV_TOKENS = [*DISPATCH_INSTANCES, "frobnicate", "--verify", "--base",
               "--n", "--max-size", "--trials", "--seed", "--workers",
               "--ver", "--max", "--b", "--bogus", "-h", "--help", "--", "-",
               "", "--verify=", "--verify=x", "--verify=--", "--base=-1",
               "--base=3", "--n=2", "--max-size=x", "-1", "3", " 3", "x"]


@settings(max_examples=2000, deadline=None)
@given(st.sampled_from([*DISPATCH_INSTANCES, "frobnicate", "-h", "--", ""]),
       st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
def test_the_plain_reader_answers_only_as_argparse_does(command, rest):
    argv = [command, *rest]
    plain = perdec.cli._plain(argv)
    if plain is None:
        return
    parser, _ = perdec.cli._parser()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            reference = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}, which the reader read")
    assert vars(plain) == vars(reference), argv


@pytest.mark.parametrize("command", sorted(DISPATCH_INSTANCES))
def test_the_plain_reader_answers_what_the_workloads_send(command):
    # the shapes the benchmark's ops and replays send, on every subcommand
    # that takes them
    shapes = ([["search", "--verify", "report.json"],
               ["search", "--n", "3", "--trials", "5"]]
              if command == "search" else [[command, "inst.json"]])
    if command not in ("search", "validate"):
        shapes.append([command, "inst.json", "--verify", "cert.json"])
    parser, _ = perdec.cli._parser()
    for argv in shapes:
        plain = perdec.cli._plain(argv)
        assert plain is not None, argv
        assert vars(plain) == vars(parser.parse_args(argv))


@pytest.mark.parametrize("spelling, canonical", [
    (["oracle", "--verify={cert}", "{inst}"],
     ["oracle", "{inst}", "--verify", "{cert}"]),
    (["oracle", "--verify", "{cert}", "{inst}"],
     ["oracle", "{inst}", "--verify", "{cert}"]),
    (["search", "--n=3"], ["search", "--n", "3"]),
], ids=["equals-value", "instance-last", "search-equals-value"])
def test_other_spellings_go_to_argparse_and_answer_alike(tmp_path, capsys,
                                                          spelling,
                                                          canonical):
    inst = _write(tmp_path, "inst.json", CYCLIC_SPLIT)
    cert = str(tmp_path / "cert.json")
    Path(cert).write_text(_answer(capsys, ["oracle", inst])[1])

    def filled(argv):
        return [token.format(inst=inst, cert=cert) for token in argv]

    assert perdec.cli._plain(filled(spelling)) is None
    assert perdec.cli._plain(filled(canonical)) is not None
    assert _answer(capsys, filled(spelling))[:2] == \
        _answer(capsys, filled(canonical))[:2]


# a fresh interpreter without site-packages: load the CLI, run argv[2:],
# then print the exit code and every loaded module on stderr
_FRESH_RUN = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import perdec.cli; "
              "code = perdec.cli.run_command(sys.argv[2:]); "
              "print(code, *sorted(sys.modules), file=sys.stderr)")

# every subcommand needs these: parsing, ParseError and dumps, and the
# errors run_command catches
SHARED_MODULES = {"perdec", "perdec.cli", "perdec.serialize", "perdec.core"}

# the perdec modules each subcommand loads past the shared set; every
# producer self-verifies through check, which imports orbits
LOADS = {
    "validate": set(),
    "oracle": {"check", "orbits", "oracle"},
    "bounded-transfer": {"check", "cohomology", "orbits"},
    "star-check": {"check", "orbits", "star"},
    "decompose": {"check", "decomp", "orbits", "star"},
}
# every result replays with the checker alone
VERIFY_LOADS = dict.fromkeys(LOADS, {"check", "orbits"})

# a lattice window is read as a finite instance, so it loads lattice past
# what its subcommand loads on one, and lattice-decompose runs decompose's
# producer; a search trial runs the generators, the star check and the
# oracle
LATTICE_LOADS = {command: {"lattice"} | LOADS[command]
                 for command in ("validate", "oracle", "star-check",
                                 "decompose")}
LATTICE_LOADS["lattice-decompose"] = LATTICE_LOADS["decompose"]
SEARCH_LOADS = {"check", "generators", "oracle", "orbits", "star"}

# the instance kinds each subcommand reads; on the others it is an input
# error that loads nothing past the shared set
ACCEPTS = {"validate": {"finite", "cyclic-group", "z-window"},
           "oracle": {"finite", "cyclic-group", "z-window"},
           "star-check": {"finite", "cyclic-group", "z-window"},
           "bounded-transfer": {"finite", "cyclic-group"},
           "decompose": {"finite", "cyclic-group"}}

SMALL_INSTANCES = {
    "finite": THREE_CYCLE_TRANSFER,
    "cyclic-group": {"kind": "cyclic-group", "modulus": 3, "shifts": [1, 0],
                     "values": ["1", "-1", "0"]},
    "z-window": Z_WINDOW_LINEAR,
}


# the value types derive from core._Record, so no run pays for importing
# dataclasses and the inspect module it loads
SLOW_IMPORTS = {"dataclasses", "inspect"}

# fractions and the modules it loads: perdec imports Fraction only where a
# result carries a rational, so only those runs and their replays load it
RATIONAL_MODULES = {"fractions", "decimal", "numbers"}

# the runs above whose result carries a rational: a transfer bound or
# obstruction total, and the value of the z-window's star violation
RATIONAL_RESULTS = {("bounded-transfer", "finite"),
                    ("bounded-transfer", "cyclic-group"),
                    ("star-check", "z-window")}


# argparse and the gettext it loads: only help and usage errors need them
PARSER_MODULES = {"argparse", "gettext"}


def _fresh_modules(argv):
    """Exit code, stdout, stderr and the loaded modules of a run in a
    fresh interpreter, which must load only the standard library and
    perdec, and none of SLOW_IMPORTS."""
    src = str(Path(perdec.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-S", "-c", _FRESH_RUN, src,
                          *argv], capture_output=True, text=True, timeout=60)
    *lines, last = run.stderr.splitlines(keepends=True)
    code, *names = last.split()
    tops = {name.partition(".")[0] for name in names}
    assert tops - {"__main__", "perdec"} <= sys.stdlib_module_names
    assert not SLOW_IMPORTS & tops
    return int(code), run.stdout, "".join(lines), set(names)


def _fresh_run(argv):
    """Exit code, stdout, and the perdec modules and RATIONAL_MODULES of a
    run of a well-formed argv in a fresh interpreter, which must load
    neither PARSER_MODULES nor anything past `_fresh_modules`' limits."""
    code, out, _, names = _fresh_modules(argv)
    assert not PARSER_MODULES & names
    return (code, out,
            {name for name in names if name in RATIONAL_MODULES
             or name.partition(".")[0] == "perdec"})


def _perdec(*modules):
    return SHARED_MODULES | {f"perdec.{m}" for m in modules}


def test_cli_loads_only_the_standard_library_and_perdec_sources():
    # dependencies = [] and no compiled extension: a fresh interpreter
    # without site-packages imports nothing else
    src = str(Path(perdec.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); import perdec; "
            "print(*sorted(set(sys.modules) - before)); import perdec.cli; "
            "print(*sorted(sys.modules)); "
            "print(*[m.__file__ for n, m in sys.modules.items() "
            "if n.partition('.')[0] == 'perdec'])")
    run = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    package, names, files = run.stdout.splitlines()
    # the package resolves its exports on first use, so it loads no
    # submodule, and the CLI loads only what every subcommand needs
    assert package.split() == ["perdec"]
    assert {n for n in names.split()
            if n.partition(".")[0] == "perdec"} == SHARED_MODULES
    tops = {name.partition(".")[0] for name in names.split()}
    assert tops - {"__main__", "perdec"} <= sys.stdlib_module_names
    assert not (SLOW_IMPORTS | RATIONAL_MODULES | PARSER_MODULES) & tops
    assert all(path.endswith(".py") for path in files.split())


def test_help_and_usage_errors_load_argparse(tmp_path, capsys, monkeypatch):
    # the argv the plain reader leaves take argparse, with the exit code,
    # stdout and stderr of an in-process run
    monkeypatch.setenv("COLUMNS", "80")
    instance = _write(tmp_path, "inst.json", CYCLIC_SPLIT)
    for argv, code in [(["-h"], 0), (["oracle", instance, "--bogus"], 2)]:
        fresh = _fresh_modules(argv)
        assert PARSER_MODULES <= fresh[3]
        assert fresh[:3] == (code, *_answer(capsys, argv)[1:])
    assert fresh[2].endswith("unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("kind", sorted(SMALL_INSTANCES))
@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, command,
                                                        kind):
    instance = _write(tmp_path, "inst.json", SMALL_INSTANCES[kind])
    code, out, loaded = _fresh_run([command, instance])
    if kind not in ACCEPTS[command]:
        assert code == 2
        assert loaded == SHARED_MODULES
        return
    assert code in (0, 1)
    rational = (RATIONAL_MODULES if (command, kind) in RATIONAL_RESULTS
                else set())
    assert loaded == _perdec(*LOADS[command]) | rational
    if command == "validate":
        return
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, _, loaded = _fresh_run([command, instance, "--verify", str(cert)])
    assert code == 0
    assert loaded == _perdec(*VERIFY_LOADS[command]) | rational


@pytest.mark.parametrize("kind", sorted(PASSING_STAR_CHECKS))
@pytest.mark.parametrize("code, instances", [(0, PASSING_STAR_CHECKS),
                                             (1, REFUSING_INSTANCES)])
def test_an_oracle_verdict_and_its_replay_load_no_rationals(tmp_path, code,
                                                           instances, kind):
    # a split's parts and a dual's weights are numerators over one
    # denominator, so neither verdict builds a Fraction
    instance = _write(tmp_path, "inst.json", instances[kind])
    verdict, out, loaded = _fresh_run(["oracle", instance])
    assert verdict == code
    assert not RATIONAL_MODULES & loaded
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    verdict, _, loaded = _fresh_run(["oracle", instance, "--verify",
                                     str(cert)])
    assert verdict == 0
    assert not RATIONAL_MODULES & loaded


@pytest.mark.parametrize("refused", [False, True], ids=["split", "refused"])
@pytest.mark.parametrize("command", sorted(LATTICE_LOADS))
def test_a_lattice_window_loads_the_lattice_modules(tmp_path, command,
                                                    refused):
    # a refusal's star violation carries its nonzero value as a rational;
    # a dual is integer weights
    instance = _write(tmp_path, "inst.json",
                      LATTICE_CORNER if refused else LATTICE_SEPARABLE)
    code, out, loaded = _fresh_run([command, instance])
    rational = (RATIONAL_MODULES if refused and command
                not in ("validate", "oracle") else set())
    assert code == (refused and command != "validate")
    assert loaded == _perdec(*LATTICE_LOADS[command]) | rational
    if command == "validate":
        return
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, _, loaded = _fresh_run([command, instance, "--verify", str(cert)])
    assert code == 0
    assert loaded == _perdec("lattice", "check", "orbits") | rational


def test_search_loads_the_trial_modules_and_its_replay_the_checker(tmp_path):
    code, out, loaded = _fresh_run(["search", "--n", "3", "--trials", "5"])
    assert code == 0
    assert loaded == _perdec(*SEARCH_LOADS)
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    # a report replays without the star check or the oracle
    assert _fresh_run(["search", "--verify", str(cert)])[::2] == (
        0, _perdec("check", "orbits"))


def test_a_listed_candidate_leaves_the_counts_to_the_checker(tmp_path,
                                                             capsys):
    # one transform is a parameter no search takes: a verdict (exit 1),
    # with the listed candidate not read
    report = dict(LISTED_CANDIDATE_REPORT, n=1)
    code = run_command(["search", "--verify",
                        _write(tmp_path, "report.json", report)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert json.loads(captured.out) == {
        "result": "verified", "agrees": False,
        "reason": "report counts no search produces"}


def test_search_verify_refuses_counts_no_search_produces(tmp_path, capsys):
    # five trials with no star verdict, and three necessity violations
    # that are neither checked trials nor discrepancies
    report = dict(SEARCH_REPORT, trials=5, star_pass=0, star_fail=0,
                  necessity_violations=3, discrepancies=0)
    code, verdict = _run(capsys, ["search", "--verify",
                                  _write(tmp_path, "report.json", report)])
    assert (code, verdict) == (1, {"result": "verified", "agrees": False,
                                   "reason": "report counts no search "
                                             "produces"})


# each a report with parameters the search never takes
NO_SEARCH_PARAMETERS = {
    # one transform on at most -3 points, with no trials
    "n=1, max_size=-3": dict(n=1, max_size=-3, trials=0, star_pass=0,
                             oracle_feasible=0),
    "n=1": dict(n=1),
    "max_size=1": dict(max_size=1),
}


@pytest.mark.parametrize("change", NO_SEARCH_PARAMETERS.values(),
                         ids=NO_SEARCH_PARAMETERS)
def test_search_verify_refuses_parameters_no_search_takes(tmp_path, capsys,
                                                          change):
    report = dict(SEARCH_REPORT, **change)
    code, verdict = _run(capsys, ["search", "--verify",
                                  _write(tmp_path, "report.json", report)])
    assert (code, verdict) == (1, {"result": "verified", "agrees": False,
                                   "reason": "report counts no search "
                                             "produces"})
