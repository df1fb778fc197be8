import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import perdec
import perdec.check
import perdec.cli
from perdec import serialize
from perdec.cli import run_command
from perdec.core import RationalFunction
from perdec.decomp import decompose_n

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
    assert doc["certificate"]["kind"] == "MixedDeltaNonzero"
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


def test_decompose_verify_accepts_an_earlier_compatibility_certificate(
        tmp_path, capsys):
    # decompose no longer emits this kind, but saved certificates replay
    path = _write(tmp_path, "inst.json", FINITE_DOUBLE_SWAP)
    cert = _write(tmp_path, "cert.json", {
        "result": "violation",
        "certificate": {"kind": "CompatibilityFailure", "blocks": [[0, 1]],
                        "distinguished": [1], "exponents": [1],
                        "premises": [[0, 0, 1]], "z": 0, "value": "1"}})
    code, doc = _run(capsys, ["decompose", path, "--verify", cert])
    assert code == 0
    assert doc == {"result": "verified", "agrees": True}


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
            assert doc["certificate"]["kind"] == "MixedDeltaNonzero"
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
# before they went through the finite check; saved certificates replay
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
    code, doc = _run(capsys, ["star-check", path])
    assert (code, doc) == (1, EARLIER_CYCLIC_CERTIFICATE)


# one instance per kind, on which the star check fails and each stored
# result below is refused by its checker
REFUSING_INSTANCES = {
    "finite": FINITE_DOUBLE_SWAP,
    "cyclic-group": {"kind": "cyclic-group", "modulus": 4, "shifts": [1, 2],
                     "values": ["0", "1", "0", "0"]},
    "z-window": Z_WINDOW_LINEAR,
    "lattice-window": LATTICE_CORNER,
}
# the identity passes the star check on any f, so f splits and no dual
# verifies: the candidate is refused from its own fields, in a report whose
# counts a search can produce
FALSE_CANDIDATE_REPORT = dict(
    result="report", n=1, max_size=1, trials=5, seed=1, star_pass=1,
    star_fail=4, oracle_feasible=0, oracle_infeasible=1, necessity_checked=0,
    necessity_violations=0, discrepancies=0, candidates=[
        {"trial": 4, "size": 2, "transforms": [[0, 1]],
         "values": ["1", "2"], "dual_weights": ["1", "-1"]}])
# one stored document per result tag: its parsed type, and the reason its
# checker gives on every instance above
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
                              "tuple", "parts do not match the window shape"),
    # the empty point is a point: parse_result's lattice parts are nonempty
    "point-violation": ({"result": "point-violation",
                         "certificate": {"point": []}}, "tuple",
                        "point is not a stencil base inside the window"),
    "bounded-transfer": ({"result": "bounded-transfer", "values": ["1"],
                          "bound": "0"}, "BoundedTransfer",
                         "solution length differs from domain"),
    "obstruction": ({"result": "obstruction",
                     "certificate": {"points": [0], "total": "1"}},
                    "CycleObstruction", None),
    "constrained-obstruction": ({"result": "constrained-obstruction",
                                 "certificate": {"x": 99, "k": 1, "l": 0,
                                                 "l2": 0, "total": "1"}},
                                "ConstrainedObstruction",
                                "witness point or exponent out of range"),
    "report": (FALSE_CANDIDATE_REPORT, "SearchReport",
               "candidate from trial 4 does not re-verify"),
}
# the result tags each subcommand emits, by instance kind (None: search)
EMITTED = {
    ("decompose", "finite"): {"decomposition", "violation"},
    ("decompose", "cyclic-group"): {"decomposition", "violation"},
    ("star-check", "finite"): {"pass", "violation"},
    ("star-check", "cyclic-group"): {"pass", "violation"},
    ("star-check", "z-window"): {"pass", "violation"},
    ("star-check", "lattice-window"): {"pass", "point-violation"},
    ("oracle", "finite"): {"decomposition", "infeasible"},
    ("oracle", "cyclic-group"): {"decomposition", "infeasible"},
    ("oracle", "z-window"): {"decomposition", "infeasible"},
    ("oracle", "lattice-window"): {"lattice-decomposition", "infeasible"},
    ("lattice-decompose", "lattice-window"): {"lattice-decomposition",
                                              "point-violation"},
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
    if tag not in EMITTED[command, kind]:
        where = (" on a lattice window"
                 if (command, kind) == ("star-check", "lattice-window")
                 else "")
        reason = f"unexpected result type {name} for {command}{where}"
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
    parts = decompose_n(tables, f)
    assert (code, doc) == (0, json.loads(serialize.dumps(
        serialize.result_to_json(parts))))
    saved = _write(tmp_path, "parts.json", doc)
    code, verdict = _run(capsys, ["decompose", path, "--verify", saved])
    assert code == 0 and verdict == {"result": "verified", "agrees": True}


def test_star_check_z_window_certificate(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", Z_WINDOW_LINEAR)
    code, doc = _run(capsys, ["star-check", path])
    assert code == 1
    cert = doc["certificate"]
    assert cert["blocks"] == [[0, 1]]
    assert cert["exponents"] == [1]
    assert cert["value"] == "1"
    saved = _write(tmp_path, "cert.json", doc)
    code, doc = _run(capsys, ["star-check", path, "--verify", saved])
    assert code == 0 and doc["agrees"] is True


def test_star_check_lattice_point(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", LATTICE_CORNER)
    code, doc = _run(capsys, ["star-check", path])
    assert code == 1
    assert doc == {"result": "point-violation",
                   "certificate": {"point": [0, 0]}}
    saved = _write(tmp_path, "cert.json", doc)
    code, doc = _run(capsys, ["star-check", path, "--verify", saved])
    assert code == 0 and doc["agrees"] is True
    moved = {"result": "point-violation", "certificate": {"point": [1, 1]}}
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
    window = {"result": "lattice-decomposition", "dims": [12],
              "parts": doc["parts"]}
    wrong = _write(tmp_path, "window.json", window)
    code, verdict = _run(capsys, ["oracle", path, "--verify", wrong])
    assert code == 1
    assert verdict["reason"] == ("unexpected result type tuple for "
                                 "oracle")


def test_oracle_lattice_parts_and_dual(tmp_path, capsys):
    good = _write(tmp_path, "good.json", LATTICE_SEPARABLE)
    code, doc = _run(capsys, ["oracle", good])
    assert code == 0
    assert doc["result"] == "lattice-decomposition"
    assert doc["dims"] == [2, 3]
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


def test_oracle_verify_names_a_lattice_part_of_the_wrong_length(tmp_path,
                                                               capsys):
    inst = _write(tmp_path, "inst.json", LATTICE_SEPARABLE)
    saved = _write(tmp_path, "parts.json", {
        "result": "lattice-decomposition", "dims": [2, 3],
        "parts": [["0"] * 6, ["1"]]})
    code, doc = _run(capsys, ["oracle", inst, "--verify", saved])
    assert code == 2
    assert doc == {"error": "parts[1]: expected 6 values for dims (2, 3), "
                            "got 1", "path": "parts[1]"}


def test_oracle_verify_reports_bad_result_dims_at_dims(tmp_path, capsys):
    # the extents are checked once, before any part is read
    inst = _write(tmp_path, "inst.json", LATTICE_SEPARABLE)
    saved = _write(tmp_path, "parts.json", {
        "result": "lattice-decomposition", "dims": [1],
        "parts": [["0"] * 6, ["0"] * 6]})
    code, doc = _run(capsys, ["oracle", inst, "--verify", saved])
    assert code == 2
    assert doc == {"error": "dims: extent 1 must be an integer >= 2",
                   "path": "dims"}


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


def test_lattice_decompose_and_gauge(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", LATTICE_SEPARABLE)
    code, doc = _run(capsys, ["lattice-decompose", path])
    assert code == 0
    assert doc["result"] == "lattice-decomposition"
    saved = _write(tmp_path, "parts.json", doc)
    code, verdict = _run(capsys, ["lattice-decompose", path,
                                  "--verify", saved])
    assert code == 0 and verdict["agrees"] is True
    code, doc2 = _run(capsys, ["lattice-decompose", path, "--base", "2"])
    assert code == 0
    saved2 = _write(tmp_path, "parts2.json", doc2)
    code, verdict = _run(capsys, ["lattice-decompose", path,
                                  "--verify", saved2])
    assert code == 0 and verdict["agrees"] is True


def test_lattice_decompose_point_violation(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", LATTICE_CORNER)
    code, doc = _run(capsys, ["lattice-decompose", path])
    assert code == 1
    assert doc["certificate"]["point"] == [0, 0]


@pytest.mark.parametrize("values", [["0", "0", "0", "1"],
                                    ["0", "0", "0", "0"]])
def test_lattice_decompose_rejects_a_negative_base_on_every_window(
        tmp_path, capsys, values):
    # the corner window has a nonzero mixed difference and the zero window
    # none; both are the same input error
    path = _write(tmp_path, "inst.json", {"kind": "lattice-window",
                                          "dims": [2, 2], "values": values})
    code, doc = _run(capsys, ["lattice-decompose", path, "--base", "-1"])
    assert code == 2
    assert doc == {"error": "base hyperplane must be >= 0, got -1"}


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


def test_search_workers_are_capped_and_must_be_positive(capsys, pool_sizes):
    argv = ["search", "--n", "2", "--max-size", "5", "--trials", "40",
            "--seed", "11"]
    assert run_command(argv) == 0
    serial = capsys.readouterr().out
    assert run_command(argv + ["--workers", "100000"]) == 0
    assert capsys.readouterr().out == serial
    assert pool_sizes == [3]
    for workers in ("0", "-1"):
        code, doc = _run(capsys, argv + ["--workers", workers])
        assert code == 2
        assert "workers" in doc["error"]
    assert pool_sizes == [3]


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


def test_search_verify_rejects_a_non_rational_candidate(tmp_path, capsys):
    report = {"result": "report", "n": 4, "max_size": 2, "trials": 1,
              "seed": 0, "bound": None, "star_pass": 1, "star_fail": 0,
              "oracle_feasible": 0, "oracle_infeasible": 1,
              "necessity_checked": 0, "necessity_violations": 0,
              "discrepancies": 0,
              "candidates": [{"trial": 0, "size": 2,
                              "transforms": [[1, 0], [1, 0], [0, 1], [0, 1]],
                              "values": ["abc", "1"],
                              "dual_weights": ["1", "-1"]}]}
    saved = _write(tmp_path, "report.json", report)
    code, doc = _run(capsys, ["search", "--verify", saved])
    assert code == 2
    assert doc["path"] == "candidates[0].values[0]"


def test_star_check_verify_replays_huge_exponents_quickly(tmp_path, capsys):
    # 0 -> 1 -> 2 -> 2, so t^(10**11) sends 0 to the fixed point 2
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
    assert code == 0 and doc["agrees"] is True


@pytest.mark.parametrize("command", ["star-check", "decompose"])
def test_verify_replays_many_blocks_in_polynomial_time(tmp_path, capsys,
                                                       monkeypatch, command):
    # 16 swaps of a 2-point set: a corner walk would visit 2^16 stencil
    # points, the block-by-block replay at most N per block
    n, size = 16, 2
    inst = {"kind": "cyclic-group", "modulus": size, "shifts": [1] * n,
            "values": ["0", "1"]}
    path = _write(tmp_path, "inst.json", inst)
    code, doc = _run(capsys, [command, path])
    assert code == 1 and doc["certificate"]["premises"] == []
    saved = _write(tmp_path, "cert.json", doc)
    calls = [0]
    iterate = perdec.check.iterate

    def counted(*args):
        calls[0] += 1
        if calls[0] > n * size:  # blocks * N, and no premises
            raise AssertionError("replay iterated past blocks * N")
        return iterate(*args)

    monkeypatch.setattr(perdec.check, "iterate", counted)
    code, doc = _run(capsys, [command, path, "--verify", saved])
    assert code == 0 and doc["agrees"] is True


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


def _certificates():
    """(subcommand, instance, saved result) for one document of each
    certificate type, produced by the command line itself."""
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
            out.append((command, inst, json.loads(buf.getvalue())))
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

_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([10 ** 11, -10 ** 11, 2 ** 64]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "1", "-1", "1/2", "-7/3", "abc", "1/0", ""]),
    st.lists(st.integers(-3, 3), max_size=4),
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
        _assert_clean_run([command, inst_path, "--verify", cert_path])


def _mutate(doc, path, value):
    """A copy of doc with the field at path replaced by value."""
    mutated = json.loads(json.dumps(doc))
    holder = mutated
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return mutated


def _assert_clean_run(argv):
    """Exit 0, 1 or 2 within a second, one JSON document, no traceback."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert elapsed < 1.0
    json.loads(out.getvalue())


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


# the report shape `search` emits, with one candidate so that its fields
# can be mutated too (a clean search reports none)
SEARCH_REPORT = {"result": "report", "n": 2, "max_size": 2, "trials": 1,
                 "seed": 0, "star_pass": 1, "star_fail": 0,
                 "oracle_feasible": 0, "oracle_infeasible": 1,
                 "necessity_checked": 0, "necessity_violations": 0,
                 "discrepancies": 0,
                 "candidates": [{"trial": 0, "size": 2,
                                 "transforms": [[1, 0], [0, 1]],
                                 "values": ["0", "1"],
                                 "dual_weights": ["1", "-1"]}]}
REPORT_SITES = _field_paths(SEARCH_REPORT)


@pytest.mark.parametrize("path", REPORT_SITES,
                         ids=[".".join(map(str, p)) for p in REPORT_SITES])
@given(value=_FIELD_VALUES)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_search_reports_never_crash_or_hang(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        saved = _write(Path(tmp), "report.json",
                       _mutate(SEARCH_REPORT, path, value))
        _assert_clean_run(["search", "--verify", saved])


def test_stdin_instance(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(Z_WINDOW_LINEAR)))
    code, doc = _run(capsys, ["star-check", "-"])
    assert code == 1
    assert doc["result"] == "violation"


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
    # a named subcommand skips the top-level parser; with the name map
    # emptied every argv takes it, which is what each call must equal
    monkeypatch.setenv("COLUMNS", "80")
    parser, commands = perdec.cli._parser()
    assert set(commands) == set(DISPATCH_INSTANCES)
    oracle_inst = _write(tmp_path, "oracle.json", CYCLIC_SPLIT)
    calls = [[], ["-h"], ["--help"], ["frobnicate"], ["frobnicate", "x"],
             ["oracle"], ["oracle", "-h"], ["search", "--n", "x"],
             ["oracle", str(tmp_path / "missing.json")]]
    for command, doc in DISPATCH_INSTANCES.items():
        argv = ([command, "--trials", "5", "--max-size", "3"]
                if doc is None else
                [command, _write(tmp_path, f"{command}.json", doc)])
        cert = tmp_path / f"{command}-cert.json"
        cert.write_text(_answer(capsys, argv)[1])
        calls += [argv] + ([] if command == "validate"
                           else [argv + ["--verify", str(cert)]])
    unknown = ["oracle", oracle_inst, "--bogus"]
    codes = []
    for argv in calls + [unknown]:
        direct = _answer(capsys, argv)
        codes.append(direct[0])
        with monkeypatch.context() as m:
            m.setattr(perdec.cli, "_parser", lambda: (parser, {}))
            top = _answer(capsys, argv)
        if argv is unknown:
            # the one stderr difference: the usage line of the subcommand
            assert direct[:2] == top[:2] == (2, "")
            assert direct[2].startswith("usage: perdec oracle [-h]")
            assert direct[2].endswith("perdec oracle: error: unrecognized "
                                      "arguments: --bogus\n")
        else:
            assert direct == top, argv
    assert codes[:9] == [2, 0, 0, 2, 2, 2, 0, 2, 2]


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
    "decompose": {"check", "decomp", "cohomology", "orbits", "star"},
}
# every result replays with the checker alone
VERIFY_LOADS = dict.fromkeys(LOADS, {"check", "orbits"})

# reading a lattice window loads lattice, check and orbits, and each
# subcommand adds the producer it runs; a search trial runs the
# generators, the star check and the oracle
WINDOW_LOADS = {"check", "lattice", "orbits"}
LATTICE_LOADS = {"validate": WINDOW_LOADS,
                 "oracle": WINDOW_LOADS | {"oracle"},
                 "star-check": WINDOW_LOADS | {"star"},
                 "lattice-decompose": WINDOW_LOADS | {"star"}}
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


def _fresh_run(argv):
    """Exit code, stdout and the perdec modules of a run in a fresh
    interpreter, which must load only the standard library and perdec,
    and none of SLOW_IMPORTS."""
    src = str(Path(perdec.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-S", "-c", _FRESH_RUN, src,
                          *argv], capture_output=True, text=True, timeout=60)
    code, *names = run.stderr.split()
    tops = {name.partition(".")[0] for name in names}
    assert tops - {"__main__", "perdec"} <= sys.stdlib_module_names
    assert not SLOW_IMPORTS & tops
    return (int(code), run.stdout,
            {name for name in names if name.partition(".")[0] == "perdec"})


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
    assert not SLOW_IMPORTS & tops
    assert all(path.endswith(".py") for path in files.split())


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
    assert loaded == _perdec(*LOADS[command])
    if command == "validate":
        return
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, _, loaded = _fresh_run([command, instance, "--verify", str(cert)])
    assert code == 0
    assert loaded == _perdec(*VERIFY_LOADS[command])


@pytest.mark.parametrize("command", ["validate", "oracle", "star-check",
                                     "lattice-decompose"])
def test_a_lattice_window_loads_the_lattice_modules(tmp_path, command):
    instance = _write(tmp_path, "inst.json", LATTICE_SEPARABLE)
    code, out, loaded = _fresh_run([command, instance])
    assert code == 0
    assert loaded == _perdec(*LATTICE_LOADS[command])
    if command == "validate":
        return
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, _, loaded = _fresh_run([command, instance, "--verify", str(cert)])
    assert code == 0
    assert loaded == _perdec(*WINDOW_LOADS)


def test_search_loads_the_trial_modules_and_its_replay_the_checker(tmp_path):
    code, out, loaded = _fresh_run(["search", "--n", "3", "--trials", "5",
                                    "--workers", "1"])
    assert code == 0
    assert loaded == _perdec(*SEARCH_LOADS)
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    # a report replays without the star check or the oracle
    assert _fresh_run(["search", "--verify", str(cert)])[::2] == (
        0, _perdec("check", "orbits"))


def test_a_search_candidate_is_checked_by_its_stored_dual(tmp_path):
    # the candidate is refused without running the star check or the oracle
    cert = _write(tmp_path, "cert.json", FALSE_CANDIDATE_REPORT)
    code, out, loaded = _fresh_run(["search", "--verify", cert])
    assert (code, json.loads(out)) == (1, {
        "result": "verified", "agrees": False,
        "reason": "candidate from trial 4 does not re-verify"})
    assert loaded == _perdec("check", "orbits")


def test_search_verify_refuses_counts_no_search_produces(tmp_path, capsys):
    # five trials with no star verdict, and three necessity violations
    # that are neither checked trials nor discrepancies
    report = dict(SEARCH_REPORT, trials=5, star_pass=0, star_fail=0,
                  necessity_violations=3, discrepancies=0, candidates=[])
    code, verdict = _run(capsys, ["search", "--verify",
                                  _write(tmp_path, "report.json", report)])
    assert (code, verdict) == (1, {"result": "verified", "agrees": False,
                                   "reason": "report counts no search "
                                             "produces"})
