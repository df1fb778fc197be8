"""Malformed input never produces a traceback.

One golden instance of each kind is written with each corruption below
and read by every subcommand that reads its kind, from a file and from
standard input; each certificate those subcommands emit is replayed with
`--verify` under each corruption too.  Every run must exit 2 with a JSON
error on stdout and nothing on stderr.
"""

import codecs
import io
import json
import os
import subprocess
import sys

from perdec.cli import _READS, run_command
from tests import golden

# one golden instance of each kind, and the field holding its extent
INSTANCES = {"finite-n2-generic": "size",
             "cyclic-c6-1-3-generic": "modulus",
             "z-2-3-L12-planted": "length",
             "lattice-3x4-planted": "dims"}


def _corruptions(doc: dict, key: str) -> dict:
    """Corrupted bytes of doc, each with the start of the error it must
    give; `key` is the field that gets an integer past the digit limit."""
    data = json.dumps(doc).encode()
    depth = 100 * sys.getrecursionlimit()
    big = "9" * (sys.get_int_max_str_digits() + 1)
    return {
        "invalid UTF-8 byte": (data[:1] + b"\xff" + data[1:],
                               "file is not UTF-8"),
        "byte-order mark": (codecs.BOM_UTF8 + data,
                            "invalid JSON at line 1, column 1: Unexpected "
                            "UTF-8 BOM"),
        "truncated": (data[:len(data) // 2], "invalid JSON at line 1"),
        "deep nesting": (b"[" * depth + data + b"]" * depth,
                         "invalid JSON: nested too deeply"),
        "digit limit": (json.dumps({**doc, key: "?"}).replace(
            '"?"', big).encode(), "invalid JSON: Exceeds the limit"),
    }


def _run(capsys, argv: list) -> tuple:
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refused(capsys, argv: list, error: str) -> list:
    """The ways the run differs from a clean input error: exit 2, one JSON
    error document on stdout, nothing on stderr."""
    code, out, err = _run(capsys, argv)
    try:
        message = json.loads(out)["error"]
    except (ValueError, KeyError, TypeError):
        message = None
    problems = []
    if code != 2:
        problems.append(f"exit {code}")
    if not isinstance(message, str) or error not in message:
        problems.append(f"stdout {out[:200]!r}")
    if err:
        problems.append(f"stderr {err[-200:]!r}")
    return problems


def test_every_corruption_of_every_input_is_a_json_input_error(
        tmp_path, capsys, monkeypatch):
    docs = golden.instances()
    failures = []
    for name, key in INSTANCES.items():
        doc = docs[name]
        good = tmp_path / f"{name}.json"
        good.write_text(json.dumps(doc))
        commands = [c for c in golden.SUBCOMMANDS
                    if doc["kind"] in _READS.get(c, (doc["kind"],))]
        # the certificates the instance's subcommands emit; validate emits
        # none, and bounded-transfer refuses a right side that is not
        # s-invariant
        stored = []
        for command in commands[1:]:
            code, out, _ = _run(capsys, [command, str(good)])
            if code != 2:
                stored.append((command, json.loads(out)))
        assert len(stored) >= 2
        for corruption, (data, error) in _corruptions(doc, key).items():
            bad = tmp_path / "bad.json"
            bad.write_bytes(data)
            runs = [[command, str(bad)] for command in commands]
            for command, result in stored:
                cert = tmp_path / f"cert-{command}.json"
                cert.write_bytes(_corruptions(result, "result")
                                 [corruption][0])
                runs.append([command, str(good), "--verify", str(cert)])
            for argv in runs:
                failures += [(name, corruption, argv[0], argv[2:], p)
                             for p in _refused(capsys, argv, error)]
            monkeypatch.setattr("sys.stdin",
                                io.TextIOWrapper(io.BytesIO(data)))
            failures += [(name, corruption, "validate -", p)
                         for p in _refused(capsys, ["validate", "-"], error)]
    assert failures == []


def test_a_closed_standard_input_is_a_json_input_error(capsys, monkeypatch):
    # with file descriptor 0 closed, Python starts with sys.stdin None
    error = "standard input is closed"
    monkeypatch.setattr("sys.stdin", None)
    assert _refused(capsys, ["validate", "-"], error) == []
    run = subprocess.run([sys.executable, "-m", "perdec.cli", "validate", "-"],
                         capture_output=True, text=True,
                         preexec_fn=lambda: os.close(0))
    assert (run.returncode, json.loads(run.stdout)["error"], run.stderr) == (
        2, f"cannot read instance file: {error}", "")
