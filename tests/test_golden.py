import inspect
import json
import sys

import pytest

import perdec
from perdec import check
from tests import golden

# exported functions that no corpus case calls, each with its reason
UNREACHED_EXPORTS = {
    "decompose_two": "a wrapper of decompose_n that the benchmark's "
                     "construct workload calls",
    "decompose_three": "a wrapper of decompose_n that the benchmark's "
                       "construct workload calls",
    "as_fraction": "the coercion of ints and 'p/q' strings that README "
                   "documents; the CLI parses its literals itself",
}


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    """The corpus document, the code objects of every Python call its
    cases made, and the return values of each function of `perdec.check`
    by code object, recorded by a profile hook that is removed
    afterwards."""
    called = set()
    returns = {fn.__code__: [] for fn in vars(check).values()
               if inspect.isfunction(fn) and fn.__module__ == check.__name__}

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
        elif event == "return" and frame.f_code in returns:
            returns[frame.f_code].append(arg)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        got = golden.run_corpus(tmp_path_factory.mktemp("corpus"))
    finally:
        sys.setprofile(previous)
    return got, called, returns


def test_every_cli_case_matches_the_golden_corpus(corpus_run):
    # any moved output byte, exit code or instance names its case ids;
    # regenerate with `PYTHONPATH=src python -m tests.golden --write`
    got, _, _ = corpus_run
    pinned = golden.GOLDEN.read_text()
    assert golden.dumps(got) == pinned, golden.differences(
        json.loads(pinned), got)


def test_the_corpus_calls_every_exported_function(corpus_run):
    # a public function that no CLI path reaches is dead library code,
    # unless its allowlist entry says who calls it
    _, called, _ = corpus_run
    functions = {name: getattr(perdec, name) for name in perdec.__all__}
    unreached = [name for name, fn in functions.items()
                 if inspect.isfunction(fn) and fn.__code__ not in called]
    assert sorted(unreached) == sorted(UNREACHED_EXPORTS)


def test_the_corpus_calls_every_checker_and_sees_it_accept(corpus_run):
    # a checker that no CLI path reaches, or that refuses every time it
    # runs, guards nothing a user can produce
    _, _, returns = corpus_run
    checkers = {name: returns[fn.__code__] for name, fn in vars(check).items()
                if name.startswith(("verify_", "replay_"))
                and inspect.isfunction(fn)}
    assert checkers
    # each idle checker with its call count, every call a refusal
    idle = {name: len(seen) for name, seen in checkers.items()
            if not any(seen)}
    assert idle == {}


def test_the_corpus_reads_every_kind_and_replays_every_result():
    kinds = {doc["kind"] for doc in golden.instances().values()}
    assert kinds == {"finite", "cyclic-group", "z-window", "lattice-window"}
    cases = json.loads(golden.GOLDEN.read_text())["cases"]
    ids = {case["id"] for case in cases}
    for case in cases:
        argv = case["argv"]
        if case["exit"] != 2 and argv[0] != "validate" \
                and "--verify" not in argv:
            assert case["id"] + " --verify" in ids


def test_a_repeated_case_id_fails_the_corpus(tmp_path, monkeypatch):
    # a repeated id would let one case silently replace another's entry
    monkeypatch.setattr(golden, "instances", dict)
    monkeypatch.setattr(golden, "BARE_CASES", (
        ("error: no subcommand", []), ("error: no subcommand", ["-h"])))
    with pytest.raises(ValueError, match="repeated case id 'error: no "
                                         "subcommand'"):
        golden.run_corpus(tmp_path)
