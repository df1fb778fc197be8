import json

from tests import golden


def test_every_cli_case_matches_the_golden_corpus(tmp_path):
    # any moved output byte, exit code or instance names its case ids;
    # regenerate with `PYTHONPATH=src python -m tests.golden --write`
    got = golden.run_corpus(tmp_path)
    pinned = golden.GOLDEN.read_text()
    assert golden.dumps(got) == pinned, golden.differences(
        json.loads(pinned), got)


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
