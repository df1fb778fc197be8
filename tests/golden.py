"""Golden corpus: the exit code and stdout digest of every CLI case.

Every instance is built here from fixed seeds, and every subcommand that
takes an instance runs on every instance, so each kind meets each
subcommand, refusals included.  Each result a case produces (exit 0 or 1)
is replayed with --verify as a case of its own.  Searches for n = 2, 3
and 4 and the input-error exits complete the corpus.  Every case runs in
process through `perdec.cli.run_command`.

`tests/golden.json` holds the sha256 of each instance document and, per
case, its id, its argv (instance path "{instance}", replayed result
"{result}"), its exit code and the sha256 of its stdout.  Regenerate the
file, or list the instances and case ids that differ from it, each case
with its pinned and its current exit code:

    PYTHONPATH=src python -m tests.golden --write
    PYTHONPATH=src python -m tests.golden
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from perdec import generators
from perdec.cli import run_command
from perdec.core import CommutingSystem, RationalFunction
from tests.conftest import (
    SHIFT_FAMILIES,
    seeded_window,
    shift_table,
    system_of_style,
    union_find_classes,
)

GOLDEN = Path(__file__).with_name("golden.json")

# every subcommand that reads an instance, in the order cases run
SUBCOMMANDS = ("validate", "decompose", "star-check", "oracle",
               "lattice-decompose", "bounded-transfer")


def _values(f: RationalFunction) -> list:
    return [str(v) for v in f.values]


def _finite(system: CommutingSystem, f: RationalFunction) -> dict:
    return {"kind": "finite", "size": system.size,
            "transforms": [list(t) for t in system.transforms],
            "values": _values(f)}


def _cyclic(m: int, shifts, style: str, seed: str) -> dict:
    system = CommutingSystem(m, tuple(shift_table(m, a) for a in shifts))
    f = generators.random_function(random.Random(seed), system, style)
    return {"kind": "cyclic-group", "modulus": m, "shifts": list(shifts),
            "values": _values(f)}


def _z_window(length: int, shifts, values) -> dict:
    return {"kind": "z-window", "length": length, "shifts": list(shifts),
            "values": [str(v) for v in values]}


def _periodic_sum(rng: random.Random, length: int, shifts) -> list:
    """A sum of one random a-periodic function per shift a on [0, length)."""
    values = [Fraction(0)] * length
    for a in shifts:
        period = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(a)]
        values = [v + period[x % a] for x, v in enumerate(values)]
    return values


def _transfer_systems(count: int) -> list:
    """The first `count` seeded two-map product systems with at least three
    joint (s, t) classes."""
    found, seed = [], 0
    while len(found) < count:
        system = system_of_style("product", 2, 12, seed)
        if union_find_classes(system.size, system.transforms).n_classes >= 3:
            found.append(system)
        seed += 1
    return found


def instances() -> dict:
    """Case name -> instance document."""
    docs = {}
    for n in (1, 2, 3):
        for style in ("generic", "decomposable", "mixed_kernel"):
            rng = random.Random(f"golden:finite:{n}:{style}")
            system = generators.random_commuting_system(rng, n, 8)
            docs[f"finite-n{n}-{style}"] = _finite(
                system, generators.random_function(rng, system, style))
    for name, m, shifts, style in (("c6-1-3", 6, (1, 3), "decomposable"),
                                   ("c6-1-3", 6, (1, 3), "generic"),
                                   ("c9-3-6", 9, (3, 6), "mixed_kernel"),
                                   ("c12-4-6-3", 12, (4, 6, 3), "generic")):
        docs[f"cyclic-{name}-{style}"] = _cyclic(
            m, shifts, style, f"golden:cyclic:{name}:{style}")
    for i, (step, s_shift, u_shift) in enumerate(SHIFT_FAMILIES.values()):
        for m in (6, 8):
            shifts = (step % m, s_shift(m), u_shift(m))
            for style in ("decomposable", "generic"):
                docs[f"family{i}-m{m}-{style}"] = _cyclic(
                    m, shifts, style, f"golden:family:{i}:{m}:{style}")
    docs["z-2-3-5-L16-identity"] = _z_window(16, (2, 3, 5), range(16))
    docs["z-2-3-5-L16-planted"] = _z_window(
        16, (2, 3, 5), _periodic_sum(random.Random("golden:z235"), 16,
                                     (2, 3, 5)))
    docs["z-1-1-L10-identity"] = _z_window(10, (1, 1), range(10))
    docs["z-2-3-L12-planted"] = _z_window(
        12, (2, 3), _periodic_sum(random.Random("golden:z23"), 12, (2, 3)))
    # first violations at a multi-element block: f(x) = x fails only on
    # the one-block partition, and a bump on 2- and 3-periodic parts
    # survives every stencil with offsets of both periods
    for shifts, length in (((1, 2, 3, 4), 20), ((1, 1, 2, 2, 3, 6), 16)):
        docs[f"z-{'-'.join(map(str, shifts))}-L{length}-identity"] = \
            _z_window(length, shifts, range(length))
    for shifts, length, bump in (((2, 2, 3, 3), 10, 0),
                                 ((2, 2, 3, 3, 6), 14, 5),
                                 ((2, 4, 3, 6, 2), 15, 4)):
        name = f"z-{'-'.join(map(str, shifts))}-L{length}-bumped"
        values = _periodic_sum(random.Random(f"golden:{name}"), length,
                               (2, 3))
        values[bump] += 1
        docs[name] = _z_window(length, shifts, values)
    # every partition stencil passes a constant
    docs["z-1-2-3-4-1-2-3-4-L30-constant"] = _z_window(
        30, (1, 2, 3, 4, 1, 2, 3, 4), [7] * 30)
    for seed, dims, perturbed in ((1, (3, 4), False), (2, (3, 4), True),
                                  (3, (2, 3, 2), False),
                                  (4, (2, 3, 2), True)):
        kind = "perturbed" if perturbed else "planted"
        docs[f"lattice-{'x'.join(map(str, dims))}-{kind}"] = seeded_window(
            seed, dims, perturbed)
    for k, system in enumerate(_transfer_systems(4)):
        t, s = system.transforms
        rng = random.Random(f"golden:transfer:{k}")
        h = generators.random_invariant_part(rng, s)
        if k % 2:
            # an s-invariant right side, obstructed on some quotient cycle
            # unless t fixes every s-class
            g, kind = h, "obstructed"
        else:
            g = RationalFunction(tuple(h[t[x]] - h[x]
                                       for x in range(system.size)))
            kind = "planted"
        docs[f"transfer-product-{k}-{kind}"] = _finite(system, g)
    return docs


# (id, argv) of each case without an instance: the searches and the input
# errors; "{dir}" is the directory the corpus runs in
BARE_CASES = (
    ("search n=2", ["search", "--n", "2", "--max-size", "5", "--trials",
                    "30", "--seed", "1"]),
    ("search n=3", ["search", "--n", "3", "--max-size", "5", "--trials",
                    "30", "--seed", "2"]),
    ("search n=4", ["search", "--n", "4", "--max-size", "4", "--trials",
                    "30", "--seed", "3"]),
    ("error: no subcommand", []),
    ("error: unknown subcommand", ["frobnicate"]),
    ("error: unknown option", ["oracle", "{dir}/bad-kind.json", "--bound",
                               "3"]),
    # relative paths, since the error text holds the path
    ("error: missing instance", ["oracle", "no-such-instance.json"]),
    ("error: not json", ["validate", "{dir}/not-json.json"]),
    ("error: bad kind", ["validate", "{dir}/bad-kind.json"]),
    ("error: not commuting", ["validate", "{dir}/not-commuting.json"]),
    ("error: short values", ["oracle", "{dir}/short-values.json"]),
    ("error: zero modulus", ["validate", "{dir}/zero-modulus.json"]),
    ("error: short window", ["star-check", "{dir}/short-window.json"]),
    ("error: empty lattice axis", ["validate", "{dir}/empty-axis.json"]),
    ("error: missing certificate", ["oracle", "{dir}/bad-kind.json",
                                    "--verify", "no-such-result.json"]),
    ("error: not a certificate", ["oracle",
                                  "{dir}/finite-n2-generic.json",
                                  "--verify", "{dir}/bad-kind.json"]),
    ("error: unknown search option", ["search", "--trials", "5",
                                      "--workers", "1"]),
    # documents in the wire of earlier releases, with heads, exponents,
    # premises and a kind, which are read as their blocks, z and value
    # alone.  A true two-block violation of the partition condition: on a
    # finite kind only the all-singleton blocks replay, whatever the kind
    ("refused: two-block finite violation",
     ["star-check", "{dir}/three-swaps.json", "--verify",
      "{dir}/two-block-violation.json"]),
    ("error: compatibility violation kind",
     ["decompose", "{dir}/three-swaps.json", "--verify",
      "{dir}/compatibility-violation.json"]),
    # true window violations of the partition condition: at exponent 2 the
    # stored value is not that of the block's least common multiple, so it
    # does not replay; headed by a later index, its blocks, z and value
    # are the scan's, so it does
    ("refused: window violation at exponent 2",
     ["star-check", "{dir}/window-squares.json", "--verify",
      "{dir}/window-exponent-2.json"]),
    ("refused: window violation headed by a later index",
     ["star-check", "{dir}/window-squares.json", "--verify",
      "{dir}/window-later-head.json"]),
)

# swaps 0 and 1 in one block headed by 1 (premise 1^1 0^0 z = 0^1 z), 2
# alone, and the mixed difference of 1 and 2 at z = 0
_TWO_BLOCKS = {"blocks": [[0, 1], [2]], "distinguished": [1, 2],
               "exponents": [1, 1], "premises": [[0, 0, 1]], "z": 0,
               "value": "-2"}

# on x^2 with shifts (1, 1), one block {0, 1}: at offset 2, premise
# 0^2 z = 1^2 z and value f(2) - f(0); at offset 1 headed by 1, premise
# 1^1 z = 0^1 z and value f(1) - f(0)
_WINDOW_BLOCK = {"blocks": [[0, 1]], "z": 0, "kind": "MixedDeltaNonzero"}

# files the refusal and input-error cases read, besides the instances
BAD_FILES = {
    "three-swaps.json": json.dumps(
        {"kind": "finite", "size": 2, "transforms": [[1, 0]] * 3,
         "values": ["0", "1"]}),
    "two-block-violation.json": json.dumps(
        {"result": "violation",
         "certificate": {**_TWO_BLOCKS, "kind": "MixedDeltaNonzero"}}),
    "compatibility-violation.json": json.dumps(
        {"result": "violation",
         "certificate": {**_TWO_BLOCKS, "kind": "CompatibilityFailure"}}),
    "window-squares.json": json.dumps(
        {"kind": "z-window", "length": 12, "shifts": [1, 1],
         "values": [str(x * x) for x in range(12)]}),
    "window-exponent-2.json": json.dumps(
        {"result": "violation",
         "certificate": {**_WINDOW_BLOCK, "distinguished": [0],
                         "exponents": [2], "premises": [[1, 0, 2]],
                         "value": "4"}}),
    "window-later-head.json": json.dumps(
        {"result": "violation",
         "certificate": {**_WINDOW_BLOCK, "distinguished": [1],
                         "exponents": [1], "premises": [[0, 0, 1]],
                         "value": "1"}}),
    "not-json.json": "{not json",
    "bad-kind.json": json.dumps({"kind": "torus", "values": []}),
    "not-commuting.json": json.dumps(
        {"kind": "finite", "size": 3, "transforms": [[1, 2, 0], [0, 2, 1]],
         "values": ["0", "0", "0"]}),
    "short-values.json": json.dumps(
        {"kind": "finite", "size": 3, "transforms": [[1, 2, 0]],
         "values": ["0", "0"]}),
    "zero-modulus.json": json.dumps(
        {"kind": "cyclic-group", "modulus": 0, "shifts": [1],
         "values": []}),
    "short-window.json": json.dumps(
        {"kind": "z-window", "length": 1, "shifts": [1], "values": ["0"]}),
    "empty-axis.json": json.dumps(
        {"kind": "lattice-window", "dims": [0, 3], "values": []}),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_command(argv)
    return code, out.getvalue()


def run_corpus(workdir: Path) -> dict:
    """The corpus document, run with its files in `workdir`."""
    docs = instances()
    for name, text in BAD_FILES.items():
        (workdir / name).write_text(text)
    digests = {}
    for name, doc in docs.items():
        text = json.dumps(doc)
        (workdir / f"{name}.json").write_text(text)
        digests[name] = _sha256(text)
    cases = []
    ids = set()

    def case(case_id: str, argv: list, **paths) -> tuple[int, str]:
        if case_id in ids:
            raise ValueError(f"repeated case id {case_id!r}")
        ids.add(case_id)
        code, out = _run([a.format(dir=workdir, **paths) for a in argv])
        cases.append({"id": case_id, "argv": argv, "exit": code,
                      "stdout_sha256": _sha256(out)})
        return code, out

    def replayed(case_id: str, argv: list, **paths) -> None:
        code, out = case(case_id, argv, **paths)
        if code != 2 and argv[0] != "validate" and "--verify" not in argv:
            result = workdir / "result.json"
            result.write_text(out)
            case(f"{case_id} --verify", argv + ["--verify", "{result}"],
                 result=result, **paths)

    for name in docs:
        path = workdir / f"{name}.json"
        for command in SUBCOMMANDS:
            replayed(f"{name}/{command}", [command, "{instance}"],
                     instance=path)
    for case_id, argv in BARE_CASES:
        replayed(case_id, argv)
    # a result replayed by subcommands that never emit its type
    first = workdir / "finite-n2-decomposable.json"
    result = workdir / "result.json"
    result.write_text(_run(["decompose", str(first)])[1])
    for argv in (["star-check", "{instance}"],
                 ["bounded-transfer", "{instance}"], ["search"]):
        case(f"decompose result/{argv[0]} --verify",
             argv + ["--verify", "{result}"], instance=first, result=result)
    return {"instances": digests, "cases": cases}


def current() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return run_corpus(Path(tmp))


def dumps(corpus: dict) -> str:
    return json.dumps(corpus, indent=1) + "\n"


def differences(pinned: dict, got: dict) -> list:
    """The instance names and case ids whose entries differ, were added or
    went missing, in corpus order."""
    out = []
    for key, index in (("instances", None), ("cases", "id")):
        old, new = pinned[key], got[key]
        if index is not None:
            old = {c[index]: c for c in old}
            new = {c[index]: c for c in new}
        out += [k for k in {**new, **old} if old.get(k) != new.get(k)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate or check the golden CLI corpus.")
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.name} from this tree")
    args = parser.parse_args(argv)
    got = current()
    if args.write:
        GOLDEN.write_text(dumps(got))
        print(f"wrote {len(got['cases'])} cases to {GOLDEN}")
        return 0
    pinned = json.loads(GOLDEN.read_text())
    changed = differences(pinned, got)
    exits = [{c["id"]: c["exit"] for c in corpus["cases"]}
             for corpus in (pinned, got)]
    for key in changed:
        old, new = (codes.get(key, "-") for codes in exits)
        print(key if key in pinned["instances"] or key in got["instances"]
              else f"{key}: exit {old} -> {new}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
