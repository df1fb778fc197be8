"""Seeded inputs, ops and correctness checks of the three workloads.

A workload turns (seed, task count) into a list of Tasks.  A task's
`produce` is the timed op.  Everything else runs outside the timed
interval: `document` gives the canonical text of a result (for the
determinism digest), `check` cross-checks the verdict by an independent
route, and `replay` writes the files for replaying the result through
`perdec <subcommand> --verify` and returns that command line, or None when
the result carries no certificate.

Sizes come from low-discrepancy sweeps over fixed ranges, and the system,
function and instance kinds cycle in a fixed pattern; the seed draws the
maps, shifts and values.  So every seed gives new instances with the same
sizes and kinds, and every prefix of a task list is already an even
sample of that mix.  Op costs grow like N^2 to N^3, so letting the seed
pick sizes too would move the latency percentiles by more than any
change worth detecting.

All perdec functions are looked up on their modules at call time, so a
traced run sees the calls through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import perdec.cli
import perdec.decomp
import perdec.oracle
import perdec.serialize
import perdec.star
from perdec import generators
from perdec.core import (
    CommutingSystem,
    Decomposition,
    RationalFunction,
    power,
    validate_system,
)

GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass
class Task:
    label: str
    produce: Callable[[], Any]
    document: Callable[[Any], str]
    check: Callable[[Any], Optional[str]]
    replay: Callable[[Any], Optional[List[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, int, str], List[Task]]
    tasks_per_second: float  # nominal rate that sizes a run to --seconds
    replay_is_op: bool       # certify times its --verify replays as ops


def sweep(index: int, lo: int, hi: int) -> int:
    """index-th point of a golden-ratio sweep over the integers [lo, hi]."""
    return lo + int((index * GOLDEN) % 1.0 * (hi - lo + 1))


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """One in-process `perdec` command: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = perdec.cli.run_command(list(argv))
    return code, out.getvalue()


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _result_text(result: Any) -> str:
    return perdec.serialize.dumps(perdec.serialize.result_to_json(result))


def _system_text(system: CommutingSystem, f: RationalFunction) -> str:
    inst = perdec.serialize.Instance("finite", system=system, f=f)
    return perdec.serialize.dumps(perdec.serialize.instance_to_json(inst))


# ---------------------------------------------------------------------------
# input generators


def _shift(m: int, a: int) -> Tuple[int, ...]:
    return tuple((x + a) % m for x in range(m))


def translation_system(rng: random.Random, n: int, size: int) -> CommutingSystem:
    return validate_system([_shift(size, rng.randrange(1, size))
                            for _ in range(n)], size)


def power_system(rng: random.Random, n: int, size: int) -> CommutingSystem:
    """Powers of one random map: rho-shaped tails into cycles."""
    base = tuple(rng.randrange(size) for _ in range(size))
    return validate_system([power(base, rng.randint(1, 3)) for _ in range(n)],
                           size)


def product_system(rng: random.Random, n: int, size: int) -> CommutingSystem:
    """Z_a acting by a shift times a random map on b points, a*b = size."""
    if all(size % d for d in range(2, size // 2 + 1)):
        size += 1  # a prime size has no product structure
    a = rng.choice([d for d in range(2, size // 2 + 1) if size % d == 0])
    b = size // a
    shift = _shift(a, rng.randrange(1, a))
    base = tuple(rng.randrange(b) for _ in range(b))
    tables = []
    for _ in range(n):
        pa, pb = power(shift, rng.randint(0, 2)), power(base, rng.randint(0, 2))
        tables.append(tuple(pa[x // b] * b + pb[x % b] for x in range(size)))
    return validate_system(tables, size)


SYSTEMS = (("translation", translation_system), ("power", power_system),
           ("product", product_system))
STYLES = ("decomposable", "mixed_kernel", "generic")


def _value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def _periodic_sum(rng: random.Random, modulus: int,
                  shifts: Sequence[int]) -> List[Fraction]:
    """Sum of one shift-invariant part per shift: decomposable on Z_m."""
    values = [Fraction(0)] * modulus
    for a in shifts:
        period = gcd(a, modulus)
        picks = [_value(rng) for _ in range(period)]
        for x in range(modulus):
            values[x] += picks[x % period]
    return values


def _strata(count: int, pattern: Sequence,
            ranges: Dict[Any, Tuple[int, int]]):
    """Yield (index, stratum, j, size) for the j-th use of each stratum,
    with sizes swept per stratum."""
    seen: Dict[Any, int] = {}
    for i in range(count):
        stratum = pattern[i % len(pattern)]
        j = seen.get(stratum, 0)
        seen[stratum] = j + 1
        lo, hi = ranges[stratum]
        yield i, stratum, j, sweep(j, lo, hi)


# ---------------------------------------------------------------------------
# search: the acceptance gate's four-transform randomized search


def _check_report(report) -> Optional[str]:
    if report.trials != 1 or report.star_pass + report.star_fail != 1:
        return "report does not account for its one trial"
    if report.discrepancies or report.necessity_violations:
        return "search reports a star/oracle discrepancy"
    return None


def build_search(rng: random.Random, count: int, workdir: str) -> List[Task]:
    report_path = os.path.join(workdir, "report.json")

    def replay(report) -> List[str]:
        _write(report_path, _result_text(report))
        return ["search", "--verify", report_path]

    tasks = []
    for _ in range(count):
        trial_seed = rng.getrandbits(31)
        tasks.append(Task(
            "n4",
            lambda s=trial_seed: perdec.star.search_counterexample(
                n=4, max_size=6, trials=1, seed=s),
            _result_text, _check_report, replay))
    return tasks


# ---------------------------------------------------------------------------
# construct: the two- and three-transform constructions


def build_construct(rng: random.Random, count: int, workdir: str) -> List[Task]:
    inst_path = os.path.join(workdir, "instance.json")
    cert_path = os.path.join(workdir, "result.json")
    pattern = [(kind, style, n) for n in (2, 3) for style in STYLES
               for kind, _ in SYSTEMS]
    ranges = {p: ((10, 40) if p[2] == 2 else (10, 24)) for p in pattern}
    makers = dict(SYSTEMS)
    tasks = []
    for _, (kind, style, n), _, size in _strata(count, pattern, ranges):
        system = makers[kind](rng, n, size)
        f = generators.random_function(rng, system, style)

        def produce(ts=system.transforms, f=f):
            if len(ts) == 2:
                return perdec.decomp.decompose_two(ts[0], ts[1], f)
            return perdec.decomp.decompose_three(ts[0], ts[1], ts[2], f)

        def check(result, system=system, f=f, style=style) -> Optional[str]:
            built = isinstance(result, Decomposition)
            oracle = isinstance(perdec.oracle.oracle_decompose(system, f),
                                Decomposition)
            if built != oracle:
                return (f"construction says {built}, oracle says {oracle} "
                        f"for decomposability")
            if style == "decomposable" and not built:
                return "planted decomposable function was refused"
            return None

        def replay(result, system=system, f=f) -> List[str]:
            _write(inst_path, _system_text(system, f))
            _write(cert_path, _result_text(result))
            return ["decompose", inst_path, "--verify", cert_path]

        tasks.append(Task(f"{kind}/{style}/n{n}", produce, _result_text,
                          check, replay))
    return tasks


# ---------------------------------------------------------------------------
# certify: CLI verdicts with certificates, each replayed with --verify


def _cli_text(output: Tuple[int, str]) -> str:
    code, text = output
    return f"{code}\n{text}"


def _cli_check(expected: Optional[int] = None,
               sibling: Optional[dict] = None, key: str = ""):
    """Exit code must be 0 or 1, match a planted verdict when there is one,
    and agree with the sibling op run on the same instance."""

    def check(output) -> Optional[str]:
        code, text = output
        if code not in (0, 1):
            return f"exit {code}: {text.strip()}"
        if expected is not None and code != expected:
            return f"exit {code} where the planted instance needs {expected}"
        if sibling is not None:
            sibling[key] = code
            if len(set(sibling.values())) > 1:
                return f"verdicts disagree on one instance: {sibling}"
        return None

    return check


def _cli_replay(argv: List[str], cert_path: str):
    def replay(output) -> Optional[List[str]]:
        code, text = output
        if code not in (0, 1) or json.loads(text).get("result") == "pass":
            return None  # produce-only: a pass carries no certificate
        _write(cert_path, text)
        return argv + ["--verify", cert_path]

    return replay


def _cli_task(label: str, argv: List[str], cert_path: str,
              check) -> Task:
    return Task(label, lambda argv=argv: run_cli(argv), _cli_text, check,
                _cli_replay(argv, cert_path))


def build_certify(rng: random.Random, count: int, workdir: str) -> List[Task]:
    pattern = (["finite"] * 6 + ["cyclic"] * 4 + ["window"] * 4
               + ["bounded"] * 2 + ["star-cyclic", "star-zwindow"])
    ranges = {"finite": (30, 90), "cyclic": (32, 128), "window": (10, 20),
              "bounded": (20, 60), "star-cyclic": (8, 24),
              "star-zwindow": (8, 40)}
    tasks: List[Task] = []
    for i, stratum, j, size in _strata(count, pattern, ranges):
        if len(tasks) >= count:
            break
        inst = os.path.join(workdir, f"inst-{i}.json")
        cert = os.path.join(workdir, f"cert-{i}.json")
        kind, build = SYSTEMS[j % len(SYSTEMS)]
        if stratum == "finite":
            style = STYLES[j // 3 % 3]
            system = build(rng, 2 + j // 9 % 3, size)
            f = generators.random_function(rng, system, style)
            _write(inst, _system_text(system, f))
            tasks.append(_cli_task(
                f"oracle/finite/{kind}", ["oracle", inst], cert,
                _cli_check(0 if style == "decomposable" else None)))
        elif stratum == "cyclic":
            planted, _, _ = _cyclic_instance(rng, j, size, inst)
            tasks.append(_cli_task("oracle/cyclic", ["oracle", inst], cert,
                                   _cli_check(0 if planted else None)))
        elif stratum == "window":
            planted = j % 2 == 0
            dims = ((size, sweep(j + 1, 10, 20)) if j % 3
                    else (size // 3, 2 + j // 3 % 4, 4))
            values = _window_values(rng, dims, planted)
            _write(inst, _doc({"kind": "lattice-window", "dims": list(dims),
                               "values": values}))
            verdicts: dict = {}
            expected = 0 if planted else None
            tasks.append(_cli_task("oracle/window", ["oracle", inst], cert,
                                   _cli_check(expected, verdicts, "oracle")))
            tasks.append(_cli_task(
                "lattice-decompose", ["lattice-decompose", inst],
                os.path.join(workdir, f"cert-{i}-lattice.json"),
                _cli_check(expected, verdicts, "lattice")))
        elif stratum == "bounded":
            planted = j // 3 % 2 == 0
            t, s = build(rng, 2, size).transforms
            h = generators.random_invariant_part(rng, s)
            # planted: g = h(T.) - h is solvable; otherwise any s-invariant g
            g = (h.compose(t) - h if planted
                 else generators.random_invariant_part(rng, s))
            _write(inst, _system_text(validate_system([t, s], len(t)), g))
            tasks.append(_cli_task(f"bounded-transfer/{kind}",
                                   ["bounded-transfer", inst], cert,
                                   _cli_check(0 if planted else None)))
        elif stratum == "star-cyclic":
            _, shifts, values = _cyclic_instance(rng, j, size, inst)
            tasks.append(_cli_task("star-check/cyclic", ["star-check", inst],
                                   cert, _star_cyclic_check(size, shifts,
                                                            values)))
        else:
            a = rng.randint(1, 3)
            if j % 2 == 0:
                # f(x) = x against equal shifts: the classic blocked window
                shifts, values = [a, a], [Fraction(x) for x in range(size)]
            else:
                b = rng.randint(1, 3)
                shifts = [a, b]
                values = [_value(rng) for _ in range(size)]
            _write(inst, _doc({"kind": "z-window", "length": size,
                               "shifts": shifts, "values": values}))
            tasks.append(_cli_task("star-check/z-window", ["star-check", inst],
                                   cert, _cli_check(1 if j % 2 == 0 else None)))
    return tasks


def _cyclic_instance(rng: random.Random, j: int, modulus: int, path: str):
    """Write a Z_m instance with two or three shifts; returns (planted,
    shifts, values), planted meaning decomposable by construction."""
    planted = j // 2 % 2 == 0
    shifts = [rng.randrange(1, modulus) for _ in range(2 + j % 2)]
    values = (_periodic_sum(rng, modulus, shifts) if planted
              else [_value(rng) for _ in range(modulus)])
    _write(path, _doc({"kind": "cyclic-group", "modulus": modulus,
                       "shifts": shifts, "values": values}))
    return planted, shifts, values


def _doc(doc: dict) -> str:
    doc["values"] = [perdec.serialize.frac_to_str(Fraction(v))
                     for v in doc["values"]]
    return perdec.serialize.dumps(doc)


def _window_values(rng: random.Random, dims: Sequence[int],
                   planted: bool) -> List[Fraction]:
    """Planted: a sum of parts, part j constant along axis j."""
    size = 1
    for w in dims:
        size *= w
    if not planted:
        return [_value(rng) for _ in range(size)]
    coords = [[]]
    for w in dims:
        coords = [c + [k] for c in coords for k in range(w)]
    values = [Fraction(0)] * size
    for j in range(len(dims)):
        table: Dict[tuple, Fraction] = {}
        for idx, c in enumerate(coords):
            key = tuple(c[:j] + c[j + 1:])
            if key not in table:
                table[key] = _value(rng)
            values[idx] += table[key]
    return values


def _star_cyclic_check(modulus: int, shifts: Sequence[int],
                       values: Sequence[Fraction]):
    """For at most three shifts the condition is exact, so the star-check
    verdict must match the oracle's."""
    base = _cli_check()

    def check(output) -> Optional[str]:
        error = base(output)
        if error:
            return error
        system = validate_system([_shift(modulus, a) for a in shifts], modulus)
        oracle = perdec.oracle.oracle_decompose(
            system, RationalFunction(tuple(values)))
        if (output[0] == 0) != isinstance(oracle, Decomposition):
            return "star-check verdict differs from the oracle's"
        return None

    return check


WORKLOADS = {
    "search": Workload("search", build_search, 55.0, False),
    "construct": Workload("construct", build_construct, 33.0, False),
    "certify": Workload("certify", build_certify, 50.0, True),
}
