"""Batch command line: parse instance files, dispatch, emit JSON verdicts.

Exit codes: 0 = pass/decomposed, 1 = violation/infeasible (certificate in
the output), 2 = input error.  With --verify CERTFILE a subcommand re-checks
a previously emitted result file against the instance instead of recomputing,
with the library's one checker for that certificate type, exiting 0 when it
replays and 1 when it does not.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Any, Optional, Sequence, Tuple, Union

from . import serialize
from .cohomology import (
    ConstrainedObstruction,
    solve_bounded_transfer,
    verify_bounded_transfer,
)
from .core import (
    BoundTooSmallError,
    Decomposition,
    NotCommutingError,
    PreconditionError,
    RangeError,
    RationalFunction,
    VerificationResult,
    verify_decomposition,
)
from .decomp import decompose_n, decompose_three
from .lattice import (
    LatticeWindow,
    lattice_decompose,
    lattice_oracle_decompose,
    mixed_delta_witness,
    slice_partitions,
    verify_lattice_parts,
    verify_point_violation,
)
from .oracle import DualCertificate, oracle_decompose, verify_dual
from .orbits import invariance_classes
from .serialize import Instance, ParseError, dumps, load_json, parse_instance
from .star import (
    SearchReport,
    StarViolation,
    check_star,
    check_star_abelian,
    replay_abelian_violation,
    replay_violation,
    search_counterexample,
)
from .star import _reverify_candidate


def _read_instance(path: str) -> Instance:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read instance file: {exc}")
    return parse_instance(load_json(text))


def _read_result(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read certificate file: {exc}")
    return serialize.parse_result(load_json(text))


# a handler's (exit code, document), or the verdict of a --verify run
Outcome = Union[Tuple[int, dict], VerificationResult]


def _emit(doc: dict) -> None:
    sys.stdout.write(dumps(doc))


def _verify_doc(verdict: VerificationResult) -> Tuple[int, dict]:
    """Exit code and document of a --verify run."""
    doc: dict = {"result": "verified", "agrees": verdict.ok}
    if verdict.reason:
        doc["reason"] = verdict.reason
    return (0 if verdict.ok else 1), doc


# ---------------------------------------------------------------------------
# --verify: pick the library's checker for the instance kind and result type


def _replayed(ok: bool) -> VerificationResult:
    return VerificationResult(ok, None if ok else "violation does not replay")


def _unexpected(result: Any, command: str) -> VerificationResult:
    kind = "pass" if result is None else type(result).__name__
    return VerificationResult(False, f"unexpected result type {kind} for "
                                     f"{command}")


def _tuple_of(result: Any, kind: type) -> bool:
    """Lattice parts parse to LatticeWindows, point certificates to ints."""
    return isinstance(result, tuple) and all(isinstance(p, kind)
                                             for p in result)


def _verify_decomposition_result(inst: Instance,
                                 result: Any) -> VerificationResult:
    if isinstance(result, Decomposition):
        if len(result.parts) != inst.system.n:
            return VerificationResult(
                False, "part count differs from transform count")
        return verify_decomposition(inst.system, inst.f, result)
    if isinstance(result, StarViolation):
        return _replayed(replay_violation(inst.system, inst.f, result))
    return _unexpected(result, "decompose")


def _verify_star_result(inst: Instance, result: Any) -> VerificationResult:
    if result is None:
        # a pass carries no certificate: re-run the check (z-windows at
        # the default bound)
        if _star_outcome(inst, None) is None:
            return VerificationResult(True)
        return VerificationResult(False, "the star check fails on this "
                                         "instance")
    if inst.kind == "lattice-window":
        if _tuple_of(result, int):
            return verify_point_violation(inst.window, result)
        return _unexpected(result, "star-check on a lattice window")
    if not isinstance(result, StarViolation):
        return _unexpected(result, "star-check")
    if inst.kind == "z-window":
        return _replayed(replay_abelian_violation(inst.shifts, inst.f,
                                                  result))
    return _replayed(replay_violation(inst.system, inst.f, result))


def _verify_oracle_result(inst: Instance, result: Any) -> VerificationResult:
    if inst.kind == "lattice-window":
        if _tuple_of(result, LatticeWindow):
            return verify_lattice_parts(inst.window, result)
        if isinstance(result, DualCertificate):
            return verify_dual(slice_partitions(inst.window),
                               RationalFunction(inst.window.values), result)
        return _unexpected(result, "window oracle")
    if isinstance(result, Decomposition):
        return _verify_decomposition_result(inst, result)
    if isinstance(result, DualCertificate):
        return verify_dual([invariance_classes(t)
                            for t in inst.system.transforms], inst.f, result)
    return _unexpected(result, "oracle")


def _verify_lattice_result(inst: Instance, result: Any) -> VerificationResult:
    if _tuple_of(result, LatticeWindow):
        return verify_lattice_parts(inst.window, result)
    if _tuple_of(result, int):
        return verify_point_violation(inst.window, result)
    return _unexpected(result, "lattice-decompose")


def _verify_bounded_result(inst: Instance, result: Any) -> VerificationResult:
    t, s = inst.system.transforms
    return verify_bounded_transfer(t, s, inst.f, result)


def _verify_report(result: Any) -> VerificationResult:
    if not isinstance(result, SearchReport):
        return _unexpected(result, "search")
    for c in result.candidates:
        if _reverify_candidate(c.transforms, c.size, c.values) is None:
            return VerificationResult(False, f"candidate from trial {c.trial} "
                                             f"does not re-verify")
    return VerificationResult(True)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args) -> Outcome:
    inst = _read_instance(args.instance)
    doc: dict = {"result": "ok", "kind": inst.kind}
    if inst.system is not None:
        doc["size"] = inst.system.size
        doc["transforms"] = inst.system.n
    if inst.kind == "z-window":
        doc["length"] = inst.length
        doc["shifts"] = list(inst.shifts)
    if inst.kind == "lattice-window":
        doc["dims"] = list(inst.window.dims)
    return 0, doc


def _require_system(inst: Instance, what: str) -> None:
    if inst.system is None:
        raise ParseError(f"{what} needs a finite or cyclic-group instance, "
                         f"got kind {inst.kind!r}")


def _reject_bound(args, where: str) -> None:
    """An explicit --bound that this run would not read is an input error."""
    if args.bound is not None:
        raise ParseError(f"--bound is not read {where}")


def _cmd_decompose(args) -> Outcome:
    inst = _read_instance(args.instance)
    _require_system(inst, "decompose")
    if args.verify:
        _reject_bound(args, "by --verify")
        return _verify_decomposition_result(inst,
                                            _read_result(args.verify))
    if inst.system.n != 3:
        _reject_bound(args, "unless there are three transforms")
    ts = inst.system.transforms
    if inst.system.n == 3:
        outcome = decompose_three(ts[0], ts[1], ts[2], inst.f, args.bound)
    else:
        outcome = decompose_n(ts, inst.f)
    if isinstance(outcome, Decomposition):
        return 0, serialize.decomposition_to_json(outcome)
    return 1, serialize.violation_to_json(outcome)


def _star_outcome(inst: Instance, bound: Optional[int]) -> Any:
    """The star check of any instance kind: None when it passes, else its
    StarViolation, or the failing point of a lattice window.  Finite and
    cyclic-group instances are total maps on a finite set, where the
    mixed difference decides alone; only z-windows read a bound."""
    if inst.kind == "z-window":
        return check_star_abelian(inst.shifts, inst.f, bound)
    if inst.kind == "lattice-window":
        return mixed_delta_witness(inst.window)
    return check_star(inst.system, inst.f)


def _cmd_star_check(args) -> Outcome:
    inst = _read_instance(args.instance)
    if args.verify:
        _reject_bound(args, "by --verify")
        return _verify_star_result(inst, _read_result(args.verify))
    if inst.kind != "z-window":
        _reject_bound(args, f"on {inst.kind} instances")
    outcome = _star_outcome(inst, args.bound)
    if outcome is None:
        return 0, {"result": "pass"}
    if inst.kind == "lattice-window":
        return 1, serialize.point_violation_to_json(outcome)
    return 1, serialize.violation_to_json(outcome)


def _cmd_oracle(args) -> Outcome:
    inst = _read_instance(args.instance)
    if inst.kind == "z-window":
        raise ParseError("the oracle needs total self-maps; z-window shifts "
                         "are partial — use star-check")
    if args.verify:
        return _verify_oracle_result(inst, _read_result(args.verify))
    if inst.kind == "lattice-window":
        outcome = lattice_oracle_decompose(inst.window)
        if isinstance(outcome, DualCertificate):
            return 1, serialize.dual_to_json(outcome)
        return 0, serialize.lattice_parts_to_json(inst.window.dims, outcome)
    outcome = oracle_decompose(inst.system, inst.f)
    if isinstance(outcome, Decomposition):
        return 0, serialize.decomposition_to_json(outcome)
    return 1, serialize.dual_to_json(outcome)


def _cmd_lattice_decompose(args) -> Outcome:
    inst = _read_instance(args.instance)
    if inst.kind != "lattice-window":
        raise ParseError("lattice-decompose needs a lattice-window instance, "
                         f"got kind {inst.kind!r}")
    if args.verify:
        return _verify_lattice_result(inst, _read_result(args.verify))
    point = mixed_delta_witness(inst.window)
    if point is not None:
        return 1, serialize.point_violation_to_json(point)
    parts = lattice_decompose(inst.window, base=args.base)
    return 0, serialize.lattice_parts_to_json(inst.window.dims, parts)


def _cmd_bounded_transfer(args) -> Outcome:
    inst = _read_instance(args.instance)
    _require_system(inst, "bounded-transfer")
    if inst.system.n != 2:
        raise ParseError("bounded-transfer needs exactly two transforms "
                         "(T, S) with values giving the right-hand side")
    if args.verify:
        return _verify_bounded_result(inst, _read_result(args.verify))
    t, s = inst.system.transforms
    outcome = solve_bounded_transfer(t, s, inst.f)
    if isinstance(outcome, ConstrainedObstruction):
        return 1, serialize.constrained_obstruction_to_json(outcome)
    return 0, serialize.bounded_to_json(outcome)


def _cmd_search(args) -> Outcome:
    if args.verify:
        return _verify_report(_read_result(args.verify))
    report = search_counterexample(n=args.n, max_size=args.max_size,
                                   trials=args.trials, seed=args.seed,
                                   workers=args.workers)
    clean = (report.discrepancies == 0 and report.necessity_violations == 0
             and not report.candidates)
    return (0 if clean else 1), serialize.report_to_json(report)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perdec",
        description="Decide and construct sums of invariant functions over "
                    "commuting transformations, with exact certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, needs_instance=True, verify=True):
        p = sub.add_parser(name)
        if needs_instance:
            p.add_argument("instance",
                           help="instance file path, or - for standard input")
        if verify:
            p.add_argument("--verify", metavar="CERTFILE", default=None,
                           help="re-check a previously emitted result file "
                                "against the instance")
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, verify=False)
    add("decompose", _cmd_decompose).add_argument(
        "--bound", type=int, default=None,
        help="exponent bound of the three-transform relation search; "
             "an input error with fewer transforms or --verify")
    add("star-check", _cmd_star_check).add_argument(
        "--bound", type=int, default=None,
        help="head exponent bound on z-window instances; an input error "
             "on other kinds or with --verify")
    add("oracle", _cmd_oracle)
    lat = add("lattice-decompose", _cmd_lattice_decompose)
    lat.add_argument("--base", type=int, default=0,
                     help="base hyperplane coordinate for the lift")
    add("bounded-transfer", _cmd_bounded_transfer)
    p = add("search", _cmd_search, needs_instance=False)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import: parsing
    leaves it unchanged, so every later call in the process reuses it."""
    return _build_parser()


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        outcome = args.handler(args)
        code, doc = (_verify_doc(outcome)
                     if isinstance(outcome, VerificationResult) else outcome)
    except ParseError as exc:
        _emit({"error": str(exc), "path": exc.path})
        return 2
    except NotCommutingError as exc:
        _emit({"error": "not-commuting", "witness": list(exc.witness)})
        return 2
    except (RangeError, PreconditionError, BoundTooSmallError) as exc:
        _emit({"error": str(exc)})
        return 2
    _emit(doc)
    return code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
