"""Batch command line: parse instance files, dispatch, emit JSON verdicts.

Exit codes: 0 = pass/decomposed, 1 = violation/infeasible (certificate in
the output), 2 = input error.  With --verify CERTFILE a subcommand re-checks
a previously emitted result file against the instance instead of recomputing,
with `check`'s one checker for that certificate type, exiting 0 when it
replays and 1 when it does not.

Every instance kind is a list of total maps (`serialize.Instance.maps`),
so `oracle` and its --verify take one path on all four kinds; the kind
only picks the output document (a lattice window's parts carry its dims).

Loading this module loads only `serialize` and `core`, which every
subcommand needs.  Each handler imports the algorithm modules it calls in
its body, so a run loads only those; each --verify dispatcher imports
only `check` (and `orbits` and `lattice`, which build and type its
input), so a replay loads none of the code that made the result.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from . import serialize
from .core import (
    Decomposition,
    NotCommutingError,
    PreconditionError,
    RangeError,
    VerificationResult,
)
from .serialize import Instance, ParseError, dumps, load_json, parse_instance


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
    from .check import StarViolation, replay_violation, verify_parts

    if isinstance(result, Decomposition):
        return verify_parts(inst.maps(), inst.f, result.parts)
    if isinstance(result, StarViolation):
        return _replayed(replay_violation(inst.system, inst.f, result))
    return _unexpected(result, "decompose")


def _verify_star_result(inst: Instance, result: Any) -> VerificationResult:
    from .check import (StarViolation, replay_abelian_violation,
                        replay_violation, verify_point_violation,
                        verify_star_pass)

    if result is None:
        # a pass carries no certificate: the condition is re-run
        if inst.kind == "z-window":
            return verify_star_pass(inst.f, shifts=inst.shifts)
        return verify_star_pass(inst.f, inst.maps())
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
    from .check import (DualCertificate, verify_dual, verify_lattice_parts,
                        verify_parts)
    from .orbits import invariance_classes

    if isinstance(result, DualCertificate):
        return verify_dual([invariance_classes(t) for t in inst.maps()],
                           inst.f, result)
    if inst.window is not None:
        from .lattice import LatticeWindow

        if _tuple_of(result, LatticeWindow):
            return verify_lattice_parts(inst.window, result)
    elif isinstance(result, Decomposition):
        return verify_parts(inst.maps(), inst.f, result.parts)
    return _unexpected(result, "oracle")


def _verify_lattice_result(inst: Instance, result: Any) -> VerificationResult:
    from .check import verify_lattice_parts, verify_point_violation
    from .lattice import LatticeWindow

    if _tuple_of(result, LatticeWindow):
        return verify_lattice_parts(inst.window, result)
    if _tuple_of(result, int):
        return verify_point_violation(inst.window, result)
    return _unexpected(result, "lattice-decompose")


def _verify_bounded_result(inst: Instance, result: Any) -> VerificationResult:
    from .check import verify_bounded_transfer

    t, s = inst.system.transforms
    return verify_bounded_transfer(t, s, inst.f, result)


def _verify_report(result: Any) -> VerificationResult:
    from .check import SearchReport, verify_report

    if not isinstance(result, SearchReport):
        return _unexpected(result, "search")
    return verify_report(result)


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


def _cmd_decompose(args) -> Outcome:
    inst = _read_instance(args.instance)
    _require_system(inst, "decompose")
    if args.verify:
        return _verify_decomposition_result(inst,
                                            _read_result(args.verify))
    from .decomp import decompose_n

    outcome = decompose_n(inst.system.transforms, inst.f)
    if isinstance(outcome, Decomposition):
        return 0, serialize.decomposition_to_json(outcome)
    return 1, serialize.violation_to_json(outcome)


def _cmd_star_check(args) -> Outcome:
    """A lattice window fails at a point; finite and cyclic-group
    instances are total maps on a finite set, where the mixed difference
    decides alone."""
    inst = _read_instance(args.instance)
    if args.verify:
        return _verify_star_result(inst, _read_result(args.verify))
    if inst.kind == "lattice-window":
        from .lattice import mixed_delta_witness

        point = mixed_delta_witness(inst.window)
        if point is None:
            return 0, {"result": "pass"}
        return 1, serialize.point_violation_to_json(point)
    from .star import check_star, check_star_abelian

    violation = (check_star_abelian(inst.shifts, inst.f)
                 if inst.kind == "z-window" else check_star(inst.system, inst.f))
    if violation is None:
        return 0, {"result": "pass"}
    return 1, serialize.violation_to_json(violation)


def _cmd_oracle(args) -> Outcome:
    inst = _read_instance(args.instance)
    if args.verify:
        return _verify_oracle_result(inst, _read_result(args.verify))
    from .oracle import DualCertificate, verified_split

    outcome = verified_split(inst.maps(), inst.f)
    if isinstance(outcome, DualCertificate):
        return 1, serialize.dual_to_json(outcome)
    if inst.kind == "lattice-window":
        return 0, serialize.lattice_parts_to_json(inst.window.dims,
                                                  outcome.parts)
    return 0, serialize.decomposition_to_json(outcome)


def _cmd_lattice_decompose(args) -> Outcome:
    inst = _read_instance(args.instance)
    if inst.kind != "lattice-window":
        raise ParseError("lattice-decompose needs a lattice-window instance, "
                         f"got kind {inst.kind!r}")
    if args.verify:
        return _verify_lattice_result(inst, _read_result(args.verify))
    # an input error whatever the window holds, so decided before the witness
    if args.base < 0:
        raise PreconditionError(
            f"base hyperplane must be >= 0, got {args.base}")
    from .lattice import lattice_decompose, mixed_delta_witness

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
    from .cohomology import ConstrainedObstruction, solve_bounded_transfer

    t, s = inst.system.transforms
    outcome = solve_bounded_transfer(t, s, inst.f)
    if isinstance(outcome, ConstrainedObstruction):
        return 1, serialize.constrained_obstruction_to_json(outcome)
    return 0, serialize.bounded_to_json(outcome)


def _cmd_search(args) -> Outcome:
    if args.verify:
        return _verify_report(_read_result(args.verify))
    from .star import search_counterexample

    report = search_counterexample(n=args.n, max_size=args.max_size,
                                   trials=args.trials, seed=args.seed,
                                   workers=args.workers)
    clean = (report.discrepancies == 0 and report.necessity_violations == 0
             and not report.candidates)
    return (0 if clean else 1), serialize.report_to_json(report)


# the top-level parser and each subcommand's own parser by name
Parsers = Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]


def _build_parser() -> Parsers:
    parser = argparse.ArgumentParser(
        prog="perdec",
        description="Decide and construct sums of invariant functions over "
                    "commuting transformations, with exact certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, handler, needs_instance=True, verify=True):
        p = commands[name] = sub.add_parser(name)
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
    add("decompose", _cmd_decompose)
    add("star-check", _cmd_star_check)
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
    return parser, commands


@lru_cache(maxsize=None)
def _parser() -> Parsers:
    """The parsers, built on the first call rather than at import: parsing
    leaves them unchanged, so every later call in the process reuses them."""
    return _build_parser()


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """A named subcommand's arguments go straight to its own parser, which
    the top-level one would hand them to; anything else (no argument, -h,
    an unknown name) takes the top-level parser and its usage."""
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:])


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
    except (RangeError, PreconditionError) as exc:
        _emit({"error": str(exc)})
        return 2
    _emit(doc)
    return code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
