"""Batch command line: parse instance files, dispatch, emit JSON verdicts.

Exit codes: 0 = pass/decomposed, 1 = violation/infeasible (certificate in
the output), 2 = input error, a non-UTF-8 file too.  With --verify CERTFILE
a subcommand re-checks a previously emitted result file against the
instance instead of recomputing, with `check`'s one checker for that
certificate type, exiting 0 when it replays and 1 when it does not.

Every subcommand that reads an instance and answers with a result takes
one skeleton, `_cmd_decide`: read the instance, check that its kind fits
the subcommand, then either replay the stored result through the one
dispatcher `_verify_result` or run the one producer the subcommand names,
and write what it returns with `serialize.result_to_json`.  The dispatcher
states once which result types each subcommand emits; any other type is
refused with "unexpected result type <T> for <command>".  Every instance
kind is a list of total maps (`serialize.Instance.maps`), so `oracle` runs
`verified_split` on all four kinds (on a lattice window through
`lattice.lattice_oracle_decompose`, whose parts carry the window's dims;
on a z-window with its shifts, from which the refusal's dual is built).

Loading this module loads only `serialize` and `core`, which every
subcommand needs.  Each producer is imported inside its branch, so a run
loads only what it calls; the dispatcher imports only `check` (and
`orbits`, which builds a dual's classes), so a replay loads none of the
code that made the result.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from . import serialize
from .core import (
    NotCommutingError,
    PreconditionError,
    RangeError,
    VerificationResult,
)
from .serialize import Instance, ParseError, dumps, load_json, parse_instance


def _read(path: str, what: str) -> Any:
    """The JSON document of the instance or certificate file at path (the
    instance "-" is standard input), its bytes decoded as strict UTF-8."""
    try:
        if path == "-" and what == "instance":
            if sys.stdin is None:
                raise ParseError("cannot read instance file: standard "
                                 "input is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {what} file: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file is not UTF-8: {exc}")
    return load_json(text)


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
# --verify: check's one checker for the result type


# the result types each subcommand emits, on an instance that is not a
# lattice window (or on none, for search) and on one that is; a point
# certificate and lattice parts both parse to tuples
_EMITS = {
    "decompose": (("Decomposition", "StarViolation"), ()),
    "star-check": (("pass", "StarViolation"), ("pass", "point")),
    "oracle": (("DualCertificate", "Decomposition"),
               ("DualCertificate", "parts")),
    "lattice-decompose": ((), ("parts", "point")),
    "bounded-transfer": (("BoundedTransfer", "ConstrainedObstruction"), ()),
    "search": (("SearchReport",), ()),
}


def _verify_result(command: str, inst: Optional[Instance],
                   result: Any) -> VerificationResult:
    """Replay a stored result with `check`'s checker for its type, or
    refuse a type the subcommand never emits on this instance."""
    from . import check

    window = inst is not None and inst.window is not None
    key = name = "pass" if result is None else type(result).__name__
    if isinstance(result, tuple):
        # parse_result yields lattice parts only nonempty, so () is a point
        key = "parts" if result and not isinstance(result[0], int) else "point"
    if key not in _EMITS[command][window]:
        if command == "star-check" and window:
            command += " on a lattice window"
        return VerificationResult(False, f"unexpected result type {name} for "
                                         f"{command}")
    if key == "pass":
        # a pass carries no certificate: the condition is re-run
        if inst.kind == "z-window":
            return check.verify_star_pass(inst.f, shifts=inst.shifts)
        return check.verify_star_pass(inst.f, inst.maps())
    if key == "Decomposition":
        return check.verify_parts(inst.maps(), inst.f, result.parts)
    if key == "StarViolation":
        ok = (check.replay_abelian_violation(inst.shifts, inst.f, result)
              if inst.kind == "z-window"
              else check.replay_violation(inst.system, inst.f, result))
        return VerificationResult(ok,
                                  None if ok else "violation does not replay")
    if key == "DualCertificate":
        from .orbits import invariance_classes

        return check.verify_dual([invariance_classes(t) for t in inst.maps()],
                                 inst.f, result)
    if key == "parts":
        return check.verify_lattice_parts(inst.window, result)
    if key == "point":
        return check.verify_point_violation(inst.window, result)
    if key == "SearchReport":
        return check.verify_report(result)
    t, s = inst.system.transforms
    return check.verify_bounded_transfer(t, s, inst.f, result)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args) -> Outcome:
    inst = parse_instance(_read(args.instance, "instance"))
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


# the instance kinds a subcommand reads, where it does not read every kind
_READS = {"decompose": ("finite", "cyclic-group"),
          "bounded-transfer": ("finite", "cyclic-group"),
          "lattice-decompose": ("lattice-window",)}


def _cmd_decide(args) -> Outcome:
    """Read the instance, check it fits the subcommand, then replay the
    stored result or run the subcommand's producer and write its result;
    a refusal carries a certificate and exits 1."""
    command = args.command
    inst = parse_instance(_read(args.instance, "instance"))
    kinds = _READS.get(command)
    if kinds and inst.kind not in kinds:
        raise ParseError(f"{command} needs a {' or '.join(kinds)} instance, "
                         f"got kind {inst.kind!r}")
    if command == "bounded-transfer" and inst.system.n != 2:
        raise ParseError("bounded-transfer needs exactly two transforms "
                         "(T, S) with values giving the right-hand side")
    if args.verify:
        result = serialize.parse_result(_read(args.verify, "certificate"))
        return _verify_result(command, inst, result)
    # an input error whatever the window holds, so decided before the witness
    if command == "lattice-decompose" and args.base < 0:
        raise PreconditionError(
            f"base hyperplane must be >= 0, got {args.base}")
    if command == "decompose":
        from .decomp import decompose_n

        result = decompose_n(inst.system, inst.f)
    elif command == "bounded-transfer":
        from .cohomology import solve_bounded_transfer

        result = solve_bounded_transfer(*inst.system.transforms, inst.f)
    elif command == "oracle" and inst.window is not None:
        from .lattice import lattice_oracle_decompose

        result = lattice_oracle_decompose(inst.window)
    elif command == "oracle":
        from .oracle import verified_split

        result = verified_split(inst.maps(), inst.f, inst.shifts
                                if inst.kind == "z-window" else None)
    elif inst.window is not None:
        # star-check or lattice-decompose: a window fails at a point
        from .lattice import lattice_decompose, mixed_delta_witness

        result = mixed_delta_witness(inst.window)
        if result is None and command == "lattice-decompose":
            result = lattice_decompose(inst.window, base=args.base)
    elif inst.kind == "z-window":
        from .star import check_star_abelian

        result = check_star_abelian(inst.shifts, inst.f)
    else:
        from .star import check_star

        result = check_star(inst.system, inst.f)
    doc = serialize.result_to_json(result)
    return (1 if "certificate" in doc else 0), doc


def _cmd_search(args) -> Outcome:
    if args.verify:
        report = serialize.parse_result(_read(args.verify, "certificate"))
        return _verify_result("search", None, report)
    from .star import search_counterexample

    report = search_counterexample(n=args.n, max_size=args.max_size,
                                   trials=args.trials, seed=args.seed,
                                   workers=args.workers)
    clean = report.discrepancies == 0 and report.necessity_violations == 0
    return (0 if clean else 1), serialize.result_to_json(report)


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
        p.set_defaults(handler=handler, command=name)
        return p

    add("validate", _cmd_validate, verify=False)
    add("decompose", _cmd_decide)
    add("star-check", _cmd_decide)
    add("oracle", _cmd_decide)
    lat = add("lattice-decompose", _cmd_decide)
    lat.add_argument("--base", type=int, default=0,
                     help="base hyperplane coordinate for the lift")
    add("bounded-transfer", _cmd_decide)
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
