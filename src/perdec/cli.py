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
`verified_split` on all four kinds (on a z-window with its shifts, from
which the refusal's dual is built).  A lattice window is the finite
commuting system of its axis maps (`serialize.Instance.finite_system`,
built on first use), so every subcommand runs on it the producer and the
checkers of a finite instance; `lattice-decompose` is `decompose` on
lattice windows alone.

Each subcommand's grammar is stated once, in `_GRAMMAR`.  A well-formed
argv (a subcommand name, then its instance, then its options spelt out in
full, each followed by its value) is read by `_plain`; every other argv,
help and usage errors among them, goes to the argparse tree built from
the same table, so a successful run never loads argparse.

Loading this module loads only `serialize` and `core`, which every
subcommand needs.  Each producer is imported inside its branch, so a run
loads only what it calls; the dispatcher imports only `check` (and
`orbits`, which builds a dual's classes), so a replay loads none of the
code that made the result.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple, Union

from . import serialize
from .core import (
    NotCommutingError,
    PreconditionError,
    RangeError,
    VerificationResult,
)
from .serialize import Instance, ParseError, dumps, load_json, parse_instance

if TYPE_CHECKING:
    import argparse

    # the top-level parser and each subcommand's own parser by name
    Parsers = Tuple[argparse.ArgumentParser,
                    Dict[str, argparse.ArgumentParser]]


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


# the result types each subcommand emits
_EMITS = {
    "decompose": ("Decomposition", "StarViolation"),
    "star-check": ("pass", "StarViolation"),
    "oracle": ("DualCertificate", "Decomposition"),
    "lattice-decompose": ("Decomposition", "StarViolation"),
    "bounded-transfer": ("BoundedTransfer", "ConstrainedObstruction"),
    "search": ("SearchReport",),
}


def _verify_result(command: str, inst: Optional[Instance],
                   result: Any) -> VerificationResult:
    """Replay a stored result with `check`'s checker for its type, or
    refuse a type the subcommand never emits."""
    from . import check

    key = "pass" if result is None else type(result).__name__
    if key not in _EMITS[command]:
        return VerificationResult(False, f"unexpected result type {key} for "
                                         f"{command}")
    if key in ("pass", "StarViolation"):
        # a z-window is checked on its shifts, with no completed maps
        shifts = inst.shifts if inst.kind == "z-window" else None
        tables = inst.maps() if shifts is None else ()
        if key == "pass":
            # a pass carries no certificate: the condition is re-run
            return check.verify_star_pass(inst.f, tables, shifts)
        ok = check.replay_violation(inst.f, result, tables, shifts)
        return VerificationResult(ok,
                                  None if ok else "violation does not replay")
    if key == "Decomposition":
        return check.verify_parts(inst.maps(), inst.f, result.parts)
    if key == "DualCertificate":
        from .orbits import invariance_classes

        return check.verify_dual([invariance_classes(t) for t in inst.maps()],
                                 inst.f, result)
    if key == "SearchReport":
        return check.verify_report(result)
    t, s = inst.system.transforms
    return check.verify_bounded_transfer(t, s, inst.f, result)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args) -> Outcome:
    inst = parse_instance(_read(args.instance, "instance"))
    doc: dict = {"result": "ok", "kind": inst.kind}
    if inst.kind == "z-window":
        doc["length"] = inst.length
        doc["shifts"] = list(inst.shifts)
    elif inst.kind == "lattice-window":
        doc["dims"] = list(inst.dims)
    else:
        doc["size"] = inst.system.size
        doc["transforms"] = inst.system.n
    return 0, doc


# the instance kinds a subcommand reads, where it does not read every kind
_READS = {"decompose": ("finite", "cyclic-group", "lattice-window"),
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
    if command in ("decompose", "lattice-decompose"):
        from .decomp import decompose_n

        result = decompose_n(inst.finite_system, inst.f)
    elif command == "bounded-transfer":
        from .cohomology import solve_bounded_transfer

        result = solve_bounded_transfer(*inst.system.transforms, inst.f)
    elif command == "oracle":
        from .oracle import verified_split

        result = verified_split(inst.maps(), inst.f, inst.shifts
                                if inst.kind == "z-window" else None)
    elif inst.kind == "z-window":
        from .star import check_star_abelian

        result = check_star_abelian(inst.shifts, inst.f)
    else:
        from .star import check_star

        result = check_star(inst.finite_system, inst.f)
    doc = serialize.result_to_json(result)
    return (1 if "certificate" in doc else 0), doc


def _cmd_search(args) -> Outcome:
    if args.verify:
        report = serialize.parse_result(_read(args.verify, "certificate"))
        return _verify_result("search", None, report)
    from .star import search_counterexample

    report = search_counterexample(n=args.n, max_size=args.max_size,
                                   trials=args.trials, seed=args.seed)
    clean = report.discrepancies == 0 and report.necessity_violations == 0
    return (0 if clean else 1), serialize.result_to_json(report)


# each subcommand's grammar, the one place its options are named: its
# handler, whether it reads an instance, and per option, in help order,
# (spelling, type, default, metavar, help); argparse's tree and the plain
# reader are both built from it
_VERIFY = ("--verify", None, None, "CERTFILE",
           "re-check a previously emitted result file against the instance")
_GRAMMAR = {
    "validate": (_cmd_validate, True, ()),
    "decompose": (_cmd_decide, True, (_VERIFY,)),
    "star-check": (_cmd_decide, True, (_VERIFY,)),
    "oracle": (_cmd_decide, True, (_VERIFY,)),
    "lattice-decompose": (_cmd_decide, True, (_VERIFY,)),
    "bounded-transfer": (_cmd_decide, True, (_VERIFY,)),
    "search": (_cmd_search, False, (
        _VERIFY,
        ("--n", int, 2, None, None),
        ("--max-size", int, 6, None, None),
        ("--trials", int, 1000, None, None),
        ("--seed", int, 0, None, None))),
}


def _dest(option: str) -> str:
    """The attribute argparse stores an option's value under."""
    return option[2:].replace("-", "_")


def _plain(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The arguments of an argv in the plain grammar, with exactly the
    attributes argparse would set, or None for any other argv.

    The plain grammar is a subcommand name, then its instance where it
    takes one (a token that does not start with "-", or "-" itself), then
    "--opt VALUE" pairs, each option spelt out in full and its VALUE not
    starting with "-"; a repeated option keeps its last value.  Typed
    values are converted with the callable argparse uses.  Every other
    argv, help and usage errors among them, is left to argparse.
    """
    grammar = _GRAMMAR.get(argv[0]) if argv else None
    if grammar is None:
        return None
    handler, needs_instance, options = grammar
    args: Dict[str, Any] = {"command": argv[0], "handler": handler}
    kinds = {}
    for option, kind, default, _, _ in options:
        kinds[option] = kind
        args[_dest(option)] = default
    rest = argv[1:]
    if needs_instance:
        if not rest or rest[0] != "-" and rest[0].startswith("-"):
            return None
        args["instance"] = rest[0]
        rest = rest[1:]
    if len(rest) % 2:
        return None
    for option, value in zip(rest[::2], rest[1::2]):
        if option not in kinds or value.startswith("-"):
            return None
        kind = kinds[option]
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        args[_dest(option)] = value
    return SimpleNamespace(**args)


def _build_parser() -> Parsers:
    """The argparse tree of `_GRAMMAR`, which reads every argv that
    `_plain` leaves: it alone writes help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="perdec",
        description="Decide and construct sums of invariant functions over "
                    "commuting transformations, with exact certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (handler, needs_instance, options) in _GRAMMAR.items():
        p = commands[name] = sub.add_parser(name)
        if needs_instance:
            p.add_argument("instance",
                           help="instance file path, or - for standard input")
        for option, kind, default, metavar, text in options:
            p.add_argument(option, type=kind, default=default,
                           metavar=metavar, help=text)
        p.set_defaults(handler=handler, command=name)
    return parser, commands


@lru_cache(maxsize=None)
def _parser() -> Parsers:
    """The parsers, built on the first call that needs them rather than at
    import: parsing leaves them unchanged, so every later call in the
    process reuses them."""
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain(argv) or _parse(argv)
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
