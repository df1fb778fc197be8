"""Exact decompositions into sums of invariant functions.

Given pairwise commuting transformations T_1..T_n of a finite domain and a
rational-valued f, decide whether f = f_1 + ... + f_n with each f_j
T_j-invariant, and construct the parts or an exact certificate of
impossibility.  Everything is exact rational arithmetic; every positive or
negative answer is verified before it is returned.

Every public name resolves on first use (PEP 562): `import perdec` loads
no submodule, and reading a name imports the one module that defines it,
so a process pays only for the modules it calls.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BoundedTransfer": "check",
    "CommutingSystem": "core",
    "ConstrainedObstruction": "check",
    "Decomposition": "core",
    "DualCertificate": "check",
    "InternalContractViolation": "core",
    "NotCommutingError": "core",
    "Partition": "orbits",
    "PreconditionError": "core",
    "RangeError": "core",
    "RationalFunction": "core",
    "SearchReport": "check",
    "StarInstance": "check",
    "StarViolation": "check",
    "VerificationResult": "core",
    "as_fraction": "core",
    "check_star": "star",
    "check_star_abelian": "star",
    "commute_witness": "core",
    "compose": "core",
    "decompose_n": "decomp",
    "decompose_three": "decomp",
    "decompose_two": "decomp",
    "find_relation": "orbits",
    "invariance_classes": "orbits",
    "is_invariant": "core",
    "oracle_decompose": "oracle",
    "power": "core",
    "replay_violation": "check",
    "search_counterexample": "star",
    "solve_bounded_transfer": "cohomology",
    "validate_system": "core",
    "validate_transform": "core",
    "verify_parts": "check",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__all__ = list(_EXPORTS)
