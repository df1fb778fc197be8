import ast
import inspect
import pathlib
import sys

import pytest

import perdec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_public_names_resolve_once():
    names = perdec.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(perdec, name) is not None
    assert set(names) <= set(dir(perdec))
    with pytest.raises(AttributeError):
        getattr(perdec, "no_such_name")


def test_no_public_function_takes_an_exponent_bound():
    # on a finite set every orbit search is exact: no public name searches
    # exponents up to a caller's bound
    functions = {name: getattr(perdec, name) for name in perdec.__all__}
    bounded = [name for name, fn in functions.items()
               if inspect.isfunction(fn)
               and "bound" in inspect.signature(fn).parameters]
    assert bounded == []


def _unused_imports(tree: ast.Module):
    """Names a module imports but never reads; a name in a literal
    `__all__` list is read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_an_unused_name():
    paths = sorted([*(ROOT / "src" / "perdec").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in paths
             for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


def test_the_checker_imports_only_core_orbits_and_the_standard_library():
    # a replay must not load the code that made what it checks
    tree = ast.parse((ROOT / "src" / "perdec" / "check.py").read_text())
    typing_only = [node for top in tree.body if isinstance(top, ast.If)
                   and ast.unparse(top.test) == "TYPE_CHECKING"
                   for node in ast.walk(top)]
    runtime, annotations, stdlib = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            (annotations if node in typing_only else runtime).add(node.module)
        elif isinstance(node, ast.ImportFrom):
            stdlib.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            stdlib.update(a.name.partition(".")[0] for a in node.names)
    assert runtime == {"core", "orbits"}
    assert annotations == set()
    assert stdlib - {"__future__"} <= sys.stdlib_module_names


def test_the_public_checkers_are_the_ones_verify_dispatches_to():
    # one checker per result type: a public verify_/replay_ function of
    # `check` that `cli._verify_result` never calls is a second path
    from perdec import check, cli

    tree = ast.parse(inspect.getsource(cli._verify_result))
    dispatched = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "check"}
    public = {name for name, fn in vars(check).items()
              if name.startswith(("verify_", "replay_"))
              and inspect.isfunction(fn) and fn.__module__ == check.__name__}
    assert public == dispatched


def _load_time_imports(nodes) -> set:
    """Top-level names of the modules that statements import when their
    module loads: every statement outside a function body, except those
    under `if TYPE_CHECKING:`."""
    found = set()
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (isinstance(node, ast.If)
                and ast.unparse(node.test) == "TYPE_CHECKING"):
            found |= _load_time_imports(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
        found |= _load_time_imports(ast.iter_child_nodes(node))
    return found


def test_no_module_imports_fractions_when_it_loads():
    # Fraction is imported inside the functions that build or test one,
    # so loading any perdec module loads no fractions (nor decimal and
    # numbers, which it imports)
    paths = sorted((ROOT / "src" / "perdec").glob("*.py"))
    loaded = [path.name for path in paths if "fractions"
              in _load_time_imports(ast.parse(path.read_text()).body)]
    assert loaded == []
    # the guard sees a load-time import in a nested block or a class body,
    # and none inside a function or under TYPE_CHECKING
    for source, expected in [
            ("try:\n    from fractions import Fraction\nexcept ImportError:"
             "\n    pass\n", {"fractions"}),
            ("class A:\n    import fractions\n", {"fractions"}),
            ("def f():\n    from fractions import Fraction\n", set()),
            ("if TYPE_CHECKING:\n    from fractions import Fraction\n"
             "else:\n    import json\n", {"json"})]:
        assert _load_time_imports(ast.parse(source).body) == expected


# top-level names that no code in src/perdec reads, each with its reason;
# a name in perdec's export table is not read by being listed there
DEAD_CODE_ALLOWLIST = {
    # one-line wrappers of decompose_n that the benchmark's construct
    # workload calls
    ("decomp", "decompose_two"),
    ("decomp", "decompose_three"),
    # parse_instance's round-trip partner; the benchmark writes its
    # instance files with it
    ("serialize", "instance_to_json"),
    # the benchmark's certify workload plants solvable transfer equations
    # as g = h o T - h (perfbench/workloads.py:329)
    ("core", "RationalFunction.compose"),
    # the benchmark record names the scan implementation through it
    ("kernels", "implementation_name"),
    # the public coercion of one value; the library coerces whole lists
    # through _as_fractions, which imports fractions once per list
    ("core", "as_fraction"),
    # PEP 562 hooks of the package: called by the import system
    ("__init__", "__getattr__"),
    ("__init__", "__dir__"),
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _read_names(node, enclosing: frozenset, read: set) -> None:
    """Add to read every name node reads as a Name or an Attribute, except
    inside a definition of that name (a recursive call reads nothing)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        enclosing = enclosing | {node.name}
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    if name is not None and name not in enclosing:
        read.add((name, isinstance(node, ast.Attribute)))
    for child in ast.iter_child_nodes(node):
        _read_names(child, enclosing, read)


def _unread_definitions(trees):
    """(module, name) of each top-level function or class that no module
    reads, as a Name or an Attribute, and (module, "Class.method") of each
    method, property included, that is not a dunder and that no module
    reads as an Attribute; a read inside the definition itself does not
    count."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    read: set = set()
    for module, tree in trees.items():
        _read_names(tree, frozenset(), read)
        for top in tree.body:
            if isinstance(top, (*functions, ast.ClassDef)):
                defined.append((module, top.name, top.name, False))
            if isinstance(top, ast.ClassDef):
                defined += [(module, f"{top.name}.{node.name}", node.name,
                             True) for node in top.body
                            if isinstance(node, functions)
                            and not _is_dunder(node.name)]
    names = {name for name, _ in read}
    return [(module, label) for module, label, name, method in defined
            if ((name, True) not in read if method else name not in names)]


def _dead_definitions(trees):
    return [site for site in _unread_definitions(trees)
            if site not in DEAD_CODE_ALLOWLIST]


def _package_sources():
    return {path.stem: path.read_text()
            for path in sorted((ROOT / "src" / "perdec").glob("*.py"))}


def test_every_definition_is_exported_read_or_allowed():
    trees = {module: ast.parse(text)
             for module, text in _package_sources().items()}
    assert _dead_definitions(trees) == []
    # every allowed name still exists and still needs its entry
    for module, name in DEAD_CODE_ALLOWLIST:
        assert (module, name) in _unread_definitions(trees)


def test_an_export_that_nothing_else_reads_is_dead():
    # a function listed in the export table, and so in __all__, but read
    # nowhere in the package is reported, as is the same function unlisted
    sources = _package_sources()
    sources["orbits"] += "\n\ndef joint_classes(system, subset):\n" \
                         "    return None\n"
    unlisted = {module: ast.parse(text) for module, text in sources.items()}
    sources["__init__"] = sources["__init__"].replace(
        "_EXPORTS = {\n", '_EXPORTS = {\n    "joint_classes": "orbits",\n')
    listed = {module: ast.parse(text) for module, text in sources.items()}
    assert "joint_classes" in ast.unparse(listed["__init__"])
    for trees in (unlisted, listed):
        assert _dead_definitions(trees) == [("orbits", "joint_classes")]


def test_a_method_that_nothing_reads_as_an_attribute_is_dead():
    # a method is read only as an attribute: the top-level function power,
    # read by name, does not keep a method of that name alive; a dunder is
    # the interpreter's to call
    sources = _package_sources()
    sources["orbits"] = sources["orbits"].replace(
        "    @property\n    def n_classes",
        "    def power(self, k):\n        return self\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    @property\n    def n_classes")
    trees = {module: ast.parse(text) for module, text in sources.items()}
    assert "def power(self, k)" in ast.unparse(trees["orbits"])
    assert _dead_definitions(trees) == [("orbits", "Partition.power")]
