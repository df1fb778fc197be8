"""README's examples run as shown: each CLI session of its sh blocks, in
process, with the exit code and the stdout bytes the README prints, and
the library quick start with exec."""

import contextlib
import io
import re
from pathlib import Path

from perdec.cli import run_command

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"```(\w*)\n(.*?)```", re.S)
# `perdec ARGS`, its stdout saved to a file and printed by cat, or its
# exit status echoed after it
_PERDEC = re.compile(r'perdec (?P<args>[^>;&]+?)'
                     r'(?: > (?P<saved>\S+) && cat (?P=saved))?'
                     r'(?P<echo>; echo "exit \$\?")?')


def _blocks(language: str) -> list:
    text = README.read_text(encoding="utf-8")
    return [body for kind, body in _BLOCK.findall(text) if kind == language]


def _session() -> list:
    """[command, shown output] per "$ " line of README's sh blocks, in
    order; the output is every line up to the next blank line."""
    steps = []
    for body in _blocks("sh"):
        step = None
        for line in body.splitlines():
            if line.startswith("$ "):
                step = [line[2:], ""]
                steps.append(step)
            elif not line:
                step = None
            elif step is not None:
                step[1] += line + "\n"
    return steps


def _perdec(args: str) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(args.split())
    return code, out.getvalue()


def test_the_readme_shows_both_cli_examples():
    commands = [command for command, _ in _session()]
    assert commands == [
        "cat inst.json",
        "perdec decompose inst.json > result.json && cat result.json",
        "perdec decompose inst.json --verify result.json",
        "cat zwin.json",
        'perdec star-check zwin.json; echo "exit $?"']


def test_the_readme_cli_examples_print_what_the_readme_shows(tmp_path,
                                                             monkeypatch):
    # a `cat` of a file no command wrote shows an input, which is written;
    # a command shown with no exit status exits 0, as `&&` does
    monkeypatch.chdir(tmp_path)
    for command, shown in _session():
        if command.startswith("cat "):
            path = Path(command[4:])
            if not path.exists():
                path.write_text(shown)
            assert path.read_text() == shown, command
            continue
        match = _PERDEC.fullmatch(command)
        assert match, command
        code, out = _perdec(match["args"])
        if match["saved"]:
            Path(match["saved"]).write_text(out)
        if match["echo"]:
            out += f"exit {code}\n"
        else:
            assert code == 0, command
        assert out == shown, command


def test_the_readme_library_quick_start_runs():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3 and lines[2].startswith("Decomposition(")
