"""The package surface: the names `dvs` exports, the README's Python quick
start, command lines and command-line flags, and the module attributes the
benchmark's tracer wraps."""

import argparse
import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import numpy as np

import dvs
from dvs import cli
from dvs.dual import factorize_g
from dvs.model import lift
from test_cli import run_cli

ROOT = Path(__file__).resolve().parent.parent


def test_package_exports_only_quick_start_names():
    assert set(dvs.__all__) == {"__version__", "GenSpec", "generate",
                                "solve"}
    for name in dvs.__all__:
        assert hasattr(dvs, name)


def test_readme_python_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Python quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        namespace.pop("report", None)
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["report"].status == "CertifiedGlobal"
    assert "CertifiedGlobal" in capsys.readouterr().out


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_module_attributes_exist():
    # perfbench/tracing.py swaps these attributes for timing wrappers; a
    # name deleted or inlined here would break the traced benchmark.
    tracing = _load_tracing()
    assert tracing.WRAPPED
    for module_name, attr, *_ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_attribute_readers_read_real_results(example1):
    # No workload calls lift or factorize_g, so only here do the tracer's
    # span attributes meet a real BinaryQP and GFactorization: a renamed
    # field would otherwise go unnoticed.
    tracing = _load_tracing()
    q = lift(example1)
    assert tracing._lift_attrs((example1,), q) == {
        "bytes": q.B.nbytes + q.D.nbytes + q.H.nbytes + q.h.nbytes}
    for mu, pd in ((np.ones(q.K), True), (np.zeros(q.K), False)):
        fact = factorize_g(q, mu)
        assert tracing._factorize_attrs((q, mu), fact) == {"pd": pd}


def _readme_flags():
    """(command, flag) for every --flag the README names for a command: a
    flag on a line that runs ``dvs <command>`` belongs to that command, any
    other to the command its section's first example runs.  Flags in a
    section without a ``dvs`` example (``pip install ...``) are skipped."""
    commands = ("solve", "oracle", "gen", "lift", "toy", "check")
    section, in_code = None, False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_code = not in_code
        elif line.startswith("#") and not in_code:
            section = None
        run = re.search(r"\bdvs (\w+)", line)
        cmd = run.group(1) if run and run.group(1) in commands else None
        if in_code and section is None and line.startswith("dvs "):
            section = cmd
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line):
            if cmd or section:
                yield cmd or section, flag


def test_readme_flags_exist_in_the_cli():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    named = set(_readme_flags())
    assert {cmd for cmd, _ in named} == {"solve", "oracle", "gen", "lift",
                                         "toy"}
    for cmd, flag in named:
        options = subparsers.choices[cmd]._option_string_actions
        assert flag in options, f"README names {flag} for dvs {cmd}"


def _readme_commands():
    """[env, argv, stdout] for each ``dvs`` line of the README's ``sh``
    blocks, in order: ``env`` holds the line's ``NAME=value`` prefixes and
    ``stdout`` the ``# stdout:`` comment beneath the line, or None.  The
    ``pip`` and ``pytest`` lines are skipped."""
    commands = []
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            if line.startswith("# stdout:"):
                commands[-1][2] = line[len("# stdout:"):]
                continue
            words = shlex.split(line, comments=True)
            env = {}
            while words and re.fullmatch(r"[A-Z_]+=.*", words[0]):
                name, value = words.pop(0).split("=", 1)
                env[name] = value
            assert words[0] in ("dvs", "pip", "pytest"), line
            if words[0] == "dvs":
                commands.append([env, words[1:], None])
    return commands


def _stdout_pattern(comment):
    """A ``# stdout:`` comment as a regular expression: ``...`` is any
    text, and a parenthesized remark at the end is dropped."""
    text = re.sub(r"\(.*\)$", "", comment.strip()).strip()
    return ".*".join(map(re.escape, text.split("...")))


def test_readme_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert {argv[0] for _, argv, _ in commands} == {
        "gen", "solve", "oracle", "lift", "toy", "check"}
    for env, argv, stdout in commands:
        cp = run_cli(*argv, env=env)
        assert cp.returncode == 0, (argv, cp.stderr)
        if stdout is not None:
            assert re.fullmatch(_stdout_pattern(stdout), cp.stdout.strip(),
                                re.S), (argv, cp.stdout)
