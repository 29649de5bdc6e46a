"""The package surface: the names `dvs` exports, the README's Python quick
start, and the module attributes the benchmark's tracer wraps."""

import importlib
import importlib.util
import re
from pathlib import Path

import dvs

ROOT = Path(__file__).resolve().parent.parent


def test_package_exports_only_quick_start_names():
    assert set(dvs.__all__) == {"__version__", "GenSpec", "generate",
                                "SolverConfig", "solve"}
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


def test_traced_module_attributes_exist():
    # perfbench/tracing.py swaps these attributes for timing wrappers; a
    # name deleted or inlined here would break the traced benchmark.
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module_name, attr, *_ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
