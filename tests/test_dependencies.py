"""The package imports only what `pyproject.toml` declares.

numpy is the one runtime dependency. The band split once pulled in all of
`scipy.ndimage` for a box filter, most of the package's import time; these
tests fail if scipy, or any other undeclared third-party module, comes back.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bandprompt"


def test_importing_the_package_and_its_cli_loads_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = ("import sys, bandprompt, bandprompt.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
             "print(bandprompt.__file__)")
    run = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded, origin = run.stdout.splitlines()
    assert loaded == "[]"
    assert Path(origin).resolve().parent == PACKAGE


def imported_roots(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0].lower()
                for dep in project["dependencies"]}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    third_party = set().union(*(imported_roots(p) for p in sources))
    third_party -= set(sys.stdlib_module_names) | {"bandprompt"}
    assert "numpy" in third_party  # the scan sees the package's imports
    assert third_party <= declared, sorted(third_party - declared)
