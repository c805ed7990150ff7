"""The package's public surface: conetri.__all__, what `from conetri import *`
binds and README's list of public names are one set, and README's Library
example runs as written against it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import conetri

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_all_matches_star_import_and_readme():
    first_line = library_section().strip().splitlines()[0]
    documented = re.findall(r"`([A-Za-z_]\w*)`", first_line)
    assert len(documented) == len(set(documented)) == 16
    namespace = {}
    exec("from conetri import *", namespace)
    star = set(namespace) - {"__builtins__"}
    assert len(conetri.__all__) == len(set(conetri.__all__))
    assert set(conetri.__all__) == star == set(documented)


def test_readme_library_example_runs():
    example = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "conetri"
        for alias in node.names
    }
    assert imported and imported <= set(conetri.__all__)
    src = Path(conetri.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", example],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
