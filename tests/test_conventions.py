"""The package decides its arithmetic conventions in `weylcore` alone: one
root-of-unity table, one pole threshold, one polynomial product."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hofchain"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_conventions_stay_in_one_place(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("omega_pows", "polynomial"), node.lineno
        elif isinstance(node, ast.Import):
            assert not any("polynomial" in a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert "polynomial" not in (node.module or "")
            assert not any(a.name == "polynomial" for a in node.names)
        elif isinstance(node, ast.FunctionDef):
            assert node.name != "omega_pows"
        elif isinstance(node, ast.Constant) and node.value == 1e-13:
            # the pole threshold is weylcore.POLE_TOL
            assert path.name == "weylcore.py", node.lineno
