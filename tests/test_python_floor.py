import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _declared_floor() -> tuple:
    """(major, minor) of requires-python in pyproject.toml."""
    declared = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                         (ROOT / "pyproject.toml").read_text())
    return int(declared[1]), int(declared[2])


def test_the_ci_matrix_starts_at_the_declared_python_floor():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", workflow)[1]
    versions = [tuple(map(int, v.split("."))) for v in re.findall(r'"([\d.]+)"', matrix)]
    assert versions and versions[0] == min(versions) == _declared_floor(), versions


def test_a_ci_leg_pins_the_declared_numpy_floor_at_the_python_floor():
    """pyproject.toml's numpy>=X.Y is tested: one CI leg installs numpy X.Y.*
    on the declared Python floor, after the install that takes the latest."""
    floor = re.search(r'"numpy\s*>=\s*(\d+\.\d+)"', (ROOT / "pyproject.toml").read_text())[1]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    legs = re.findall(r'- python-version:\s*"(\d+)\.(\d+)"\s*\n\s*numpy:\s*"([^"]+)"', workflow)
    assert [(int(major), int(minor), numpy) for major, minor, numpy in legs] == [
        _declared_floor() + (f"{floor}.*",)], legs
    assert 'pip install "numpy==${{ matrix.numpy }}"' in workflow


def test_every_source_file_parses_at_the_declared_python_floor():
    """Every .py file of src/, tests/ and perfbench/ parses with the grammar
    of the Python that pyproject.toml declares as its floor.

    This checks grammar only (an ``except*`` block, say, is rejected at 3.10).
    It cannot see a library call that needs a later Python, such as tomllib,
    which arrived in 3.11."""
    floor = _declared_floor()
    files = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
