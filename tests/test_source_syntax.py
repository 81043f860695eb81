"""Every Python file parses as Python 3.10, the oldest version pyproject.toml
accepts, so newer syntax is caught on any interpreter that runs the suite."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)
SOURCES = sorted(p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py"))


def _parse(text: str, name: str = "<snippet>") -> None:
    ast.parse(text, filename=name, feature_version=OLDEST)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_the_oldest_python(path):
    _parse(path.read_text(encoding="utf-8"), str(path))


@pytest.mark.parametrize("snippet", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type Alias = int\n",
    "def f[T](x: T) -> T:\n    return x\n",
], ids=["except_star", "type_statement", "type_parameters"])
def test_newer_syntax_is_refused(snippet):
    with pytest.raises(SyntaxError):
        _parse(snippet)
