"""The README's library example runs as written, and every public name
resolves."""

import contextlib
import io
import re
from pathlib import Path

import unispan

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The Python block of the README section "Library in 20 lines"."""
    section = README.read_text(encoding="utf-8").split("## Library in 20 lines", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert lines[1] == "True"  # the terms sum to x
    residuals = [float(v) for v in lines[-1].split()]
    assert len(residuals) == 3 and max(residuals) <= 1e-9


def test_public_names_resolve():
    assert len(set(unispan.__all__)) == len(unispan.__all__)
    assert all(hasattr(unispan, name) for name in unispan.__all__)
