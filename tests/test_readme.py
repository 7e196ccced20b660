"""The README's "Library sketch" runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, flags=re.S | re.M)
    assert len(blocks) == 1, "the section holds one python block"
    return blocks[0]


def test_library_sketch_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_sketch(), f"{README}:Library sketch", "exec"), {})
    assert len(out.getvalue().splitlines()) == 3
