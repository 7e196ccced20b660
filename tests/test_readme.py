"""The README's "Library sketch" runs as written, and the README's lists of
suites and info-only rows name what the code has."""

import contextlib
import fnmatch
import io
import re
from pathlib import Path

from darwinlab import suites
from darwinlab.kgrid import KGrid
from darwinlab.state import synthesize
from reference import README_MODES

README = Path(__file__).resolve().parent.parent / "README.md"


def _text() -> str:
    return README.read_text(encoding="utf-8")


def _sketch() -> str:
    section = _text().split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, flags=re.S | re.M)
    assert len(blocks) == 1, "the section holds one python block"
    return blocks[0]


def _quoted(pattern: str) -> list[str]:
    """The backquoted names in the one README passage that pattern's group matches."""
    (passage,) = re.findall(pattern, _text(), flags=re.S)
    return re.findall(r"`([^`]+)`", passage)


def test_library_sketch_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_sketch(), f"{README}:Library sketch", "exec"), {})
    assert len(out.getvalue().splitlines()) == 3


def test_suite_names_sentence_lists_the_suites_in_order():
    assert _quoted(r"Suite names:\n(.*?)\.\n") == list(suites.SUITE_NAMES)


def test_two_process_bullets_list_the_groups():
    assert _quoted(r"\n- the memo group, (.*?), shares") == list(suites.MEMO_SUITES)
    assert _quoted(r"\n- the own-transforms group, (.*?), reads") == list(suites.OWN_TRANSFORM_SUITES)


def test_info_only_sentence_names_the_rows_without_tolerance():
    patterns = _quoted(r"is info only\n\((.*?)\)")
    reports = suites.run_suites(suites.SUITE_NAMES, synthesize(README_MODES, KGrid(32, 1.0)))
    info_only = [c.name for r in reports for c in r.checks if c.tolerance is None]
    for pattern in patterns:
        assert fnmatch.filter(info_only, pattern), f"{pattern} names no info-only row"
    unnamed = [name for name in info_only
               if not any(fnmatch.fnmatchcase(name, p) for p in patterns)]
    assert unnamed == []
