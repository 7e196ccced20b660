"""The README's "Library sketch" runs as written, and the README's lists of
suites and rows name what the code has: its rows as `suites.ROWS` declares
them, and the FFT counts it quotes are those that tests/test_suites.py pins."""

import contextlib
import fnmatch
import io
import re
from pathlib import Path

from darwinlab import suites
from test_suites import CHECK_GROUP_CALLS, FFT_PINS, OBSERVE_WORKER_PINS

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
    patterns = _quoted(r"is info only\s+\((.*?)\)")
    info_only = [name for name, row in suites.ROWS.items() if row.key is None]
    for pattern in patterns:
        assert fnmatch.filter(info_only, pattern), f"{pattern} names no info-only row"
    unnamed = [name for name in info_only
               if not any(fnmatch.fnmatchcase(name, p) for p in patterns)]
    assert unnamed == []


def test_key_and_precondition_sentences_match_rows():
    shared = {name: row.key for name, row in suites.ROWS.items() if row.key not in (None, name)}
    keys = set(shared.values())
    assert _quoted(r"The key is the row\s+name, except that (.*?);") == [*shared, *keys]
    needs = {name: list(row.preconditions) for name, row in suites.ROWS.items() if row.preconditions}
    (named, *rest) = _quoted(r"One row has any:\s+(.*?)\.\n")
    assert {named: rest} == needs


def test_acceptance_list_names_declared_rows():
    names = _quoted(r"per criterion, each named\s+here (.*?)\.\n\n")
    rows = [n for n in names if n not in ("dpl check", "suites.ROWS", *suites.SUITE_NAMES)]
    assert rows and set(rows) <= set(suites.ROWS)


def _numbers(pattern: str) -> tuple[int, ...]:
    """The integers that pattern's groups match in the one README passage."""
    (match,) = re.finditer(pattern, _text(), flags=re.S)
    return tuple(int(n) for n in match.groups())


def test_quoted_fft_counts_are_the_pinned_ones():
    assert _numbers(r"full check makes (\d+) FFT calls over (\d+) components: "
                    r"(\d+) calls and (\d+)\)") == (*FFT_PINS["check"], *CHECK_GROUP_CALLS)
    assert _numbers(r"\((\d+) of the\s+command's (\d+) FFT calls, (\d+) of its (\d+) "
                    r"transformed\s+components\)") == (
        OBSERVE_WORKER_PINS[0], FFT_PINS["observe"][0],
        OBSERVE_WORKER_PINS[1], FFT_PINS["observe"][1])
    assert _numbers(r"transform is made once \((\d+) FFT calls, as with the worker\)") == (
        FFT_PINS["observe"][0],)
    assert _numbers(r"\(`dynamics\.maxwell_curl_residual`, (\d+) FFT calls:") == (
        FFT_PINS["evolve"][0],)
