"""Value pins: every `dpl check` and `dpl observe` row of each state in
make_golden.PINS (the README state at n=32, a tilted README-shaped state and
a five-mode state at n=16) against its file in tests/golden/ (written by
tests/make_golden.py).

Verdicts and tolerances match exactly.  A checked value may move by
max(1e-13 |v|, 1e-3 tolerance): the tolerance term covers rounding rows such
as dirac_residual (about 1e-15), whose digits carry no relative meaning.  An
info-only row or an observe value may move by 1e-13 |v|, and at least by
1e-13 (1e-3 of the 1e-10 equality tolerances).
"""

import json

import pytest

from make_golden import PINS, golden_path, golden_rows

RELATIVE = 1e-13
FLOOR = 1e-13
TOLERANCE_SHARE = 1e-3


@pytest.fixture(scope="module")
def pinned():
    return {pin: json.loads(golden_path(pin).read_text()) for pin in PINS}


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    return {pin: golden_rows(pin, tmp_path_factory.mktemp("golden")) for pin in PINS}


def allowed(value, tolerance):
    if tolerance is None:
        return max(RELATIVE * abs(value), FLOOR)
    return max(RELATIVE * abs(value), TOLERANCE_SHARE * tolerance)


def test_check_rows_match_the_pins(pinned, rows):
    moved = []
    for state in PINS:
        got, want = rows[state]["check"], pinned[state]["check"]
        assert [row[:2] for row in got] == [row[:2] for row in want], state
        for (suite, name, value, tolerance, passed), (_, _, pin, pin_tol, pin_passed) in zip(
                got, want):
            assert (tolerance, passed) == (pin_tol, pin_passed), f"{state}: {suite}/{name}"
            if value is None or pin is None:
                ok = value is pin
            else:
                ok = abs(value - pin) <= allowed(pin, pin_tol)
            if not ok:
                moved.append(f"{state}: {suite}/{name}: {value!r} (pinned {pin!r})")
    assert moved == []


def test_observe_rows_match_the_pins(pinned, rows):
    moved = []
    for state in PINS:
        got, want = rows[state]["observe"], pinned[state]["observe"]
        assert [row[0] for row in got] == [row[0] for row in want], state
        for (name, *values), (_, *pins) in zip(got, want):
            for axis, value, pin in zip("xyz", values, pins):
                if (value is None) != (pin is None) or (
                        pin is not None and abs(value - pin) > allowed(pin, None)):
                    moved.append(f"{state}: {name}.{axis}: {value!r} (pinned {pin!r})")
    assert moved == []

