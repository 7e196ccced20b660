"""Value pins: every `dpl check` and `dpl observe` row of the README state at
n=32 against tests/golden/readme_n32.json (written by tests/make_golden.py).

Verdicts and tolerances match exactly.  A checked value may move by
max(1e-13 |v|, 1e-3 tolerance): the tolerance term covers rounding rows such
as dirac_residual (about 1e-15), whose digits carry no relative meaning.  An
info-only row or an observe value may move by 1e-13 |v|, and at least by
1e-13 (1e-3 of the 1e-10 equality tolerances).
"""

import json

import pytest

from make_golden import GOLDEN, golden_rows

RELATIVE = 1e-13
FLOOR = 1e-13
TOLERANCE_SHARE = 1e-3


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    return golden_rows(tmp_path_factory.mktemp("golden"))


def allowed(value, tolerance):
    if tolerance is None:
        return max(RELATIVE * abs(value), FLOOR)
    return max(RELATIVE * abs(value), TOLERANCE_SHARE * tolerance)


def test_check_rows_match_the_pins(pinned, rows):
    assert [row[:2] for row in rows["check"]] == [row[:2] for row in pinned["check"]]
    moved = []
    for (suite, name, value, tolerance, passed), (_, _, pin, pin_tol, pin_passed) in zip(
            rows["check"], pinned["check"]):
        assert (tolerance, passed) == (pin_tol, pin_passed), f"{suite}/{name}"
        if value is None or pin is None:
            ok = value is pin
        else:
            ok = abs(value - pin) <= allowed(pin, pin_tol)
        if not ok:
            moved.append(f"{suite}/{name}: {value!r} (pinned {pin!r})")
    assert moved == []


def test_observe_rows_match_the_pins(pinned, rows):
    assert [row[0] for row in rows["observe"]] == [row[0] for row in pinned["observe"]]
    moved = []
    for (name, *values), (_, *pins) in zip(rows["observe"], pinned["observe"]):
        for axis, value, pin in zip("xyz", values, pins):
            if (value is None) != (pin is None) or (
                    pin is not None and abs(value - pin) > allowed(pin, None)):
                moved.append(f"{name}.{axis}: {value!r} (pinned {pin!r})")
    assert moved == []

