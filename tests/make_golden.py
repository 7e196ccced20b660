"""Write the value pins that ``tests/test_golden.py`` holds every change to.

The pins are every ``dpl check`` row (all ten suites, default times) and
every ``dpl observe --precision 17`` row of three built states, one golden
file each (``PINS``): the README config at n=32, and at n=16 one state of
each benchmark workload shape, a README-shaped two-mode state about a tilted
axis and a five-mode state with one mode of every kind.  At n=16 some rows
fail (the kernel check needs n >= 32); they are pinned as failing.
``dpl build`` is deterministic, so a golden file keeps the rows and not the
state.  A change that moves a value on purpose regenerates the files:

    PYTHONPATH=src python tests/make_golden.py

and lists the moved rows in CHANGES.md.  A new check row is added here the
same way.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

README_N32 = {
    "grid": {"n": 32, "dk": 1.0},
    "modes": [
        {"kind": "gaussian", "k0": [0, 0, 8], "sigma_k": 1.5, "helicity": 1},
        {"kind": "vortex", "k0": [0, 0, 7], "sigma_k": 1.5, "polarization": [1, 0, 0],
         "vortex_charge": 2, "ring_radius": 7.0, "amplitude": [0.5, 0.0]},
    ],
}

# README-shaped: a circular gaussian and a charge-1 annular vortex about one
# tilted axis w = (2, -1, 2)/3, scaled into the n=16 band
README_TILTED_N16 = {
    "grid": {"n": 16, "dk": 1.0},
    "modes": [
        {"kind": "gaussian", "k0": [2.333333, -1.166667, 2.333333], "sigma_k": 0.8,
         "helicity": -1},
        {"kind": "vortex", "k0": [2.0, -1.0, 2.0], "sigma_k": 0.8,
         "polarization": [0.707107, 0.0, -0.707107], "vortex_charge": 1, "ring_radius": 2.5,
         "amplitude": [0.5, 0.1]},
    ],
}

# one mode of every kind: circular gaussian and annular vortex about +z,
# compact vortex about +x, linear gaussian about +y, plane wave in the
# negative octant
FIVE_MODE_N16 = {
    "grid": {"n": 16, "dk": 1.0},
    "modes": [
        {"kind": "gaussian", "k0": [0.0, 0.0, 4.0], "sigma_k": 0.8, "helicity": 1},
        {"kind": "vortex", "k0": [0.0, 0.0, 3.5], "sigma_k": 0.8, "polarization": [0.6, 0.8, 0.0],
         "vortex_charge": -1, "ring_radius": 3.0, "amplitude": [0.45, 0.1]},
        {"kind": "vortex", "k0": [3.0, 0.0, 0.0], "sigma_k": 1.0, "helicity": -1,
         "vortex_charge": 1, "amplitude": [0.15, 0.0]},
        {"kind": "gaussian", "k0": [0.0, 3.0, 0.0], "sigma_k": 0.8, "helicity": None,
         "polarization": [0.6, 0.0, 0.8], "amplitude": [0.6, -0.2]},
        {"kind": "plane", "k0": [-3, -2, -2], "helicity": 1, "amplitude": [0.3, 0.0]},
    ],
}

PINS = {
    "readme_n32": README_N32,
    "readme_tilted_n16": README_TILTED_N16,
    "five_mode_n16": FIVE_MODE_N16,
}


def golden_path(pin: str) -> Path:
    return GOLDEN_DIR / f"{pin}.json"


def _cell(text: str) -> float | None:
    return float(text) if text else None


def golden_rows(pin: str, workdir) -> dict:
    """The check and observe rows of the state ``PINS[pin]``, built in workdir."""
    from darwinlab.cli import main

    work = Path(workdir)
    config, state = work / "config.json", work / "state.dpst"
    report, observed = work / "check.json", work / "observe.csv"
    config.write_text(json.dumps(PINS[pin]))
    if main(["build", "--config", str(config), "--out", str(state)]) != 0:
        raise RuntimeError("dpl build failed")
    with contextlib.redirect_stdout(io.StringIO()):  # the report is read from --out
        main(["check", str(state), "--out", str(report)])
    if main(["observe", str(state), "--precision", "17", "--out", str(observed)]) != 0:
        raise RuntimeError("dpl observe failed")
    check = [[s["suite"], c["name"], c["value"], c["tolerance"], c["passed"]]
             for s in json.loads(report.read_text())["suites"] for c in s["checks"]]
    with observed.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    observe = [[name, *map(_cell, cells)] for name, *cells in rows]
    return {"check": check, "observe": observe}


def write_pin(pin: str) -> None:
    import numpy as np

    with tempfile.TemporaryDirectory() as work:
        rows = golden_rows(pin, work)
    golden = {
        "header": {
            "config": PINS[pin],
            "check": "dpl check on all ten suites: [suite, name, value, tolerance, passed]",
            "observe": "dpl observe --precision 17: [name, x, y, z], null where blank",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "platform": f"{platform.system()} {platform.machine()}",
            "caveat": "values computed with another numpy, BLAS or FMA use may differ "
                      "in the last digits; tests/test_golden.py allows 1e-13 relative",
        },
        **rows,
    }
    # one row per line, so a moved value shows as one changed line
    sections = [f'"{key}": [\n' + ",\n".join(json.dumps(row) for row in rows) + "\n]"
                for key, rows in golden.items() if key != "header"]
    text = ",\n".join([f'"header": {json.dumps(golden["header"], indent=1)}', *sections])
    path = golden_path(pin)
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + text + "\n}\n")
    print(f"wrote {path}: {len(rows['check'])} check rows, {len(rows['observe'])} observe rows",
          file=sys.stderr)


def main() -> None:
    for pin in PINS:
        write_pin(pin)


if __name__ == "__main__":
    main()
