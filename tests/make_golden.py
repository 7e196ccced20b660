"""Write the value pins that ``tests/test_golden.py`` holds every change to.

The pins are every ``dpl check`` row (all ten suites, default times) and
every ``dpl observe --precision 17`` row of the README config built at n=32.
``dpl build`` is deterministic, so the golden file keeps the rows and not
the state.  A change that moves a value on purpose regenerates the file:

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

GOLDEN = Path(__file__).parent / "golden" / "readme_n32.json"

README_N32 = {
    "grid": {"n": 32, "dk": 1.0},
    "modes": [
        {"kind": "gaussian", "k0": [0, 0, 8], "sigma_k": 1.5, "helicity": 1},
        {"kind": "vortex", "k0": [0, 0, 7], "sigma_k": 1.5, "polarization": [1, 0, 0],
         "vortex_charge": 2, "ring_radius": 7.0, "amplitude": [0.5, 0.0]},
    ],
}


def _cell(text: str) -> float | None:
    return float(text) if text else None


def golden_rows(workdir) -> dict:
    """The check and observe rows of the README n=32 state, built in workdir."""
    from darwinlab.cli import main

    work = Path(workdir)
    config, state = work / "config.json", work / "state.dpst"
    report, observed = work / "check.json", work / "observe.csv"
    config.write_text(json.dumps(README_N32))
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


def main() -> None:
    import numpy as np

    with tempfile.TemporaryDirectory() as work:
        rows = golden_rows(work)
    golden = {
        "header": {
            "config": README_N32,
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
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + text + "\n}\n")
    print(f"wrote {GOLDEN}: {len(rows['check'])} check rows, {len(rows['observe'])} observe rows",
          file=sys.stderr)


if __name__ == "__main__":
    main()
