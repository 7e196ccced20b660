"""Checks on the output of every timed `dpl` invocation.

Tolerances come from ``darwinlab.suites.DEFAULT_TOLERANCES`` (read once per
run from the program under test), never restated here.  Each function returns
``None`` when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import os
import re
import struct

SPIN_ROWS = 7
PROBABILITY_ROUTES = 3
DENSITY_FILES = 7


def build_output(stdout: str, tolerances) -> str | None:
    residual = _reported(stdout, "rqc_residual")
    if residual is None or not residual <= tolerances["transversality"]:
        return f"build: rqc_residual={residual} against tolerance {tolerances['transversality']}"
    return None


def check_output(stdout: str, expected_suites) -> str | None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"check: report is not JSON ({exc})"
    if report.get("passed") is not True:
        failed = [c["name"] for s in report.get("suites", []) for c in s["checks"] if not c["passed"]]
        return f"check: verdict is not passed (failed checks: {failed})"
    present = [s["suite"] for s in report["suites"]]
    if sorted(present) != sorted(expected_suites):
        return f"check: suites {present} != requested {list(expected_suites)}"
    return None


def observe_output(stdout: str, tolerances) -> str | None:
    rows = {}
    for line in stdout.strip().splitlines()[1:]:
        name, *values = line.split(",")
        rows[name] = values
    spin = [[float(v) for v in vals] for name, vals in rows.items() if name.startswith("spin_")]
    if len(spin) != SPIN_ROWS:
        return f"observe: {len(spin)} spin rows, expected {SPIN_ROWS}"
    spin_gap = max(abs(a[i] - b[i]) for a in spin for b in spin for i in range(3))
    if not spin_gap <= tolerances["spin_equalities"]:
        return f"observe: spin rows differ by {spin_gap:.3e}"
    probs = [float(v) for v in rows.get("probability", [])]
    if len(probs) != PROBABILITY_ROUTES:
        return f"observe: {len(probs)} probability values, expected {PROBABILITY_ROUTES}"
    prob_gap = max(probs) - min(probs)
    if not prob_gap <= tolerances["probability_equality"]:
        return f"observe: probability routes differ by {prob_gap:.3e}"
    return None


def _reported(stdout: str, key: str) -> float | None:
    m = re.search(rf"\b{key}=(\S+)", stdout)
    return float(m.group(1)) if m else None


def read_header(path: str) -> dict:
    """The JSON header of a state file (magic, uint32 length, JSON)."""
    with open(path, "rb") as fh:
        head = fh.read(9)
        (length,) = struct.unpack_from("<I", head, 5)
        return json.loads(fh.read(length).decode("utf-8"))


def evolve_output(stdout: str, tolerances, time: float, path: str) -> str | None:
    for key, tol in (("norm_drift", "norm_drift"), ("maxwell_residual", "maxwell_residual")):
        value = _reported(stdout, key)
        if value is None or not value <= tolerances[tol]:
            return f"evolve: {key}={value} against tolerance {tolerances[tol]}"
    try:
        header_time = read_header(path)["time"]
    except (OSError, ValueError, KeyError, struct.error) as exc:
        return f"evolve: cannot read the written header ({exc})"
    if header_time != time:
        return f"evolve: header time {header_time!r} != requested {time!r}"
    return None


def densities_output(directory: str, n: int) -> str | None:
    try:
        files = sorted(os.listdir(directory))
    except OSError as exc:
        return f"densities: {exc}"
    if len(files) != DENSITY_FILES:
        return f"densities: {len(files)} files, expected {DENSITY_FILES}"
    for name in files:
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != n * n + 1:
            return f"densities: {name} has {lines} lines, expected {n * n + 1}"
    return None


def verify(op, returncode: int, stdout: str, program: dict) -> str | None:
    """Reason why one invocation failed, or None.  ``program`` holds the
    tolerances and suite names read from the program under test."""
    if returncode != 0:
        return f"{op.command}: exit code {returncode}"
    tolerances = program["tolerances"]
    if op.command == "build":
        return build_output(stdout, tolerances)
    if op.command == "check":
        return check_output(stdout, program["suites"])
    if op.command == "observe":
        return observe_output(stdout, tolerances)
    if op.command == "evolve":
        return evolve_output(stdout, tolerances, op.expect["time"], op.expect["file"])
    if op.command == "densities":
        return densities_output(op.expect["dir"], op.expect["n"])
    return None
