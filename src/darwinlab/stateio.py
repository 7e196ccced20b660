"""Binary state-file format.

Layout: 5-byte magic ``DPST1``, little-endian uint32 header length, UTF-8
JSON header, then the payload: one little-endian complex128 (interleaved
re, im float64) per component, six components per bin, bins ordered with the
x index fastest.  Payload element ((z n + y) n + x) 6 + c is component c of
bin (x, y, z), i.e. ``psi.values[c, x, y, z]``: the payload is the Fortran
order of the component-first (6, n, n, n) array, so reading and writing
transpose only here, at the file boundary.  The header carries only what the
payload cannot give back: the format version (:data:`FORMAT_VERSION`; a file
of any other version, or of none, is rejected), the grid, time stamp, unit
record, a CRC32 of the payload (so corruption is detected before any physics
runs) and free metadata.  The code computes in natural units only, so the
unit record is always :data:`NATURAL_UNITS` and any other record is
rejected.  Physics values such as the norm or the constraint residual are
derived from the payload when needed; older files that still carry them, or
the scale factor of their synthesis, in the header load unchanged and those
keys are ignored.  Writes go through a temp file and rename.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
import tempfile
import zlib

import numpy as np

from . import kgrid
from .kgrid import KGrid
from .state import PhotonState

MAGIC = b"DPST1"
FORMAT_VERSION = 1
NATURAL_UNITS = {"hbar": 1.0, "c": 1.0, "eps0": 1.0, "label": "natural"}


class StateFileError(Exception):
    """Raised for malformed, truncated or corrupted state files."""


def _payload_bytes(state: PhotonState) -> bytes:
    # (c, x, y, z) in Fortran order is component fastest, then x, y, z
    return state.psi.values.astype("<c16", copy=False).tobytes(order="F")


def _header_int(value, key: str, path) -> int:
    # equality alone lets True and 16.0 through: True == 1, 16.0 == 16
    if isinstance(value, bool) or not isinstance(value, int):
        raise StateFileError(f"{path}: header {key} {value!r} is not an integer")
    return value


def _header_real(value, key: str, path) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise StateFileError(f"{path}: header {key} {value!r} is not a number")
    return float(value)


def _check_units(units, path) -> None:
    """Refuse a unit record other than natural units: exactly the keys of
    NATURAL_UNITS, the label "natural", and hbar, c and eps0 real numbers
    equal to 1 but no booleans, which equality alone lets through (True == 1.0)."""
    def is_one(value) -> bool:
        return not isinstance(value, bool) and isinstance(value, numbers.Real) and value == 1.0

    if not (isinstance(units, dict) and units.keys() == NATURAL_UNITS.keys()
            and units["label"] == NATURAL_UNITS["label"]
            and all(is_one(units[key]) for key in ("hbar", "c", "eps0"))):
        raise StateFileError(f"{path}: header units {units!r} are not natural units")


def write_atomic(path, *chunks: bytes) -> None:
    """Write the chunks, in order, to path through a temp file in the same
    directory and a rename; the chunks are never joined in memory."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_state(path, state: PhotonState, metadata: dict | None = None) -> None:
    payload = _payload_bytes(state)
    header = {
        "format": FORMAT_VERSION,
        "grid": {"n": state.grid.n, "dk": state.grid.dk},
        "time": state.time,
        "units": NATURAL_UNITS,
        "payload_crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        "metadata": metadata or {},
    }
    blob = json.dumps(header).encode("utf-8")
    write_atomic(path, MAGIC + struct.pack("<I", len(blob)) + blob, payload)


def read_state(path) -> tuple[PhotonState, dict]:
    """Read a state file; returns the state and its full header.

    Raises StateFileError for every malformed, truncated or corrupted file,
    for a format other than FORMAT_VERSION, for invalid or non-finite header
    values (the format, grid size and checksum must be integers, the grid
    spacing and time numbers, and none of them a boolean), for a time t
    with k_max |t| not finite (KGrid.time_in_range), for a unit record
    other than natural units and for a payload whose total probability is
    not finite (finite amplitudes can overflow it).  The payload is read
    through a view of the file's bytes, never sliced out as a copy.
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise StateFileError(f"{path}: not a state file (bad magic)")
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    hstart = len(MAGIC) + 4
    if len(raw) < hstart + hlen:
        raise StateFileError(f"{path}: truncated header")
    try:
        header = json.loads(bytes(raw[hstart : hstart + hlen]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StateFileError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise StateFileError(f"{path}: header is not a JSON object")

    fmt = header.get("format")
    if isinstance(fmt, bool) or not isinstance(fmt, int) or fmt != FORMAT_VERSION:
        raise StateFileError(f"{path}: format {fmt!r} is not {FORMAT_VERSION}")
    payload = raw[hstart + hlen :]
    try:
        grid = KGrid(n=_header_int(header["grid"]["n"], "grid.n", path),
                     dk=_header_real(header["grid"]["dk"], "grid.dk", path))
        expect = grid.n**3 * 6 * 16
        if len(payload) != expect:
            raise StateFileError(
                f"{path}: payload length {len(payload)} != expected {expect} for n={grid.n}"
            )
        crc = _header_int(header["payload_crc32"], "payload_crc32", path)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise StateFileError(f"{path}: payload checksum mismatch")
        _check_units(header["units"], path)
        time = _header_real(header.get("time", 0.0), "time", path)
        if not grid.time_in_range(time):
            raise StateFileError(f"{path}: time {time} out of range: k_max |t| is not finite "
                                 f"on this grid (k_max={grid.k_max:.6g})")
        values = np.frombuffer(payload, dtype="<c16").reshape((6,) + grid.shape, order="F")
        values = values.copy()  # C order, and no view of the file's bytes
        state = PhotonState(kgrid.momentum_field(values, grid), time)
    except KeyError as exc:
        raise StateFileError(f"{path}: header lacks {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFileError(f"{path}: invalid header or payload ({exc})") from exc
    del raw, payload  # the file's bytes go before the norm's temporaries come
    with np.errstate(over="ignore", invalid="ignore"):
        norm = state.norm
    if not math.isfinite(norm):
        raise StateFileError(f"{path}: payload norm {norm} is not finite")
    return state, header
