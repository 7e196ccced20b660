import json
import struct

import numpy as np
import pytest

from darwinlab import ModeSpec, kgrid, stateio, synthesize
from darwinlab.state import transversality_residual
from darwinlab.stateio import MAGIC, StateFileError, read_state, write_state


@pytest.fixture()
def state_file(tmp_path, helicity_state):
    path = tmp_path / "state.dpst"
    write_state(path, helicity_state, metadata={"note": "fixture"})
    return path


class TestRoundtrip:
    def test_bit_for_bit(self, state_file, helicity_state):
        state, header = read_state(state_file)
        assert np.array_equal(state.psi.values, helicity_state.psi.values)
        assert state.norm == helicity_state.norm
        assert state.rqc_residual == helicity_state.rqc_residual
        assert state.time == helicity_state.time
        assert state.grid == helicity_state.grid
        assert header["metadata"] == {"note": "fixture"}
        assert header["units"]["label"] == "natural"

    def test_evolved_time_stamp(self, tmp_path, helicity_state):
        from darwinlab.dynamics import evolve

        st = evolve(helicity_state, 1.5).state_t
        path = tmp_path / "evolved.dpst"
        write_state(path, st)
        back, _ = read_state(path)
        assert back.time == pytest.approx(1.5)
        assert np.array_equal(back.psi.values, st.psi.values)


class TestIntegrity:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dpst"
        path.write_bytes(b"NOPE!" + bytes(64))
        with pytest.raises(StateFileError, match="magic"):
            read_state(path)

    def test_corrupted_payload(self, state_file):
        raw = bytearray(state_file.read_bytes())
        raw[-5] ^= 0xFF
        state_file.write_bytes(bytes(raw))
        with pytest.raises(StateFileError, match="checksum"):
            read_state(state_file)

    def test_truncated(self, state_file):
        raw = state_file.read_bytes()
        state_file.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StateFileError, match="payload length"):
            read_state(state_file)

    def test_header_only(self, tmp_path):
        path = tmp_path / "short.dpst"
        path.write_bytes(MAGIC + b"\xff\xff\xff\x7f")
        with pytest.raises(StateFileError, match="truncated"):
            read_state(path)


class TestLayout:
    def test_x_fastest_bin_order(self, tmp_path, g16):
        # mark one bin; its payload offset must follow x-fastest ordering
        st = synthesize([ModeSpec(kind="plane", k0=(3, 2, 1), helicity=1)], g16)
        path = tmp_path / "order.dpst"
        write_state(path, st)
        raw = path.read_bytes()
        import struct

        (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
        payload = raw[len(MAGIC) + 4 + hlen :]
        flat = np.frombuffer(payload, dtype="<c16").reshape(-1, 6)
        n = g16.n
        ix, iy, iz = 3, 2, 1
        linear = (iz * n + iy) * n + ix
        assert np.abs(flat[linear]).max() > 0.0
        assert np.count_nonzero(np.abs(flat).sum(axis=1)) == 1


def rewrite_header(path, **changes):
    """Set (or, with value None, drop) header keys of a state file in place.

    The CRC covers only the payload, so the file stays valid."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(raw[start : start + hlen])
    for key, value in changes.items():
        if value is None:
            header.pop(key)
        else:
            header[key] = value
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[start + hlen :])


class TestHeaderValues:
    def test_present_values_are_not_recomputed(self, state_file, monkeypatch):
        def recomputed(*args):
            raise AssertionError("read_state recomputed a value the header carries")

        monkeypatch.setattr(stateio, "transversality_residual", recomputed)
        monkeypatch.setattr(kgrid, "norm_squared", recomputed)
        read_state(state_file)

    def test_missing_values_are_computed(self, state_file, helicity_state):
        rewrite_header(state_file, norm=None, rqc_residual=None)
        state, _ = read_state(state_file)
        assert state.norm == kgrid.norm_squared(helicity_state.psi)
        assert state.rqc_residual == transversality_residual(helicity_state.psi)
