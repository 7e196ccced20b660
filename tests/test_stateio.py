import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darwinlab import kgrid
from darwinlab.state import ModeSpec, PhotonState, synthesize, transversality_residual
from darwinlab.stateio import MAGIC, StateFileError, read_state, write_state
from test_state import longitudinal_state


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

        st = evolve(helicity_state, 1.5)
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

    def test_payload_element_is_component_of_bin(self, tmp_path, rng):
        # element ((z n + y) n + x) 6 + c of the payload is psi.values[c, x, y, z]
        g = kgrid.KGrid(8, 1.0)
        values = rng.normal(size=(6,) + g.shape) + 1j * rng.normal(size=(6,) + g.shape)
        path = tmp_path / "random.dpst"
        write_state(path, PhotonState(kgrid.momentum_field(values, g)))
        _, payload = _split(path.read_bytes())
        flat = np.frombuffer(payload, dtype="<c16")
        n = g.n
        for c in range(6):
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        assert flat[((z * n + y) * n + x) * 6 + c] == values[c, x, y, z]

    def test_write_read_write_is_byte_identical(self, state_file, tmp_path):
        state, header = read_state(state_file)
        again = tmp_path / "again.dpst"
        write_state(again, state, metadata=header["metadata"])
        assert again.read_bytes() == state_file.read_bytes()


def _split(raw: bytes) -> tuple[dict, bytes]:
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    return json.loads(raw[start : start + hlen]), raw[start + hlen :]


def _join(header: dict, payload: bytes) -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<I", len(blob)) + blob + payload


def rewrite_header(path, **changes):
    """Set (or, with value None, drop) header keys of a state file in place.

    The CRC covers only the payload, so the file stays valid."""
    header, payload = _split(path.read_bytes())
    for key, value in changes.items():
        if value is None:
            header.pop(key)
        else:
            header[key] = value
    path.write_bytes(_join(header, payload))


def rewrite_payload(path, payload: bytes):
    """Replace the payload of a state file and update its checksum to match."""
    header, _ = _split(path.read_bytes())
    header["payload_crc32"] = zlib.crc32(payload)
    path.write_bytes(_join(header, payload))


# header numbers of the wrong type that equal or convert to the right
# value: True == 1, int(32.5) == 32, float("0.5") == 0.5
WRONG_TYPED_HEADERS = {
    "format_true": lambda h: {"format": True},
    "format_float": lambda h: {"format": 1.0},
    "crc_string": lambda h: {"payload_crc32": str(h["payload_crc32"])},
    "crc_fraction": lambda h: {"payload_crc32": h["payload_crc32"] + 0.5},
    "grid_n_fraction": lambda h: {"grid": dict(h["grid"], n=h["grid"]["n"] + 0.5)},
    "grid_n_string": lambda h: {"grid": dict(h["grid"], n=str(h["grid"]["n"]))},
    "grid_dk_string": lambda h: {"grid": dict(h["grid"], dk="1.0")},
    "grid_dk_true": lambda h: {"grid": dict(h["grid"], dk=True)},
    "time_true": lambda h: {"time": True},
    "time_string": lambda h: {"time": "0.5"},
    "units_true": lambda h: {"units": {"hbar": True, "c": True, "eps0": True, "label": "natural"}},
    "units_string": lambda h: {"units": dict(h["units"], hbar="1")},
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPED_HEADERS))
def test_header_number_of_the_wrong_type_is_an_integrity_error(state_file, case):
    # each of these files once loaded
    header, _ = _split(state_file.read_bytes())
    rewrite_header(state_file, **WRONG_TYPED_HEADERS[case](header))
    with pytest.raises(StateFileError, match=": (header|format)"):
        read_state(state_file)


# physics keys that files written before they were derived still carry, and
# the scale factor that synthesis divided out, which no value reads
OLD_HEADER_CLAIMS = {"norm": 7, "rqc_residual": 0, "energy_sign": -1, "scale_factor": 3.0}


class TestHeaderValues:
    def test_header_carries_no_physics_values(self, state_file):
        _, header = read_state(state_file)
        assert set(header) == {"format", "grid", "time", "units", "payload_crc32", "metadata"}

    def test_integer_unit_record_loads(self, state_file, helicity_state):
        rewrite_header(state_file, units={"hbar": 1, "c": 1, "eps0": 1, "label": "natural"})
        state, _ = read_state(state_file)
        assert np.array_equal(state.psi.values, helicity_state.psi.values)

    def test_claimed_values_are_ignored(self, tmp_path, helicity_state):
        # a 30% longitudinal payload under a header that claims a perfect state
        payload_state = longitudinal_state(helicity_state, 0.3)
        path = tmp_path / "claims.dpst"
        write_state(path, payload_state)
        rewrite_header(path, **OLD_HEADER_CLAIMS)
        state, _ = read_state(path)
        assert state.norm == kgrid.norm_squared(payload_state.psi)
        assert state.rqc_residual == transversality_residual(payload_state.psi) > 0.1


@pytest.mark.filterwarnings("error")
def test_overflowing_norm_is_an_integrity_error(tmp_path, helicity_state):
    # finite amplitudes, but sum |psi|^2 dk^3 overflows: nothing downstream
    # can normalize or compare such a state
    path = tmp_path / "huge.dpst"
    write_state(path, PhotonState(kgrid.momentum_field(1e300 * helicity_state.psi.values,
                                                       helicity_state.grid)))
    with pytest.raises(StateFileError, match="norm inf is not finite"):
        read_state(path)


def test_overflowing_bin_volume_is_an_integrity_error(tmp_path, helicity_state):
    # a finite spacing whose cube overflows: the grid refuses its bin volume
    path = tmp_path / "wide.dpst"
    write_state(path, helicity_state)
    header, payload = _split(path.read_bytes())
    header["grid"]["dk"] = 1e103
    path.write_bytes(_join(header, payload))
    with pytest.raises(StateFileError, match="bin or box volume out of floating-point range"):
        read_state(path)


@pytest.mark.parametrize("time, loads", [(1e306, True), (2e307, False)])
def test_time_whose_phase_overflows_is_an_integrity_error(tmp_path, helicity_state, time, loads):
    # n=32: k_max = 27.7, so k_max |t| overflows from |t| = 6.5e306 on
    path = tmp_path / "late.dpst"
    write_state(path, helicity_state)
    rewrite_header(path, time=time)
    if loads:
        assert read_state(path)[0].time == time
    else:
        with pytest.raises(StateFileError, match="time 2e\\+307 out of range"):
            read_state(path)


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "n8.dpst"
    spec = ModeSpec(kind="gaussian", k0=(0, 0, 2), sigma_k=1.0)
    write_state(path, synthesize([spec], kgrid.KGrid(8, 1.0)))
    return path


def read_mutated(original, data: bytes):
    """read_state on the given bytes returns or raises StateFileError, nothing else."""
    path = original.with_name("mutated.dpst")
    path.write_bytes(data)
    try:
        read_state(path)
    except StateFileError:
        pass


WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
HEADER_KEYS = [("format",), ("grid",), ("grid", "n"), ("grid", "dk"), ("time",), ("units",),
               ("units", "hbar"), ("units", "c"), ("units", "eps0"), ("units", "label"),
               ("payload_crc32",), ("metadata",)]
FUZZ = settings(max_examples=100, deadline=None)


class TestReadStateFuzz:
    """Whatever is done to a valid file, only StateFileError escapes read_state."""

    @FUZZ
    @given(bits=st.lists(st.integers(min_value=0), min_size=1, max_size=4))
    def test_bit_flips(self, small_file, bits):
        data = bytearray(small_file.read_bytes())
        for bit in bits:
            bit %= 8 * len(data)
            data[bit // 8] ^= 1 << (bit % 8)
        read_mutated(small_file, bytes(data))

    @FUZZ
    @given(cut=st.integers(min_value=0))
    def test_truncation(self, small_file, cut):
        data = small_file.read_bytes()
        read_mutated(small_file, data[: cut % len(data)])

    @FUZZ
    @given(key=st.sampled_from(HEADER_KEYS), value=WRONG_VALUES)
    def test_wrong_typed_header_values(self, small_file, key, value):
        header, payload = _split(small_file.read_bytes())
        (header if len(key) == 1 else header[key[0]])[key[-1]] = value
        read_mutated(small_file, _join(header, payload))
