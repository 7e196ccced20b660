"""Metamorphic relations: maps of a state whose check output is known in advance.

Each relation maps the fixture to a second state and compares every row of
all ten suites and every value that ``dpl observe`` prints.  The fixture
has dk != 1 and t != 0, so a scaling by dk or an offset by the state's time
that the README state cannot show breaks a relation.  Its boundary ratio is
6e-13; its ``oam_formula_gap`` FAILs (stencil truncation at sigma_k = 1.2
bins), which does not matter here: the relations compare values, not
verdicts.
"""

import numpy as np
import pytest

from darwinlab import cli, dynamics, suites
from darwinlab.kgrid import KGrid
from darwinlab.state import ModeSpec, PhotonState, synthesize

TIMES = (0.0, 1.25, 4.0)  # conservation samples, exact under the scaling by 4


def _outputs(state, times):
    rows = {c.name: c.value
            for report in suites.run_suites(list(suites.SUITE_NAMES), state, times=times)
            for c in report.checks}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_cpu_count", lambda: 1)
        routes, l_mom, l_pos, probabilities, boundary_ratio = cli._observe_report(state)
    vectors = {f"spin_{name}": value for name, (value, _) in routes.items()}
    vectors.update(oam_momentum=l_mom, oam_position=l_pos,
                   total_angular_momentum=l_mom + vectors["spin_canonical"],
                   probability=np.array(probabilities), boundary_ratio=np.array([boundary_ratio]))
    return rows, vectors


@pytest.fixture(scope="module")
def fixture_state():
    """The README's gaussian plus a charge-1 ring vortex, at a quarter of its
    momenta on an n=32, dk=0.25 grid, evolved to t=1.25."""
    modes = [ModeSpec(kind="gaussian", k0=(0, 0, 1.5), sigma_k=0.3, helicity=1),
             ModeSpec(kind="vortex", k0=(0, 0, 1.25), sigma_k=0.3, polarization=(1, 0, 0),
                      vortex_charge=1, ring_radius=1.25, amplitude=0.5)]
    return dynamics.evolve(synthesize(modes, KGrid(32, 0.25)), 1.25)


@pytest.fixture(scope="module")
def fixture_outputs(fixture_state):
    return _outputs(fixture_state, TIMES)


def test_fixture_is_inside_the_grid(fixture_outputs):
    rows, _ = fixture_outputs
    assert len(rows) == 32
    assert rows["oam_boundary_ratio"] < 1e-8


def test_grid_scale(fixture_state, fixture_outputs):
    # the same array on a grid of spacing 4 dk, scaled by 4^(-3/2), at time t/4:
    # every k, x, bin volume and phase |k| t scales by a power of two, so
    # every row and every vector is bitwise the same
    lam = 4.0
    g = fixture_state.grid
    scaled = PhotonState(fixture_state.psi / lam**1.5, KGrid(g.n, lam * g.dk),
                         time=fixture_state.time / lam)
    rows, vectors = _outputs(scaled, tuple(t / lam for t in TIMES))
    expect_rows, expect_vectors = fixture_outputs
    assert rows == expect_rows
    for name, value in vectors.items():
        assert value.tobytes() == expect_vectors[name].tobytes(), name


def test_global_phase(fixture_state, fixture_outputs):
    # exp(0.7 i) multiplies every amplitude: no row or vector moves beyond
    # rounding.  maxwell_residual divides a difference of the state at t +- dt
    # by 2 dt, dt = DEFAULT_DT_FRACTION / k_max, which lifts its rounding to
    # about eps / DEFAULT_DT_FRACTION (it moves by 2.5e-14 here)
    rotated = PhotonState(fixture_state.psi * np.exp(0.7j), fixture_state.grid,
                          time=fixture_state.time)
    rows, vectors = _outputs(rotated, TIMES)
    expect_rows, expect_vectors = fixture_outputs
    assert rows.keys() == expect_rows.keys()
    bound = {"maxwell_residual": np.finfo(float).eps / dynamics.DEFAULT_DT_FRACTION}
    for name, value in rows.items():
        assert abs(value - expect_rows[name]) <= bound.get(name, 1e-14), name
    for name, value in vectors.items():
        assert np.abs(value - expect_vectors[name]).max() <= 1e-14, name


def test_time_composition(fixture_state):
    # evolving by 0.5 and then by 0.75 lands where one step of 1.25 does: the
    # phases compose, so no row or vector moves beyond rounding
    # (maxwell_residual bounded as in test_global_phase)
    base = fixture_state
    composed = dynamics.evolve(dynamics.evolve(base, 0.5), 0.75)
    direct = dynamics.evolve(base, 1.25)
    assert composed.time == direct.time == base.time + 1.25
    rows, vectors = _outputs(composed, TIMES)
    expect_rows, expect_vectors = _outputs(direct, TIMES)
    assert rows.keys() == expect_rows.keys()
    bound = {"maxwell_residual": np.finfo(float).eps / dynamics.DEFAULT_DT_FRACTION}
    for name, value in rows.items():
        assert abs(value - expect_rows[name]) <= bound.get(name, 1e-14), name
    for name, value in vectors.items():
        assert np.abs(value - expect_vectors[name]).max() <= 1e-14, name
