"""Working-set guard: how many field-sized arrays a check holds at its peak.

The peaks are measured with ``tracemalloc`` (numpy reports its array buffers
to it) on a freshly synthesized n=32 state shaped like the README example,
above what the state already holds, and expressed in units of one
six-component complex128 field (3.1 MB at n=32, 25 MB at n=64).  One full
check runs first, so caches that the process fills once are not counted.
Each budget in ``BUDGETS`` is its measured peak, stated beside it, plus
about 5%; a budget may name how the measured state is made from the fresh one.
"""

import tracemalloc

import pytest

from darwinlab import cli, dynamics, observables, suites
from darwinlab.kgrid import KGrid
from darwinlab.state import synthesize
from reference import README_MODES


def _evolve_certified(state):
    """Evolve by 7.25 and compute the certificate's three values, as `dpl evolve` does."""
    norm = state.norm
    evolved = dynamics.evolve(state, 7.25)
    return (abs(evolved.norm - norm), dynamics.dirac_residual(evolved),
            dynamics.maxwell_curl_residual(evolved))


def _observe_on(cpus):
    """The report as `dpl observe` computes it where it may use `cpus` CPUs;
    on two, the peak is that of this process, beside the worker."""
    def run(state):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_cpu_count", lambda: cpus)
            cli._observe_report(state)
    return run


# budgets in six-component fields, each with its measured peak
BUDGETS = {
    # all ten suites: 2.13, set by conservation
    "run_suites": (lambda state: suites.run_suites(suites.SUITE_NAMES, state), 2.24),
    # the request orders only the report: any order runs, and peaks, as the fixed run order: 2.13
    "run_suites_reversed": (lambda state: suites.run_suites(suites.SUITE_NAMES[::-1], state), 2.24),
    # 2.13, as conservation alone
    "conservation_before_spin": (
        lambda state: suites.run_suites(["conservation", "spin-equalities"], state), 2.24),
    # the seven spin routes as the spin-equalities suite reads them: 1.79
    "spin_routes": (observables.spin_routes, 1.88),
    # 1.79, the same one pass over the position densities
    "densities": (lambda state: suites.run_suites(["densities"], state), 1.88),
    # 1.79, the position spin routes first, beside the position transform
    "observe_one_cpu": (_observe_on(1), 1.88),
    # 1.54, in the position stage: the position OAM route beside the transform
    "observe_two_cpus": (_observe_on(2), 1.62),
    # the forked worker of `dpl observe`: the position spin routes, beside
    # the position transform that it inherits: 1.79
    "observe_worker": (lambda state: (observables.psi_position(state),
                                      observables.position_spin(state)), 1.88),
    # 2.13, set by conservation; the first four suites peak at 1.88
    "memo_group": (lambda state: suites.run_suites(suites.MEMO_SUITES, state), 2.24),
    # 1.96, set by fieldbridge
    "own_transform_group": (lambda state: suites.run_suites(suites.OWN_TRANSFORM_SUITES, state), 2.06),
    # 1.96, in the round trip: both Fourier blocks beside one round-trip block; each chain 1.88
    "fieldbridge": (lambda state: suites.run_suites(["fieldbridge"], state), 2.06),
    # 2.13: an evolved sample's payload beside its momentum OAM route
    "conservation": (lambda state: suites.run_suites(["conservation"], state), 2.24),
    # on a state evolved by 7.25, whose phase the route peels: 1.13
    "oam_momentum": (observables.oam_momentum, 1.19, lambda state: dynamics.evolve(state, 7.25)),
    # evolve by 7.25 with its certificate: 2.25
    "evolve": (_evolve_certified, 2.36),
    # 1.25
    "maxwell": (dynamics.maxwell_residual, 1.31),
    # on a fresh grid, whose kmag and khat synthesis computes, as dpl build
    # does: 1.88, the payload included
    "synthesize": (lambda state: synthesize(README_MODES, KGrid(32, 1.0)), 1.97),
}


@pytest.fixture(scope="module", autouse=True)
def warm_caches():
    """One full check first, so that the process-wide caches it fills once
    (numpy's FFT plans) count in no measured peak, and a
    budget reads the same whether its test runs alone or after others."""
    suites.run_suites(suites.SUITE_NAMES, synthesize(README_MODES, KGrid(32, 1.0)))


def peak_in_fields(run, prepare=None) -> float:
    """tracemalloc peak of run(state) above the state itself, in fields;
    ``prepare``, when given, makes the state that run reads from the fresh one."""
    state = synthesize(README_MODES, KGrid(32, 1.0))  # fresh: nothing memoized yet
    if prepare is not None:
        state = prepare(state)
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run(state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return peak / state.psi.nbytes


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_peak_working_set_within_budget(name):
    run, budget, *prepare = BUDGETS[name]
    peak = peak_in_fields(run, *prepare)
    assert peak <= budget, f"{name} peaks at {peak:.2f} six-component fields (budget {budget})"
