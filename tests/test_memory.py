"""Working-set guard: how many field-sized arrays a check holds at its peak.

The peaks are measured with ``tracemalloc`` (numpy reports its array buffers
to it) on a freshly synthesized n=32 state shaped like the README example,
above what the state already holds, and expressed in units of one
six-component complex128 field (3.1 MB at n=32, 25 MB at n=64).  One full
check runs first, so caches that the process fills once are not counted.

Measured at n=32: ``run_suites`` over all ten suites peaks at 3.22 fields,
``observable_report`` at 2.29 and the fieldbridge suite at 2.96, with every
route working one block or one component at a time and transforming in
place the arrays it builds only to transform.  ``dpl check`` runs the two
suite groups of ``suites.MEMO_SUITES`` and ``suites.OWN_TRANSFORM_SUITES``
in two processes, one ``run_suites`` call each; those calls peak at 2.71
and 2.96 fields, with the kernels suite sub-sampling its singular core a
block of cells at a time.  ``dpl observe`` computes the report with the
integral-only kernel route, which keeps no density: on one CPU it peaks at
2.21 fields, and on two the process that runs every other route, with the
position transform made before the fork, at 2.47.  The momentum OAM route
frees each k-derivative before it takes the next.  Conservation alone peaks
at 2.46 fields: with no position suite requested, the position transform is
released before it runs.  An order with a position suite after conservation keeps the one
transform through it, so its peak is unchanged.  ``evolve`` by 7.25 with
both values of its certificate peaks at 2.71 fields and
``maxwell_residual`` alone at 1.71, the certificate computing one curl
block at a time.  At n=64 the fieldbridge suite sets the peak of a full
check, and the same calls peak at 3.17 fields (all suites), 2.26
(``observable_report``), 2.17 and 2.35 (``dpl observe`` on one and on two
CPUs), 2.60 and 2.92 (the two groups), 2.92
(fieldbridge), 2.35 (conservation), 2.67 (``evolve``) and 1.67
(``maxwell_residual``).  ``synthesize`` of the README modes on a fresh grid
peaks at 3.73 fields at both n=32 and n=64 (11.7 and 93.9 MB).
"""

import tracemalloc

import pytest

from darwinlab import cli, dynamics, observables, suites
from darwinlab.kgrid import KGrid
from darwinlab.state import synthesize
from reference import README_MODES


def _certified(result):
    """Read both values of an evolution's certificate, which it computes on first read."""
    return result.dirac_residual, result.maxwell_residual


def _observe_on(cpus):
    """The report as `dpl observe` computes it where it may use `cpus` CPUs;
    on two, the peak is that of this process, beside the worker."""
    def run(state):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_cpu_count", lambda: cpus)
            cli._observe_report(state)
    return run


# budgets in six-component fields: the measured peaks above, plus about 5%
BUDGETS = {
    "run_suites": (lambda state: suites.run_suites(suites.SUITE_NAMES, state), 3.38),
    "observable_report": (observables.observable_report, 2.41),
    "observe_one_cpu": (_observe_on(1), 2.32),
    "observe_two_cpus": (_observe_on(2), 2.59),
    "memo_group": (lambda state: suites.run_suites(suites.MEMO_SUITES, state), 3.02),
    "own_transform_group": (lambda state: suites.run_suites(suites.OWN_TRANSFORM_SUITES, state), 3.11),
    "fieldbridge": (lambda state: suites.run_suites(["fieldbridge"], state), 3.1),
    "conservation": (lambda state: suites.run_suites(["conservation"], state), 2.76),
    "evolve": (lambda state: _certified(dynamics.evolve(state, 7.25)), 2.85),
    "maxwell": (dynamics.maxwell_residual, 1.8),
    # on a fresh grid, whose kmag and khat synthesis computes, as dpl build does
    "synthesize": (lambda state: synthesize(README_MODES, KGrid(32, 1.0)), 3.92),
}


@pytest.fixture(scope="module", autouse=True)
def warm_caches():
    """One full check first, so that the process-wide caches it fills once
    (numpy's FFT plans) count in no measured peak, and a
    budget reads the same whether its test runs alone or after others."""
    suites.run_suites(suites.SUITE_NAMES, synthesize(README_MODES, KGrid(32, 1.0)))


def peak_in_fields(run) -> float:
    """tracemalloc peak of run(state) above the state itself, in fields."""
    state = synthesize(README_MODES, KGrid(32, 1.0))  # fresh: nothing memoized yet
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
    return peak / state.psi.values.nbytes


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_peak_working_set_within_budget(name):
    run, budget = BUDGETS[name]
    peak = peak_in_fields(run)
    assert peak <= budget, f"{name} peaks at {peak:.2f} six-component fields (budget {budget})"
