"""Working-set guard: how many field-sized arrays a check holds at its peak.

The peaks are measured with ``tracemalloc`` (numpy reports its array buffers
to it) on a freshly synthesized n=32 state shaped like the README example,
above what the state already holds, and expressed in units of one
six-component complex128 field (3.1 MB at n=32, 25 MB at n=64).  One full
check runs first, so caches that the process fills once are not counted.

Measured at n=32: ``run_suites`` over all ten suites peaks at 2.59 fields,
the check-path ``spin_routes`` at 2.09 and the fieldbridge suite at 2.59,
with every route working one block or one component at a time and
transforming in place the arrays it builds only to transform.  The fieldbridge suite
compares each round-trip block with its half of the payload as the block
is made, and forms its route gap in place.  ``dpl check`` runs the two
suite groups of ``suites.MEMO_SUITES`` and ``suites.OWN_TRANSFORM_SUITES``
in two processes, one ``run_suites`` call each; those calls peak at 2.46
and 2.59 fields, with the kernels suite sub-sampling its singular core a
block of cells at a time, conservation running after the position
transform, the position pair and the kernel density are released, and
``oam`` running first in its group (after ``spin-equalities``, its routes
would sit on the kernel density and the position pair: 2.96 fields).
``dpl observe`` computes the report with integral-only kernel and position
spin routes, which keep no density, and runs every route that reads the
position transform before the momentum routes, releasing the transform in
between: on one CPU it peaks at 1.79 fields, and on two the process that
runs every route but the kernel one at 1.54, in its position stage; the
worker, with the position transform made before the fork and no khat (the
kernel route reads the momentum axes and one 1/|k|^2 array), peaks at
1.79; where no worker runs, the kernel route runs first, beside the
position transform made for it.  The position OAM route sums the moments
of one h_a at a time, and it builds each h_a conjugated, as the kernel
route builds each row, so neither holds a whole h or a conjugate of the
transform.  The momentum OAM route frees each
k-derivative before it takes the next, and at t = 0 differentiates the
payload's upper block itself, not a copy of it.  Conservation alone peaks
at 2.46 fields: ``run_suites`` memoizes the state's own probability and
releases its transform first, and each other sample reads its norm and
momentum routes before its probability makes the position transform, and
releases that transform before the next sample (``test_suites.py`` holds
that order; reading the norm after the probability moved this peak only
to 2.50, inside the budget).
``run_suites`` runs the requested suites in one fixed order whatever order
they are asked in, the memo group and then the own-transforms group, and
releases the position arrays at one point, right after ``densities``: the
ten suites in reverse order peak at 2.59 fields, as in order, and
``conservation`` asked before ``spin-equalities`` at 2.46.  ``evolve`` by
7.25, with the norm drift and the two residuals of its certificate (the
Maxwell one without its divergence), peaks at 2.25 fields and
``maxwell_residual`` alone at 1.25, the certificate transforming each
block's stencil beside its curl in one six-component array, and
``kgrid.cross`` making no bins-sized scratch array.  At n=64 the
fieldbridge suite sets the peak of a full check, and the same calls peak at 2.58 fields (all suites), 2.08
(``spin_routes``), 1.76 and 1.51 (``dpl observe`` on one and on two
CPUs), 1.76 (its worker), 2.42 and 2.58 (the two groups), 2.58
(fieldbridge), 2.35 (conservation), 2.25 (``evolve``) and 1.25
(``maxwell_residual``).  ``synthesize`` of the README modes on a fresh grid
writes both blocks into the one array that becomes the payload and peaks at
1.88 fields at n=32 and 1.84 at n=64 (5.9 and 46.3 MB), in the annular
vortex's envelope, the payload included.
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


# budgets in six-component fields: the measured peaks above, plus about 5%
BUDGETS = {
    "run_suites": (lambda state: suites.run_suites(suites.SUITE_NAMES, state), 2.72),
    # the request orders only the report: any order runs, and peaks, as the fixed run order
    "run_suites_reversed": (lambda state: suites.run_suites(suites.SUITE_NAMES[::-1], state), 2.72),
    "conservation_before_spin": (
        lambda state: suites.run_suites(["conservation", "spin-equalities"], state), 2.63),
    # the seven spin routes as the spin-equalities suite reads them
    "spin_routes": (observables.spin_routes, 2.41),
    "observe_one_cpu": (_observe_on(1), 1.88),
    "observe_two_cpus": (_observe_on(2), 1.62),
    # the forked worker of `dpl observe`: the kernel route, beside the
    # position transform that it inherits
    "observe_worker": (lambda state: (observables.psi_position(state),
                                      observables.nonlocal_spin_integral(state)), 1.88),
    "memo_group": (lambda state: suites.run_suites(suites.MEMO_SUITES, state), 2.63),
    "own_transform_group": (lambda state: suites.run_suites(suites.OWN_TRANSFORM_SUITES, state), 2.72),
    "fieldbridge": (lambda state: suites.run_suites(["fieldbridge"], state), 2.72),
    "conservation": (lambda state: suites.run_suites(["conservation"], state), 2.76),
    "evolve": (_evolve_certified, 2.36),
    "maxwell": (dynamics.maxwell_residual, 1.31),
    # on a fresh grid, whose kmag and khat synthesis computes, as dpl build does
    "synthesize": (lambda state: synthesize(README_MODES, KGrid(32, 1.0)), 1.97),
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
