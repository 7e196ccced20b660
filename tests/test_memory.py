"""Working-set guard: how many field-sized arrays a check holds at its peak.

The peaks are measured with ``tracemalloc`` (numpy reports its array buffers
to it) on a freshly synthesized n=32 state shaped like the README example,
above what the state already holds, and expressed in units of one
six-component complex128 field (3.1 MB at n=32, 25 MB at n=64).  One full
check runs first, so caches that the process fills once are not counted.

Measured at n=32: ``run_suites`` over all ten suites peaks at 3.22 fields,
``observable_report`` at 2.29 and the fieldbridge suite at 2.96 (they were
5.47, 3.81 and 3.96 before the routes worked one block or one component at
a time; 9.58 and 6.75 for the first two before the in-place transforms).
``observable_report`` peaked at 2.92 while its momentum spin routes ran on
top of the position transform, the block cross densities took a scaled
copy of each block, and the nonlocal density kept all three of its complex
rows.  ``dpl check`` runs the two suite groups of ``suites.MEMO_SUITES`` and
``suites.OWN_TRANSFORM_SUITES`` in two processes, one ``run_suites`` call
each; those calls peak at 2.88 and 2.96 fields (4.82 and 4.11 before; the
kernels suite set the own-transforms peak and the full ``run_suites`` at
4.11 and 4.36 before it sub-sampled its singular core a block of cells at a
time).  Conservation alone peaks at 2.63 fields: with no position suite
requested, the position transform is released before it runs (3.67 when
it was kept through the evolved samples).  An order with a position suite
after conservation still keeps the one transform through it, so its peak is
unchanged.  ``evolve`` by 7.25 with both values of its certificate peaks at
2.71 fields and ``maxwell_residual`` alone at 1.71 (3.21 and 2.21 while the
certificate held both curls at once).  At n=64 the fieldbridge suite sets
the peak of a full check, and the same calls peak at 3.17 fields (all
suites), 2.26 (``observable_report``), 2.77 and 2.92 (the two groups), 2.92
(fieldbridge), 2.52 (conservation), 2.67 (``evolve``) and 1.67
(``maxwell_residual``).
"""

import tracemalloc

import pytest

from darwinlab import KGrid, ModeSpec, dynamics, observables, suites, synthesize

README_MODES = [
    ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.5, helicity=1),
    ModeSpec(kind="vortex", k0=(0, 0, 7), sigma_k=1.5, helicity=None, polarization=(1, 0, 0),
             vortex_charge=2, ring_radius=7.0, amplitude=0.5),
]


def _certified(result):
    """Read both values of an evolution's certificate, which it computes on first read."""
    return result.dirac_residual, result.maxwell_residual


# budgets in six-component fields: the measured peaks above, plus about 5%
BUDGETS = {
    "run_suites": (lambda state: suites.run_suites(suites.SUITE_NAMES, state), 3.38),
    "observable_report": (observables.observable_report, 2.41),
    "memo_group": (lambda state: suites.run_suites(suites.MEMO_SUITES, state), 3.02),
    "own_transform_group": (lambda state: suites.run_suites(suites.OWN_TRANSFORM_SUITES, state), 3.11),
    "fieldbridge": (lambda state: suites.run_suites(["fieldbridge"], state), 3.1),
    "conservation": (lambda state: suites.run_suites(["conservation"], state), 2.76),
    "evolve": (lambda state: _certified(dynamics.evolve(state, 7.25)), 2.85),
    "maxwell": (dynamics.maxwell_residual, 1.8),
}


@pytest.fixture(scope="module", autouse=True)
def warm_caches():
    """One full check first, so that the process-wide caches it fills once
    (the gamma matrices, numpy's FFT plans) count in no measured peak, and a
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
