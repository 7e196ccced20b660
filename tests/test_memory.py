"""Working-set guard: how many field-sized arrays a check holds at its peak.

The peaks are measured with ``tracemalloc`` (numpy reports its array buffers
to it) on a freshly synthesized n=32 state shaped like the README example,
above what the state already holds, and expressed in units of one
six-component complex128 field (3.1 MB at n=32, 25 MB at n=64).  The ratio
depends little on n: on the README state at n=64 the same two calls peak at
6.0 and 4.4 fields.

Measured at n=32: ``run_suites`` over all ten suites peaks at 5.69 fields and
``observable_report`` at 3.81.  Before the in-place transforms, the
one-axis-at-a-time gradient and the one-block-at-a-time field bridge they
were 9.58 and 6.75.  ``dpl check`` runs the two suite groups of
``suites.MEMO_SUITES`` and ``suites.OWN_TRANSFORM_SUITES`` in two processes,
one ``run_suites`` call each; those calls peak at 4.82 and 4.11 fields.
"""

import tracemalloc

import pytest

from darwinlab import KGrid, ModeSpec, observables, suites, synthesize

README_MODES = [
    ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.5, helicity=1),
    ModeSpec(kind="vortex", k0=(0, 0, 7), sigma_k=1.5, helicity=None, polarization=(1, 0, 0),
             vortex_charge=2, ring_radius=7.0, amplitude=0.5),
]

# budgets in six-component fields: the measured peaks above, plus about 5%
BUDGETS = {
    "run_suites": (lambda state: suites.run_suites(suites.SUITE_NAMES, state), 6.0),
    "observable_report": (observables.observable_report, 4.0),
    "memo_group": (lambda state: suites.run_suites(suites.MEMO_SUITES, state), 5.05),
    "own_transform_group": (lambda state: suites.run_suites(suites.OWN_TRANSFORM_SUITES, state), 4.3),
}


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
