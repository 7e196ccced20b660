"""darwinlab: spectral laboratory for the six-component free-photon wave equation.

Each name lives in its own module and is imported from there, e.g.
``from darwinlab.state import ModeSpec, synthesize``.  The package itself
imports nothing, so ``import darwinlab`` and ``import darwinlab.cli`` load no
numpy: `cli` caps the BLAS thread pools before the first numerical module is
imported, and each ``dpl`` subcommand loads only the modules it uses.
"""

__version__ = "0.1.0"
