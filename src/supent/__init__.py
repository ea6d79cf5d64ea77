"""Entanglement of superpositions of bipartite pure states.

Exact entanglement for one-sided orthogonal pairs, a family of upper bounds
(LPS, its asymmetry refinement, and a one-parameter optimized bound) and
optimized lower bounds, together with a harness for reference examples,
dimension sweeps, and randomized ordering audits.

The package exports the entry points of the README example; everything else
is imported from its submodule (``supent.bounds``, ``supent.harness``, ...).
"""

from .bounds import BoundReport, SuperpositionProblem, certify
from .states import BipartiteState

__all__ = ["BipartiteState", "BoundReport", "SuperpositionProblem", "certify"]

__version__ = "0.1.0"
