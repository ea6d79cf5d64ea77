"""Entanglement of superpositions of bipartite pure states.

Exact entanglement for one-sided orthogonal pairs, a family of upper bounds
(LPS, its asymmetry refinement, and a one-parameter optimized bound) and
optimized lower bounds, together with a harness for reference examples,
dimension sweeps, and randomized ordering audits.
"""

from .bounds import (
    BoundReport,
    SuperpositionProblem,
    certify,
    exact_one_sided,
    f_of_t,
    lower_l,
    lps_upper,
    simple_lower,
    subspace_lower,
    theorem2_upper,
    theorem3_optimal,
    theorem4_optimal,
)
from .harness import (
    dimension_sweep,
    generate_one_sided_pair,
    haar_random_state,
    parse_state_file,
    random_audit,
    run_examples,
    serialize_state,
)
from .optimize import OptimizerResult, maximize_scalar, minimize_scalar
from .qmath import (
    Spectrum,
    binary_entropy,
    hermitian_eigenvalues,
    shannon_entropy,
    singular_values,
)
from .rng import Xoshiro256StarStar
from .states import (
    BipartiteState,
    OrthogonalityClass,
    SchmidtForm,
    classify_orthogonality,
    entanglement_entropy,
    inner_product,
    lemma1_canonical_form,
    mixture_entropy,
    norm_squared,
    reduced_density,
    reduced_mixture_entropies,
    superpose,
)

__version__ = "0.1.0"
