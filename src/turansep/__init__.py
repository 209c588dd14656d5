"""Toolkit for separating hypergraph Turan densities.

Decides the two separation criteria algorithmically, computes exact
small-case Turan numbers, builds and verifies the lower-bound
constructions, and maximizes the six-part density polynomial exactly.
"""

from .hypergraph import (
    FamilySpec,
    Hypergraph,
    build_named,
    delete,
    density,
    from_edges,
    induced,
    missing_edges,
    parse,
    serialize,
)
from .embed import (
    Embedding,
    check_free,
    contains,
    is_free,
    spanned_edge_violation,
    validate_embedding,
)
from .exact import TuranResult, random_maximal_free, turan_number
from .criteria import (
    SeparationReport,
    check_condition1,
    check_condition2,
    de_caen_bound,
    floor_product,
    separate,
)
from .constructions import (
    BlowupSpec,
    SixPartParams,
    augment_matching,
    bipartite_g,
    blowup,
    iterated_blowup_s6,
    six_part_h,
)
from .densopt import (
    DensityPolynomial,
    OptimumResult,
    exact_count,
    h_density_poly,
    maximize_constrained,
    reference_bounds,
)
from .partitions import (
    BalancedParts,
    crossing_count,
    crossing_probability,
    expectation_check,
    sample_parts,
)

__version__ = "0.1.0"
