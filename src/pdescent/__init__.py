"""Mod-p homology descent for finitely presented groups.

Builds presentation 2-complexes, iterated abelian p-covers, and wedge
cochain families, and tracks how the relative size of the family's support
decays down the tower.  Support reduction uses hyperplane averaging over
finite-field subspaces; expansion diagnostics bound Cheeger constants of
cover skeletons.
"""

from .complexes import (
    Cochain,
    CocycleBasis,
    EdgePath,
    GroupPresentation,
    TwoComplex,
    build_presentation_complex,
    class_coordinates,
    coboundary,
    format_presentation,
    h1_cocycle_basis,
    h1_dimension,
    parse_presentation,
    tree_potential,
)
from .covers import (
    CoveringMap,
    build_abelian_p_cover,
    build_cyclic_cover,
    vertex_values,
)
from .errors import (
    CocycleConditionError,
    DimensionError,
    DisconnectedCoverError,
    EnumerationCapError,
    InvariantError,
    MalformedTowerError,
    NotRapidlyDescendingError,
    ParseError,
    TrivialClassError,
    UndefinedVertexValueError,
    UnsupportedCoverError,
)
from .expansion import (
    ExpansionReport,
    SkeletonGraph,
    cheeger_constant,
    expansion_bound_report,
    minimum_support_representative,
    relative_size,
)
from .fplinalg import FpSubspace
from .plotkin import (
    ReductionResult,
    chain_factor,
    reduce_to_dimension,
    uniform_factor,
)
from .tower import (
    CriteriaReport,
    DescentReport,
    GrowthReport,
    SeriesSpec,
    TowerRecord,
    cyclic_growth_report,
    descent_parameters,
    largeness_criteria_report,
    run_descent,
)
from .wedge import (
    WedgeFamily,
    build_wedge_family,
    commutator_certificate,
    commutator_path,
    dual_loops,
    wedge_cochain,
)

__version__ = "0.1.0"

__all__ = [
    "Cochain",
    "CocycleBasis",
    "EdgePath",
    "GroupPresentation",
    "TwoComplex",
    "build_presentation_complex",
    "class_coordinates",
    "coboundary",
    "format_presentation",
    "h1_cocycle_basis",
    "h1_dimension",
    "parse_presentation",
    "tree_potential",
    "CoveringMap",
    "build_abelian_p_cover",
    "build_cyclic_cover",
    "vertex_values",
    "CocycleConditionError",
    "DimensionError",
    "DisconnectedCoverError",
    "EnumerationCapError",
    "InvariantError",
    "MalformedTowerError",
    "NotRapidlyDescendingError",
    "ParseError",
    "TrivialClassError",
    "UndefinedVertexValueError",
    "UnsupportedCoverError",
    "ExpansionReport",
    "SkeletonGraph",
    "cheeger_constant",
    "expansion_bound_report",
    "minimum_support_representative",
    "relative_size",
    "FpSubspace",
    "ReductionResult",
    "chain_factor",
    "reduce_to_dimension",
    "uniform_factor",
    "CriteriaReport",
    "DescentReport",
    "GrowthReport",
    "SeriesSpec",
    "TowerRecord",
    "cyclic_growth_report",
    "descent_parameters",
    "largeness_criteria_report",
    "run_descent",
    "WedgeFamily",
    "build_wedge_family",
    "commutator_certificate",
    "commutator_path",
    "dual_loops",
    "wedge_cochain",
    "__version__",
]
