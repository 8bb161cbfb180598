"""Toolkit for synchronous linear-constraint-system games.

From a linear system Ax = b over Z_p this package constructs the
synchronous game verifying a shared solution, the finitely presented
solution group, the incompatibility graphs with an isomorphism search,
and a numerical certification suite for finite-dimensional unitary
representations of the solution group.
"""

__version__ = "0.1.0"

from .config import DEFAULT_ENUM_CAP, DEFAULT_SEARCH_BUDGET, DEFAULT_TOL, Limits
from .cyclotomic import Cyclotomic
from .games import (
    DeterministicStrategy,
    SynchronousGame,
    best_deterministic_strategy,
    build_synclcs_game,
    find_perfect_deterministic,
)
from .graphs import (
    GameGraph,
    VertexBijection,
    build_game_graph,
    export_dot,
    graph_to_json,
    is_isomorphism,
    isomorphism_search,
    translate_isomorphism,
)
from .group import (
    GroupPresentation,
    Relation,
    Word,
    build_presentation,
    relation_residuals,
)
from .presets import PRESETS, magic_square_system, one_eq_system, p3_demo_system, preset_system
from .reps import (
    IsoGeneratorFamily,
    PhiImage,
    ProjectionFamily,
    Representation,
    build_projection_family,
    check_iso_relations,
    check_mutual_inverse,
    f_projection,
    iso_generator_images,
    iso_partition_checks,
    load_representation,
    make_representation,
    pauli_magic_square_rep,
    phi_image,
    phi_welldefinedness_checks,
    projection_family_checks,
    representation_from_json,
    representation_to_json,
    run_check_suite,
    scalar_rep_from_solution,
)
from .system import (
    LinearSystem,
    ValidationReport,
    compatible,
    is_row_solution,
    row_solutions,
    row_support,
    validate_document,
    validate_system,
)
from .zp import (
    AffineSolutionSet,
    ZpMatrix,
    ZpVector,
    enumerate_affine,
    gauss_solve,
    is_prime,
    rank,
    support,
)
