"""Toolkit for synchronous linear-constraint-system games.

From a linear system Ax = b over Z_p this package constructs the
synchronous game verifying a shared solution, the finitely presented
solution group, the incompatibility graphs with an isomorphism search,
and a numerical certification suite for finite-dimensional unitary
representations of the solution group.

The names below are exported lazily (PEP 562): `from synclcs import X`
loads only the module that defines X, so the Z_p layer runs without numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each module
_EXPORTS = {
    "config": "DEFAULT_ENUM_CAP DEFAULT_SEARCH_BUDGET DEFAULT_TOL Limits",
    "cyclotomic": "Cyclotomic",
    "games": "DeterministicStrategy SynchronousGame best_deterministic_strategy build_synclcs_game find_perfect_deterministic",
    "graphs": "GameGraph VertexBijection build_game_graph export_dot graph_to_json is_isomorphism isomorphism_search translate_isomorphism",
    "group": "GroupPresentation Relation Word build_presentation relation_residuals",
    "presets": "PRESETS magic_square_system one_eq_system p3_demo_system preset_system",
    "reps": "ProjectionFamily Representation f_projection load_representation make_representation pauli_magic_square_rep representation_from_json",
    "scalar": "check_iso_relations check_mutual_inverse iso_generator_images iso_partition_checks phi_welldefinedness_checks projection_family_checks run_check_suite scalar_rep_from_solution",
    "system": "LinearSystem row_solutions validate_document validate_system",
    "zp": "AffineSolutionSet ZpMatrix ZpVector gauss_solve is_prime",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
