"""Command-line front end.

Subcommands: validate, analyze, solve, graph, iso, group, repcheck,
examples.  Every command prints one JSON report to stdout; identical
inputs and flags produce byte-identical reports apart from the volatile
"timestamp" field.

Exit codes: 0 pass, 1 check failure, 2 validation failure, 3 parse error,
4 enumeration cap or search budget exceeded, 5 internal error (an
unexpected exception; the report names it and stderr has the traceback).

Environment overrides: SYNCLCS_ENUM_CAP, SYNCLCS_SEARCH_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import traceback
from datetime import datetime, timezone

from . import __version__
from .config import DEFAULT_TOL, MAX_REPCHECK_P, Limits
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    ModulusTooLarge,
    NotASolution,
    ParseError,
    SearchBudgetExceeded,
    SyncLCSError,
    UnknownExample,
)
from .games import best_deterministic_strategy, build_synclcs_game, find_perfect_deterministic
from .graphs import build_game_graph, export_dot, graph_to_json, isomorphism_search, translate_isomorphism
from .group import build_presentation
from .presets import magic_square_system, preset_system
from .reps import (
    OMEGA_CONVENTION,
    load_representation,
    pauli_magic_square_rep,
    run_check_suite,
    scalar_rep_from_solution,
)
from .system import LinearSystem, row_support, validate_document
from .zp import ZpVector, gauss_solve

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


def _emit(report: dict, out_path: str | None = None) -> None:
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2) + "\n"
    _sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _base_report(command: str, inputs: dict, tolerance: float | None = None) -> dict:
    report = {
        "command": command,
        "toolkit_version": __version__,
        "omega_convention": OMEGA_CONVENTION,
        "inputs": inputs,
    }
    if tolerance is not None:
        report["tolerance"] = tolerance
    return report


def _error_report(command: str, inputs: dict, error: Exception) -> dict:
    report = _base_report(command, inputs)
    report["error"] = {"type": type(error).__name__, "message": str(error)}
    report["summary"] = {"verdict": "error"}
    return report


def _load_system(path: str) -> tuple[LinearSystem | None, dict, dict]:
    """Parse and validate a system file; returns (system, inputs, validation)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("system document must be a JSON object")
    system, validation = validate_document(doc)
    inputs = {"path": path}
    if system is not None:
        inputs["system_digest"] = system.digest()
    return system, inputs, validation.to_json()


def cmd_validate(args, limits: Limits) -> int:
    system, inputs, validation = _load_system(args.path)
    report = _base_report("validate", inputs)
    report["checks"] = validation["records"]
    report["summary"] = {"verdict": validation["verdict"]}
    _emit(report, args.out)
    return EXIT_PASS if validation["verdict"] == "pass" else EXIT_VALIDATION


def _require_system(command: str, args) -> tuple[LinearSystem | None, dict, int]:
    system, inputs, validation = _load_system(args.path)
    if system is None:
        report = _base_report(command, inputs)
        report["checks"] = validation["records"]
        report["summary"] = {"verdict": "fail"}
        _emit(report, args.out)
        return None, inputs, EXIT_VALIDATION
    return system, inputs, EXIT_PASS


def cmd_analyze(args, limits: Limits) -> int:
    system, inputs, code = _require_system("analyze", args)
    if system is None:
        return code
    G = build_game_graph(system, homogeneous=False, cap=limits.enum_cap)
    H = build_game_graph(system, homogeneous=True, cap=limits.enum_cap)
    solutions = G.solutions_by_row()
    rows = []
    for i in range(1, system.m + 1):
        V = sorted(row_support(system, i))
        rows.append({"row": i, "support": V, "support_size": len(V),
                     "solutions": len(solutions.get(i, ()))})
    solvable = gauss_solve(system.A, system.b) is not None
    report = _base_report("analyze", inputs)
    report["rows"] = rows
    report["classically_solvable"] = solvable
    report["graphs"] = {
        "inhomogeneous": {"vertices": G.order(), "edges": G.edge_count()},
        "homogeneous": {"vertices": H.order(), "edges": H.edge_count()},
    }
    warnings = [
        {"row": i, "message": "zero row with nonzero right-hand side"}
        for i in range(1, system.m + 1)
        if system.A.row(i).is_zero() and system.b.entry(i) != 0
    ]
    if warnings:
        report["warnings"] = warnings
    report["summary"] = {"verdict": "pass"}
    _emit(report, args.out)
    return EXIT_PASS


def cmd_solve(args, limits: Limits) -> int:
    system, inputs, code = _require_system("solve", args)
    if system is None:
        return code
    solution_set = gauss_solve(system.A, system.b)
    game = build_synclcs_game(system, cap=limits.enum_cap)
    report = _base_report("solve", inputs)
    if solution_set is None:
        report["linear_system"] = {"consistent": False}
    else:
        report["linear_system"] = {
            "consistent": True,
            "particular": list(solution_set.particular.entries),
            "kernel_dimension": len(solution_set.basis),
        }
    strategy = find_perfect_deterministic(game, budget=limits.search_budget)
    if strategy is not None:
        report["perfect_strategy"] = {
            str(i): strategy.assignment[i].label() for i in game.inputs
        }
        report["best_value"] = "1"
    else:
        best, value = best_deterministic_strategy(game, budget=limits.search_budget)
        report["perfect_strategy"] = None
        report["best_strategy"] = {
            str(i): best.assignment[i].label() for i in game.inputs
        }
        report["best_value"] = str(value)
    report["summary"] = {"verdict": "pass"}
    _emit(report, args.out)
    return EXIT_PASS


def cmd_graph(args, limits: Limits) -> int:
    system, inputs, code = _require_system("graph", args)
    if system is None:
        return code
    G = build_game_graph(system, homogeneous=args.homogeneous, cap=limits.enum_cap)
    report = _base_report("graph", inputs)
    report["homogeneous"] = bool(args.homogeneous)
    report["graph"] = graph_to_json(G)
    report["counts"] = {"vertices": G.order(), "edges": G.edge_count()}
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(G))
        report["dot_file"] = args.dot
    report["summary"] = {"verdict": "pass"}
    _emit(report, args.out)
    return EXIT_PASS


def cmd_iso(args, limits: Limits) -> int:
    system, inputs, code = _require_system("iso", args)
    if system is None:
        return code
    G = build_game_graph(system, homogeneous=False, cap=limits.enum_cap)
    H = build_game_graph(system, homogeneous=True, cap=limits.enum_cap)
    result = isomorphism_search(G, H, budget=limits.search_budget)
    report = _base_report("iso", inputs)
    report["graphs"] = {
        "inhomogeneous": {"vertices": G.order(), "edges": G.edge_count()},
        "homogeneous": {"vertices": H.order(), "edges": H.edge_count()},
    }
    report["search"] = {
        "outcome": result.outcome,
        "nodes": result.nodes,
        "refinement_rounds": result.wl_rounds,
    }
    if result.bijection is not None:
        report["isomorphism"] = {
            f"{i}:{x.label()}": f"{j}:{y.label()}"
            for (i, x), (j, y) in sorted(
                result.bijection.forward.items(), key=lambda kv: (kv[0][0], kv[0][1].entries)
            )
        }
    solution_set = gauss_solve(system.A, system.b)
    if solution_set is not None:
        translate_isomorphism(G, H, solution_set.particular)
        report["translation"] = {
            "solution": list(solution_set.particular.entries),
            "verified": True,
            "agrees_with_search": result.bijection is not None,
        }
    report["summary"] = {"verdict": "pass"}
    _emit(report, args.out)
    return EXIT_PASS


def cmd_group(args, limits: Limits) -> int:
    system, inputs, code = _require_system("group", args)
    if system is None:
        return code
    pres = build_presentation(system)
    report = _base_report("group", inputs)
    report["relation_counts"] = pres.counts_by_family()
    report["relation_total"] = len(pres.relations)
    if args.format == "json":
        payload = pres.to_json()
        if args.presentation_out:
            with open(args.presentation_out, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            report["presentation_file"] = args.presentation_out
        else:
            report["presentation"] = payload
    else:
        text = pres.to_relators_text()
        if args.presentation_out:
            with open(args.presentation_out, "w") as fh:
                fh.write(text)
            report["presentation_file"] = args.presentation_out
        else:
            report["presentation"] = text
    report["summary"] = {"verdict": "pass"}
    _emit(report, args.out)
    return EXIT_PASS


def _resolve_representation(spec: str, system: LinearSystem, tol: float):
    if spec == "pauli-ms":
        expected = magic_square_system().digest()
        if system.digest() != expected:
            raise NotASolution(
                "pauli-ms is only valid for the built-in magic-square system"
            )
        return pauli_magic_square_rep(), {"rep_source": "pauli-ms"}
    if spec.startswith("scalar:"):
        try:
            values = [int(v) for v in spec[len("scalar:"):].split(",")]
        except ValueError as exc:
            raise ParseError(f"bad scalar solution syntax: {exc}") from exc
        xstar = ZpVector(system.p, tuple(values))
        return scalar_rep_from_solution(system, xstar), {
            "rep_source": spec,
        }
    rep = load_representation(spec, tol)
    return rep, {"rep_source": spec}


def _bound_modulus(p: int) -> None:
    if p > MAX_REPCHECK_P:
        raise ModulusTooLarge(
            f"modulus {p} exceeds {MAX_REPCHECK_P}, the largest repcheck certifies")


def _refuse(report: dict, error: Exception, out_path: str | None, code: int, **summary) -> int:
    """Emit a repcheck report that ends in error before or during the checks."""
    report["error"] = {"type": type(error).__name__, "message": str(error)}
    report["summary"] = {"verdict": "fail", **summary}
    _emit(report, out_path)
    return code


def cmd_repcheck(args, limits: Limits) -> int:
    system, inputs, code = _require_system("repcheck", args)
    if system is None:
        return code
    _bound_modulus(system.p)
    tol = args.tol
    report = _base_report("repcheck", inputs, tolerance=tol)
    try:
        rep, rep_inputs = _resolve_representation(args.rep, system, tol)
    except NotASolution as exc:
        report["inputs"]["rep_source"] = args.rep
        return _refuse(report, exc, args.out, EXIT_VALIDATION)
    except SyncLCSError as exc:
        if isinstance(exc, ParseError):
            raise
        # unitarity / J-identification problems are check failures
        report["inputs"]["rep_source"] = args.rep
        return _refuse(report, exc, args.out, EXIT_CHECK_FAILURE,
                       first_failure=type(exc).__name__)
    _bound_modulus(rep.p)
    report["inputs"].update(rep_inputs)
    if rep.p != system.p:
        # the checks would pair p-th roots of unity with Z_p solutions of
        # another p, and fail or pass by accident
        mismatch = DimensionMismatch(
            f"representation modulus {rep.p} differs from system modulus {system.p}")
        return _refuse(report, mismatch, args.out, EXIT_VALIDATION)
    report["representation"] = {"dim": rep.dim, "p": rep.p,
                                "exact": rep.exact}
    try:
        records = run_check_suite(rep, system, tol=tol, cap=limits.enum_cap)
    except SyncLCSError as exc:
        if isinstance(exc, (EnumerationTooLarge, SearchBudgetExceeded)):
            raise
        return _refuse(report, exc, args.out, EXIT_CHECK_FAILURE,
                       first_failure=type(exc).__name__)
    report["checks"] = [rec.to_json() for rec in records]
    failures = [rec for rec in records if not rec.passed]
    report["summary"] = {
        "verdict": "pass" if not failures else "fail",
        "checks": len(records),
        "failures": len(failures),
        "max_residual": max((rec.residual for rec in records), default=0.0),
    }
    if failures:
        report["summary"]["first_failure"] = failures[0].name
    _emit(report, args.out)
    return EXIT_PASS if not failures else EXIT_CHECK_FAILURE


def cmd_examples(args, limits: Limits) -> int:
    system = preset_system(args.name)
    path = args.out_file or f"{args.name}.json"
    with open(path, "w") as fh:
        json.dump(system.to_json(), fh, indent=2)
        fh.write("\n")
    report = _base_report("examples", {"name": args.name})
    report["written"] = path
    report["system_digest"] = system.digest()
    report["summary"] = {"verdict": "pass"}
    _emit(report, args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synclcs",
        description="Analyze linear-constraint-system games over Z_p.",
    )
    parser.add_argument("--out", help="also write the report JSON to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="structural and semantic system checks")
    p_validate.add_argument("path")
    p_validate.set_defaults(func=cmd_validate)

    p_analyze = sub.add_parser("analyze", help="row supports, solution counts, graph sizes")
    p_analyze.add_argument("path")
    p_analyze.set_defaults(func=cmd_analyze)

    p_solve = sub.add_parser("solve", help="classical solvability and deterministic strategies")
    p_solve.add_argument("path")
    p_solve.set_defaults(func=cmd_solve)

    p_graph = sub.add_parser("graph", help="build an incompatibility graph")
    p_graph.add_argument("path")
    p_graph.add_argument("--homogeneous", action="store_true",
                         help="use right-hand side 0 instead of b")
    p_graph.add_argument("--dot", help="write Graphviz DOT to this file")
    p_graph.set_defaults(func=cmd_graph)

    p_iso = sub.add_parser("iso", help="search for a graph isomorphism to the homogeneous graph")
    p_iso.add_argument("path")
    p_iso.set_defaults(func=cmd_iso)

    p_group = sub.add_parser("group", help="emit the solution-group presentation")
    p_group.add_argument("path")
    p_group.add_argument("--format", choices=("json", "relators"), default="json")
    p_group.add_argument("--presentation-out", dest="presentation_out",
                         help="write the presentation to this file instead of embedding it")
    p_group.set_defaults(func=cmd_group)

    p_rep = sub.add_parser("repcheck", help="certify a representation against the system")
    p_rep.add_argument("path")
    p_rep.add_argument("--rep", required=True,
                       help="representation file, scalar:<v1,v2,...>, or pauli-ms")
    p_rep.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_rep.set_defaults(func=cmd_repcheck)

    p_ex = sub.add_parser("examples", help="write a built-in example system file")
    p_ex.add_argument("name")
    p_ex.add_argument("--out-file", dest="out_file",
                      help="destination path (default <name>.json)")
    p_ex.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limits = Limits.from_env()
    command = args.command
    inputs = {"path": getattr(args, "path", None)}
    try:
        return args.func(args, limits)
    except ParseError as exc:
        _emit(_error_report(command, inputs, exc), args.out)
        return EXIT_PARSE
    except (EnumerationTooLarge, SearchBudgetExceeded) as exc:
        _emit(_error_report(command, inputs, exc), args.out)
        return EXIT_BUDGET
    except (UnknownExample, NotASolution) as exc:
        _emit(_error_report(command, inputs, exc), args.out)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        _emit(_error_report(command, inputs, exc), args.out)
        return EXIT_PARSE
    except Exception as exc:
        traceback.print_exc(file=_sys.stderr)
        _emit(_error_report(command, inputs, exc), args.out)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
