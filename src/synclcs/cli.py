"""Command-line front end.

Subcommands: validate, analyze, solve, graph, iso, group, repcheck,
examples.  Every command prints one JSON report to stdout; identical
inputs and flags produce byte-identical reports apart from the volatile
"timestamp" field.

Exit codes: 0 pass, 1 check failure, 2 validation failure (a repcheck
representation whose modulus or generator count differs from the
system's included), 3 parse error (an unreadable or non-UTF-8 input or
output file, a non-integer environment override and a negative or
non-finite --tol included), 4 enumeration cap or search budget exceeded,
5 internal error (an unexpected exception; the report names it and stderr
has the traceback).  Every failure still prints exactly one report.

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

# The exit code of every error a command may end in, first match wins; any
# other exception is an internal error and leaves its traceback on stderr.
EXIT_CODES = (
    ((ParseError, OSError, UnicodeDecodeError), EXIT_PARSE),
    ((EnumerationTooLarge, SearchBudgetExceeded), EXIT_BUDGET),
    ((UnknownExample, NotASolution), EXIT_VALIDATION),
)


def _emit(report: dict, out_path: str | None = None) -> None:
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    _sys.stdout.write(text)


def _base_report(command: str, inputs: dict) -> dict:
    return {
        "command": command,
        "toolkit_version": __version__,
        "omega_convention": OMEGA_CONVENTION,
        "inputs": inputs,
    }


def _error_json(error: Exception) -> dict:
    return {"type": type(error).__name__, "message": str(error)}


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


# Each cmd_* runs on a system that passed validation (examples gets None),
# adds its fields to the report and returns its exit code and summary.

def cmd_validate(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    # main has put the validation records into the report
    return EXIT_PASS, {"verdict": "pass"}


def _graph_counts(G) -> dict:
    return {"vertices": G.order(), "edges": G.edge_count()}


def cmd_analyze(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    G = build_game_graph(system, homogeneous=False, cap=limits.enum_cap)
    H = build_game_graph(system, homogeneous=True, cap=limits.enum_cap)
    solutions = G.solutions_by_row()
    rows = []
    for i in range(1, system.m + 1):
        V = sorted(row_support(system, i))
        rows.append({"row": i, "support": V, "support_size": len(V),
                     "solutions": len(solutions.get(i, ()))})
    report["rows"] = rows
    report["classically_solvable"] = gauss_solve(system.A, system.b) is not None
    report["graphs"] = {"inhomogeneous": _graph_counts(G), "homogeneous": _graph_counts(H)}
    warnings = [
        {"row": i, "message": "zero row with nonzero right-hand side"}
        for i in range(1, system.m + 1)
        if system.A.row(i).is_zero() and system.b.entry(i) != 0
    ]
    if warnings:
        report["warnings"] = warnings
    return EXIT_PASS, {"verdict": "pass"}


def cmd_solve(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    solution_set = gauss_solve(system.A, system.b)
    game = build_synclcs_game(system, cap=limits.enum_cap)
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
    return EXIT_PASS, {"verdict": "pass"}


def cmd_graph(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    G = build_game_graph(system, homogeneous=args.homogeneous, cap=limits.enum_cap)
    report["homogeneous"] = bool(args.homogeneous)
    report["graph"] = graph_to_json(G)
    report["counts"] = _graph_counts(G)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(G))
        report["dot_file"] = args.dot
    return EXIT_PASS, {"verdict": "pass"}


def cmd_iso(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    G = build_game_graph(system, homogeneous=False, cap=limits.enum_cap)
    H = build_game_graph(system, homogeneous=True, cap=limits.enum_cap)
    result = isomorphism_search(G, H, budget=limits.search_budget)
    report["graphs"] = {"inhomogeneous": _graph_counts(G), "homogeneous": _graph_counts(H)}
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
    return EXIT_PASS, {"verdict": "pass"}


def cmd_group(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    pres = build_presentation(system)
    report["relation_counts"] = pres.counts_by_family()
    report["relation_total"] = len(pres.relations)
    payload = pres.to_json() if args.format == "json" else pres.to_relators_text()
    if args.presentation_out:
        with open(args.presentation_out, "w") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n")
        report["presentation_file"] = args.presentation_out
    else:
        report["presentation"] = payload
    return EXIT_PASS, {"verdict": "pass"}


def _resolve_representation(spec: str, system: LinearSystem, tol: float):
    if spec == "pauli-ms":
        if system.digest() != magic_square_system().digest():
            raise NotASolution(
                "pauli-ms is only valid for the built-in magic-square system"
            )
        return pauli_magic_square_rep()
    if spec.startswith("scalar:"):
        try:
            values = [int(v) for v in spec[len("scalar:"):].split(",")]
        except ValueError as exc:
            raise ParseError(f"bad scalar solution syntax: {exc}") from exc
        return scalar_rep_from_solution(system, ZpVector(system.p, tuple(values)))
    return load_representation(spec, tol)


def _bound_modulus(p: int) -> None:
    if p > MAX_REPCHECK_P:
        raise ModulusTooLarge(
            f"modulus {p} exceeds {MAX_REPCHECK_P}, the largest repcheck certifies")


def cmd_repcheck(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    tol = args.tol
    if not 0 <= tol < float("inf"):
        raise ParseError(f"--tol must be a finite number >= 0, not {tol}")
    _bound_modulus(system.p)
    report["tolerance"] = tol
    report["inputs"]["rep_source"] = args.rep
    try:
        rep = _resolve_representation(args.rep, system, tol)
        _bound_modulus(rep.p)
        # the checks would pair p-th roots of unity with Z_p solutions of
        # another p, or generators with variables that are not there
        if rep.p != system.p:
            raise DimensionMismatch(
                f"representation modulus {rep.p} differs from system modulus {system.p}")
        if rep.n != system.n:
            raise DimensionMismatch(
                f"representation has {rep.n} generators g_j, system has {system.n} variables")
        report["representation"] = {"dim": rep.dim, "p": rep.p, "exact": rep.exact}
        records = run_check_suite(rep, system, tol=tol, cap=limits.enum_cap)
    except (ParseError, EnumerationTooLarge, SearchBudgetExceeded):
        raise
    except SyncLCSError as exc:
        # a representation of another system is refused; any other error
        # fails the checks
        report["error"] = _error_json(exc)
        if isinstance(exc, (NotASolution, DimensionMismatch)):
            return EXIT_VALIDATION, {"verdict": "fail"}
        return EXIT_CHECK_FAILURE, {"verdict": "fail", "first_failure": type(exc).__name__}
    report["checks"] = [rec.to_json() for rec in records]
    failures = [rec for rec in records if not rec.passed]
    summary = {
        "verdict": "pass" if not failures else "fail",
        "checks": len(records),
        "failures": len(failures),
        "max_residual": max((rec.residual for rec in records), default=0.0),
    }
    if failures:
        summary["first_failure"] = failures[0].name
    return (EXIT_PASS if not failures else EXIT_CHECK_FAILURE), summary


def cmd_examples(system: None, report: dict, args, limits: Limits) -> tuple[int, dict]:
    # main loads no system for examples: this command writes one
    system = preset_system(args.name)
    path = args.out_file or f"{args.name}.json"
    with open(path, "w") as fh:
        json.dump(system.to_json(), fh, indent=2)
        fh.write("\n")
    report["written"] = path
    report["system_digest"] = system.digest()
    return EXIT_PASS, {"verdict": "pass"}


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


def _run(args) -> tuple[int, dict]:
    """Resolve the limits, load and validate the system, run the command."""
    limits = Limits.from_env()
    system = None
    if args.command == "examples":
        report = _base_report("examples", {"name": args.name})
    else:
        system, inputs, validation = _load_system(args.path)
        report = _base_report(args.command, inputs)
        if system is None or args.command == "validate":
            report["checks"] = validation["records"]
        if system is None:
            report["summary"] = {"verdict": "fail"}
            return EXIT_VALIDATION, report
    code, report["summary"] = args.func(system, report, args, limits)
    return code, report


def _failure(args, error: Exception) -> tuple[int, dict]:
    """The exit code and error report of a command that raised `error`."""
    code = next((code for kinds, code in EXIT_CODES if isinstance(error, kinds)), EXIT_INTERNAL)
    if code == EXIT_INTERNAL:
        traceback.print_exc(file=_sys.stderr)
    report = _base_report(args.command, {"path": getattr(args, "path", None)})
    report["error"] = _error_json(error)
    report["summary"] = {"verdict": "error"}
    return code, report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = _run(args)
    except Exception as exc:
        code, report = _failure(args, exc)
    try:
        _emit(report, args.out)
    except Exception as exc:  # the --out file, or a float JSON cannot hold
        code, report = _failure(args, exc)
        _emit(report)
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
