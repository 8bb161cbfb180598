"""Command-line front end.

Subcommands: validate, analyze, solve, graph, iso, group, repcheck,
examples.  Every command prints one JSON report to stdout; identical
inputs and flags produce byte-identical reports apart from the volatile
"timestamp" field.

Exit codes: 0 pass, 1 check failure, 2 validation failure (a repcheck
representation whose modulus or generator count differs from the
system's included), 3 parse error (a usage error such as an unknown
command or option, an unreadable or non-UTF-8 input or output file, an
environment override that is not an integer or is below 1, and a --tol
outside [0, 1) included), 4 enumeration cap or search budget exceeded, 5
internal error (an unexpected exception; the report names it and stderr
has the traceback).
Every failure still prints exactly one report; --help exits 0.

Environment overrides: SYNCLCS_ENUM_CAP, SYNCLCS_SEARCH_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from datetime import datetime, timezone
from itertools import chain

from . import __version__
from .config import DEFAULT_TOL, MAX_REPCHECK_P, OMEGA_CONVENTION, Limits
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
from .presets import magic_square_system, preset_system
from .system import LinearSystem, row_size, validate_document
from .zp import ZpVector, label

# Each command imports the games, graphs, group, scalar and reps names it
# runs, so that validate, analyze, solve, examples and a scalar repcheck
# start without loading numpy.

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
    """Write the report as json.dumps(report, indent=2, allow_nan=False,
    default=CheckRecord.to_json) does, with each Checks written as its
    records, to `out_path` in full first, then to stdout.  Every refusal
    of a value JSON cannot hold is decided before the first byte: every
    value but a check block is encoded first, and a block is written as
    it is made, in pieces, only when nothing in it can be refused."""
    from .reporting import report_text  # loaded when a report is written
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    pieces = report_text(report)
    pieces.append("\n")

    def write(fh) -> None:
        for piece in pieces:  # a str, or a function that makes a block's text anew
            if type(piece) is str:
                fh.write(piece)
            else:
                fh.writelines(piece())

    if out_path:
        with open(out_path, "w") as fh:
            write(fh)
    write(_sys.stdout)


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
    # the sizes follow from the supports, so no row is listed; the cap is
    # checked as the graph builds check it, G(A,b) and then G(A,0)
    from .graphs import count_edges, row_pair_counts
    graphs, sizes = {}, {}
    for name, target in (("inhomogeneous", system), ("homogeneous", system.homogeneous())):
        sizes[name] = [row_size(target, i, limits.enum_cap) for i in range(1, system.m + 1)]
        graphs[name] = {"vertices": sum(sizes[name]),
                        "edges": count_edges(row_pair_counts(target, sizes[name]))}
    report["rows"] = [{"row": i, "support": list(V), "support_size": len(V), "solutions": size}
                      for i, (V, size) in enumerate(zip(system.supports, sizes["inhomogeneous"]), 1)]
    report["classically_solvable"] = system.solutions is not None
    report["graphs"] = graphs
    # a row without solutions is a zero row with b_i != 0
    warnings = [{"row": i, "message": "zero row with nonzero right-hand side"}
                for i, size in enumerate(sizes["inhomogeneous"], 1) if not size]
    if warnings:
        report["warnings"] = warnings
    return EXIT_PASS, {"verdict": "pass"}


def cmd_solve(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    from .games import best_deterministic_strategy, build_synclcs_game, find_perfect_deterministic
    solution_set = system.solutions
    game = build_synclcs_game(system, cap=limits.enum_cap)
    if solution_set is None:
        report["linear_system"] = {"consistent": False}
    else:
        report["linear_system"] = {
            "consistent": True,
            "particular": list(solution_set.particular.entries),
            "kernel_dimension": solution_set.kernel_dimension,
        }
    strategy = find_perfect_deterministic(game, budget=limits.search_budget)
    if strategy is not None:
        report["perfect_strategy"] = {
            str(i): label(strategy.assignment[i]) for i in game.inputs
        }
        report["best_value"] = "1"
    else:
        best, value = best_deterministic_strategy(game, budget=limits.search_budget)
        report["perfect_strategy"] = None
        report["best_strategy"] = {
            str(i): label(best.assignment[i]) for i in game.inputs
        }
        report["best_value"] = str(value)
    return EXIT_PASS, {"verdict": "pass"}


def cmd_graph(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    from .graphs import build_game_graph, export_dot, graph_to_json
    G = build_game_graph(system, homogeneous=args.homogeneous, cap=limits.enum_cap)
    report["homogeneous"] = bool(args.homogeneous)
    edges = G.edges()  # listed once, for the JSON and the DOT text
    report["graph"] = graph_to_json(G, edges)
    report["counts"] = _graph_counts(G)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(G, edges))
        report["dot_file"] = args.dot
    return EXIT_PASS, {"verdict": "pass"}


def cmd_iso(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    from .graphs import build_game_graph, isomorphism_search, translate_isomorphism
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
            f"{i}:{label(x)}": f"{j}:{label(y)}"
            for (i, x), (j, y) in sorted(result.bijection.forward.items())
        }
    solution_set = system.solutions
    if solution_set is not None:
        translate_isomorphism(G, H, solution_set.particular)
        report["translation"] = {
            "solution": list(solution_set.particular.entries),
            "verified": True,
            "agrees_with_search": result.bijection is not None,
        }
    return EXIT_PASS, {"verdict": "pass"}


def cmd_group(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    from .group import build_presentation
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
    if spec.startswith("scalar:"):
        from .scalar import scalar_rep_from_solution
        entries = spec[len("scalar:"):]  # empty: the solution of a system with no variables
        try:
            values = [int(v) for v in entries.split(",")] if entries else []
        except ValueError as exc:
            raise ParseError(f"bad scalar solution syntax: {exc}") from exc
        return scalar_rep_from_solution(system, ZpVector(system.p, tuple(values)))
    from .reps import load_representation, pauli_magic_square_rep
    if spec == "pauli-ms":
        if system.digest() != magic_square_system().digest():
            raise NotASolution(
                "pauli-ms is only valid for the built-in magic-square system"
            )
        return pauli_magic_square_rep()
    return load_representation(spec, tol, lambda p, n: _screen_representation(system, p, n))


def _bound_modulus(p: int) -> None:
    if p > MAX_REPCHECK_P:
        raise ModulusTooLarge(
            f"modulus {p} exceeds {MAX_REPCHECK_P}, the largest repcheck certifies")


def _screen_representation(system: LinearSystem, p: int, n: int) -> None:
    """Refuse a file of modulus p and n generators g_j above the cap, or for
    another p or n, where the checks would pair roots of unity with another
    Z_p or generators with variables that are not there."""
    _bound_modulus(p)
    if p != system.p:
        raise DimensionMismatch(
            f"representation modulus {p} differs from system modulus {system.p}")
    if n != system.n:
        raise DimensionMismatch(
            f"representation has {n} generators g_j, system has {system.n} variables")


def cmd_repcheck(system: LinearSystem, report: dict, args, limits: Limits) -> tuple[int, dict]:
    from .scalar import run_check_suite
    tol = args.tol
    # a residual of 1 or more cannot certify unitarity
    if not 0 <= tol < 1:
        raise ParseError(f"--tol must be a number in [0, 1), not {tol}")
    _bound_modulus(system.p)
    report["tolerance"] = tol
    report["inputs"]["rep_source"] = args.rep
    try:
        rep = _resolve_representation(args.rep, system, tol)
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
    report["checks"] = records  # the emitter writes each record as its to_json()
    summary = _check_summary(records)
    return (EXIT_PASS if summary["verdict"] == "pass" else EXIT_CHECK_FAILURE), summary


def _check_summary(checks) -> dict:
    """The repcheck summary of a list or Checks of records, read from the
    columns: the failures, where residual <= tolerance is false, the
    left-to-right max of the residuals in record order, and the name of
    the first failure, the only name built."""
    from .reporting import CheckBlock, Checks
    columns = [(part, part.ordered_residuals(), part.tolerance) if type(part) is CheckBlock
               else (part, (part.residual,), part.tolerance)
               for part in (checks.parts if type(checks) is Checks else checks)]
    failures, first = 0, None
    for part, residuals, tol in columns:
        failing = [k for k, residual in enumerate(residuals) if not residual <= tol]
        if failing and first is None:
            first = part.name(failing[0]) if type(part) is CheckBlock else part.name
        failures += len(failing)
    summary = {
        "verdict": "pass" if not failures else "fail",
        "checks": len(checks),
        "failures": failures,
        "max_residual": max(chain.from_iterable(residuals for _, residuals, _ in columns),
                            default=0.0),
    }
    if failures:
        summary["first_failure"] = first
    return summary


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


class _Parser(argparse.ArgumentParser):
    """Usage errors are parse errors, so they too end in one report."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        raise ParseError(message)


# (name, function, help) of each command that reads a system file
SYSTEM_COMMANDS = (
    ("validate", cmd_validate, "structural and semantic system checks"),
    ("analyze", cmd_analyze, "row supports, solution counts, graph sizes"),
    ("solve", cmd_solve, "classical solvability and deterministic strategies"),
    ("graph", cmd_graph, "build an incompatibility graph"),
    ("iso", cmd_iso, "search for a graph isomorphism to the homogeneous graph"),
    ("group", cmd_group, "emit the solution-group presentation"),
    ("repcheck", cmd_repcheck, "certify a representation against the system"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="synclcs",
                     description="Analyze linear-constraint-system games over Z_p.")
    parser.add_argument("--out", help="also write the report JSON to this file")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, help_text in SYSTEM_COMMANDS:
        commands[name] = sub.add_parser(name, help=help_text)
        commands[name].add_argument("path")
        commands[name].set_defaults(func=func)
    commands["graph"].add_argument("--homogeneous", action="store_true",
                                   help="use right-hand side 0 instead of b")
    commands["graph"].add_argument("--dot", help="write Graphviz DOT to this file")
    commands["group"].add_argument("--format", choices=("json", "relators"), default="json")
    commands["group"].add_argument(
        "--presentation-out", dest="presentation_out",
        help="write the presentation to this file instead of embedding it")
    commands["repcheck"].add_argument(
        "--rep", required=True, help="representation file, scalar:<v1,v2,...>, or pauli-ms")
    commands["repcheck"].add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_ex = sub.add_parser("examples", help="write a built-in example system file")
    p_ex.add_argument("name")
    p_ex.add_argument("--out-file", dest="out_file", help="destination path (default <name>.json)")
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
        import traceback  # loaded only for an internal error
        traceback.print_exc(file=_sys.stderr)
    inputs = {"name": args.name} if args.command == "examples" else {"path": args.path}
    report = _base_report(args.command, inputs)
    report["error"] = _error_json(error)
    report["summary"] = {"verdict": "error"}
    return code, report


def main(argv=None) -> int:
    args = argparse.Namespace(command=None, path=None, out=None)  # until argv parses
    try:
        args = build_parser().parse_args(argv)
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
