#!/usr/bin/env python3
"""Survey random systems: how often the three classical verdicts agree
(they must always agree) and what the searches cost.

Usage: python scripts/random_survey.py [--count N] [--seed S] [--pmax 3]

Exits 1 when any system's verdicts disagree or, with --certify, when any
consistent system has a nonzero certification residual, and 2 on a usage
error, such as --pmax below 2 or --size below 1.
"""

import argparse
import random
import time

from synclcs import (
    LinearSystem,
    build_game_graph,
    build_synclcs_game,
    find_perfect_deterministic,
    gauss_solve,
    isomorphism_search,
    scalar_rep_from_solution,
    run_check_suite,
)


def random_system(rng, p, m, n):
    A = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    b = [rng.randrange(p) for _ in range(m)]
    return LinearSystem.from_ints(p, A, b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pmax", type=int, default=3,
                        help="draw each modulus from the primes 2, 3 and 5 up to this (at least 2)")
    parser.add_argument("--size", type=int, default=5, help="max rows/columns (at least 1)")
    parser.add_argument("--certify", action="store_true",
                        help="also run the scalar certification suite on consistent systems")
    args = parser.parse_args(argv)
    if args.pmax < 2:
        parser.error("--pmax must be at least 2")
    if args.size < 1:
        parser.error("--size must be at least 1")

    primes = [q for q in (2, 3, 5) if q <= args.pmax]
    rng = random.Random(args.seed)
    consistent_count = disagreements = nonzero_systems = 0
    t0 = time.time()
    worst_nodes = 0
    for k in range(args.count):
        sys_ = random_system(rng, rng.choice(primes),
                             rng.randint(1, args.size), rng.randint(1, args.size))
        consistent = gauss_solve(sys_.A, sys_.b) is not None
        strat = find_perfect_deterministic(build_synclcs_game(sys_))
        G = build_game_graph(sys_)
        H = build_game_graph(sys_, homogeneous=True)
        result = isomorphism_search(G, H)
        agree = (strat is not None) == consistent == (result.bijection is not None)
        worst_nodes = max(worst_nodes, result.nodes)
        if not agree:
            disagreements += 1
            print(f"  DISAGREEMENT at system {k}: {sys_.to_json()}")
        if consistent:
            consistent_count += 1
            if args.certify:
                rep = scalar_rep_from_solution(sys_, gauss_solve(sys_.A, sys_.b).particular)
                records = run_check_suite(rep, sys_)
                nonzero = [r for r in records if r.residual != 0.0]
                if nonzero:
                    nonzero_systems += 1
                    print(f"  NONZERO RESIDUAL at system {k}: {nonzero[0].name}")
    dt = time.time() - t0
    print(f"{args.count} systems in {dt:.1f}s: {consistent_count} consistent, "
          f"{disagreements} with disagreeing verdicts, "
          f"{nonzero_systems} with nonzero residuals, "
          f"worst isomorphism search {worst_nodes} nodes")
    return 1 if disagreements or nonzero_systems else 0


if __name__ == "__main__":
    raise SystemExit(main())
