"""Benchmark runner for synclcs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a synclcs source tree.  The workload's inputs are
generated from the seed into perfbench/work/ (removed on exit).

--trace 0 runs every entry as a fresh `python -m synclcs.cli` subprocess
with PYTHONPATH=src, strictly one at a time, and repeats whole passes over
the entries: as many as come closest to --seconds, judged by the first
pass, and at least one.  It reports the end-to-end metrics.

--trace 1 runs the same commands in-process through synclcs.cli.main:
an untraced pass, a pass with the wrappers of tracing.py installed, and
another untraced pass.  It reports the per-layer metrics that
BENCHMARK.json lists, including the tracing overhead.

Every report is checked against the entry's oracle.  The last line of
stdout is the result JSON; the line before it holds the environment and
the per-entry record (exit codes, times, peak RSS, report digests).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = "perfbench/work"
OUTDIR = "perfbench/out"
SETUP_LAUNCHES = 7
ENTRY_TIMEOUT_S = 120.0
LAUNCHER = "perfbench/launch.py"


def strip_timestamp(data: bytes) -> bytes:
    """The report without its volatile "timestamp" line."""
    return b"\n".join(line for line in data.split(b"\n")
                      if not line.lstrip().startswith(b'"timestamp":'))


def run_child(argv: list, out_path: str, env: dict) -> tuple:
    """Run one command through launch.py; (exit code, wall s, CPU s, peak RSS MiB, stderr).

    The exit code is None when the command was killed at ENTRY_TIMEOUT_S.
    """
    err_path, result_path = out_path + ".err", out_path + ".launch"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        subprocess.run([sys.executable, LAUNCHER, result_path, str(ENTRY_TIMEOUT_S), *argv],
                       stdout=out, stderr=err, env=env, check=True)
    with open(result_path) as fh:
        result = json.load(fh)
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    return result["exit"], result["wall_s"], result["cpu_s"], result["maxrss_kb"] / 1024, stderr


def judge(entry, code, stdout: bytes, error: str = "") -> dict:
    """Exit code, oracle verdict and digest of one report."""
    body = strip_timestamp(stdout)
    problems = []
    if code != 0:
        tail = error.strip().splitlines()[-1:]
        problems.append(f"exit {code}, expected 0" + "".join(f" ({t})" for t in tail))
    try:
        report = json.loads(stdout)
    except ValueError:
        problems.append("stdout is not one JSON report")
    else:
        problems += entry.check(report)
    return {"bytes": len(body), "sha256": hashlib.sha256(body).hexdigest(), "problems": problems}


def measure_setup(env: dict) -> list:
    """Wall times of import-only launches, after one warm-up launch."""
    out_path = os.path.join(WORKDIR, "setup.out")
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        code, wall, _, _, stderr = run_child([sys.executable, "-c", "import synclcs.cli"], out_path, env)
        if code != 0:
            raise RuntimeError(f"import-only launch failed: {stderr.strip()}")
        if k:
            times.append(wall)
    return times


def untraced(entries: list, seconds: float) -> tuple:
    env = dict(os.environ, PYTHONPATH="src")
    setup = measure_setup(env)
    passes = []
    while True:
        records = []
        for entry in entries:
            out_path = os.path.join(WORKDIR, f"{entry.name}.out")
            argv = [sys.executable, "-m", "synclcs.cli", *entry.argv]
            code, wall, cpu, rss, stderr = run_child(argv, out_path, env)
            with open(out_path, "rb") as fh:
                record = judge(entry, code, fh.read(), stderr)
            record.update(exit=code, wall_s=wall, cpu_s=cpu, rss_mb=rss)
            records.append(record)
        passes.append(records)
        # as many whole passes as fill --seconds best, judged by the first
        first = sum(r["wall_s"] for r in passes[0])
        if len(passes) >= max(1, round(seconds / first)):
            break

    ladder = [sum(r["wall_s"] for r in rs) for rs in passes]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ladder_s": (statistics.median(ladder), "s"),
        # a mean, not a median: over two or three passes it varies less
        "slowest_s": (statistics.mean(max(r["wall_s"] for r in rs) for rs in passes), "s"),
        "peak_rss_mb": (statistics.median(max(r["rss_mb"] for r in rs) for rs in passes), "MiB"),
        "report_bytes": (sum(r["bytes"] for r in passes[0]), "bytes"),
    }
    samples = {"setup_s": setup, "ladder_s": ladder}
    return passes, metrics, samples


def in_process_pass(entries: list, cli, reset, tracer: Tracer | None = None) -> list:
    records = []
    for k, entry in enumerate(entries):
        reset()
        gc.collect()
        buf = io.StringIO()
        error = ""
        if tracer is not None:
            tracer.entry = k
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(entry.argv))
        except Exception as exc:  # a crash is this entry's failure, not the run's
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        text = buf.getvalue().encode()
        record = judge(entry, code, text, error)
        record.update(exit=code, wall_s=wall, emitted=len(text))
        records.append(record)
    return records


def traced(entries: list, workload: str, layer_metrics: list) -> tuple:
    """Untraced, traced and untraced again in-process passes.

    The untraced passes bracket the traced one, so that one-time costs of
    the process fall on the first untraced pass only and the overhead is
    taken against their mean.
    """
    import synclcs.cli as cli
    import synclcs.zp as zp

    reset = zp.is_prime.cache_clear  # the cache would hide later passes' work
    before = in_process_pass(entries, cli, reset)
    tracer = Tracer()
    tracer.install()
    try:
        traced_records = in_process_pass(entries, cli, reset, tracer)
    finally:
        tracer.uninstall()
    after = in_process_pass(entries, cli, reset)
    plain_s = statistics.mean(sum(r["wall_s"] for r in rs) for rs in (before, after))
    traced_s = sum(r["wall_s"] for r in traced_records)
    metrics = tracer.metrics(layer_metrics, sum(r["emitted"] for r in traced_records),
                             traced_s / plain_s - 1)
    os.makedirs(OUTDIR, exist_ok=True)
    with open(os.path.join(OUTDIR, f"spans-{workload}.json"), "w") as fh:
        json.dump({"entries": [e.name for e in entries], **tracer.spans_json()}, fh)
    return [before, traced_records, after], metrics


def preflight(workload: str, systems: list) -> list:
    """Check the generated inputs with the library before any timing:
    construction-known solvability against gauss_solve, and the pentagram's
    dimension-8 operator solution against the full check suite."""
    from synclcs.reps import load_representation, run_check_suite
    from synclcs.system import LinearSystem
    from synclcs.zp import gauss_solve

    problems = []
    by_name = {}
    for s in systems:
        system = LinearSystem.from_json(s.to_json())
        by_name[s.name] = system
        if (gauss_solve(system.A, system.b) is not None) != s.solvable:
            problems.append(f"{s.name}: gauss_solve disagrees with construction")
    if workload == "float-operator":
        rep = load_representation(os.path.join(WORKDIR, "pentagram-d8.json"))
        records = run_check_suite(rep, by_name["pentagram"])
        failing = [r.name for r in records if not r.passed]
        if failing or not records:
            problems.append(f"pentagram dim-8 solution fails {len(failing)} of {len(records)} checks")
    return problems


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read()))
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                             ).stdout.strip() or None
    except OSError:
        sha = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "synclcs" / "cli.py").is_file():
        print(f"error: no synclcs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, "src")
    for name in [k for k in os.environ if k.startswith("SYNCLCS_")]:
        del os.environ[name]  # the programs run with their default limits
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        entries, systems = workloads.build(args.workload, WORKDIR, args.seed)
        problems = preflight(args.workload, systems)
        if args.trace:
            with open("BENCHMARK.json") as fh:
                layer_metrics = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
            passes, metrics = traced(entries, args.workload, layer_metrics)
            samples = {}
        else:
            passes, e2e, samples = untraced(entries, args.seconds)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r["problems"])
    for k, entry in enumerate(entries):
        digests = {p[k]["sha256"] for p in passes}
        if len(digests) > 1:
            problems.append(f"{entry.name}: report differs between passes")
    if not args.trace:
        metrics["pass_frac"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}

    detail = {
        "environment": environment(args.workload, args.seed),
        "passes": len(passes),
        "failed_frac": f"{failed}/{attempted}",
        "problems": problems,
        "samples": samples,
        "entries": [
            {"name": e.name, "argv": list(e.argv),
             "exit": [p[k]["exit"] for p in passes],
             "wall_s": [round(p[k]["wall_s"], 4) for p in passes],
             "cpu_s": [round(p[k]["cpu_s"], 4) for p in passes if "cpu_s" in p[k]],
             "rss_mb": [round(p[k]["rss_mb"], 1) for p in passes if "rss_mb" in p[k]],
             "bytes": passes[0][k]["bytes"],
             "sha256": passes[0][k]["sha256"],
             "problems": sorted({x for p in passes for x in p[k]["problems"]})}
            for k, e in enumerate(entries)
        ],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
