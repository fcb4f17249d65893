"""hofchain benchmark: correct operations per second on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hofchain is imported from ./src.
Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Whole rounds run until the next round would
pass ``--seconds``.  Every operation is bracketed by a machine-speed probe,
and the time metrics are wall times scaled to the probe's reference speed
(see bench_speed.py).  With ``--trace 0`` the end-to-end metrics are
measured with no wrappers installed.  With ``--trace 1`` round 0 is run
alternately untraced and traced, the per-layer metrics come from the traced
rounds, and the difference between the two is the tracing overhead; on
bethe-solve, the sizes where solve_L3 is known to fail are also solved once,
untimed, and reported as ``known_defect`` lines.  The last line of standard
output is one JSON object; the lines before it give every metric by name
with its unit, the environment and each failed operation.  See
perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BLAS_THREADS = 1
MARGIN_FLOOR = 1e-300     # residual floor, so an exact zero gives a finite margin

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import numpy, hofchain; "
                "print(time.perf_counter() - t)")


def limit_blas_threads():
    """Run BLAS on one thread; must run before numpy is imported.

    One thread is within nproc and steadier on shared cores; the largest
    matrices multiplied are 729 x 729.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0))}


def import_seconds() -> float:
    """Time to import numpy and hofchain in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Result:
    key: dict
    seconds: float
    ok: bool
    margin: float = math.inf
    failure: tuple = None     # (exception class or check label, message)
    diag: dict = None
    file_bytes: list = None
    scale: float = 1.0        # machine-speed factor, see bench_speed

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def run_op(op, tracer=None) -> Result:
    """Time one call into hofchain, then check its output untimed."""
    from bench_workloads import ReportedFailure
    t0 = perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.record():
                out = op.run()
    except Exception as exc:   # an operation's failure is a result, not a crash
        return Result(op.key, perf_counter() - t0, False,
                      failure=(type(exc).__name__, str(exc)))
    dt = perf_counter() - t0
    sizes = [os.path.getsize(f) for f in op.files]
    try:
        checks, diag = op.check(out)
    except ReportedFailure as exc:
        return Result(op.key, dt, False, failure=(exc.cls, str(exc)),
                      file_bytes=sizes)
    bad = [(label, res, tol) for label, res, tol in checks if not res <= tol]
    margins = [math.log10(tol / max(res, MARGIN_FLOOR))
               for _, res, tol in checks if tol > 0]
    if bad:
        label, res, tol = bad[0]
        return Result(op.key, dt, False, failure=(
            f"check:{label}", f"residual {res:.3g} > {tol:g}"), diag=diag,
            file_bytes=sizes)
    return Result(op.key, dt, True, min(margins, default=math.inf), diag=diag,
                  file_bytes=sizes)


def run_round(ops, tracer=None) -> list:
    """Run ops in order, each bracketed by machine-speed probes."""
    import bench_speed
    results = []
    before = bench_speed.probe()
    for op in ops:
        result = run_op(op, tracer)
        after = bench_speed.probe()
        result.scale = bench_speed.scale(before, after)
        before = after
        results.append(result)
    return results


def slot_p50_ms(rounds) -> float:
    """Median over operation slots of each slot's median passing latency.

    A slot is one position in the round, the same operation on new inputs
    in every round.  Taking the slot's median first keeps one slow or fast
    round, or a shift between failing and passing operations, from moving
    the result.
    """
    slots = []
    for s in range(len(rounds[0])):
        passing = [r[s].ref_seconds for r in rounds if r[s].ok]
        if passing:
            slots.append(statistics.median(passing))
    return 1e3 * statistics.median(slots) if slots else 0.0


def end_to_end(rounds, setup_s: float) -> dict:
    """The end-to-end metrics as {name: (value, unit)}, from whole rounds."""
    results = [x for r in rounds for x in r]
    times = [r.ref_seconds for r in results]
    ok = sum(r.ok for r in results)
    margins = [r.margin for r in results if r.ok]
    margin = statistics.median(margins) if margins else 0.0
    metrics = {
        "ok_per_s": (ok / sum(times), "1/s"),
        "op_p50_ms": (slot_p50_ms(rounds), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "accuracy_margin_dec": (margin, "dec"),
        "ok_share": (ok / len(results), "share"),
    }
    return metrics


def measure(make_round, seed: int, ops, workdir: str, t_run: float,
            seconds: float) -> tuple:
    """Closed loop over whole rounds until the next one would pass the budget."""
    rounds, round_s = [], []
    while True:
        t0 = perf_counter()
        if rounds:
            ops = make_round(seed, len(rounds), workdir)
        rounds.append(run_round(ops))
        round_s.append(perf_counter() - t0)
        if perf_counter() - t_run + round_s[-1] > seconds:
            break
    results = [x for r in rounds for x in r]
    times = [x.ref_seconds for x in results]
    raw = [x.seconds for x in results]
    ok = sum(x.ok for x in results)
    failed = len(results) - ok
    lines = [f"rounds {len(rounds)} round_s "
             + " ".join(f"{v:.4g}" for v in round_s),
             f"raw_wall ok_per_s {ok / sum(raw):.6g} 1/s op_p50_ms "
             f"{1e3 * statistics.median(raw):.6g} ms speed_factor_median "
             f"{statistics.median(x.scale for x in results):.4g}",
             f"op_p50_ms slots {len(rounds[0])} rounds {len(rounds)}",
             f"failed_share {failed / len(results):.6g} share "
             f"({failed} of {len(results)})"]
    if len(times) >= 100:
        p90 = 1e3 * statistics.quantiles(times, n=10, method="inclusive")[8]
        lines.append(f"op_p90_ms {p90:.6g} ms samples {len(times)}")
    return rounds, lines


def measure_traced(ops, tracer, t_run: float, seconds: float,
                   defects) -> tuple:
    """Round 0 alternately untraced and traced; counts must repeat exactly."""
    results, traced_results, plain, traced = [], [], [], []
    first_counts, correct = None, True
    while True:
        t0 = perf_counter()
        untraced_round = run_round(ops)
        with tracer.installed():
            traced_round = run_round(ops, tracer)
        results += untraced_round + traced_round
        traced_results += traced_round
        plain.append(sum(x.ref_seconds for x in untraced_round))
        traced.append(sum(x.ref_seconds for x in traced_round))
        counts = tracer.counts()
        if first_counts is None:
            first_counts = counts
        elif any(counts[k] != first_counts[k] * len(traced) for k in counts):
            print("error: counts differ between traced rounds of the same "
                  "inputs", file=sys.stderr)
            correct = False
        if perf_counter() - t_run + (perf_counter() - t0) > seconds:
            break
    rounds = len(traced)
    metrics = tracer.layer_metrics(rounds)
    metrics.update(bench_layers(traced_results, rounds, defects))
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    lines = [f"trace rounds {rounds} untraced_s {statistics.median(plain):.6g} "
             f"traced_s {statistics.median(traced):.6g}"]
    return results, metrics, lines, correct


def bench_layers(results, rounds: int, defects) -> dict:
    """Layer metrics that the benchmark's own checks and files give.

    ``defects`` are the results of the workload's known-defect record.
    """
    from bench_workloads import ROOT_TOL
    roots = [r.diag["root_rel_residual"] for r in results
             if r.diag and "root_rel_residual" in r.diag]
    sizes = [b for r in results if r.file_bytes for b in r.file_bytes]
    return {
        "bethe.solve_L3.fail_share": (
            sum(not r.ok for r in defects) / len(defects) if defects else 0.0,
            "share"),
        "bethe.roots.rel_residual_max": (max(roots, default=0.0), "rel"),
        "bethe.roots.over_tol": (
            sum(v > ROOT_TOL for v in roots) // max(rounds, 1), "count"),
        "cli.report_bytes": (
            sum(sizes) / len(sizes) if sizes else 0.0, "B/file"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # turn SIGTERM into SystemExit, so the work directory is removed and a
    # running child is killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    limit_blas_threads()
    t_setup = perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import hofchain
    except ImportError as exc:
        print(f"error: cannot import hofchain from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(hofchain.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: hofchain imported from {hofchain.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench_speed
    import bench_trace
    import bench_workloads
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_round = bench_workloads.WORKLOADS[args.workload]
    first_import = perf_counter() - t_setup

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        gen, imports, setups = [], [], []
        for _ in range(SETUP_REPEATS):
            before = bench_speed.probe()
            t0 = perf_counter()
            ops = make_round(args.seed, 0, workdir)
            gen.append(perf_counter() - t0)
            imports.append(import_seconds())
            factor = bench_speed.scale(before, bench_speed.probe())
            setups.append((gen[-1] + imports[-1]) * factor)
        setup_s = statistics.median(setups)

        print("env " + json.dumps(environment(), sort_keys=True))
        print(f"setup raw first_import_s {first_import:.6g} "
              f"import_s {statistics.median(imports):.6g} "
              f"inputs_s {statistics.median(gen):.6g}")
        t_run = perf_counter()
        if args.trace:
            # warm-up, so that the first untraced round does not carry the
            # first-call costs into the overhead; it counts against --seconds
            run_round(ops)
            # the known defect is recorded untimed and untraced; it counts
            # against --seconds but not in attempted or failed
            record = bench_workloads.DEFECT_RECORDS.get(args.workload)
            defects = run_round(record(args.seed)) if record else []
            results, metrics, lines, correct = measure_traced(
                ops, bench_trace.Tracer(), t_run, args.seconds, defects)
        else:
            defects = []
            rounds, lines = measure(make_round, args.seed, ops, workdir,
                                    t_run, args.seconds)
            results = [x for r in rounds for x in r]
            metrics = end_to_end(rounds, setup_s)
            correct = True

    failed = [r for r in results if not r.ok]
    if any(r.failure[0].startswith("check:") for r in failed):
        correct = False
    print(f"workload {args.workload} seed {args.seed} operations "
          f"{len(results)} wall_s {perf_counter() - t_run:.6g}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    failures = Counter((json.dumps(r.key), *r.failure) for r in failed)
    for (key, cls, message), times in failures.items():
        print("failed " + json.dumps({**json.loads(key), "error": cls,
                                      "message": message[:200],
                                      "times": times}))
    for r in defects:
        if not r.ok:
            print("known_defect " + json.dumps({**r.key, "error": r.failure[0],
                                                "message": r.failure[1][:200]}))
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
