"""lofo benchmark: one workload, repeated in fresh interpreters for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lofo source tree; the package is imported from
``src/``.  Each repetition is a new interpreter (``worker.py``) that pays
interpreter start, ``import lofo`` and input generation (set-up), then runs
the workload's ops one after another on a single thread and checks every
output.  Repetitions start until the next one would end past ``--seconds``,
with a per-workload minimum.  Every repetition of seed N gets the same
inputs, so medians over repetitions are over like samples.

Times are normalized seconds, which cancel the host's speed drift (see
worker.py); the raw medians are printed too.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` runs pairs of an untraced and a traced
repetition of the same inputs, reports the per-layer metrics of the first
traced repetition and the tracing overhead, and fails any CLI op whose
traced output bytes differ from the untraced ones.  The last stdout line is
the JSON result; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("calibrate", "lcd_scan", "exact_law", "sampled")
# Minimum repetitions per run.  They give set-up a median and fix the op tail
# quantile (tail_quantile) so that every run has ten samples beyond it.  The
# ops of a repetition differ in cost by kind, so each minimum also puts that
# quantile inside the samples of one op, not on the edge between two.
MIN_REPS = {"calibrate": 7, "lcd_scan": 3, "exact_law": 3, "sampled": 4}
MIN_TRACED_PAIRS = 2           # for the median tracing overhead
HARD_LIMIT_S = 150.0           # never start a repetition that would end later
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("LOFO_THREADS", None)
    return env


def run_rep(args, root, env, workdir, rep, trace, spans_out=""):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--workdir", os.path.join(workdir, f"rep{rep}-t{trace}"),
           "--spans-out", spans_out, "--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition {rep} (trace {trace}) exited {proc.returncode}: "
              f"{err.strip().splitlines()[-1:] or ''}")
        return None
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear interpolation between order statistics, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def tail_quantile(workload, ops_per_rep):
    """Highest quantile with ten samples beyond it at the minimum repetitions."""
    return 1.0 - 10.0 / (MIN_REPS[workload] * ops_per_rep)


def repeat(args, step):
    """Call step(i) until the next call would end past --seconds."""
    start = time.monotonic()
    done = 0
    while True:
        step(done)
        done += 1
        elapsed = time.monotonic() - start
        per_step = elapsed / done
        if elapsed + per_step > HARD_LIMIT_S:
            return
        least = MIN_TRACED_PAIRS if args.trace else MIN_REPS[args.workload]
        if done >= least and elapsed + per_step > args.seconds:
            return


def end_to_end(args, reps):
    ok = [r for r in reps if r is not None]
    times = [t for r in ok for t in r["op_times"]]
    # Median over ops of each op's median across repetitions: a pooled median
    # would sit between the slowest sample of one op and the fastest of the
    # next whenever a repetition has an even number of ops.
    per_op_medians = [statistics.median(ts) for ts in zip(*(r["op_times"] for r in ok))]
    ops_per_rep = len(ok[0]["op_times"])
    q = tail_quantile(args.workload, ops_per_rep)
    wall = statistics.median(r["wall_s"] for r in ok)
    print("raw medians: setup %.4g s, wall %.4g s; reference kernel median %.4g ms" % (
        statistics.median(r["setup_raw_s"] for r in ok),
        statistics.median(r["wall_raw_s"] for r in ok),
        1e3 * statistics.median(x for r in ok for x in r["ref_s"])))
    print(f"{len(ok)} repetitions x {ops_per_rep} ops = {len(times)} ops; "
          f"op_tail_ms is p{100 * q:.2f} ({len(times) * (1 - q):.1f} ops beyond)")
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops_per_rep / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_op_medians), "ms"),
        "op_tail_ms": (1e3 * percentile(times, q), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lofo", "__init__.py")):
        print(f"no lofo sources under {os.path.join(root, 'src')}; "
              "run from the root of a lofo checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    spans_dir = os.path.join(root, ".perfbench_out")
    reps, traced = [], []
    try:
        if args.trace:
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")

            def step(i):
                reps.append(run_rep(args, root, env, workdir, i, 0))
                traced.append(run_rep(args, root, env, workdir, i, 1, spans if i == 0 else ""))
        else:
            def step(i):
                reps.append(run_rep(args, root, env, workdir, i, 0))
        repeat(args, step)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    everything = reps + traced
    done = [r for r in everything if r is not None]
    if not done:
        print("no repetition completed", file=sys.stderr)
        return 1
    attempted = sum(len(r["op_times"]) for r in done) + (len(everything) - len(done))
    failed = len(everything) - len(done)
    for r in done:
        for kind, err in zip(r["op_kinds"], r["errors"]):
            if err is not None:
                failed += 1
                print(f"FAILED {kind}: {err}")
    for plain, tr in zip(reps, traced):
        if plain is None or tr is None:
            continue
        for kind, a, b in zip(plain["op_kinds"], plain["digests"], tr["digests"]):
            if a is not None and b is not None and a != b:
                failed += 1
                print(f"FAILED {kind}: traced output bytes differ from untraced")

    env_info = done[0]["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    if args.trace:
        first = next((t for t in traced if t is not None), None)
        if first is None:
            print("no traced repetition completed", file=sys.stderr)
            return 1
        overheads = [t["wall_s"] / p["wall_s"] - 1.0
                     for p, t in zip(reps, traced) if p is not None and t is not None]
        if not overheads:
            print("no untraced repetition completed next to a traced one", file=sys.stderr)
            return 1
        metrics = {name: (value, unit_of(name)) for name, value in first["layers"].items()}
        metrics["trace_overhead_frac"] = (statistics.median(overheads), "frac")
    else:
        metrics = end_to_end(args, reps)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


UNITS = {
    "setup.import_s": "s",
    "lcd.calls": "count",
    "lcd.n_evals": "count",
    "lcd.evals_per_s": "1/s",
    "lcd.gaps": "count",
    "lcd.repeat_share": "frac",
    "concentration.peak_support_atoms": "count",
    "concentration.support_inflation": "ratio",
    "concentration.off_lattice_atoms": "count",
    "distributions.finitedist_inits": "count",
    "concentration.q_exact_calls": "count",
    "concentration.mc_samples": "count",
    "concentration.mc_coverage": "frac",
    "concentration.esseen_bracket_share": "frac",
    "quadrature.integrand_evals": "count",
    "bounds.tau0_iterations": "count",
    "serialize.bytes_written": "bytes",
    "trace.spans": "count",
}


def unit_of(name):
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


if __name__ == "__main__":
    sys.exit(main())
