"""One repetition of a workload in a fresh interpreter; started by run.py.

Set-up (interpreter start, ``import lofo``, input generation) is timed from
the parent's spawn time.  The ops then run back to back and are timed one by
one; their checks run afterwards, outside every timed region, and the peak
RSS is read before the checks so that oracle memory does not count.  With
``--trace 1`` the ops run under the span tracer and the per-layer metrics of
this repetition are added to the output.  The result is one JSON line on
stdout.

Host speed.  On the shared 2-vCPU hosts this benchmark was built on, the
speed of one vCPU drifts by up to 2x over tens of seconds (identical
repetitions took 2.7 s to 5.8 s within five minutes, with no steal time
reported).  So a fixed reference kernel is timed three times after set-up,
between ops at least every REF_EVERY_S, and three times after the last op,
and every time is also reported in normalized seconds: raw seconds times
REF_NOMINAL_S over the median kernel time of the repetition.  A normalized
second is a second on a host where the kernel takes REF_NOMINAL_S.  The
kernel does not touch lofo, so a change to lofo moves normalized times as it
moves raw ones.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time


def layer_metrics(tracer, facts, import_s, scale):
    """Per-layer metrics of one traced repetition (names as in BENCHMARK.json).

    Times and rates are scaled to normalized seconds by the repetition's
    factor.
    """
    rows = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return rows.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return rows.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return rows.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(r[2] for n, r in rows.items() if n.startswith(layer + "."))

    def share(num, den):
        return num / den if den else 0.0

    lcd_calls = calls("lcd.lcd")
    out = {f"{layer}.self_s": layer_self(layer) for layer in
           ("distributions", "concentration", "lcd", "bounds", "quadrature",
            "harness", "serialize", "cli")}
    out.update({
        "setup.import_s": import_s,
        "lcd.calls": lcd_calls,
        "lcd.n_evals": counts["lcd.n_evals"],
        "lcd.evals_per_s": share(counts["lcd.n_evals"], incl("lcd.lcd")),
        "lcd.gaps": counts["lcd.gaps"],
        "lcd.repeat_share": share(counts["lcd.repeats"], lcd_calls),
        "concentration.weighted_sum_dist_s": incl("concentration.weighted_sum_dist"),
        "concentration.peak_support_atoms": counts["concentration.peak_support_atoms"],
        "concentration.support_inflation": facts.get("support_inflation", 0.0),
        "concentration.off_lattice_atoms": facts.get("off_lattice_atoms", 0),
        "distributions.finitedist_init_s": incl("distributions.FiniteDist.__init__"),
        "distributions.finitedist_inits": calls("distributions.FiniteDist.__init__"),
        "distributions.symmetrize_s": incl("distributions.symmetrize"),
        "distributions.m_functional_s": incl("distributions.m_functional"),
        "distributions.cf_s": incl("distributions.weighted_cf") + incl("distributions.cf_eval"),
        "concentration.q_exact_calls": calls("concentration.q_exact"),
        "concentration.q_exact_s": incl("concentration.q_exact"),
        "concentration.q_monte_carlo_s": incl("concentration.q_monte_carlo"),
        "concentration.mc_samples": counts["concentration.mc_samples"],
        "concentration.mc_coverage": share(facts.get("mc_covered", 0), facts.get("mc_total", 0)),
        "concentration.esseen_integral_s": incl("concentration.esseen_integral"),
        "concentration.esseen_bracket_share":
            share(facts.get("esseen_in_bracket", 0), facts.get("esseen_total", 0)),
        "quadrature.integrand_evals": counts["quadrature.integrand_evals"],
        "bounds.solve_tau0_s": incl("bounds.solve_tau0"),
        "bounds.tau0_iterations": counts["bounds.tau0_iterations"],
        "bounds.shape_crossover_s": incl("bounds.shape_crossover"),
        "harness.calibrate_upper.self_s": self_s("harness.calibrate_upper"),
        "harness.check_lower_binomial.self_s": self_s("harness.check_lower_binomial"),
        "harness.study_tau0_scaling.self_s": self_s("harness.study_tau0_scaling"),
        "serialize.dumps_canonical_s": incl("serialize.dumps_canonical"),
        "serialize.bytes_written": counts["serialize.bytes_written"],
        "trace.spans": len(tracer.spans),
    })
    for k, v in out.items():
        if k.endswith("_per_s"):
            out[k] = v / scale
        elif k.endswith("_s"):
            out[k] = v * scale
    return {k: float(v) for k, v in out.items()}


REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.25


def reference_kernel():
    """Fixed work in two halves: interpreter-bound small-array numpy calls,
    which the LCD scan and the harness loops resemble, and a stable argsort
    plus bincount, which convolution and coalescing resemble.  Slowdowns of
    the host hit the two kinds differently; the sum follows both.  About
    10 ms on the hosts described above."""
    import numpy as np
    x = np.random.default_rng(0).normal(size=512)
    s = 0.0
    for i in range(1000):
        y = (1000.0 + i) * x
        d = y - np.rint(y)
        s += float(np.dot(d, d))
    z = np.random.default_rng(1).random(50_000)
    order = np.argsort(z, kind="stable")
    s += float(np.bincount(np.cumsum(z[order] > 0.5), weights=z[order]).sum())
    return s


def timed(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import lofo
    import lofo.cli  # imports every layer module
    import_s = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(lofo.__file__).startswith(src + os.sep):
        print(f"lofo imported from {lofo.__file__}, not from {src}", file=sys.stderr)
        return 3

    import numpy
    import scipy
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    rep = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    op_times, errors, results = [], [], []
    reference_kernel()                    # warm-up: first calls run cold
    refs = [timed(reference_kernel) for _ in range(3)]
    last_ref = time.perf_counter()
    for i, op in enumerate(rep.ops):
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(timed(reference_kernel))
            last_ref = time.perf_counter()
        call = tracer.wrap_op(op.kind, i, op.call) if tracer else op.call
        t = time.perf_counter()
        try:
            res, err = call(), None
        except (Exception, SystemExit) as exc:   # a failed op is counted, not fatal
            res, err = None, f"{type(exc).__name__}: {exc}"
        op_times.append(time.perf_counter() - t)
        results.append(res)
        errors.append(err)
    refs += [timed(reference_kernel) for _ in range(3)]
    # One sample of the kernel jitters by 25%, so one factor per repetition.
    scale = REF_NOMINAL_S / statistics.median(refs)
    norm_times = [t * scale for t in op_times]
    wall_s = sum(norm_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    digests = []
    for i, op in enumerate(rep.ops):
        if errors[i] is None:
            try:
                errors[i] = op.check(results[i])
            except Exception as exc:
                errors[i] = f"check raised {type(exc).__name__}: {exc}"
        digests.append(digest(op.outputs) if errors[i] is None and op.outputs else None)

    out = {
        "setup_s": setup_s * scale,
        "setup_raw_s": setup_s,
        "wall_s": wall_s,
        "wall_raw_s": sum(op_times),
        "ref_s": refs,
        "peak_rss_mb": peak_rss_mb,
        "op_kinds": [op.kind for op in rep.ops],
        "op_times": norm_times,
        "errors": errors,
        "digests": digests,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count()},
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, rep.facts, import_s, scale)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                fields = ("id", "parent", "op", "name", "start", "dur", "self")
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(fields, span))) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
