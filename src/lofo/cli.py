"""Command-line interface.

Subcommands (the summand law F is always given by a distribution file; the
symmetrization needed by spread-functional computations happens internally):

    q       concentration of the weighted sum at a window length
    lcd     certified least common denominator of a weight vector
    tau0    crossover scale solving M(tau0) = 1/L^2
    bound   evaluate one bound shape from explicit parameters
    verify  run a calibration/lower-bound family and emit a JSON report
    report  render a report JSON to CSV (wide and plot-ready long form)

Exit codes: 0 success; 1 mathematical precondition violated (the message
names the failing condition, e.g. "L^2 <= 1/P"); 2 I/O, parsing, capacity
or numerical failures.  Failures print one line to stderr, no traceback.
With a fixed seed the emitted JSON is byte-identical across runs
(canonical serialization).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import (
    shape_bernoulli_min,
    shape_crossover,
    shape_esseen,
    shape_kolmogorov_rogozin,
    shape_lcd,
    shape_lcd_unit,
    shape_no_arithmetic,
    shape_vershynin,
    solve_tau0,
)
from .concentration import (
    DEFAULT_BUDGET,
    q_closed_form_gaussian,
    q_exact,
    q_monte_carlo,
    weighted_sum_dist,
)
from .distributions import AnalyticDist, FiniteDist, symmetrize
from .exceptions import CapacityError, NumericalError, ParseError, PreconditionError
from .harness import (
    calibrate_upper,
    check_lower_binomial,
    gen_equal_weight_family,
    gen_sparse_family,
    rows_to_csv,
    rows_to_long_csv,
)
from .lcd import lcd as lcd_search
from .serialize import dumps_canonical, load_dist, load_weights, write_canonical


def _emit(obj, out_path):
    if out_path:
        write_canonical(obj, out_path)
    else:
        sys.stdout.write(dumps_canonical(obj) + "\n")


def _csv_numbers(text: str, cast=float) -> list:
    try:
        return [cast(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ParseError(f"comma-separated list {text!r}: {exc}") from None


def cmd_q(args) -> int:
    dist = load_dist(args.dist)
    weights = load_weights(args.weights)
    method = args.method
    if method == "auto":
        if isinstance(dist, FiniteDist):
            method = "exact"
        elif dist.kind == "gaussian":
            method = "closed-form"
        else:
            method = "monte-carlo"
    if method == "exact":
        if not isinstance(dist, FiniteDist):
            raise PreconditionError("exact concentration needs a finite distribution")
        fa = weighted_sum_dist(dist, weights, budget=args.budget)
        est = q_exact(fa, args.lam)
    elif method == "closed-form":
        if not (isinstance(dist, AnalyticDist) and dist.kind == "gaussian"):
            raise PreconditionError("closed-form concentration needs a gaussian law")
        est = q_closed_form_gaussian(dist.sigma * weights.norm2, args.lam)
    else:
        est = q_monte_carlo(dist, weights, args.lam, args.samples, args.seed)
    _emit(est.to_json(), args.out)
    return 0


def cmd_lcd(args) -> int:
    weights = load_weights(args.weights)
    res = lcd_search(weights, args.L, args.variant, tol=args.tol)
    _emit(res.to_json(), args.out)
    return 0


def cmd_tau0(args) -> int:
    g = symmetrize(load_dist(args.dist))
    root = solve_tau0(
        g, args.L, args.tol, dstar=args.dstar, n_samples=args.samples, seed=args.seed
    )
    _emit(root.to_json(), args.out)
    return 0


def cmd_bound(args) -> int:
    sid = args.shape
    need = lambda flag, val: val if val is not None else _missing(sid, flag)
    if sid == "kolmogorov_rogozin":
        value = shape_kolmogorov_rogozin(
            need("--lambda", args.lam),
            _csv_numbers(need("--lambda-k", args.lam_k)),
            _csv_numbers(need("--q-k", args.q_k)),
        )
        params = {"lambda": args.lam, "lambda_k": args.lam_k, "q_k": args.q_k}
    elif sid == "esseen":
        value = shape_esseen(
            need("--lambda", args.lam),
            _csv_numbers(need("--lambda-k", args.lam_k)),
            _csv_numbers(need("--m-k", args.m_k)),
        )
        params = {"lambda": args.lam, "lambda_k": args.lam_k, "m_k": args.m_k}
    elif sid == "vershynin":
        value = shape_vershynin(need("--L", args.L), need("--D", args.D))
        params = {"L": args.L, "D": args.D}
    elif sid == "lcd_unit":
        value = shape_lcd_unit(need("--D", args.D), need("--m1", args.m1))
        params = {"D": args.D, "m1": args.m1}
    elif sid == "lcd":
        value = shape_lcd(
            need("--D", args.D), need("--norm-a", args.norm_a), need("--m-tau", args.m_tau)
        )
        params = {"D": args.D, "norm_a": args.norm_a, "m_tau": args.m_tau}
    elif sid == "no_arithmetic":
        value = shape_no_arithmetic(
            need("--norm-inf", args.norm_inf),
            need("--norm-a", args.norm_a),
            need("--m-tau", args.m_tau),
        )
        params = {"norm_inf": args.norm_inf, "norm_a": args.norm_a, "m_tau": args.m_tau}
    elif sid == "bernoulli_min":
        value = shape_bernoulli_min(
            need("--eps", args.eps), need("--dstar", args.dstar), need("--p", args.p)
        )
        params = {"eps": args.eps, "dstar": args.dstar, "p": args.p}
    elif sid == "crossover":
        dist = load_dist(need("--dist", args.dist))
        weights = load_weights(need("--weights", args.weights))
        g = symmetrize(dist)
        dstar = args.dstar
        if dstar is None:
            dstar = lcd_search(weights, args.L, "d_star", tol=args.tol).value
        shape = shape_crossover(
            weights, g, need("--L", args.L), need("--eps", args.eps), dstar,
            n_samples=args.samples, seed=args.seed,
        )
        _emit(shape.to_json(), args.out)
        return 0
    else:
        raise PreconditionError(f"unknown bound shape {sid!r}")
    _emit({"id": sid, "params": params, "value": value}, args.out)
    return 0


def _missing(shape, flag):
    raise PreconditionError(f"shape {shape!r} requires {flag}")


def cmd_verify(args) -> int:
    s_list = _csv_numbers(args.s_list, int)
    p_list = _csv_numbers(args.p_list)
    if args.bound == "binomial_lower":
        rep = check_lower_binomial(s_list, p_list, n_eps=args.n_eps)
        payload = {"kind": "binomial_lower", "seed": args.seed, **rep.to_json()}
    else:
        if args.family == "sparse":
            fam = gen_sparse_family(s_list, p_list=p_list, perturbed=args.perturbed)
        elif args.family == "equal_weight":
            fam = gen_equal_weight_family(s_list, p_list=p_list)
        else:
            raise PreconditionError(f"unknown family {args.family!r}")
        rep = calibrate_upper(args.bound, fam, args.L, n_eps=args.n_eps)
        payload = {"kind": "calibration", "seed": args.seed, **rep.to_json()}
    _emit(payload, args.out)
    return 0


def cmd_report(args) -> int:
    with open(args.infile, encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = payload.get("rows", []) if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ParseError("report JSON must be an object whose rows are objects")
    if not rows:
        raise PreconditionError("report contains no rows")
    rows_to_csv(rows, args.out_csv)
    if args.out_long:
        rows_to_long_csv(rows, args.out_long)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lofo",
        description="concentration functions of weighted sums and their arithmetic-structure bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("q", help="concentration of the weighted sum")
    q.add_argument("--dist", required=True, help="distribution JSON file")
    q.add_argument("--weights", required=True, help="weight vector file")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--method", choices=["auto", "exact", "closed-form", "monte-carlo"],
                   default="auto")
    q.add_argument("--samples", type=int, default=100_000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    q.add_argument("--out")
    q.set_defaults(func=cmd_q)

    l = sub.add_parser("lcd", help="certified least common denominator")
    l.add_argument("--weights", required=True)
    l.add_argument("--L", type=float, required=True)
    l.add_argument("--variant", choices=["d", "d_star"], default="d_star")
    l.add_argument("--tol", type=float, default=1e-6)
    l.add_argument("--out")
    l.set_defaults(func=cmd_lcd)

    t = sub.add_parser("tau0", help="crossover scale M(tau0) = 1/L^2")
    t.add_argument("--dist", required=True)
    t.add_argument("--L", type=float, required=True)
    t.add_argument("--tol", type=float, default=None)
    t.add_argument("--dstar", type=float, default=None)
    t.add_argument("--samples", type=int, default=1_000_000)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out")
    t.set_defaults(func=cmd_tau0)

    b = sub.add_parser("bound", help="evaluate one bound shape")
    b.add_argument("--shape", required=True,
                   choices=["kolmogorov_rogozin", "esseen", "vershynin", "lcd_unit",
                            "lcd", "no_arithmetic", "crossover", "bernoulli_min"])
    b.add_argument("--lambda", dest="lam", type=float)
    b.add_argument("--lambda-k", dest="lam_k")
    b.add_argument("--q-k", dest="q_k")
    b.add_argument("--m-k", dest="m_k")
    b.add_argument("--L", type=float)
    b.add_argument("--D", type=float)
    b.add_argument("--m1", type=float)
    b.add_argument("--m-tau", dest="m_tau", type=float)
    b.add_argument("--norm-a", dest="norm_a", type=float)
    b.add_argument("--norm-inf", dest="norm_inf", type=float)
    b.add_argument("--eps", type=float)
    b.add_argument("--dstar", type=float)
    b.add_argument("--p", type=float)
    b.add_argument("--dist")
    b.add_argument("--weights")
    b.add_argument("--tol", type=float, default=1e-6)
    b.add_argument("--samples", type=int, default=1_000_000)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bound)

    v = sub.add_parser("verify", help="family calibration / lower-bound check")
    v.add_argument("--family", choices=["sparse", "equal_weight"], default="sparse")
    v.add_argument("--bound", required=True,
                   choices=["crossover", "kolmogorov_rogozin", "esseen", "binomial_lower"])
    v.add_argument("--L", type=float, default=2.0)
    v.add_argument("--s-list", dest="s_list", default="4,8,16,32,64")
    v.add_argument("--p-list", dest="p_list", default="0.2,0.3,0.4,0.5")
    v.add_argument("--n-eps", dest="n_eps", type=int, default=40)
    v.add_argument("--perturbed", action="store_true")
    v.add_argument("--seed", type=int, default=0,
                   help="label echoed into the report; verify is deterministic")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("report", help="render report JSON to CSV")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--out-csv", dest="out_csv", required=True)
    r.add_argument("--out-long", dest="out_long")
    r.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, json.JSONDecodeError) as exc:
        return _fail("parse error", exc, 2)
    except (CapacityError, NumericalError, OSError) as exc:
        return _fail("operational failure", exc, 2)
    except (PreconditionError, ValueError) as exc:
        return _fail("precondition violated", exc, 1)


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(f"{kind}: " + " ".join(str(exc).split()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
