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
import functools
import json
import sys

from .bounds import (
    BoundShape,
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
from .distributions import symmetrize
from .exceptions import CapacityError, NumericalError, ParseError, PreconditionError
from .harness import (
    _BINOMIAL_LOWER,
    _FAMILIES,
    _RECIPES,
    calibrate_upper,
    check_lower_binomial,
    render_csvs,
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


# Q method -> (what a law needs for it, the estimate from the law, weights
# and flags).  A law lists its methods, default first, in ``_q_methods``.
_Q_METHODS = {
    "exact": ("a finite distribution", lambda dist, a, args: q_exact(
        weighted_sum_dist(dist, a, budget=args.budget), args.lam)),
    "closed-form": ("a gaussian law", lambda dist, a, args: q_closed_form_gaussian(
        dist.sigma * a.norm2, args.lam)),
    "monte-carlo": ("a sampler", lambda dist, a, args: q_monte_carlo(
        dist, a, args.lam, args.samples, args.seed)),
}


def cmd_q(args) -> dict:
    dist = load_dist(args.dist)
    weights = load_weights(args.weights)
    method = dist._q_methods[0] if args.method == "auto" else args.method
    needs, estimate = _Q_METHODS[method]
    if method not in dist._q_methods:
        raise PreconditionError(f"{method} concentration needs {needs}")
    return estimate(dist, weights, args).to_json()


def cmd_lcd(args) -> dict:
    weights = load_weights(args.weights)
    res = lcd_search(weights, args.L, args.variant, tol=args.tol)
    return res.to_json()


def cmd_tau0(args) -> dict:
    g = symmetrize(load_dist(args.dist))
    root = solve_tau0(
        g, args.L, args.tol, dstar=args.dstar, n_samples=args.samples, seed=args.seed
    )
    return root.to_json()


# Shape id -> (function, its flags in argument order).  A flag's argparse
# dest and its key in the emitted params are _key(flag).  crossover takes
# the law and weight files, loads them and finds D* unless --dstar is given.
_SHAPES = {
    "kolmogorov_rogozin": (shape_kolmogorov_rogozin, ("--lambda", "--lambda-k", "--q-k")),
    "esseen": (shape_esseen, ("--lambda", "--lambda-k", "--m-k")),
    "vershynin": (shape_vershynin, ("--L", "--D")),
    "lcd_unit": (shape_lcd_unit, ("--D", "--m1")),
    "lcd": (shape_lcd, ("--D", "--norm-a", "--m-tau")),
    "no_arithmetic": (shape_no_arithmetic, ("--norm-inf", "--norm-a", "--m-tau")),
    "crossover": (shape_crossover, ("--dist", "--weights", "--L", "--eps")),
    "bernoulli_min": (shape_bernoulli_min, ("--eps", "--dstar", "--p")),
}
_LIST_FLAGS = ("--lambda-k", "--q-k", "--m-k")


def _key(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _required(args, shape: str, flags) -> list:
    """The flags' values in order, list flags parsed; a missing one is a
    precondition failure that names it."""
    values = []
    for flag in flags:
        value = getattr(args, _key(flag))
        if value is None:
            raise PreconditionError(f"shape {shape!r} requires {flag}")
        values.append(_csv_numbers(value) if flag in _LIST_FLAGS else value)
    return values


def cmd_bound(args) -> dict:
    sid = args.shape
    fn, flags = _SHAPES[sid]
    values = _required(args, sid, flags)
    if sid == "crossover":
        dist_path, weights_path, L, eps = values
        dist = load_dist(dist_path)
        weights = load_weights(weights_path)
        g = symmetrize(dist)
        dstar = args.dstar
        if dstar is None:
            dstar = lcd_search(weights, L, "d_star", tol=args.tol).value
        shape = fn(weights, g, L, eps, dstar, n_samples=args.samples, seed=args.seed)
    else:
        shape = BoundShape(sid, {_key(f): getattr(args, _key(f)) for f in flags}, fn(*values))
    return shape.to_json()


def cmd_verify(args) -> dict:
    if args.n_eps < 1:
        raise PreconditionError(f"--n-eps must be at least 1; got {args.n_eps}")
    lower = args.bound == _BINOMIAL_LOWER
    generate, tailed = _FAMILIES[args.family]
    if args.perturbed and (lower or not tailed):
        which = f"--bound {args.bound}" if lower else f"--family {args.family}"
        raise PreconditionError(f"--perturbed conflicts with {which}: no zero tail to perturb")
    s_list, p_list = _csv_numbers(args.s_list, int), _csv_numbers(args.p_list)
    if lower:
        kind, rep = args.bound, check_lower_binomial(s_list, p_list, n_eps=args.n_eps)
    else:
        fam = generate(s_list, p_list, args.perturbed)
        kind, rep = "calibration", calibrate_upper(args.bound, fam, args.L, n_eps=args.n_eps)
    return {"kind": kind, "seed": args.seed, **rep.to_json()}


def cmd_report(args) -> None:
    """Render a report's rows to the wide CSV and, given ``--out-long``, the long one.

    Both files come from one render, so a column the two share, as
    ``instance``, ``eps``, ``q``, ``shape`` and ``ratio``, is formatted once.
    """
    with open(args.infile, encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = payload.get("rows", []) if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ParseError("report JSON must be an object whose rows are objects")
    if not rows:
        raise PreconditionError("report contains no rows")
    render_csvs(rows, args.out_csv, args.out_long or None)


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
    q.add_argument("--method", choices=["auto", *_Q_METHODS], default="auto")
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
    b.add_argument("--shape", required=True, choices=list(_SHAPES))
    for flag in dict.fromkeys(f for _, flags in _SHAPES.values() for f in flags):
        text = flag in _LIST_FLAGS or flag in ("--dist", "--weights")
        b.add_argument(flag, type=None if text else float)
    b.add_argument("--tol", type=float, default=1e-6)
    b.add_argument("--samples", type=int, default=1_000_000)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bound)

    v = sub.add_parser("verify", help="family calibration / lower-bound check")
    v.add_argument("--family", choices=list(_FAMILIES), default=next(iter(_FAMILIES)))
    v.add_argument("--bound", required=True, choices=[*_RECIPES, _BINOMIAL_LOWER],
                   help=f"{_BINOMIAL_LOWER}: equal-weight vectors; no --family, --L, --perturbed")
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


@functools.lru_cache(maxsize=1)
def _parser(families: tuple, recipes: tuple) -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process and again only when
    the keys of the verify tables it offers as choices change.  Parsing
    leaves a parser unchanged, and the subcommands look up their helpers
    when they run."""
    return build_parser()


def main(argv=None) -> int:
    """Run a subcommand, write the JSON it returns to --out or stdout; the exit code."""
    args = _parser(tuple(_FAMILIES), tuple(_RECIPES)).parse_args(argv)
    try:
        result = args.func(args)
        if result is not None:
            _emit(result, args.out)
        return 0
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
