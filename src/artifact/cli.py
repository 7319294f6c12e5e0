"""Command-line front end: coefficient queries, tables, figure data, suites.

Subcommands:
  coeff     print one exact coefficient (and its float value)
  table     export a coefficient table as CSV with exact rational strings
  figure    emit figure data (CSV): fig1 difference columns with threshold
            markers, fig2/fig3 boundary-behavior curves on an x grid
  verify    run a registered verification suite, print its JSON report
  operator  matrix demos: truncated A^n, Cesaro averages, theorem checks,
            the 2x2 worked example, seeded random stochastic matrices

Exit codes: 0 success/pass, 1 failures or runtime errors, 2 unknown suite,
a rectangle flag the suite does not read, a negative or empty rectangle, or
other bad usage.  All output is deterministic for fixed flags; only the
elapsed_s field of reports varies between runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import rational_str
from .analysis import UnknownSuiteError, run_all_suites, run_suite, thresholds
from .coeffs import alpha, beta, psi_eval
from .operators import (
    APPENDIX_T,
    MeanBoundProbeError,
    NonConvergenceError,
    Norm,
    SpectralExplosionError,
    appendix_example,
    brunel,
    cesaro,
    check_cesaro_domination,
    check_mean_bound_theorem,
    check_power_bound_theorem,
    load_matrix,
    random_stochastic,
)

FIGURE_DEFAULT_N = {"fig1": [10, 20], "fig2": [1, 5, 10, 20, 40],
                    "fig3": [1, 5, 10, 20, 40]}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def cmd_coeff(args) -> int:
    value = (alpha if args.kind == "alpha" else beta)(args.n, args.p)
    if args.format == "json":
        _emit(_json({"kind": args.kind, "n": args.n, "p": args.p,
                     "value": rational_str(value), "float": float(value)}),
              args.out)
    else:
        # Plain text uses numerator/denominator form; the decimal-preferring
        # serialization is reserved for CSV and JSON payloads.
        _emit(f"{value!s}\n{float(value)!r}", args.out)
    return 0


def cmd_table(args) -> int:
    fn = alpha if args.kind == "alpha" else beta
    if args.format == "json":
        entries = [
            {"n": n, "p": p, "value": rational_str(fn(n, p))}
            for n in range(1, args.n_max + 1)
            for p in range(args.p_max + 1)
        ]
        _emit(_json({"kind": args.kind, "entries": entries}), args.out)
        return 0
    lines = ["n,p,value"]
    for n in range(1, args.n_max + 1):
        for p in range(args.p_max + 1):
            lines.append(f"{n},{p},{rational_str(fn(n, p))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _x_grid(points: int, x_max: float) -> list[float]:
    return [i * x_max / (points - 1) for i in range(points)]


def cmd_figure(args) -> int:
    n_values = args.n or FIGURE_DEFAULT_N[args.id]
    lines = []
    if args.id == "fig1":
        lines.append("n,p,diff")
        for n in n_values:
            for p in range(args.p_max + 1):
                diff = float(alpha(n, p) - alpha(n + 1, p))
                lines.append(f"{n},{p},{diff!r}")
            K = thresholds(n).K
            if K is not None:
                lines.append(f"{n},{float(K)!r},K")
    else:
        grid = _x_grid(args.points, args.x_max)
        if args.id == "fig2":
            lines.append("n,x,absdiff")
            for n in n_values:
                for x in grid:
                    value = abs(psi_eval(x, n) - psi_eval(x, n + 1))
                    lines.append(f"{n},{x!r},{value!r}")
        else:
            lines.append("n,x,value")
            for n in n_values:
                for x in grid:
                    value = n * psi_eval(x, n) - (n + 1) * psi_eval(x, n + 1)
                    lines.append(f"{n},{x!r},{value!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    rect = {
        "n_max": args.n_max,
        "p_max": args.p_max,
        "N_max": args.N_max,
        "k_max": args.k_max,
        "P": args.P,
    }
    rect = {k: v for k, v in rect.items() if v is not None}
    try:
        if args.suite == "all":
            if rect:
                raise ValueError(
                    f"verify all runs every suite at its default rectangle; "
                    f"drop {', '.join(sorted(rect))} or name one suite"
                )
            reports = run_all_suites()
            text = _json([r.to_dict() for r in reports])
            failed = any(not r.passed for r in reports)
        else:
            report = run_suite(args.suite, **rect)
            text = report.to_json()
            failed = not report.passed
    except UnknownSuiteError as exc:
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(text, args.out)
    return 1 if failed else 0


def _operator_error(exc: Exception) -> int:
    _emit(_json({"error": type(exc).__name__, "message": str(exc)}), None)
    return 1


def cmd_operator(args) -> int:
    norm = Norm(args.norm)
    try:
        if args.action == "appendix-demo":
            ex = appendix_example(args.n or 5, eps=args.eps or 1e-10)
            _emit(_json({
                "n": ex.n,
                "S_n": ex.S_n,
                "closed_form": ex.closed_form.to_dict(),
                "series_matrix": ex.series_matrix.to_dict(),
                "max_abs_difference": ex.max_abs_difference,
                "remainder_at_J": ex.remainder_at_J,
            }), args.out)
            return 0
        if args.action == "random-stochastic":
            mat = random_stochastic(args.dim, args.seed, doubly=args.doubly)
            _emit(_json(mat.to_dict()), args.out)
            return 0
        if args.matrix:
            T = load_matrix(args.matrix)
        elif args.action == "check-mean-bound":
            # The mean-bound theorem demo targets the worked 2x2 example.
            T = APPENDIX_T
        else:
            sys.stderr.write("error: this action needs --matrix PATH\n")
            return 2
        if args.action == "brunel-power":
            result = brunel(T, args.n or 1, eps=args.eps or 1e-8, norm=norm)
            _emit(_json({
                "matrix": result.matrix.to_dict(),
                "truncation_P": result.truncation_P,
                "tail_bound": result.tail_bound,
                "norm": result.norm_used.value,
            }), args.out)
            return 0
        if args.action == "cesaro":
            _emit(_json(cesaro(T, args.N).to_dict()), args.out)
            return 0
        if args.action == "check-power-bound":
            report = check_power_bound_theorem(
                T, n_max=args.n_max or 40, eps=args.eps or 0.1, norm=norm)
        elif args.action == "check-mean-bound":
            report = check_mean_bound_theorem(
                T, n_max=args.n_max or 30, eps=args.eps or 0.1, norm=norm)
        elif args.action == "check-domination":
            report = check_cesaro_domination(
                T, N_max=args.N_max or 200, eps=args.eps or 0.05)
        else:
            sys.stderr.write(f"error: unknown operator action {args.action!r}\n")
            return 2
        _emit(report.to_json(), args.out)
        return 0 if report.passed else 1
    except (SpectralExplosionError, MeanBoundProbeError, NonConvergenceError,
            ValueError, OSError, json.JSONDecodeError) as exc:
        return _operator_error(exc)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, metavar="PATH")
    common.add_argument("--norm", choices=[n.value for n in Norm],
                        default="opinf")
    common.add_argument("--eps", type=float, default=None)
    common.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Exact psi-power coefficients, certified operator series, "
                    "and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", parents=[common],
                       help="print one exact coefficient")
    p.add_argument("--kind", choices=("alpha", "beta"), default="alpha")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("table", parents=[common],
                       help="export an exact coefficient table")
    p.add_argument("--kind", choices=("alpha", "beta"), default="alpha")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--p-max", type=int, default=40)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("figure", parents=[common], help="emit figure data CSV")
    p.add_argument("id", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--n", type=int, action="append",
                   help="repeatable; defaults depend on the figure")
    p.add_argument("--p-max", type=int, default=60)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--x-max", type=float, default=0.9999)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--p-max", type=int, default=None)
    p.add_argument("--N-max", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--P", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("operator", parents=[common], help="matrix operations")
    p.add_argument("action", choices=(
        "brunel-power", "cesaro", "check-power-bound", "check-mean-bound",
        "check-domination", "appendix-demo", "random-stochastic"))
    p.add_argument("--matrix", default=None, metavar="PATH")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--N-max", type=int, default=None)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--doubly", action="store_true")
    p.set_defaults(fn=cmd_operator)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
