"""Command-line front end: coefficient queries, tables, figure data, suites.

Subcommands (each declares only the flags it reads; see --help):
  coeff     print one exact coefficient (and its float value)
  table     export a coefficient table as CSV or JSON with exact rational strings
  figure    emit figure data (CSV): fig1 difference columns with threshold
            markers, fig2/fig3 boundary-behavior curves on an x grid
  verify    run a registered verification suite, print its JSON report
  operator  matrix demos, one sub-command per action: truncated A^n, Cesaro
            averages, theorem checks, the 2x2 worked example, seeded random
            stochastic matrices

A flag with a library counterpart is passed on only when given, so the library
signature is the one home of its default.  Exit codes: 0 success/pass; 1
failures, an operator's runtime error as JSON on stdout, or any other
command's file error (an --out path that cannot be written) as an `error:`
line on stderr; 2 bad usage (an unread flag, an unknown suite, an
out-of-range value) on stderr, with nothing on stdout.  A reader that closes
stdout early (`| head`) ends the command quietly with exit 1.  Output is
deterministic apart from the elapsed_s of reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Iterable, Iterator

from .arith import rational_str
from .analysis import run_all_suites, run_suite, thresholds
from .coeffs import alpha, alpha_mantissa_row, beta, decimal_rows, psi_eval
from .report import dumps as _json

FIGURE_DEFAULT_N = {"fig1": [10, 20], "fig2": [1, 5, 10, 20, 40],
                    "fig3": [1, 5, 10, 20, 40]}


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or each str of an iterable in turn, to out or to stdout;
    what goes to stdout ends with a newline."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    else:
        last = ""
        for piece in pieces:
            sys.stdout.write(piece)
            last = piece or last
        if not last.endswith("\n"):
            sys.stdout.write("\n")


def _given(args, *skip: str) -> dict:
    """The flags on the command line, less the routing ones; a flag declared
    with a SUPPRESS default is absent unless given, so the library's applies."""
    skip += ("command", "action", "fn", "out")
    return {k: v for k, v in vars(args).items() if k not in skip}


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


def _table_rows(kind: str, n_max: int, p_max: int) -> Iterator[tuple[int, list[str]]]:
    """(n, [exact value of cell (n, p) for p = 0..p_max]) for each row of the
    table, printed from the exact Decimal rows of `decimal_rows`:
    alpha(n, p) = row[p], beta(n, p) = alpha(n, p-n) = row[p-n], or 0 for
    p < n.  The entries are normalized, so the fixed-point format has no
    trailing zeros and matches `rational_str`."""
    for n, row in decimal_rows(n_max, p_max):
        if kind == "alpha":
            yield n, [f"{v:f}" for v in row[:p_max + 1]]
        else:
            z = min(n, p_max + 1)
            yield n, ["0"] * z + [f"{v:f}" for v in row[:p_max + 1 - z]]


def _csv_table(rows: Iterable[tuple[int, list[str]]]) -> Iterator[str]:
    """The CSV table, one piece per row: its header, then each row's lines."""
    yield "n,p,value\n"
    for n, values in rows:
        head = f"{n},"
        yield "".join([f"{head}{p},{v}\n" for p, v in enumerate(values)])


def _json_table(kind: str, rows: Iterable[tuple[int, list[str]]]) -> Iterator[str]:
    """The layout of _json({"kind": ..., "entries": [{"n", "p", "value"}]}),
    one piece per row between the fixed header and footer: values are digits
    and a '.', so nothing needs escaping."""
    yield '{\n  "entries": [\n'
    sep = ""
    for n, values in rows:
        head = f'    {{\n      "n": {n},\n      "p": '
        yield sep + ",\n".join([f'{head}{p},\n      "value": "{v}"\n    }}'
                                for p, v in enumerate(values)])
        sep = ",\n"
    yield f'\n  ],\n  "kind": "{kind}"\n}}'


def cmd_table(args) -> int:
    if args.n_max < 1 or args.p_max < 0:
        raise ValueError(f"table needs n_max >= 1 and p_max >= 0, got "
                         f"{args.n_max} and {args.p_max}")
    rows = _table_rows(args.kind, args.n_max, args.p_max)
    _emit(_json_table(args.kind, rows) if args.format == "json" else _csv_table(rows),
          args.out)
    return 0


def _x_grid(points: int, x_max: float) -> list[float]:
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    return [i * x_max / (points - 1) for i in range(points)]


def cmd_figure(args) -> int:
    n_values = FIGURE_DEFAULT_N[args.id] if args.n is None else args.n
    lines = []
    if args.id == "fig1":
        if args.p_max < 0 or min(n_values) < 1:
            raise ValueError(f"fig1 needs n >= 1 and p_max >= 0, got "
                             f"n = {min(n_values)} and p_max = {args.p_max}")
        lines.append("n,p,diff")
        for n in n_values:
            # alpha(n, p) - alpha(n+1, p) = (2 a(n, p) - a(n+1, p)) / 2^(n+1+2p)
            rows = zip(alpha_mantissa_row(n, args.p_max),
                       alpha_mantissa_row(n + 1, args.p_max))
            for p, (a, up) in enumerate(rows):
                diff = (2 * a - up) / (1 << (n + 1 + 2 * p))
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
    rect = _given(args, "suite")
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
    _emit(text, args.out)
    return 1 if failed else 0


# Operator actions call one library function, named by the action, and
# render its result as (text, exit code).  `operators` (and numpy) loads only
# when an action runs: `cmd_operator` imports it and looks the function up there.

NORMS = ("opinf", "fro", "max")  # the values of operators.Norm, in its order


def _matrix_text(mat):
    return _json(mat.to_dict()), 0


def _report_text(report):
    return report.to_json(), 0 if report.passed else 1


def _brunel_text(r):
    return _json({"matrix": r.matrix.to_dict(), "truncation_P": r.truncation_P,
                  "tail_bound": r.tail_bound, "norm": r.norm_used.value}), 0


def _appendix_text(ex):
    return _json({"n": ex.n, "S_n": ex.S_n, "closed_form": ex.closed_form.to_dict(),
                  "series_matrix": ex.series_matrix.to_dict(),
                  "max_abs_difference": ex.max_abs_difference,
                  "remainder_at_J": ex.remainder_at_J}), 0


def cmd_operator(name, render, args) -> int:
    """Run the operator action that calls `name`; a runtime error is reported
    as JSON, exit 1."""
    from . import operators

    given = _given(args)
    if "norm" in given:
        given["norm"] = operators.Norm(given["norm"])
    try:
        if "matrix" in given:
            # optional only for check-mean-bound: its demo is the 2x2 example
            path = given.pop("matrix")
            given["T"] = (operators.APPENDIX_T if path is None
                          else operators.load_matrix(path))
        text, code = render(getattr(operators, name)(**given))
        _emit(text, args.out)
    except BrokenPipeError:
        raise  # stdout is gone: no JSON error can reach it
    except (operators.SpectralExplosionError, operators.MeanBoundProbeError,
            operators.NonConvergenceError, ValueError, OSError, MemoryError) as exc:
        _emit(_json({"error": type(exc).__name__, "message": str(exc)}), None)
        return 1
    return code


def _flag(*names: str, **kw) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for the commands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kw)
    return parent


def build_parser() -> argparse.ArgumentParser:
    library = argparse.SUPPRESS  # the default lives in the library signature
    out = _flag("--out", metavar="PATH")
    fmt = _flag("--format", choices=("csv", "json"), default="csv")
    kind = _flag("--kind", choices=("alpha", "beta"), default="alpha")
    matrix = _flag("--matrix", metavar="PATH", required=True)
    eps = _flag("--eps", type=float, default=library)
    norm = _flag("--norm", choices=NORMS, default=library)
    n_max = _flag("--n-max", type=int, default=library)

    parser = argparse.ArgumentParser(
        prog="artifact", allow_abbrev=False,
        description="Exact psi-power coefficients, certified operator series, "
                    "and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", parents=[kind, fmt, out], allow_abbrev=False,
                       help="print one exact coefficient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("table", parents=[kind, fmt, out], allow_abbrev=False,
                       help="export an exact coefficient table")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--p-max", type=int, default=40)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("figure", parents=[out], allow_abbrev=False,
                       help="emit figure data CSV")
    p.add_argument("id", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--n", type=int, action="append",
                   help="repeatable; defaults depend on the figure")
    p.add_argument("--p-max", type=int, default=60)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--x-max", type=float, default=0.9999)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("verify", parents=[n_max, out], allow_abbrev=False,
                       help="run a verification suite")
    p.add_argument("suite")
    for flag in ("--p-max", "--N-max", "--k-max", "--P"):
        p.add_argument(flag, type=int, default=library)
    p.set_defaults(fn=cmd_verify)

    actions = sub.add_parser("operator", allow_abbrev=False,
                             help="matrix operations").add_subparsers(
        dest="action", required=True)

    def action(name, call, render, *parents, help):
        a = actions.add_parser(name, parents=[*parents, out], allow_abbrev=False,
                               help=help)
        a.set_defaults(fn=partial(cmd_operator, call, render))
        return a

    a = action("brunel-power", "brunel", _brunel_text, matrix, eps, norm,
               help="truncated A^n(T) with its certified tail bound")
    a.add_argument("--n", dest="n_power", metavar="N", type=int, default=library)
    a = action("cesaro", "cesaro", _matrix_text, matrix,
               help="(I + T + ... + T^(N-1)) / N")
    a.add_argument("--N", type=int, default=8)
    action("check-power-bound", "check_power_bound_theorem", _report_text,
           matrix, n_max, eps, norm, help="power-bounded difference theorem")
    a = action("check-mean-bound", "check_mean_bound_theorem", _report_text,
               n_max, eps, norm, help="mean-bounded difference theorem")
    a.add_argument("--matrix", metavar="PATH",
                   help="defaults to the worked 2x2 example")
    a = action("check-domination", "check_cesaro_domination", _report_text,
               matrix, eps, help="entrywise Cesaro square-root domination")
    a.add_argument("--N-max", type=int, default=library)
    a = action("appendix-demo", "appendix_example", _appendix_text, eps,
               help="the worked 2x2 example, series against closed form")
    a.add_argument("--n", type=int, default=5)
    a = action("random-stochastic", "random_stochastic", _matrix_text,
               help="a seeded random stochastic matrix")
    a.add_argument("--dim", type=int, default=3)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--doubly", action="store_true", default=library)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (say `| head`); point it at devnull so the
        # flush at exit stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
