"""Command-line front end.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 budget refusal, 141 closed pipe.
JSON output is deterministic (sorted keys, compact separators, big integers
as decimal strings).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .asymptotics import ratio_probe
from .config import Budget, load_settings
from .core import as_offset, count_orders
from .errors import BudgetExceededError
from .oracle import oracle_count, oracle_words
from .parseval import pair_roster, parseval_lhs, parseval_numeric_check, parseval_rhs_series
from .quadrature import integral_count, quadrature_threshold
from .series import fourier_coefficient_series, ogf_w, spectral_series
from .verify import SUITES, parseval_within_bound, run_suites

SPHASE_CAVEAT = (
    "# ray-regime formula caveat: against exact counts the observed decay is "
    "lambda^(-(d-1)/2), not the formula's lambda^(-d/2); ratios in this table "
    "drift like sqrt(lambda) instead of converging (see README)."
)


def _parse_xi(text: str):
    try:
        return as_offset(tuple(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad offset vector {text!r}: {exc}")


def _parse_sweep(text: str):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("sweep list is empty")
    return values


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _word_str(word) -> str:
    if all(c <= 9 for c in word):
        return "".join(str(c) for c in word)
    return "-".join(str(c) for c in word)


def _cmd_count(args, budget: Budget) -> int:
    print(count_orders((args.n,), args.xi)[0])
    return 0


def _cmd_oracle(args, budget: Budget) -> int:
    if args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {args.limit}")
    print(oracle_count(args.n, args.xi, budget))
    if args.list:
        for word in oracle_words(args.n, args.xi, budget, limit=args.limit):
            print(_word_str(word))
    return 0


def _cmd_series(args, budget: Budget) -> int:
    xi = args.xi
    if args.ogf and args.r >= 1 and not any(c % args.r for c in xi):
        series = ogf_w(tuple(c // args.r for c in xi), args.trunc)
    else:  # by length; the zero series when r does not divide xi, refused when r < 1
        series = fourier_coefficient_series(xi, len(xi), args.r, args.trunc)
    print(_dump(series.to_json_dict()))
    return 0


def _cmd_spectral_table(args, budget: Budget) -> int:
    budget.check_spectral(args.trunc)
    table = spectral_series(args.d, args.r, args.trunc)
    print(_dump(table.to_json_dict()))
    return 0


def _cmd_quad(args, budget: Budget) -> int:
    approx = integral_count(args.n, args.xi, args.grid)
    exact = count_orders((args.n,), args.xi)[0]
    abs_err = abs(approx - exact)
    print(
        _dump(
            {
                "grid": args.grid if args.grid is not None else quadrature_threshold(args.n, args.xi),
                "integral": f"{approx:.12f}",
                "exact": str(exact),
                "abs_error": f"{abs_err:.3e}",
                "rel_error": f"{abs_err / exact:.3e}",
            }
        )
    )
    return 0


def _cmd_asympt(args, budget: Budget) -> int:
    if args.regime == "laplace":
        if args.xi is None:
            raise ValueError("laplace regime needs --xi")
        probe, params = "laplace", {"xi": args.xi}
    elif args.regime == "sphase":
        if args.xi is None:
            raise ValueError("sphase regime needs --xi")
        print(SPHASE_CAVEAT)
        probe, params = "stationary_phase", {"xi": args.xi, "n": args.n}
    else:
        probe, params = "large_d", {"n": args.n, "m": args.m}
    try:
        rows = ratio_probe(probe, args.sweep, **params)
    except OverflowError as exc:  # the float estimates are out of range; nothing was counted
        raise ValueError(f"{args.regime} {exc}") from None
    print(f"# estimate at sweep={rows[-1].sweep}: {rows[-1].estimate:.12e}")
    print("sweep,exact,estimate,ratio")
    for row in rows:
        print(f"{row.sweep},{row.exact},{row.estimate:.12e},{row.ratio:.12g}")
    return 0


def _cmd_parseval(args, budget: Budget) -> int:
    lhs = parseval_lhs(args.d, args.k, budget=budget)
    rhs = parseval_rhs_series(args.d, args.k, budget=budget)
    agree = lhs.coeffs == rhs.coeffs
    report = {
        "d": args.d,
        "k": args.k,
        "coefficients": [str(c) for c in lhs.coeffs],
        "squared_expansion_agrees": agree,
    }
    if args.d == 2 and args.k <= 2:
        report["pair_roster"] = [
            {"u": _word_str(u), "v": _word_str(v), "xi": list(xi)}
            for length in range(0, 2 * args.k + 1, 2)
            for u, v, xi in pair_roster(2, length)
        ]
    if args.numeric is not None:
        chk = parseval_numeric_check(args.d, args.numeric)
        report["numeric"] = {
            "x": args.numeric,
            "series": f"{chk.lhs:.12f}",
            "quadrature": f"{chk.rhs:.12f}",
            "tail_bound": f"{chk.tail_bound:.3e}",
            "within_bound": parseval_within_bound(chk),
        }
    if args.json:
        print(_dump(report))
    else:
        print(f"pair-count coefficients for d={args.d} (x^k indexes total length 2k):")
        for k, c in enumerate(lhs.coeffs):
            print(f"  length {2 * k:2d}: {c}")
        print(f"squared-expansion agreement: {'yes' if agree else 'NO'}")
        if "pair_roster" in report:
            print("pair roster (u, v, shared offset):")
            for entry in report["pair_roster"]:
                u = entry["u"] or "e"
                v = entry["v"] or "e"
                print(f"  ({u}, {v}) offset {tuple(entry['xi'])}")
        if "numeric" in report:
            num = report["numeric"]
            print(
                f"numeric check at x={num['x']}: series {num['series']} vs quadrature "
                f"{num['quadrature']} (tail bound {num['tail_bound']}, "
                f"{'ok' if num['within_bound'] else 'FAIL'})"
            )
    if not agree:
        return 1
    return 0


def _cmd_verify(args, budget: Budget) -> int:
    results = run_suites(args.suite)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f" -- {res.detail}" if res.detail else ""
        print(f"[{status}] {res.suite}: {res.name}{detail}")
        failures += 0 if res.passed else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offsetwords",
        description="Exact enumeration of offset words and validation of their "
        "generating-function, divisibility, quadrature and asymptotic properties.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="key=value settings file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact offset-word count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=_parse_xi, required=True, help="comma-separated offsets, e.g. 0,0,0")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("oracle", help="brute-force count (and optional listing)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=_parse_xi, required=True)
    p.add_argument("--list", action="store_true", help="also list the words")
    p.add_argument("--limit", type=int, default=1000, help="listing cap (default 1000)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("series", help="Fourier-coefficient series as JSON")
    p.add_argument("--xi", type=_parse_xi, required=True)
    p.add_argument("--r", type=int, default=1, help="power-sum exponent r (default 1)")
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument(
        "--ogf", action="store_true", help="order-indexed counts (default: indexed by length)"
    )
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("spectral-table", help="full expansion table as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--trunc", type=int, required=True)
    p.set_defaults(func=_cmd_spectral_table)

    p = sub.add_parser("quad", help="torus-grid integral vs exact count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=_parse_xi, required=True)
    p.add_argument("--grid", type=int, help="points per axis (default: exactness threshold)")
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("asympt", help="asymptotic estimate and convergence table (CSV)")
    p.add_argument("--regime", choices=("laplace", "sphase", "bigd"), required=True)
    p.add_argument("--xi", type=_parse_xi, help="offset (laplace/sphase)")
    p.add_argument("--n", type=int, default=0, help="order (sphase/bigd)")
    p.add_argument("--m", type=int, default=0, help="constant offset entry (bigd)")
    p.add_argument(
        "--sweep", type=_parse_sweep, required=True, help="comma-separated sweep values"
    )
    p.set_defaults(func=_cmd_asympt)

    p = sub.add_parser("parseval", help="pair-count coefficients and reproduction report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--numeric", type=float, help="also run the numeric check at this x")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_parseval)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = load_settings(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # exact counts are printed in full: lift Python's cap on int-to-decimal
    # digits (3.10.7+, 3.11) for this command only, and restore it after
    digit_cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args, budget)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # exit as SIGPIPE would; devnull keeps the exit-time flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_cap is not None:
            sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    sys.exit(main())
