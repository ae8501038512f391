"""Batch verification and computation front end.

Every subcommand prints a deterministic report (text or JSON) and exits 0
when all assertions pass, 1 on a counterexample, 2 on a configuration
error, 3 when an internal self-check fails (one ``internal error:`` line
on stderr, no report).  Reports are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isqrt


def _parse_partition(text):
    parts = tuple(int(p) for p in text.split(",") if p)
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")
    return parts


def _parse_primes(text):
    """The comma-separated --primes list; ValueError unless all are primes."""
    try:
        primes = tuple(int(p) for p in text.split(","))
    except ValueError:
        primes = ()
    prime = [p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))
             for p in primes]
    if not primes or not all(prime):
        raise ValueError(f"--primes must be a comma-separated list of primes, "
                         f"got {text!r}")
    return primes


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.format == "text":
        lines = []
        ok = report.get("equal", report.get("ok", False))
        lines.append(f"{report.get('command', 'report')}: "
                     f"{'PASS' if ok else 'FAIL'}")
        for key in sorted(report):
            if key in ("lhs", "rhs", "command"):
                continue
            lines.append(f"  {key} = {json.dumps(report[key], sort_keys=True, default=str)}")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.get("equal", report.get("ok", False)) else 1


def cmd_verify_main(args):
    from .omega import verify_main
    report = verify_main(args.n, args.k, args.N, args.D)
    report["command"] = "verify-main"
    return _emit(report, args)


def cmd_verify_shuffle(args):
    from .shuffle import verify_shuffle
    report = verify_shuffle(args.n, args.k, args.N)
    report["command"] = "verify-shuffle"
    return _emit(report, args)


def cmd_verify_fulltwist(args):
    from .omega import verify_fulltwist, verify_fulltwist_and_hilbert
    check = verify_fulltwist_and_hilbert if args.hilbert else verify_fulltwist
    report = check(args.n, args.k, args.D)
    report["command"] = "verify-fulltwist"
    return _emit(report, args)


def cmd_verify_involution(args):
    from .involution import verify_vanishing
    report = verify_vanishing(args.n, args.k, args.D, args.N)
    report["command"] = "verify-involution"
    return _emit(report, args)


def cmd_verify_paff(args):
    from .affine import verify_paff
    report = verify_paff(args.n, args.k, args.D, args.N)
    report["command"] = "verify-paff"
    return _emit(report, args)


def cmd_verify_bundles(args):
    from .bundles import verify_bundles
    report = verify_bundles(args.n, args.k, args.N, args.D,
                            _parse_primes(args.primes), args.mmax, args.lmax,
                            args.qdegree)
    report["command"] = "verify-bundles"
    return _emit(report, args)


def cmd_verify_xi_impl(args):
    from .labels import verify_xi
    report = verify_xi(args.n)
    report["command"] = "verify-xi"
    return _emit(report, args)


def cmd_compute(args):
    from .symfunc import SymFunc
    if args.what == "macdonald":
        from .macdonald import htilde_schur
        report = {"command": "compute-macdonald", "lambda": list(args.lam),
                  "schur": str(htilde_schur(args.lam)), "equal": True}
    elif args.what == "nabla":
        from .macdonald import nabla_power
        out = nabla_power(SymFunc.e(args.n), args.k)
        report = {"command": "compute-nabla", "n": args.n, "k": args.k,
                  "monomial": str(out), "schur": str(out.convert("s")),
                  "equal": True}
    elif args.what == "omega":
        from .omega import OmegaQuery, omega_series
        series = omega_series(OmegaQuery(args.n, args.k, args.N, args.D))
        report = {"command": "compute-omega", "n": args.n, "k": args.k,
                  "N": args.N, "D": args.D,
                  "series": series.to_json(), "equal": True}
    elif args.what == "parking":
        from .shuffle import compute_parking
        report = compute_parking(args.n, args.k, args.N)
        report["command"] = "compute-parking"
    else:  # pragma: no cover
        return 2
    return _emit(report, args)


def _add_common(sub, n=True, k=True, N=False, D=False):
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--out", default=None)
    if n:
        sub.add_argument("--n", type=int, required=True)
    if k:
        sub.add_argument("--k", type=int, default=1)
    if N:
        sub.add_argument("--N", type=int, default=None,
                         help="number of variables per alphabet (default: --n)")
    if D:
        sub.add_argument("--D", "--t-degree", dest="D", type=int, default=4)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtnabla",
        description="Exact verification of the nabla-operator identities "
                    "and their combinatorial sides.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-main", help="Macdonald side vs enumerator")
    _add_common(p, N=True, D=True)
    p.set_defaults(fn=cmd_verify_main)

    p = subs.add_parser("verify-shuffle", help="parking sum vs nabla^k e_n")
    _add_common(p, N=True)
    p.set_defaults(fn=cmd_verify_shuffle)

    p = subs.add_parser("verify-fulltwist", help="exponent-sum series vs coefficient extraction")
    _add_common(p, D=True)
    p.add_argument("--hilbert", action="store_true",
                   help="also compare the squarefree coefficient with the "
                        "affine-permutation series")
    p.set_defaults(fn=cmd_verify_fulltwist)

    p = subs.add_parser("verify-involution", help="fixed points, weights, and the signed sum")
    _add_common(p, N=True, D=True)
    p.set_defaults(fn=cmd_verify_involution)

    p = subs.add_parser("verify-paff", help="triples-to-permutations bijection sweep")
    _add_common(p, N=True, D=True)
    p.set_defaults(fn=cmd_verify_paff)

    p = subs.add_parser("verify-bundles", help="counting formulas vs the finite-field oracle")
    _add_common(p, N=True, D=True)
    p.add_argument("--primes", default="2,3")
    p.add_argument("--mmax", type=int, default=2)
    p.add_argument("--lmax", type=int, default=2)
    p.add_argument("--qdegree", type=int, default=4)
    p.set_defaults(fn=cmd_verify_bundles)

    p = subs.add_parser("verify-xi", help="label generating function vs chromatic route")
    _add_common(p, k=False)
    p.set_defaults(fn=cmd_verify_xi_impl)

    p = subs.add_parser("compute", help="render one object")
    targets = p.add_subparsers(dest="what", required=True)
    t = targets.add_parser("macdonald", help="H-tilde_lambda in the Schur basis")
    _add_common(t, n=False, k=False)
    t.add_argument("--lambda", dest="lam", type=_parse_partition,
                   required=True)
    for what, N, D, text in (
            ("nabla", False, False, "nabla^k e_n"),
            ("omega", True, True, "the combinatorial series"),
            ("parking", True, False, "the parking sum and nabla^k e_n")):
        t = targets.add_parser(what, help=text)
        _add_common(t, n=False, k=False, N=N, D=D)
        t.add_argument("--n", type=int, default=1)
        t.add_argument("--k", type=int, default=1)
    p.set_defaults(fn=cmd_compute)

    return parser


def _check_sizes(args):
    """Default --N to --n, then reject any size below its least value."""
    if getattr(args, "N", 1) is None:
        args.N = args.n
    # verify-bundles compares its product identity through t-degree D - 1
    least_D = 1 if args.command == "verify-bundles" else 0
    for name, least in (("n", 1), ("k", 0), ("N", 1), ("D", least_D),
                        ("mmax", 0), ("lmax", 1), ("qdegree", 0)):
        value = getattr(args, name, least)
        if value < least:
            raise ValueError(f"--{name} must be at least {least}, got {value}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_sizes(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a failed self-check is a fault of the program, not a counterexample
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
