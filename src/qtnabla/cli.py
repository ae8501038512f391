"""Batch verification and computation front end.

Every subcommand prints a deterministic report (text or JSON) and exits 0
when all assertions pass, 1 on a counterexample, 2 on a configuration
error, 3 when an internal self-check fails (one ``internal error:`` line
on stderr, no report).  Reports are byte-identical across runs.

``COMMANDS`` is the one list of subcommands: a row names the library check
it runs and the options it reads, which ``OPTIONS`` defines.  The parser is
built from the two tables, and ``_run`` is the one path that checks sizes,
imports the check's module and emits its report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from itertools import chain, islice
from math import isqrt


def _parse_partition(text):
    pieces = text.split(",")
    try:
        parts = tuple(int(p) for p in pieces if p)
    except ValueError:
        parts = ()
    if len(parts) < len(pieces) or any(p <= 0 for p in parts) \
            or list(parts) != sorted(parts, reverse=True):
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")
    return parts


def _parse_primes(text):
    """The comma-separated --primes list; ValueError unless all are primes
    and none is repeated."""
    try:
        primes = tuple(int(p) for p in text.split(","))
    except ValueError:
        primes = ()
    prime = [p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))
             for p in primes]
    if not primes or not all(prime) or len(set(primes)) < len(primes):
        raise ValueError(f"--primes must be a comma-separated list of distinct "
                         f"primes, got {text!r}")
    return primes


# subcommand -> (help, module, library check, the options it reads in call
# order); the row compute-<what> is the subcommand `compute <what>`
COMMANDS = {
    "verify-main": ("Macdonald side vs enumerator", "omega", "verify_main",
                    ("n", "k", "N", "D")),
    "verify-shuffle": ("parking sum vs nabla^k e_n", "shuffle",
                       "verify_shuffle", ("n", "k", "N")),
    "verify-fulltwist": ("exponent-sum series vs coefficient extraction",
                         "omega", "verify_fulltwist", ("n", "k", "D", "hilbert")),
    "verify-involution": ("fixed points, weights, and the signed sum",
                          "involution", "verify_vanishing", ("n", "k", "D", "N")),
    "verify-paff": ("triples-to-permutations bijection sweep", "affine",
                    "verify_paff", ("n", "k", "D", "N")),
    "verify-bundles": ("counting formulas vs the finite-field oracle",
                       "bundles", "verify_bundles", ("n", "k", "N", "D>=1",
                       "primes", "mmax", "lmax", "qdegree")),
    "verify-xi": ("label generating function vs chromatic route", "labels",
                  "verify_xi", ("n",)),
    "compute-macdonald": ("H-tilde_lambda in the Schur basis", "macdonald",
                          "compute_macdonald", ("lambda",)),
    "compute-nabla": ("nabla^k e_n", "macdonald", "compute_nabla",
                      ("n=1", "k=1")),
    "compute-omega": ("the combinatorial series", "omega", "compute_omega",
                      ("n=1", "k=1", "N", "D")),
    "compute-parking": ("the parking sum and nabla^k e_n", "shuffle",
                        "compute_parking", ("n=1", "k=1", "N")),
}

# option -> (flags, argparse settings, least allowed value); each parser
# takes its options in this order
OPTIONS = {
    "n": (("--n",), {"type": int, "required": True}, 1),
    "k": (("--k",), {"type": int, "default": 1}, 0),
    "N": (("--N",), {"type": int, "default": None, "help": "number of "
                     "variables per alphabet (default: --n)"}, 1),
    "D": (("--D", "--t-degree"), {"dest": "D", "type": int, "default": 4}, 0),
    # verify-bundles compares its product identity through t-degree D - 1
    "D>=1": (("--D", "--t-degree"), {"dest": "D", "type": int, "default": 4},
             1),
    "hilbert": (("--hilbert",), {"action": "store_true", "help": "also "
                "compare the squarefree coefficient with the "
                "affine-permutation series"}, None),
    "primes": (("--primes",), {"default": "2,3"}, None),
    "mmax": (("--mmax",), {"type": int, "default": 2}, 0),
    "lmax": (("--lmax",), {"type": int, "default": 2}, 1),
    "qdegree": (("--qdegree",), {"type": int, "default": 4}, 0),
    "lambda": (("--lambda",), {"dest": "lam", "type": _parse_partition,
                               "required": True}, None),
    # compute takes --n and --k after its other options, --n defaulting to 1
    "n=1": (("--n",), {"dest": "n", "type": int, "default": 1}, 1),
    "k=1": (("--k",), {"dest": "k", "type": int, "default": 1}, 0),
}

SIZES = ("n", "k", "N", "D", "mmax", "lmax", "qdegree")  # checked in order


def _emit(report, args):
    """Write the report and a newline in pieces of 4096 JSON encoder chunks:
    no string of the whole report is built, and an unbuffered stdout is not
    written once per chunk."""
    ok = report.get("equal", report.get("ok", False))
    if args.format == "json":
        chunks = json.JSONEncoder(indent=2, sort_keys=True,
                                  default=str).iterencode(report)
    else:
        chunks = iter(["\n".join(
            [f"{report['command']}: {'PASS' if ok else 'FAIL'}"]
            + [f"  {key} = {json.dumps(report[key], sort_keys=True, default=str)}"
               for key in sorted(report) if key not in ("lhs", "rhs", "command")])])
    pieces = chain(iter(lambda: "".join(islice(chunks, 4096)), ""), ["\n"])
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
    else:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed early, which is not an error of the input:
            # point stdout at devnull so the flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtnabla",
        description="Exact verification of the nabla-operator identities "
                    "and their combinatorial sides.")
    subs = parser.add_subparsers(dest="command", required=True)
    targets = None  # compute is added at its first row, so it is listed last
    for name, (text, _, _, options) in COMMANDS.items():
        if name.startswith("compute-"):
            if targets is None:
                targets = subs.add_parser(
                    "compute", help="render one object").add_subparsers(
                        dest="what", required=True)
            sub = targets.add_parser(name[len("compute-"):], help=text)
        else:
            sub = subs.add_parser(name, help=text)
        sub.add_argument("--format", choices=("json", "text"), default="text")
        sub.add_argument("--out", default=None)
        for option, (flags, settings, _) in OPTIONS.items():
            if option in options:
                sub.add_argument(*flags, **settings)
        sub.set_defaults(row=name)
    return parser


def _run(args):
    """Default --N to --n, reject any size below its least value, parse
    --primes, then call the row's library check and emit its report."""
    _, module, check, options = COMMANDS[args.row]
    if getattr(args, "N", 1) is None:
        args.N = args.n
    dests = [OPTIONS[option][1].get("dest", option) for option in options]
    least = {dest: OPTIONS[option][2] for dest, option in zip(dests, options)}
    for name in SIZES:
        if name in least and getattr(args, name) < least[name]:
            raise ValueError(f"--{name} must be at least {least[name]}, "
                             f"got {getattr(args, name)}")
    if "primes" in options:
        args.primes = _parse_primes(args.primes)
    fn = getattr(importlib.import_module(f"qtnabla.{module}"), check)
    report = fn(*(getattr(args, dest) for dest in dests))
    report["command"] = args.row
    return _emit(report, args)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a failed self-check is a fault of the program, not a counterexample
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
