"""Output checkers for the benchmark.

Every check compares a report against a closed form or against a second
route inside the same report, never against a stored copy of an earlier
output.  Each checker returns a list of problems; an empty list means the
output passed.  Coefficients are read from the public ``num``/``den``
dictionaries of the package's objects, or parsed back from the rendered
strings of a JSON report, and evaluated here with plain integers.
"""

from __future__ import annotations

import json
import re
from math import comb, factorial

# ---------------------------------------------------------------------------
# closed forms


def catalan(n):
    """The Catalan number C_n, which counts Dyck paths of size n."""
    return comb(2 * n, n) // (n + 1)


def parking_count(n, k):
    """(kn+1)^(n-1): the number of k-parking functions of size n."""
    return (k * n + 1) ** (n - 1)


def multinomial(parts):
    """|parts|! / prod(part!): the number of words with this content."""
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def content_count(n, k, parts):
    """The coefficient of x^parts in nabla^k e_n at q = t = 1.

    There nabla^k e_n becomes e_n[(kn+1)X] / (kn+1), whose x^alpha
    coefficient is prod_i binom(kn+1, alpha_i) / (kn+1).  For the
    squarefree content this is parking_count(n, k).
    """
    m = k * n + 1
    out = 1
    for p in parts:
        out *= comb(m, p)
    return out // m


def hook_count(lam):
    """f^lam, the number of standard Young tableaux, by the hook formula."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def partitions(n, most=None):
    """Partitions of n as weakly decreasing tuples, largest first."""
    most = n if most is None else most
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, most), 0, -1)
            for rest in partitions(n - first, first)]


def compositions(n, slots):
    """Weak compositions of n into the given number of slots."""
    if slots == 1:
        return [(n,)]
    return [(first,) + rest for first in range(n, -1, -1)
            for rest in compositions(n - first, slots - 1)]


# ---------------------------------------------------------------------------
# raw q,t polynomials: {(q_exp, t_exp): int}


def pd_mul(a, b):
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def swap_qt(p):
    """The polynomial with q and t exchanged."""
    return {(j, i): c for (i, j), c in p.items()}


def is_qt_symmetric(num, den):
    """num/den == swap(num)/swap(den), compared by cross-multiplication."""
    return pd_mul(num, swap_qt(den)) == pd_mul(swap_qt(num), den)


_TERM = re.compile(r"(\d+)?\s*(q(?:\^(\d+))?)?\s*(t(?:\^(\d+))?)?")


def pd_parse(text):
    """Read back a q,t polynomial rendered as "q^2 t - 3 q + 1"."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for sign, body in re.findall(r"(^-|[+-] |^)([^+-]+)", text):
        match = _TERM.fullmatch(body.strip())
        if match is None or not body.strip():
            raise ValueError(f"cannot parse the term {body!r}")
        mag, q, qe, t, te = match.groups()
        key = ((int(qe) if qe else 1) if q else 0,
               (int(te) if te else 1) if t else 0)
        out[key] = (-1 if sign.startswith("-") else 1) * int(mag or 1)
    return out


def _split_top(text, sep):
    """Split at sep where no parenthesis is open."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def symfunc_parse(text):
    """Read back a rendered symmetric function "(q + t) s[2,1] + s[3]".

    Returns {partition: (num, den)} with num and den raw polynomials.
    """
    out = {}
    if text.strip() == "0":
        return out
    for term in _split_top(text.strip(), " + "):
        coeff, _, basis = term.rpartition(" ")
        match = re.fullmatch(r"[a-zA-Z]\[([\d,]*)\]", basis)
        if match is None:
            raise ValueError(f"cannot parse the basis element {basis!r}")
        lam = tuple(int(p) for p in match.group(1).split(",") if p)
        num, den = {(0, 0): 1}, {(0, 0): 1}
        if coeff:
            if coeff.startswith("(") and coeff.endswith(")"):
                coeff = coeff[1:-1]
            if ")/(" in coeff:
                top, _, bottom = coeff.partition(")/(")
                num, den = pd_parse(top.lstrip("(")), pd_parse(bottom.rstrip(")"))
            else:
                num = pd_parse(coeff)
        out[lam] = (num, den)
    return out


def scalar_dicts(coeff):
    """(num, den) of a QtScalar, read from its public dictionaries."""
    return dict(coeff.num), dict(coeff.den)


# ---------------------------------------------------------------------------
# checkers


def check_nabla_en(coeffs, n, k, keys):
    """Check an expansion of nabla^k e_n coefficient by coefficient.

    coeffs maps an exponent vector or partition to (num, den); keys is the
    set of exponent vectors that must all be present.  Each coefficient
    must be a polynomial that is invariant under q <-> t, must equal
    content_count at q = t = 1, and its t^0 part must equal the
    multinomial coefficient at q = 1 (the area-0 parking functions are the
    words of that content).  The squarefree coefficient is also checked
    against (kn+1)^(n-1) by name.
    """
    problems = []
    if set(coeffs) != set(keys):
        problems.append(f"monomials {sorted(set(coeffs) ^ set(keys))} "
                        "missing or unexpected")
    for key, (num, den) in sorted(coeffs.items()):
        parts = [p for p in key if p]
        if den != {(0, 0): 1}:
            problems.append(f"{key}: coefficient is not a polynomial")
            continue
        if not is_qt_symmetric(num, den):
            problems.append(f"{key}: not invariant under q <-> t")
        if sum(num.values()) != content_count(n, k, parts):
            problems.append(f"{key}: {sum(num.values())} at q = t = 1, "
                            f"expected {content_count(n, k, parts)}")
        t0 = sum(c for (_, j), c in num.items() if j == 0)
        if t0 != multinomial(parts):
            problems.append(f"{key}: t^0 part {t0} at q = 1, expected "
                            f"{multinomial(parts)}")
        if parts == [1] * n and sum(num.values()) != parking_count(n, k):
            problems.append("squarefree coefficient is not (kn+1)^(n-1)")
    return problems


def check_parking_poly(poly, n, k):
    """parking_sum(n, k, n): one x-monomial per weak composition of n."""
    coeffs = {xe: scalar_dicts(c) for (xe, _), c in poly.terms.items()}
    return check_nabla_en(coeffs, n, k, compositions(n, poly.nx))


def check_m_expansion(text, n, k, N):
    """A rendered monomial-basis expansion of nabla^k e_n in N variables."""
    keys = [lam for lam in partitions(n) if len(lam) <= N]
    return check_nabla_en(symfunc_parse(text), n, k, keys)


def check_htilde_schur(text, lam):
    """H~_lam at q = t = 1 is h_1^n, so s_mu has coefficient f^mu; the
    coefficient of s_(1^n) is q^n(lam') t^n(lam)."""
    n = sum(lam)
    coeffs = symfunc_parse(text)
    conj = tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))
    nstat = (sum(i * p for i, p in enumerate(conj)),
             sum(i * p for i, p in enumerate(lam)))
    problems = []
    for mu in partitions(n):
        num, den = coeffs.get(mu, ({}, {(0, 0): 1}))
        if den != {(0, 0): 1} or sum(num.values()) != hook_count(mu):
            problems.append(f"s{list(mu)}: expected f^mu = {hook_count(mu)} "
                            "at q = t = 1")
    if coeffs.get((1,) * n, ({},))[0] != {nstat: 1}:
        problems.append("s[1^n] coefficient is not q^n(lam') t^n(lam)")
    return problems


def check_pair(report, where="report"):
    """A two-route report: its verdict holds and both sides it carries agree."""
    problems = []
    if not report.get("equal", report.get("ok", False)):
        problems.append(f"{where}: verdict is not equal/ok")
    if ("lhs" in report or "rhs" in report) and report.get("lhs") != report.get("rhs"):
        problems.append(f"{where}: lhs and rhs differ")
    if report.get("first_discrepancy") is not None:
        problems.append(f"{where}: carries a first discrepancy")
    if report.get("failures") or report.get("failure") is not None:
        problems.append(f"{where}: carries failures")
    return problems


def check_library(name, args, result):
    """Check the return value of one library call of the enumerator sweep."""
    if name == "parking_sum":
        n, k, _ = args
        return check_parking_poly(result, n, k)
    problems = check_pair(result, name)
    if name == "verify_bundle_counts" and not result.get("cases", 0) > 0:
        problems.append("verify_bundle_counts checked no case")
    if name == "verify_paff" and not result.get("triples", 0) > 0:
        problems.append("verify_paff checked no triple")
    return problems


def _flag(argv, name, default=None):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def check_cli(argv, text):
    """Check one JSON report printed by the command line front end."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    command = argv[0] if argv[0] != "compute" else "compute-" + argv[1]
    if report.get("command") != command:
        return [f"report names command {report.get('command')!r}"]
    try:
        return check_pair(report, command) + _check_command(command, argv, report)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"{command}: malformed report ({exc!r})"]


def _check_command(command, argv, report):
    problems = []
    n, k = _flag(argv, "--n"), _flag(argv, "--k", 1)
    if command == "verify-xi" and report.get("paths") != catalan(n):
        problems.append(f"verify-xi checked {report.get('paths')} paths, "
                        f"expected C_{n} = {catalan(n)}")
    elif command == "verify-shuffle":
        problems += check_m_expansion(report["parking_monomial"], n, k,
                                      _flag(argv, "--N", n))
    elif command == "compute-parking":
        if (report["parking_monomial"], report["parking_schur"]) != \
                (report["nabla_monomial"], report["nabla_schur"]):
            problems.append("compute-parking: the two routes differ")
        problems += check_m_expansion(report["nabla_monomial"], n, k,
                                      _flag(argv, "--N", n))
    elif command == "compute-nabla":
        problems += check_m_expansion(report["monomial"], n, k, n)
    elif command == "compute-macdonald":
        lam = tuple(int(p) for p in argv[argv.index("--lambda") + 1].split(","))
        problems += check_htilde_schur(report["schur"], lam)
    elif command == "verify-fulltwist" and "--hilbert" in argv:
        problems += check_pair(report["hilbert"], "hilbert")
    elif command == "verify-bundles":
        problems += check_pair(report["counts"], "counts")
        problems += check_pair(report["series"], "series")
        problems += check_pair(report["product"], "product")
        if not report["counts"]["cases"] > 0:
            problems.append("verify-bundles checked no oracle case")
    elif command == "verify-paff" and not report.get("triples", 0) > 0:
        problems.append("verify-paff checked no triple")
    return problems
