"""The parking-function side: the PF/NPF dichotomy, the rotation operator,
the truncated signed enumeration with its rotation pairing, and the final
parking-function formula for powers of nabla on e_n.

The pairwise statistic here is the reverse-frame one from the involution
module, applied to (m, a). The parking sum runs over the n! standardized
label permutations rather than the N^n label words, and expands each
descent set through the fundamental quasi-symmetric functions; the word
enumeration `parking_terms` stays for the tests, as the independent route."""

from __future__ import annotations

from itertools import product

from .scalar import QtScalar, SeriesBuilder, compare, t_series
from .involution import d_k_rev
from .labels import compositions, content
from .macdonald import nabla_en
from .symfunc import Poly, fundamental_monomials, poly_to_symfunc


def pf(m, a, i, k):
    """Parking function at i (1-based): the next column stays low, or steps
    by exactly k with a strictly larger label."""
    if not 1 <= i <= len(m) - 1:
        raise ValueError("need 1 <= i <= n-1")
    return m[i] <= m[i - 1] + k - 1 or (m[i] == m[i - 1] + k and a[i] > a[i - 1])


def npf(m, a, i, k):
    if not 1 <= i <= len(m) - 1:
        raise ValueError("need 1 <= i <= n-1")
    return m[i] > m[i - 1] + k or (m[i] == m[i - 1] + k and a[i] <= a[i - 1])


def rho(m, x):
    """The rotation: the last column moves to the front, its m bumped by one."""
    return ((m[-1] + 1,) + tuple(m[:-1]), (x[-1],) + tuple(x[:-1]))


def rho_inverse(m, x):
    if m[0] < 1:
        raise ValueError("rotation inverse needs m_1 >= 1")
    return (tuple(m[1:]) + (m[0] - 1,), tuple(x[1:]) + (x[0],))


def in_shuffle_set(l, m, a, k):
    """Membership in the dividing-line set: PF up to the seam, NPF after."""
    n = len(m)
    for i in range(1, n - l):
        if not pf(m, a, i, k):
            return False
    for i in range(n - l + 1, n):
        if not npf(m, a, i, k):
            return False
    return True


def parking_terms(n, k, N):
    """All (m, a) with m_1 = 0, labels <= N, and PF at every position."""
    def rec(m, a):
        i = len(m)
        if i == n:
            yield tuple(m), tuple(a)
            return
        for mv in range(m[-1] + k + 1):
            if mv == m[-1] + k:
                labels = range(a[-1] + 1, N + 1)
            else:
                labels = range(1, N + 1)
            for av in labels:
                m.append(mv)
                a.append(av)
                yield from rec(m, a)
                m.pop()
                a.pop()

    for a1 in range(1, N + 1):
        yield from rec([0], [a1])


def _dk_increment(m, a, mv, av, k):
    """New pairwise contributions when column (mv, av) is appended."""
    total = 0
    for mi, ai in zip(m, a):
        if mi > mv:
            v = k + mv - mi + (1 if ai > av else 0)
        else:
            v = k - 1 + mi - mv + (1 if ai < av else 0)
        if v > 0:
            total += v
    return total


def parking_sum(n, k, N):
    """The parking-function polynomial: sum of X_a t^{|m|} q^{d_k(m, a)}.

    A label word a in [N]^n is standardized to a permutation sigma by
    reading equal labels with the larger m first, and on equal m the later
    column first. The PF step and the pairwise statistic compare labels
    strictly, so they see the same thing in a and in sigma, and the words
    with standardization sigma are the monomials of the fundamental
    quasi-symmetric F_D, where D holds each j whose successor j+1 is read
    before j. So the recursion runs over paths m and at most n! label
    permutations per path instead of N^n words (the cut that makes the
    large sweeps affordable), adds the pairwise statistic column by column,
    counts (D, q-degree, t-degree) at the leaves and expands each distinct
    D into monomials once.
    """
    if k < 1:
        raise ValueError("k must be positive")
    counts = {}  # (descent set, q-deg, t-deg) -> number of (m, sigma)
    free = [True] * (n + 1)

    def rec(m, a, stat, area):
        i = len(m)
        if i == n:
            pos = [0] * (n + 1)
            for p, v in enumerate(a):
                pos[v] = p
            descents = tuple(
                j for j in range(1, n)
                if (m[pos[j + 1]], pos[j + 1]) > (m[pos[j]], pos[j]))
            key = (descents, stat, area)
            counts[key] = counts.get(key, 0) + 1
            return
        for mv in range(m[-1] + k + 1):
            low = a[-1] + 1 if mv == m[-1] + k else 1
            for av in range(low, n + 1):
                if not free[av]:
                    continue
                inc = _dk_increment(m, a, mv, av, k)
                free[av] = False
                m.append(mv)
                a.append(av)
                rec(m, a, stat + inc, area + mv)
                m.pop()
                a.pop()
                free[av] = True

    for a1 in range(1, n + 1):
        free[a1] = False
        rec([0], [a1], 0, 0)
        free[a1] = True
    by_descents = {}
    for (descents, qd, td), c in counts.items():
        by_descents.setdefault(descents, []).append(((qd, td), c))
    coeffs = {}  # x exponents -> {(q-deg, t-deg): integer}
    for descents, weights in by_descents.items():
        for exps in fundamental_monomials(n, N, descents):
            coeff = coeffs.setdefault(exps, {})
            for qt, c in weights:
                coeff[qt] = coeff.get(qt, 0) + c
    return Poly(N, 0, {(exps, ()): QtScalar(c) for exps, c in coeffs.items()})


def nabla_en_expansion(n, k, N):
    """The Macdonald side: nabla^k e_n expanded over x_1..x_N."""
    return nabla_en(n, k).expand(N, "x")


def _parking_report(n, k, N, renders):
    """nabla^k e_n against the parking sum over x_1..x_N; each key in renders,
    such as nabla_schur, renders that side in that basis. Only agreeing sides
    render the parking side, and only differing ones keep first_discrepancy."""
    sides = {"nabla": nabla_en_expansion(n, k, N),
             "parking": parking_sum(n, k, N)}
    report = compare(sides["nabla"], sides["parking"], n=n, k=k, N=N)
    if report["equal"]:
        del report["first_discrepancy"]
    for key in renders:
        side, basis = key.split("_")
        report[key] = str(poly_to_symfunc(sides[side], "x", basis[0])) \
            if report["equal"] or side == "nabla" else None
    return report


def verify_shuffle(n, k, N):
    """The parking sum against nabla^k e_n over x_1..x_N. The report renders
    nabla^k e_n in the Schur basis, and the parking sum in the monomial
    basis when the two agree."""
    return _parking_report(n, k, N, ("nabla_schur", "parking_monomial"))


def compute_parking(n, k, N):
    """The parking sum and nabla^k e_n over x_1..x_N, each rendered in the
    monomial and the Schur basis, and whether the two agree."""
    return _parking_report(n, k, N, ("nabla_monomial", "nabla_schur",
                                     "parking_monomial", "parking_schur"))


# ---------------------------------------------------------------------------
# cancellation analysis


def five_condition_witness(n, k, degree, N):
    """Search for a triple satisfying all five pairing conditions at once.

    (1A) l > 0, (2A) PF at 1 for the rotated pair when l < n,
    (1B) l < n, (2B) NPF at n-1 for the inverse rotation when l > 0,
    (3B) m_1 > 0, all inside the dividing-line set.

    The label dependence enters only through adjacent comparisons, so for
    each (l, m) the constraints reduce to a chain of {>, <=} requirements
    on consecutive labels (plus two wraparound ones), checked by a small
    dynamic program over label values; the first satisfiable case is
    materialized into an explicit witness.  Returns None when empty.
    """
    for mvec in (m for d in range(degree + 1) for m in compositions(d, n)):
        if mvec[0] < 1:
            continue  # (3B)
        for l in range(1, n):  # (1A) and (1B)
            constraints = _constraints_for(l, mvec, n, k)
            if constraints is None:
                continue
            witness = _satisfy(constraints, n, N)
            if witness is not None:
                return (l, mvec, witness)
    return None


def _constraints_for(l, m, n, k):
    """Adjacent-label constraints for membership plus (2A) and (2B).

    Returns a list of (i, j, rel) with rel in {'>', '<='} meaning
    a_j rel a_i must hold, or None when some condition fails for every a.
    """
    out = []

    def need_pf(mi, mj, i, j):
        # PF: m_j <= m_i + k - 1 free; == m_i + k needs a_j > a_i; else dead
        if mj <= mi + k - 1:
            return True
        if mj == mi + k:
            out.append((i, j, ">"))
            return True
        return False

    def need_npf(mi, mj, i, j):
        if mj > mi + k:
            return True
        if mj == mi + k:
            out.append((i, j, "<="))
            return True
        return False

    for i in range(1, n - l):  # PF_{k,i} for the set membership
        if not need_pf(m[i - 1], m[i], i, i + 1):
            return None
    for i in range(n - l + 1, n):  # NPF_{k,i}
        if not need_npf(m[i - 1], m[i], i, i + 1):
            return None
    # (2A): PF at 1 for rho(m, a): columns (m_n + 1, a_n), (m_1, a_1)
    if l < n and not need_pf(m[-1] + 1, m[0], n, 1):
        return None
    # (2B): NPF at n-1 for rho^{-1}(m, a): columns (m_n, a_n), (m_1 - 1, a_1)
    if l > 0 and not need_npf(m[-1], m[0] - 1, n, 1):
        return None
    return out


def _satisfy(constraints, n, N):
    """Find labels in 1..N meeting the adjacency constraints, or None.

    Constraints touch consecutive positions and the (n, 1) wraparound only,
    so feasibility is a forward scan over value sets for each choice of a_1.
    """
    chain = {}
    wrap = []
    for i, j, rel in constraints:
        if (i, j) == (n, 1):
            wrap.append(rel)
        else:
            chain.setdefault(i, []).append(rel)

    def allowed(prev, rels):
        vals = set(range(1, N + 1))
        for rel in rels:
            if rel == ">":
                vals &= set(range(prev + 1, N + 1))
            else:
                vals &= set(range(1, prev + 1))
        return vals

    for a1 in range(1, N + 1):
        # reach[i] maps value -> a predecessor value, for backtracking
        reach = [{a1: None}]
        for i in range(1, n):
            nxt = {}
            for prev in reach[-1]:
                for v in allowed(prev, chain.get(i, [])):
                    nxt.setdefault(v, prev)
            if not nxt:
                break
            reach.append(nxt)
        if len(reach) < n:
            continue
        for an in reach[-1]:
            ok = all((a1 > an) if rel == ">" else (a1 <= an) for rel in wrap)
            if ok:
                out = [an]
                for i in range(n - 1, 0, -1):
                    out.append(reach[i][out[-1]])
                return tuple(reversed(out))
    return None


def signed_truncated_sum(n, k, degree, N):
    """The signed dividing-line sum with rho-paired terms removed, per the
    cancellation bookkeeping, as a MonomialSeries through t-degree degree;
    exact through t-degree (degree - 1)."""
    builder = SeriesBuilder(N, 0, degree)
    for mvec in (m for d in range(degree + 1) for m in compositions(d, n)):
        for a in product(range(1, N + 1), repeat=n):
            for l in range(n + 1):
                if not in_shuffle_set(l, mvec, a, k):
                    continue
                # drop the rho-pairable terms: (1A)(2A) set and its image
                if l > 0 and (l == n or pf(*rho(mvec, a), 1, k)):
                    continue
                if l < n and mvec[0] > 0 and \
                        (l == 0 or npf(*rho_inverse(mvec, a), n - 1, k)):
                    continue
                weight = sum(mvec) + l
                if weight > degree:
                    continue
                builder.add((content(a, N), ()), weight, d_k_rev(mvec, a, k),
                            count=(-1) ** l)
    return builder.build()


def cancellation_check(n, k, degree, N):
    """(i) the five-condition set is empty; (ii) after removing rho-paired
    terms, the signed truncated sum equals the parking sum through
    t-degree (degree - 1)."""
    params = {"n": n, "k": k, "D": degree, "N": N, "witness": None}
    witness = five_condition_witness(n, k, degree, N)
    if witness is not None:
        return {**params, "ok": False, "first_discrepancy": None,
                "witness": {"l": witness[0], "m": list(witness[1]),
                            "a": list(witness[2])}}
    lhs = signed_truncated_sum(n, k, degree, N).truncate(degree - 1)
    rhs = t_series(parking_sum(n, k, N), degree - 1)
    report = compare(lhs, rhs, **params)
    report["ok"] = report.pop("equal")
    return report
